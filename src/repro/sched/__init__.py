"""repro.sched — the latency-hiding overlap scheduler.

Turns an annotated program's EAGER/LAZY slack into measured makespan
wins: :func:`build_task_graph` traces the program into a task DAG with
explicit slack windows, :func:`overlap_schedule` hoists sends, sinks
receives, coalesces chatter, and splits bulk messages inside those
windows, :func:`certify_schedule` re-checks the result against C1/C3,
and :class:`ScheduleRunner` executes any schedule through the machine
simulator under the same fault/retry semantics as the naive run.  See
``docs/scheduling.md``.
"""

from repro.sched.certify import certify_schedule
from repro.sched.overlap import Schedule, naive_schedule, overlap_schedule
from repro.sched.runner import (
    OverlapComparison,
    ScheduleRunner,
    compare_schedules,
)
from repro.sched.taskgraph import MessageGroup, Task, TaskGraph, build_task_graph

__all__ = [
    "MessageGroup",
    "OverlapComparison",
    "Schedule",
    "ScheduleRunner",
    "Task",
    "TaskGraph",
    "build_task_graph",
    "certify_schedule",
    "compare_schedules",
    "naive_schedule",
    "overlap_schedule",
]
