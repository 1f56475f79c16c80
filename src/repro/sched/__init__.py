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

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.sched.certify": ("certify_schedule",),
    "repro.sched.overlap": ("Schedule", "naive_schedule", "overlap_schedule"),
    "repro.sched.runner": (
        "OverlapComparison",
        "ScheduleRunner",
        "compare_schedules",
    ),
    "repro.sched.taskgraph": (
        "MessageGroup",
        "Task",
        "TaskGraph",
        "build_task_graph",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
__all__.sort()
