"""Executing a schedule on the machine model.

:class:`ScheduleRunner` *is* a :class:`~repro.machine.executor.Simulator`
— same clock, same message overhead and transfer model, same
FaultPlan/RetryPolicy recovery protocol, same obs timeline events —
except that instead of walking the AST it replays a task list.  Running
the naive schedule therefore reproduces the plain simulation exactly
(to the bit, fault rolls included), which is what makes the overlap
schedule's makespan and final machine state directly comparable.

:func:`compare_schedules` is the one-call differential harness: trace
the program, build the overlap schedule, certify it, run both schedules
under identical fault plans, and report makespans plus whether the
final machine states are identical.
"""

from dataclasses import dataclass

from repro.machine.executor import ConditionPolicy, Simulator
from repro.sched.certify import certify_schedule
from repro.sched.overlap import overlap_schedule
from repro.sched.taskgraph import build_task_graph

__all__ = ["ScheduleRunner", "OverlapComparison", "compare_schedules"]


class ScheduleRunner(Simulator):
    """Drives a :class:`~repro.sched.overlap.Schedule` through the
    simulator's issue/complete machinery in schedule order."""

    def __init__(self, schedule, machine=None, faults=None, retry=None):
        super().__init__(schedule.graph.program, machine,
                         dict(schedule.graph.env), None, faults, retry)
        self.schedule = schedule

    def run(self):
        for task in self.schedule.tasks:
            if task.kind == "compute":
                self._work()
            elif task.kind == "send":
                self._issue(task.comm_kind, list(task.args))
            else:
                self._complete(task.comm_kind, list(task.args))
        self._finish_run()
        return self.metrics


@dataclass
class OverlapComparison:
    """Differential result of overlap-vs-naive under one fault plan."""

    naive: object             # ExecutionMetrics
    overlap: object           # ExecutionMetrics
    naive_state: dict
    overlap_state: dict
    schedule: object
    certification: object     # CheckReport

    @property
    def states_match(self):
        return self.naive_state == self.overlap_state

    @property
    def certified(self):
        return self.certification.ok()

    @property
    def speedup(self):
        if self.overlap.total_time == 0:
            return 1.0 if self.naive.total_time == 0 else float("inf")
        return self.naive.total_time / self.overlap.total_time

    def summary(self):
        verdict = "identical" if self.states_match else "DIVERGED"
        certified = "ok" if self.certified else "VIOLATED"
        line = (
            f"makespan {self.overlap.total_time:.0f} vs "
            f"{self.naive.total_time:.0f} naive ({self.speedup:.2f}x) "
            f"hidden={self.overlap.hidden_latency:.0f} "
            f"exposed={self.overlap.exposed_latency:.0f} "
            f"wire_busy={self.overlap.wire_busy_time:.0f} "
            f"state={verdict} certified={certified}"
        )
        stats = self.schedule.stats
        if stats:
            line += " " + " ".join(f"{k}={v}" for k, v in sorted(stats.items()))
        return line


def compare_schedules(program, machine=None, bindings=None, *,
                      branch="never", seed=0, faults=None, retry=None,
                      coalesce=True, split=True, split_threshold=None,
                      max_chunks=16):
    """Build, certify, and differentially run the overlap schedule.

    The trace and the naive simulation get separately-constructed
    :class:`ConditionPolicy` instances with the same mode and seed, so
    both resolve opaque branches identically; ``faults`` (a
    :class:`~repro.machine.faults.FaultPlan`) seeds a fresh fault
    stream for each run.
    """
    graph = build_task_graph(program, machine, bindings,
                             ConditionPolicy(branch, seed))
    schedule = overlap_schedule(graph, machine, coalesce=coalesce,
                                split=split, split_threshold=split_threshold,
                                max_chunks=max_chunks)
    certification = certify_schedule(schedule)
    naive_sim = Simulator(program, machine, bindings,
                          ConditionPolicy(branch, seed), faults, retry)
    naive_metrics = naive_sim.run()
    runner = ScheduleRunner(schedule, machine, faults, retry)
    overlap_metrics = runner.run()
    return OverlapComparison(
        naive=naive_metrics,
        overlap=overlap_metrics,
        naive_state=naive_sim.machine_state(),
        overlap_state=runner.machine_state(),
        schedule=schedule,
        certification=certification,
    )
