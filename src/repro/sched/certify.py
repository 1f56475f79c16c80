"""Re-certification of transformed schedules.

A schedule produced by :func:`~repro.sched.overlap.overlap_schedule`
is checked against the paper's balance and sufficiency criteria at the
task level, reusing the checker's
:class:`~repro.core.checker.Violation` / ``CheckReport`` vocabulary:

* **C1 (balance)** — every traced message still has all its send
  chunks exactly once, its receives exactly once, and no receive runs
  before the last send of its message;
* **C3 (sufficiency)** — the compute spine is intact and in order, no
  send issues before the compute its EAGER point pins it behind, every
  receive completes before each compute that consumes its data, two
  communications on a shared array keep their trace order, and the
  delivered element footprint per (kind, array) is exactly the traced
  one (missing data is a C3 violation; extra data is an O1 redundancy).

The placement-level C1/C3 check over all paths
(:func:`~repro.core.checker.check_placement`) still certifies the
underlying placements; this module certifies what the scheduler did
*after* them.
"""

from collections import Counter

from repro.core.checker import CheckReport, Violation
from repro.machine.executor import argument_elements

__all__ = ["certify_schedule"]


def _footprint(comm_kind, args):
    counter = Counter()
    for arg in args:
        array, elements = argument_elements(arg)
        counter.update(((comm_kind, array), element) for element in elements)
    return counter


def certify_schedule(schedule):
    """Check ``schedule`` against C1/C3; return a ``CheckReport``."""
    graph = schedule.graph
    tasks = schedule.tasks
    violations = []

    def violate(kind, criterion, element, message):
        violations.append(Violation(kind=kind, criterion=criterion,
                                    element=element, node=None,
                                    message=message))

    # C3: the compute spine is preserved, in order
    scheduled_spine = [t.index for t in tasks if t.kind == "compute"]
    if tuple(scheduled_spine) != graph.compute_spine:
        violate("sufficiency", "C3", "<spine>",
                "compute tasks were reordered, dropped, or duplicated")

    spine_position = {}
    for position, task in enumerate(tasks):
        if task.kind == "compute":
            spine_position[task.index] = position

    sends_of = {gid: [] for gid in graph.groups}
    recvs_of = {gid: [] for gid in graph.groups}
    for position, task in enumerate(tasks):
        if not task.is_comm():
            continue
        for gid in task.groups:
            if gid not in graph.groups:
                violate("balance", "C1", gid,
                        f"schedule references unknown message group {gid}")
                continue
            (sends_of if task.kind == "send" else recvs_of)[gid].append(
                (position, task))

    for gid, group in graph.groups.items():
        sends = sends_of.get(gid, [])
        recvs = recvs_of.get(gid, [])
        if not sends:
            violate("balance", "C1", group.sections,
                    f"message {gid} lost its send")
            continue
        if len(recvs) != len(group.recvs):
            violate("balance", "C1", group.sections,
                    f"message {gid} has {len(recvs)} receives in the "
                    f"schedule but {len(group.recvs)} in the trace")
        if recvs and max(p for p, _ in sends) > min(p for p, _ in recvs):
            violate("balance", "C1", group.sections,
                    f"a receive of message {gid} runs before its send")
        # C3: the EAGER pin — no send chunk before the pinned compute
        pin = graph.tasks[group.send].pin_after
        if pin is not None and pin in spine_position:
            if min(p for p, _ in sends) < spine_position[pin]:
                violate("sufficiency", "C3", group.sections,
                        f"a send of message {gid} was hoisted past its "
                        f"EAGER point")

    # C3: the LAZY pin — a receive completes before its consumers
    for position, task in enumerate(tasks):
        if task.kind != "recv":
            continue
        for consumer in task.consumers:
            consumer_position = spine_position.get(consumer)
            if consumer_position is not None and position > consumer_position:
                violate("sufficiency", "C3", task.args,
                        f"receive at slot {position} runs after its "
                        f"consumer compute task {consumer}")

    # C3: trace order between communications on a shared array.  A
    # task's slots are found by its preserved index (split chunks share
    # it); a send merged away by coalescing is found through its
    # message group instead.  Group keys alone would conflate the
    # partial receives of one message into a single slot range.
    by_index = {}
    by_group = {}
    for position, task in enumerate(tasks):
        if not task.is_comm():
            continue
        by_index.setdefault((task.kind, task.index), []).append(position)
        for gid in task.groups:
            by_group.setdefault((gid, task.kind), []).append(position)

    def slots_of(task):
        direct = by_index.get((task.kind, task.index))
        if direct:
            return direct
        return [position for gid in task.groups
                for position in by_group.get((gid, task.kind), ())]

    original = graph.comm_tasks()
    for i, a in enumerate(original):
        for b in original[i + 1:]:
            if not (a.arrays & b.arrays):
                continue
            a_slots = slots_of(a)
            b_slots = slots_of(b)
            a_last = max(a_slots) if a_slots else -1
            b_first = min(b_slots) if b_slots else len(tasks)
            if a_last > b_first:
                violate("sufficiency", "C3",
                        (a.args, b.args),
                        f"communication order on shared arrays "
                        f"{sorted(a.arrays & b.arrays)} was inverted")

    # C1/O1: delivered element footprint preserved, per kind and phase
    for phase, tag in (("send", "sent"), ("recv", "received")):
        scheduled = Counter()
        reference = Counter()
        for task in tasks:
            if task.kind == phase:
                scheduled += _footprint(task.comm_kind, task.args)
        for task in graph.tasks:
            if task.kind == phase:
                reference += _footprint(task.comm_kind, task.args)
        missing = reference - scheduled
        extra = scheduled - reference
        for key, count in sorted(missing.items()):
            violate("sufficiency", "C3", key,
                    f"{count} traced element(s) no longer {tag}")
        for key, count in sorted(extra.items()):
            violate("redundant", "O1", key,
                    f"{count} element(s) {tag} beyond the trace")

    return CheckReport(violations)
