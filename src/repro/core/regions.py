"""Production-region extraction.

A *region* is a matched pair of an EAGER production (start) and the LAZY
production that completes it, on one execution path.  The distance
between them — measured in work statements executed in between — is the
window available for latency hiding, the quantity GIVE-N-TAKE's
non-atomicity exists to maximize (paper §1, §6).

:func:`extract_regions` replays a placement along bounded paths with the
checker's trigger rules (:func:`~repro.core.paths.production_walk`) and
yields every region; C1 (balance) guarantees the pairing is well defined.
"""

from dataclasses import dataclass

from repro.core.paths import enumerate_paths, production_walk
from repro.core.problem import Timing
from repro.graph.cfg import NodeKind


@dataclass(frozen=True)
class Region:
    """One matched production region on one path.

    ``work`` counts the computational statements executed strictly
    between the EAGER start and the LAZY completion — the latency-hiding
    window.
    """

    element: object
    path_index: int
    start_step: int
    end_step: int
    work: int

    @property
    def degenerate(self):
        """True when production start and completion are adjacent (no
        hiding window) — what an atomic placement always gets."""
        return self.work == 0


def extract_regions(ifg, problem, placement, max_paths=100,
                    max_node_visits=3, min_trips=0):
    """All production regions over the bounded paths of ``ifg``."""
    paths = enumerate_paths(ifg, max_paths=max_paths,
                            max_node_visits=max_node_visits,
                            min_trips=min_trips)
    regions = []
    for index, path in enumerate(paths):
        regions.extend(_replay(ifg, problem, placement, path, index))
    return regions


def region_summary(regions):
    """(count, mean work window, share of degenerate regions)."""
    if not regions:
        return (0, 0.0, 0.0)
    total = len(regions)
    mean_work = sum(r.work for r in regions) / total
    degenerate = sum(1 for r in regions if r.degenerate) / total
    return (total, mean_work, degenerate)


def _replay(ifg, problem, placement, path, path_index):
    universe = problem.universe
    open_regions = {}  # element -> (start_step, work_at_start)
    regions = []
    work = 0

    def trigger(node, position, step):
        for element in universe.members(
                placement.bits_at(node, position, Timing.EAGER)):
            open_regions[element] = (step, work)
        for element in universe.members(
                placement.bits_at(node, position, Timing.LAZY)):
            if element in open_regions:
                start_step, work_at_start = open_regions.pop(element)
                regions.append(Region(element, path_index, start_step, step,
                                      work - work_at_start))

    for step, (node, on_arrival, on_departure) in enumerate(
            production_walk(ifg, path, problem.direction)):
        if on_arrival is not None:
            trigger(node, on_arrival, step)
        if node.kind is NodeKind.STMT:
            work += 1
        if on_departure is not None:
            trigger(node, on_departure, step)
    return regions
