"""Building the READ and WRITE GIVE-N-TAKE problems from array accesses.

The universe elements are section descriptors (value numbers).  The
initial-variable rules follow §3.1:

READ (BEFORE) problem:

* every non-owned reference *takes* its descriptor;
* every definition of a distributed array *steals* all conflicting
  descriptors of that array (their communicated copies go stale) —
  except its own descriptor, which it *gives* when the defining
  processor keeps the fresh values (no owner-computes rule);
* every definition of an array used as an indirection array *steals*
  the indirect descriptors built on it (``x(a(k))`` changes meaning
  when ``a`` changes, §4.1).

WRITE (AFTER) problem:

* every non-owned definition *takes* its descriptor (it must be written
  back to the owner);
* conflicting definitions and indirection-array definitions *steal*
  write-backs the same way (a deferred write-back must not cross them).
"""

from repro.core.problem import Direction, Problem
from repro.analysis.sections import IndirectSection, section_conflicts


def communicated_descriptors(accesses, ownership):
    """All descriptors over distributed arrays, in first-seen order."""
    result = []
    seen = set()
    for access in accesses:
        if not ownership.is_communicated_array(access.array):
            continue
        if access.descriptor not in seen:
            seen.add(access.descriptor)
            result.append(access.descriptor)
    return result


def build_read_problem(accesses, ownership, refine=True):
    """The READ instance over the program's accesses.

    ``refine`` enables symbolic disjointness when computing which
    portions a definition invalidates (the paper's §6 refinement of the
    initial variables by dependence analysis)."""
    problem = Problem(direction=Direction.BEFORE)
    universe_elements = communicated_descriptors(accesses, ownership)
    for descriptor in universe_elements:
        problem.universe.add(descriptor)
    index = _invalidation_index(universe_elements)

    for access in accesses:
        if ownership.read_needs_communication(access):
            problem.add_take(access.node, access.descriptor)
        if access.is_def:
            gives = ownership.def_gives_locally(access)
            # Under owner-computes the definition happens at the owner:
            # previously communicated copies of the *same* portion are
            # stale too, so the own descriptor is stolen, not given.
            steal_own = (
                not gives and ownership.is_communicated_array(access.array)
            )
            _apply_def_effects(problem, access, index, gives=gives,
                               steal_own=steal_own, refine=refine)
    return problem


def build_write_problem(accesses, ownership, read_placement=None, refine=True):
    """The WRITE instance over the program's accesses.

    ``read_placement`` (the solved READ placement) enables the C3
    coupling of §3.2: data must be written back to its owner *before*
    an overlapping portion is fetched from that owner, i.e. before the
    corresponding ``READ_Send``.  Each read-send site steals the
    conflicting write-backs, so the WRITE region cannot be deferred
    across it — this is what puts ``WRITE_Recv`` right before the
    ``READ_Send`` blocks in Figures 3 and 14.
    """
    problem = Problem(direction=Direction.AFTER)
    write_elements = []
    reduction_ops = {}
    for access in accesses:
        if ownership.def_needs_writeback(access):
            if access.descriptor not in write_elements:
                write_elements.append(access.descriptor)
                problem.universe.add(access.descriptor)
                reduction_ops[access.descriptor] = access.reduction
            elif reduction_ops.get(access.descriptor) != access.reduction:
                # mixed plain/reduction definitions: fall back to a
                # plain (overwriting) write-back
                reduction_ops[access.descriptor] = None
    #: descriptor -> reduction name (or None) for the annotator
    problem.reduction_ops = {d: op for d, op in reduction_ops.items() if op}

    index = _invalidation_index(write_elements)
    for access in accesses:
        if ownership.def_needs_writeback(access):
            problem.add_take(access.node, access.descriptor)
        if access.is_def:
            _apply_def_effects(problem, access, index, gives=False,
                               steal_own=False, refine=refine)

    if read_placement is not None:
        _couple_reads(problem, write_elements, read_placement, refine)
    return problem


def _couple_reads(problem, write_elements, read_placement, refine=True):
    from repro.core.problem import Timing

    reductions = getattr(problem, "reduction_ops", {})
    for production in read_placement.productions(Timing.EAGER):
        for write_descriptor in write_elements:
            # A read of the *same* portion is normally satisfied locally
            # by the give-for-free coupling and needs no ordering — but
            # a reduction write-back gives nothing (the local value is
            # partial), so even the same-portion read must wait for it.
            if any(
                (write_descriptor != read_descriptor
                 or write_descriptor in reductions)
                and section_conflicts(write_descriptor, read_descriptor,
                                      refine=refine)
                for read_descriptor in production.elements
            ):
                problem.add_steal(production.node, write_descriptor)


def _invalidation_index(universe_elements):
    """Array name -> the descriptors of ``universe_elements`` that a
    definition of the array can invalidate, in universe order: each
    descriptor under its own array and, if indirect, under its
    indirection array too (once when the two coincide, ``x(x(i))``)."""
    index = {}
    for descriptor in universe_elements:
        index.setdefault(descriptor.array, []).append(descriptor)
        if (isinstance(descriptor, IndirectSection)
                and descriptor.index_array != descriptor.array):
            index.setdefault(descriptor.index_array, []).append(descriptor)
    return index


def _apply_def_effects(problem, access, index, gives, steal_own, refine=True):
    """Steals (and optionally a give) induced by one definition, checked
    against the problem's :func:`_invalidation_index` only."""
    stolen = [descriptor for descriptor in index.get(access.array, ())
              if _def_invalidates(access, descriptor, refine)]
    if stolen:
        problem.add_steal(access.node, *stolen)
    if steal_own and access.descriptor in problem.universe:
        problem.add_steal(access.node, access.descriptor)
    if gives and access.descriptor in problem.universe:
        problem.add_give(access.node, access.descriptor)


def _def_invalidates(access, descriptor, refine=True):
    """Whether defining ``access`` makes ``descriptor`` stale."""
    if isinstance(descriptor, IndirectSection) and descriptor.index_array == access.array:
        return True  # the indirection array changed: x(a(...)) moved
    if descriptor.array != access.array:
        return False
    if descriptor == access.descriptor:
        return False  # own portion: refreshed, not destroyed (the give)
    return section_conflicts(access.descriptor, descriptor, refine=refine)
