"""Section descriptors — the value-numbered universe elements.

A descriptor denotes the array portion a reference touches once its
subscript is normalized against the enclosing loops:

* ``PointSection('x', 5)`` — a loop-invariant element ``x(5)``;
* ``AffineSection('x', 11:n+10)`` — ``x(k+10)`` inside ``do k = 1, n``;
* ``IndirectSection('x', 'a', 1:n)`` — ``x(a(k))`` inside the same loop.

Descriptors are frozen and hashable: *the descriptor is the value
number*.  ``x(a(k))`` and ``x(a(l))`` over equal loop ranges normalize
to the same descriptor, which is how the paper's Figure 2 merges them.

Each descriptor remembers the loop substitutions that produced it
(``subs``: var → range) so the annotator can print partial sections like
``y(a(1:i))`` when production lands on a jump landing pad (Figure 14).
"""

from repro.analysis.expr import SymRange
from repro.util.record import FrozenRecord


def _format_range(rng, partial_vars, subs):
    """Render ``rng``, narrowing substituted ranges to ``lo:var`` for
    loops in ``partial_vars`` (early exit: only iterations up to the
    current index value completed)."""
    for sub in subs:
        if sub.var in partial_vars and rng == sub.full:
            return f"{sub.lo}:{sub.var}"
    return str(rng)


def _renders_locally(subs, origin, local_vars):
    """Whether the descriptor can be printed in its original per-
    iteration form: it has loop substitutions, all of their loops
    enclose the placement point, and the original subscript is known."""
    return (bool(subs) and origin is not None
            and all(sub.var in local_vars for sub in subs))


class _Substitution(FrozenRecord):
    """Records that a loop variable was replaced by its range."""

    _fields = ("var", "lo", "hi")

    def __init__(self, var, lo, hi):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def full(self):
        return SymRange(self.lo, self.hi)


# The descriptors are universe elements, hashed and compared on every
# interning and every universe lookup, so each spells out its ``==`` and
# ``hash()`` over the compared fields (never ``subs`` or ``origin``).


class PointSection(FrozenRecord):
    """A single, loop-invariant element ``array(index)``."""

    _fields = ("array", "index")

    def __init__(self, array, index):
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.array, self.index) == (other.array, other.index)
        return NotImplemented

    def __hash__(self):
        return hash((self.array, self.index))

    @property
    def subs(self):
        return ()

    def format(self, partial_vars=frozenset(), local_vars=frozenset()):
        return f"{self.array}({self.index})"

    def size(self, env):
        return 1

    def __str__(self):
        return self.format()


class AffineSection(FrozenRecord):
    """A dense affine portion ``array(lo:hi)``.

    ``origin`` keeps the pre-normalization subscript (``k + 10``) so the
    annotator can print the per-iteration form when the production stays
    inside the substituted loops."""

    _fields = ("array", "range", "subs", "origin")

    def __init__(self, array, range, subs=(), origin=None):
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "range", range)
        object.__setattr__(self, "subs", subs)
        object.__setattr__(self, "origin", origin)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.array, self.range) == (other.array, other.range)
        return NotImplemented

    def __hash__(self):
        return hash((self.array, self.range))

    def format(self, partial_vars=frozenset(), local_vars=frozenset()):
        if _renders_locally(self.subs, self.origin, local_vars):
            return f"{self.array}({self.origin})"
        return f"{self.array}({_format_range(self.range, partial_vars, self.subs)})"

    def size(self, env):
        return self.range.size(env)

    def __str__(self):
        return self.format()


class IndirectSection(FrozenRecord):
    """An indirect portion ``array(index_array(lo:hi))``.

    The touched elements are unknown at compile time; the descriptor is
    identified by the indirection array and the range fed to it.
    """

    _fields = ("array", "index_array", "range", "subs", "origin")

    def __init__(self, array, index_array, range, subs=(), origin=None):
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "index_array", index_array)
        object.__setattr__(self, "range", range)
        object.__setattr__(self, "subs", subs)
        object.__setattr__(self, "origin", origin)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.array, self.index_array, self.range)
                    == (other.array, other.index_array, other.range))
        return NotImplemented

    def __hash__(self):
        return hash((self.array, self.index_array, self.range))

    def format(self, partial_vars=frozenset(), local_vars=frozenset()):
        if _renders_locally(self.subs, self.origin, local_vars):
            return f"{self.array}({self.index_array}({self.origin}))"
        inner = _format_range(self.range, partial_vars, self.subs)
        return f"{self.array}({self.index_array}({inner}))"

    def size(self, env):
        return self.range.size(env)

    def __str__(self):
        return self.format()


class MultiSection(FrozenRecord):
    """A multi-dimensional portion ``array(r1, r2, …)`` where each
    dimension is a :class:`SymRange` (possibly a point).

    Two multi-sections are disjoint when *any* dimension is provably
    disjoint — multi-dimensionality strengthens the §6 refinement.
    """

    _fields = ("array", "ranges", "subs", "origins")

    def __init__(self, array, ranges, subs=(), origins=None):
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "ranges", ranges)
        object.__setattr__(self, "subs", subs)
        object.__setattr__(self, "origins", origins)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.array, self.ranges) == (other.array, other.ranges)
        return NotImplemented

    def __hash__(self):
        return hash((self.array, self.ranges))

    def format(self, partial_vars=frozenset(), local_vars=frozenset()):
        if (self.origins is not None and self.subs
                and all(sub.var in local_vars for sub in self.subs)):
            inner = ", ".join(str(origin) for origin in self.origins)
            return f"{self.array}({inner})"
        inner = ", ".join(
            _format_range(rng, partial_vars, self.subs) for rng in self.ranges
        )
        return f"{self.array}({inner})"

    def size(self, env):
        total = 1
        for rng in self.ranges:
            total *= rng.size(env)
        return total

    def __str__(self):
        return self.format()


def section_conflicts(a, b, refine=True):
    """Whether two descriptors may overlap in memory.

    Conservative by default: portions of the same array conflict unless
    provably disjoint.  With ``refine=True`` (the paper's §6
    dependence-analysis refinement of the initial variables), symbolic
    disjointness is attempted too: ``x(1:n)`` and ``x(n+1:2*n)`` are
    disjoint because ``hi₁ − lo₂`` is a negative constant.
    """
    if a.array != b.array:
        return False
    if not refine:
        return True
    if isinstance(a, MultiSection) and isinstance(b, MultiSection):
        if len(a.ranges) == len(b.ranges):
            # disjoint in any one dimension -> no overlap
            return not any(
                _ranges_disjoint(ra, rb)
                for ra, rb in zip(a.ranges, b.ranges)
            )
        return True
    range_a, range_b = _section_range(a), _section_range(b)
    if range_a is not None and range_b is not None and _ranges_disjoint(
            range_a, range_b):
        return False
    return True


def _ranges_disjoint(a, b):
    return _provably_less(a.hi, b.lo) or _provably_less(b.hi, a.lo)


def _section_range(section):
    """A SymRange view of dense sections (None for indirect ones, whose
    touched elements are unknown)."""
    if isinstance(section, PointSection):
        return SymRange(section.index, section.index)
    if isinstance(section, AffineSection):
        return section.range
    return None


def _provably_less(a, b):
    """True when ``a < b`` holds for every variable assignment — i.e.
    ``a − b`` is a negative constant."""
    difference = a - b
    return difference.is_constant and difference.const < 0
