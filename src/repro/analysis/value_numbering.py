"""Normalization of array references into section descriptors.

Given a reference like ``x(a(k))`` inside ``do k = 1, n``, the subscript
is normalized against the loop context: the loop index is replaced by
its full range, yielding the descriptor ``x(a(1:n))``.  References that
normalize to the same descriptor share a value number — the basis of the
paper's subscript-value-number universe (``x(a(k))`` in the ``k`` loop
and ``x(a(l))`` in the ``l`` loop are recognized as identical).

Supported subscript shapes (everything appearing in the paper):

* affine in parameters and loop indices → Point/AffineSection,
* one level of indirection with an affine inner subscript
  (``y(a(i))``, ``y(b(k))``) → IndirectSection.

Anything else (e.g. nested indirection) falls back to a conservative
whole-array section.
"""

from repro.analysis.expr import NonAffineError, SymExpr, SymRange
from repro.analysis.sections import (
    AffineSection,
    IndirectSection,
    PointSection,
    _Substitution,
)
from repro.lang import ast
from repro.util.errors import AnalysisError
from repro.util.record import FrozenRecord


class LoopContext(FrozenRecord):
    """The stack of enclosing loops, outermost first: (var, lo, hi)."""

    _fields = ("loops",)

    def __init__(self, loops=()):
        object.__setattr__(self, "loops", loops)

    @classmethod
    def from_loops(cls, loops):
        normalized = []
        for var, lo, hi in loops:
            normalized.append((
                var,
                lo if isinstance(lo, SymExpr) else SymExpr.from_ast(lo),
                hi if isinstance(hi, SymExpr) else SymExpr.from_ast(hi),
            ))
        return cls(tuple(normalized))

    def push(self, var, lo, hi):
        """Enter a loop.  Non-affine bounds (``do i = 1, x(3)``) are
        replaced by opaque bound symbols — the section stays symbolic
        but loses printable bounds, which is all we can do."""
        return LoopContext(self.loops + ((var, _bound(lo, f"__{var}_lo"),
                                          _bound(hi, f"__{var}_hi")),))

    def variables(self):
        return [var for var, _, _ in self.loops]


def _bound(expr, fallback_name):
    if isinstance(expr, SymExpr):
        return expr
    try:
        return SymExpr.from_ast(expr)
    except NonAffineError:
        return SymExpr.var(fallback_name)


class ValueNumbering:
    """Normalizes references and interns the resulting descriptors."""

    def __init__(self, symbols):
        self.symbols = symbols
        self._interned = {}

    def _intern(self, descriptor):
        return self._interned.setdefault(descriptor, descriptor)

    def whole_array(self, array):
        """The conservative whole-array descriptor."""
        size = self.symbols.arrays[array].size
        hi = SymExpr.from_ast(size) if size is not None else SymExpr.var("ubound")
        return self._intern(AffineSection(array, SymRange(SymExpr.number(1), hi)))

    def descriptor(self, ref, context):
        """Normalize ``ref`` (an :class:`ast.ArrayRef` into a declared
        array) against ``context``; return the interned descriptor."""
        if not isinstance(ref, ast.ArrayRef) or not self.symbols.is_array(ref.name):
            raise AnalysisError(f"{ref!r} is not a declared array reference")
        if len(ref.subscripts) != 1:
            return self._multi_descriptor(ref, context)
        subscript = ref.subscripts[0]

        inner = self._indirection(subscript)
        if inner is not None:
            index_array, inner_expr = inner
            rng, subs, origin = self._normalize(inner_expr, context)
            if rng is None:
                return self.whole_array(ref.name)
            return self._intern(
                IndirectSection(ref.name, index_array, rng, subs, origin))

        try:
            expr = SymExpr.from_ast(subscript)
        except NonAffineError:
            return self.whole_array(ref.name)
        rng, subs, origin = self._normalize(expr, context)
        if rng is None:
            return self.whole_array(ref.name)
        if rng.is_point:
            return self._intern(PointSection(ref.name, rng.lo))
        return self._intern(AffineSection(ref.name, rng, subs, origin))

    def _multi_descriptor(self, ref, context):
        """Normalize a multi-dimensional reference dimension by
        dimension; indirection is only supported in one dimension at a
        time (beyond that: conservative whole array)."""
        from repro.analysis.sections import MultiSection

        ranges = []
        subs = []
        origins = []
        seen_vars = set()
        for subscript in ref.subscripts:
            rng, dim_subs, origin = self._normalize(subscript, context)
            if rng is None:
                return self.whole_array(ref.name)
            ranges.append(rng)
            origins.append(origin)
            for sub in dim_subs:
                if sub.var not in seen_vars:
                    seen_vars.add(sub.var)
                    subs.append(sub)
        return self._intern(MultiSection(ref.name, tuple(ranges), tuple(subs),
                                         tuple(origins)))

    # -- helpers -----------------------------------------------------------

    def _indirection(self, subscript):
        """Detect ``index_array(expr)`` subscripts; return (name, expr)."""
        if (isinstance(subscript, ast.ArrayRef)
                and self.symbols.is_array(subscript.name)
                and len(subscript.subscripts) == 1):
            return subscript.name, subscript.subscripts[0]
        return None

    def _normalize(self, expr, context):
        """Substitute loop indices (innermost first) by their ranges.

        Returns (SymRange, substitution records, original expression),
        or (None, None, None) when a loop bound itself is not affine.
        """
        if isinstance(expr, ast.Expr):
            try:
                expr = SymExpr.from_ast(expr)
            except NonAffineError:
                return None, None, None
        origin = expr
        rng = SymRange(expr, expr)
        subs = []
        for var, lo, hi in reversed(context.loops):
            if var in rng.lo.variables or var in rng.hi.variables:
                rng = rng.substitute_range(var, lo, hi)
                subs.append(_Substitution(var, lo, hi))
        remaining = rng.lo.variables | rng.hi.variables
        loop_vars = set(context.variables())
        if remaining & loop_vars:
            return None, None, None  # a bound referenced an inner loop var
        return rng, tuple(subs), origin
