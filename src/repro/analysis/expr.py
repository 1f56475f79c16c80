"""Symbolic affine expressions over loop indices and parameters.

A :class:`SymExpr` is a linear combination ``c0 + c1*v1 + c2*v2 + …``
with integer coefficients, enough to model every subscript in the
paper's examples (``k + 10``, ``j + 5``, ``i``).  Anything beyond that
(products of variables, division) raises :class:`NonAffineError` and is
handled conservatively by the callers.

Both classes are immutable once built: nothing assigns ``const``,
``coeffs``, ``lo`` or ``hi`` after ``__init__``, and nothing mutates
``coeffs``.  That contract lets each object build its sorted identity
key — the tuple behind ``==`` and ``hash()`` — once, on first use, and
keep it.  The cache holds the tuple, never the ``hash()`` int: a pickled
expression carries its cached slots to another process, where string
hashes differ (``PYTHONHASHSEED``), and the tuple is hashed afresh there
while a stored int would be stale.
"""

from repro.lang import ast
from repro.util.errors import AnalysisError


class NonAffineError(AnalysisError):
    """The expression is not affine in its variables."""


class SymExpr:
    """An affine symbolic expression: ``const + Σ coeffs[var] * var``."""

    __slots__ = ("const", "coeffs", "_sorted_key")

    def __init__(self, const=0, coeffs=None):
        self.const = const
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if c != 0}
        self._sorted_key = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def number(cls, value):
        return cls(const=value)

    @classmethod
    def var(cls, name):
        return cls(coeffs={name: 1})

    @classmethod
    def from_ast(cls, expr):
        """Build from an AST expression; raise NonAffineError otherwise."""
        if isinstance(expr, ast.Num):
            return cls.number(expr.value)
        if isinstance(expr, ast.Var):
            return cls.var(expr.name)
        if isinstance(expr, ast.BinOp):
            if expr.op == "+":
                return cls.from_ast(expr.left) + cls.from_ast(expr.right)
            if expr.op == "-":
                return cls.from_ast(expr.left) - cls.from_ast(expr.right)
            if expr.op == "*":
                left, right = cls.from_ast(expr.left), cls.from_ast(expr.right)
                if left.is_constant:
                    return right.scaled(left.const)
                if right.is_constant:
                    return left.scaled(right.const)
                raise NonAffineError(f"product of variables: {expr}")
            raise NonAffineError(f"operator {expr.op!r} is not affine")
        raise NonAffineError(f"cannot analyze {expr!r}")

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        return self._plus_scaled(other, 1)

    def __sub__(self, other):
        return self._plus_scaled(other, -1)

    def _plus_scaled(self, other, factor):
        """``self + factor * other``, built as one expression."""
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + factor * coeff
        return SymExpr(self.const + factor * other.const, coeffs)

    def scaled(self, factor):
        return SymExpr(self.const * factor,
                       {v: c * factor for v, c in self.coeffs.items()})

    def shifted(self, delta):
        return SymExpr(self.const + delta, self.coeffs)

    # -- queries -------------------------------------------------------------

    @property
    def is_constant(self):
        return not self.coeffs

    @property
    def variables(self):
        return set(self.coeffs)

    def coefficient(self, var):
        return self.coeffs.get(var, 0)

    def substitute(self, var, replacement):
        """Replace ``var`` by another :class:`SymExpr`."""
        coeff = self.coeffs.get(var, 0)
        if coeff == 0:
            return self
        coeffs = dict(self.coeffs)
        del coeffs[var]
        for other, other_coeff in replacement.coeffs.items():
            coeffs[other] = coeffs.get(other, 0) + coeff * other_coeff
        return SymExpr(self.const + coeff * replacement.const, coeffs)

    def substitute_range(self, var, lo, hi):
        """Replace ``var`` ranging over [lo, hi] by the induced
        :class:`SymRange` (monotone in affine expressions)."""
        return SymRange(self._extreme(var, lo, hi, upper=False),
                        self._extreme(var, lo, hi, upper=True))

    def _extreme(self, var, lo, hi, upper):
        """The least (``upper``: greatest) value as ``var`` ranges over
        [lo, hi]: the bound an affine term is monotone towards."""
        coeff = self.coeffs.get(var, 0)
        if coeff == 0:
            return self
        return self.substitute(var, hi if (coeff > 0) == upper else lo)

    def evaluate(self, env):
        """Concrete value under ``env`` (dict var -> int)."""
        value = self.const
        for var, coeff in self.coeffs.items():
            if var not in env:
                raise AnalysisError(f"unbound variable {var!r}")
            value += coeff * env[var]
        return value

    # -- identity / printing ---------------------------------------------------

    def _key(self):
        key = self._sorted_key
        if key is None:
            key = self._sorted_key = (self.const,
                                      tuple(sorted(self.coeffs.items())))
        return key

    def __eq__(self, other):
        return isinstance(other, SymExpr) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        parts = []
        for var, coeff in sorted(self.coeffs.items()):
            if coeff == 1:
                parts.append(var)
            elif coeff == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{coeff}*{var}")
        if self.const or not parts:
            parts.append(str(self.const))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self):
        return f"SymExpr({self})"


class SymRange:
    """A symbolic inclusive range ``lo:hi``."""

    __slots__ = ("lo", "hi", "_sorted_key")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi
        self._sorted_key = None

    @property
    def is_point(self):
        return self.lo == self.hi

    def substitute_range(self, var, lo, hi):
        return SymRange(self.lo._extreme(var, lo, hi, upper=False),
                        self.hi._extreme(var, lo, hi, upper=True))

    def size(self, env):
        """Number of elements under concrete bindings (>= 0)."""
        return max(0, self.hi.evaluate(env) - self.lo.evaluate(env) + 1)

    def _key(self):
        key = self._sorted_key
        if key is None:
            key = self._sorted_key = (self.lo._key(), self.hi._key())
        return key

    def __eq__(self, other):
        return isinstance(other, SymRange) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self):
        if self.is_point:
            return str(self.lo)
        return f"{self.lo}:{self.hi}"

    def __repr__(self):
        return f"SymRange({self})"
