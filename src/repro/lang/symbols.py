"""Symbol table for mini-Fortran programs.

Collects array declarations, ``parameter`` constants and ``distribute``
directives, and classifies ``name(args)`` expressions as array references
versus opaque function calls (``test(i)`` in the paper's figures is a call,
``y(a(i))`` a reference into a declared array).
"""

from enum import Enum

from repro.lang import ast
from repro.util.errors import AnalysisError
from repro.util.record import Record


class Distribution(Enum):
    """How an array is mapped across processors."""

    BLOCK = "block"
    CYCLIC = "cyclic"
    REPLICATED = "replicated"


class ArrayInfo(Record):
    """Declared array: element type, symbolic size, distribution."""

    _fields = ("name", "type_name", "size", "distribution")

    def __init__(self, name, type_name, size,
                 distribution=Distribution.REPLICATED):
        self.name = name
        self.type_name = type_name
        self.size = size
        self.distribution = distribution

    @property
    def is_distributed(self):
        return self.distribution is not Distribution.REPLICATED


class SymbolTable:
    """Symbols of one program.

    ``arrays`` maps names to :class:`ArrayInfo`; ``parameters`` maps names
    to their defining expressions; ``scalars`` is the set of declared
    scalar names.  Undeclared names used with parentheses are treated as
    opaque calls, matching the paper's use of ``test(i)``.
    """

    def __init__(self):
        self.arrays = {}
        self.parameters = {}
        self.scalars = set()

    @classmethod
    def from_program(cls, program):
        """Build a symbol table from a parsed program's declarations."""
        table = cls()
        for stmt in program.body:
            if isinstance(stmt, ast.Declaration):
                table.declare(stmt.type_name, stmt.name, stmt.size)
            elif isinstance(stmt, ast.ParameterDef):
                table.parameters[stmt.name] = stmt.value
            elif isinstance(stmt, ast.Distribute):
                table.distribute(stmt.name, stmt.scheme)
        return table

    def declare(self, type_name, name, size):
        """Register a declaration; arrays have a size, scalars do not."""
        if size is None:
            self.scalars.add(name)
        else:
            if name in self.arrays:
                raise AnalysisError(f"array {name!r} declared twice")
            self.arrays[name] = ArrayInfo(name, type_name, size)

    def distribute(self, name, scheme):
        """Apply a ``distribute`` directive to a declared array."""
        if name not in self.arrays:
            raise AnalysisError(f"distribute of undeclared array {name!r}")
        self.arrays[name].distribution = Distribution(scheme)

    def is_array(self, name):
        return name in self.arrays

    def is_distributed(self, name):
        return name in self.arrays and self.arrays[name].is_distributed

    def distributed_arrays(self):
        """Names of all non-replicated arrays, in declaration order."""
        return [name for name, info in self.arrays.items() if info.is_distributed]

    def classify_ref(self, expr):
        """Classify an :class:`ast.ArrayRef` as ``"array"`` or ``"call"``."""
        if not isinstance(expr, ast.ArrayRef):
            raise TypeError(f"expected ArrayRef, got {expr!r}")
        return "array" if self.is_array(expr.name) else "call"
