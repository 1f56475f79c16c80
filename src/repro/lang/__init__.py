"""Mini-Fortran frontend.

This package implements a small Fortran-like language that is just large
enough to express every example program in the GIVE-N-TAKE paper (Figures
1, 3, 11) plus declarations and distribution directives needed by the
communication-generation application:

* ``do`` loops with symbolic bounds (potentially zero-trip),
* block ``if/then/else/endif`` and logical ``if (cond) goto L``,
* numeric statement labels and ``goto`` (jumps out of loops),
* assignments with array references, affine subscripts (``x(k+10)``) and
  indirect subscripts (``y(a(i))``),
* the opaque expression ``...`` used throughout the paper's figures,
* declarations ``real x(100)``, ``integer a(100)``, ``parameter n = 100``
  and the directive ``distribute x(block)``.

Entry points: :func:`parse` for source text and :func:`repro.lang.printer.
format_program` to regenerate it.
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``);
#: ``ast`` is the submodule :mod:`repro.lang.ast` itself.
_EXPORTS = {
    "repro.lang": ("ast",),
    "repro.lang.lexer": ("tokenize",),
    "repro.lang.parser": ("parse",),
    "repro.lang.printer": ("format_program", "format_statement",
                           "format_expr"),
    "repro.lang.symbols": ("SymbolTable", "ArrayInfo", "Distribution"),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
