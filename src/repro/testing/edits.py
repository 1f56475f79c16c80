"""Seeded source-level edits for edit-stream testing.

A ``compile_delta`` of an edited program (``docs/scaling.md``) must be
*byte-identical* to a cold compile of the same text and report which
intervals the edit touched.  Exercising that promise needs a stream of
realistic edits over the generator corpus; :class:`EditModel` produces
them, seeded and deterministic:

* ``scalar_rhs`` — bump the trailing constant addend of an assignment
  (``xb(3) = xb(3) + 1`` → ``+ 8``): the statement text changes but no
  array reference does, so the solver *problems* are unchanged;
* ``subscript`` — change a constant subscript of a distributed array
  (``xa(3)`` → ``xa(7)``): the problem in the enclosing interval
  changes;
* ``insert`` — add a fresh opaque assignment after a random statement:
  the flow graph grows a node;
* ``delete`` — remove a generated scalar load (``v5 = xa(i)``):
  structure *and* problem change together.

Every edit is validated by re-analyzing the edited text; an edit that
would break the program (e.g. deleting the only statement of a branch)
is discarded and another candidate drawn.  All choices come from the
seeded :class:`random.Random`, so an edit sequence is reproducible from
``(corpus seed, edit seed)`` alone.
"""

import random
import re

from repro.testing.programs import analyze_source

#: The distributed arrays of the generator corpus
#: (:class:`~repro.testing.generator.ArrayProgramGenerator`); only
#: their references carry communication, so only their edits change
#: solver problems.
DISTRIBUTED_ARRAYS = ("xa", "xb")

_TRAILING_ADDEND = re.compile(r" \+ (\d+)$")
_SCALAR_LOAD = re.compile(r"^ *v\d+ = ")
_ASSIGNMENT = re.compile(r"^( *)\w[\w(), +]* = ")
_LABELLED = re.compile(r"^ *\d+ ")

EDIT_KINDS = ("scalar_rhs", "subscript", "insert", "delete")


class EditModel:
    """Draw seeded, validated edits over formatted mini-Fortran text."""

    def __init__(self, seed=0):
        self.rng = random.Random(seed)
        self._fresh = 0

    # -- candidates -------------------------------------------------------

    def _valid(self, lines):
        text = "\n".join(lines) + "\n"
        try:
            analyze_source(text)
        except Exception:
            return None
        return text

    def _try_candidates(self, lines, candidates, apply):
        """Apply ``apply`` to candidates in random order until one
        survives re-analysis; return the edited text or ``None``."""
        self.rng.shuffle(candidates)
        for candidate in candidates:
            edited = apply(list(lines), candidate)
            if edited is None:
                continue
            text = self._valid(edited)
            if text is not None:
                return text
        return None

    # -- edit kinds -------------------------------------------------------

    def scalar_rhs(self, text):
        """Bump a trailing ``+ <int>`` addend (problem-preserving)."""
        lines = text.splitlines()
        candidates = [i for i, line in enumerate(lines)
                      if _TRAILING_ADDEND.search(line)]

        def apply(edited, index):
            match = _TRAILING_ADDEND.search(edited[index])
            old = int(match.group(1))
            new = self.rng.choice([n for n in range(1, 10) if n != old])
            edited[index] = _TRAILING_ADDEND.sub(f" + {new}", edited[index])
            return edited

        return self._try_candidates(lines, candidates, apply)

    def subscript(self, text):
        """Change a constant subscript of a distributed array
        (problem-changing)."""
        pattern = re.compile(
            r"\b(%s)\((\d+)\)" % "|".join(DISTRIBUTED_ARRAYS))
        lines = text.splitlines()
        candidates = [i for i, line in enumerate(lines)
                      if pattern.search(line)]

        def apply(edited, index):
            match = pattern.search(edited[index])
            old = int(match.group(2))
            new = self.rng.choice([n for n in range(1, 10) if n != old])
            edited[index] = (edited[index][:match.start(2)] + str(new)
                             + edited[index][match.end(2):])
            return edited

        return self._try_candidates(lines, candidates, apply)

    def insert(self, text):
        """Insert a fresh opaque assignment (structure-changing)."""
        lines = text.splitlines()
        candidates = [i for i, line in enumerate(lines)
                      if _ASSIGNMENT.match(line)
                      and not _LABELLED.match(line)]

        def apply(edited, index):
            indent = _ASSIGNMENT.match(edited[index]).group(1)
            self._fresh += 1
            edited.insert(index + 1, f"{indent}q{self._fresh} = ...")
            return edited

        return self._try_candidates(lines, candidates, apply)

    def delete(self, text):
        """Delete a generated scalar load (structure- and
        problem-changing)."""
        lines = text.splitlines()
        candidates = [i for i, line in enumerate(lines)
                      if _SCALAR_LOAD.match(line)
                      and not _LABELLED.match(line)]

        def apply(edited, index):
            del edited[index]
            return edited

        return self._try_candidates(lines, candidates, apply)

    # -- sequences --------------------------------------------------------

    def random_edit(self, text, kinds=EDIT_KINDS):
        """One applicable edit of a random kind; returns ``(kind,
        edited_text)``.  Raises :class:`ValueError` when no kind
        applies (practically impossible on generator programs)."""
        order = list(kinds)
        self.rng.shuffle(order)
        for kind in order:
            edited = getattr(self, kind)(text)
            if edited is not None and edited != text:
                return kind, edited
        raise ValueError("no edit kind applies to this program")

    def edit_sequence(self, text, n, kinds=EDIT_KINDS):
        """``n`` cumulative edits; yields ``(kind, edited_text)`` with
        each edit applied on top of the previous one."""
        current = text
        for _ in range(n):
            kind, current = self.random_edit(current, kinds=kinds)
            yield kind, current
