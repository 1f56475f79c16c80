"""Self-checking, gracefully degrading communication generation.

The plain :func:`~repro.commgen.pipeline.generate_communication` either
produces a placement or raises.  The :class:`HardenedPipeline` instead
*certifies* what it produces and never gives up on a parseable program:
every candidate placement is validated with the §3.2 checker over all
paths (criteria C1 balance and C3 sufficiency), all analysis work runs
under an explicit :class:`ResourceBudget`, and on any failure the
pipeline steps down a **degradation ladder**

1. ``balanced`` — the full pipeline (optimistic jump treatment,
   zero-trip hoisting), the paper's best placement;
2. ``conservative`` — §5.3 conservative jump blocking and no zero-trip
   hoisting: per-iteration regions, slower but immune to the optimistic
   mode's preconditions;
3. ``naive`` — per-reference element communication (Figure 2 left),
   which is trivially balanced: every send is immediately followed by
   its receive.

Irreducible graphs do not raise
:class:`~repro.util.errors.IrreducibleGraphError`; they are repaired by
§3.3 node splitting (within the budget) and the repair is recorded.
Which rung was chosen and *why* every higher rung was rejected is
returned as a structured :class:`DegradationReport`.

The solver backend is part of the ladder too: a solver rung that fails
under the (default) planned kernel is retried once with the
``"reference"`` backend before the pipeline steps down a rung — and a
rung running the ``"vector"`` kernel steps through ``"planned"`` first,
then ``"reference"``.  The backends are bit-identical by contract, so
the retries are pure defense in depth against a kernel-layer fault, and
every :class:`RungAttempt` records which backend produced it.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.commgen.naive import naive_communication
from repro.commgen.pipeline import generate_communication
from repro.core.checker import check_placement_dual
from repro.core.solver import DEFAULT_BACKEND
from repro.lang.printer import format_program
from repro.obs.collector import current_collector
from repro.util.errors import IrreducibleGraphError, ReproError

#: ladder rungs, best first
RUNGS = ("balanced", "conservative", "naive")


@dataclass(frozen=True)
class ResourceBudget:
    """Caps on the analysis work one hardened run may spend.

    * ``solver_rounds`` — iteration guard on the solver's backward
      consumption fixpoint (``None`` = the natural bound);
    * ``max_splits`` — node duplication budget for irreducible repair
      (``None`` = the splitter's default of four per node).
    """

    solver_rounds: Optional[int] = 64
    max_splits: Optional[int] = None


@dataclass
class RungAttempt:
    """One rung tried: did it hold, and if not, why."""

    rung: str
    ok: bool
    reason: Optional[str] = None
    #: checker summaries per (problem, criterion), e.g. "read C1"
    checks: dict = field(default_factory=dict)
    #: solver backend this attempt ran with (None for the naive rung,
    #: which never invokes the solver)
    backend: Optional[str] = None

    def __str__(self):
        state = "ok" if self.ok else f"failed: {self.reason}"
        rung = self.rung
        if self.backend and self.backend != DEFAULT_BACKEND:
            rung = f"{rung}[{self.backend}]"
        return f"{rung}: {state}"


@dataclass
class DegradationReport:
    """Structured account of one hardened run."""

    #: the rung that produced the returned placement
    rung: str
    #: why the pipeline degraded (None when the top rung held)
    reason: Optional[str]
    #: every rung tried, in ladder order, with its outcome
    attempts: list = field(default_factory=list)
    #: irreducible control flow repaired by node splitting?
    split_irreducible: bool = False
    #: (original, copy) name pairs created by the repair
    splits: list = field(default_factory=list)

    @property
    def degraded(self):
        return self.rung != RUNGS[0]

    def as_dict(self):
        """JSON-ready form (for logs and the CLI's structured output)."""
        return {
            "rung": self.rung,
            "reason": self.reason,
            "degraded": self.degraded,
            "split_irreducible": self.split_irreducible,
            "splits": list(self.splits),
            "attempts": [
                {"rung": a.rung, "ok": a.ok, "reason": a.reason,
                 "backend": a.backend, "checks": dict(a.checks)}
                for a in self.attempts
            ],
        }

    def summary(self):
        text = f"rung={self.rung}"
        if self.reason:
            text += f" (degraded: {self.reason})"
        if self.split_irreducible:
            text += f" [irreducible: {len(self.splits)} node(s) split]"
        return text


class HardenedResult:
    """A placement result plus the report of how it was obtained.

    ``result`` is the rung's own result object
    (:class:`~repro.commgen.pipeline.CommunicationResult` for the upper
    rungs, :class:`~repro.commgen.naive.NaiveResult` for the last);
    the annotated program accessors are forwarded.
    """

    def __init__(self, result, report):
        self.result = result
        self.report = report

    @property
    def rung(self):
        return self.report.rung

    @property
    def annotated_program(self):
        return self.result.annotated_program

    def annotated_source(self):
        return self.result.annotated_source()


class HardenedPipeline:
    """Run communication generation under a budget, self-check every
    placement, and degrade instead of raising (module docstring)."""

    def __init__(self, budget=None, owner_computes=False,
                 split_messages=True, solver_backend=None):
        self.budget = budget if budget is not None else ResourceBudget()
        self.owner_computes = owner_computes
        self.split_messages = split_messages
        #: primary solver backend (None = the solver default); a solver
        #: rung that fails with it is retried once with "reference"
        self.solver_backend = solver_backend

    def run(self, source):
        """Compile ``source`` down the ladder; return a
        :class:`HardenedResult`.

        Frontend errors (unparseable text, a program whose exit is
        unreachable) still raise: no placement strategy can repair a
        program that has no flow graph."""
        # The annotator mutates the AST it is given, so every rung must
        # start from pristine text.
        obs = current_collector()
        text = source if isinstance(source, str) else format_program(source)
        report = DegradationReport(rung=RUNGS[-1], reason=None)

        primary = (self.solver_backend if self.solver_backend is not None
                   else DEFAULT_BACKEND)
        for rung in RUNGS:
            if rung == "naive":
                # No solver below this rung — backend is irrelevant.
                backends = (None,)
            elif primary == "vector":
                # Extra degradation steps: the vector kernel falls back
                # to the planned kernel, then to the reference solver,
                # before giving the rung up.
                backends = ("vector", "planned", "reference")
            elif primary != "reference":
                # Extra degradation step: retry the same rung on the
                # reference solver before giving the rung up.
                backends = (primary, "reference")
            else:
                backends = (primary,)
            for backend in backends:
                attempt, result = self._attempt(rung, text, report, backend)
                report.attempts.append(attempt)
                if obs.enabled:
                    obs.event("hardened", "rung_attempt", rung=attempt.rung,
                              ok=attempt.ok, reason=attempt.reason,
                              backend=attempt.backend,
                              checks=dict(attempt.checks))
                    obs.count("hardened", "rung_attempts")
                if attempt.ok:
                    report.rung = rung
                    if rung != RUNGS[0]:
                        failed = report.attempts[0]
                        report.reason = (f"{failed.rung} rejected: "
                                         f"{failed.reason}")
                    if obs.enabled:
                        obs.event("hardened", "result", rung=report.rung,
                                  degraded=report.degraded,
                                  reason=report.reason,
                                  backend=attempt.backend,
                                  split_irreducible=report.split_irreducible,
                                  splits=len(report.splits),
                                  budget_solver_rounds=self.budget.solver_rounds)
                    return HardenedResult(result, report)
        # Unreachable: the naive rung accepts whatever the frontend
        # accepted, and frontend errors were re-raised in _attempt.
        raise AssertionError("degradation ladder exhausted")

    # -- rungs ---------------------------------------------------------------

    def _attempt(self, rung, text, report, backend=None):
        attempt = RungAttempt(rung=rung, ok=False, backend=backend)
        try:
            result = self._build(rung, text, report, backend)
        except IrreducibleGraphError:
            # First contact with irreducible flow: repair and retry the
            # same rung with splitting enabled (recorded on the report).
            report.split_irreducible = True
            try:
                result = self._build(rung, text, report, backend)
            except ReproError as error:
                attempt.reason = f"{type(error).__name__}: {error}"
                return attempt, None
        except ReproError as error:
            if rung == RUNGS[-1]:
                raise  # frontend failure: nothing further down can help
            attempt.reason = f"{type(error).__name__}: {error}"
            return attempt, None
        attempt.ok = self._certify(rung, result, attempt)
        return attempt, result if attempt.ok else None

    def _build(self, rung, text, report, backend=None):
        budget = self.budget
        if rung == "naive":
            return naive_communication(
                text, owner_computes=self.owner_computes,
                split_irreducible=report.split_irreducible,
                max_splits=budget.max_splits)
        conservative = rung == "conservative"
        result = generate_communication(
            text,
            owner_computes=self.owner_computes,
            split_messages=self.split_messages,
            hoist_zero_trip=not conservative,
            after_jumps="conservative" if conservative else "optimistic",
            split_irreducible=report.split_irreducible,
            max_splits=budget.max_splits,
            solver_rounds=budget.solver_rounds,
            solver_backend=backend,
        )
        if report.split_irreducible and not report.splits:
            report.splits = [
                (orig.name, copy.name)
                for orig, copy in getattr(result.analyzed.cfg, "splits", [])
            ]
        return result

    # -- certification -------------------------------------------------------

    def _certify(self, rung, result, attempt):
        """Validate the rung's placements with the §3.2 checker.

        The naive rung has no placement objects — each send is directly
        followed by its receive, so C1/C3 hold by construction and the
        rung certifies vacuously (the simulator's receive matching
        remains as an independent runtime check)."""
        if rung == "naive":
            attempt.checks["naive"] = "balanced by construction"
            return True
        problems = (("read", result.read_problem, result.read_placement),
                    ("write", result.write_problem, result.write_placement))
        ok = True
        for name, problem, placement in problems:
            balance, sufficiency = check_placement_dual(
                result.analyzed.ifg, problem, placement)
            c1 = balance.by_criterion("C1")
            c3 = sufficiency.by_criterion("C3")
            attempt.checks[f"{name} C1"] = f"{len(c1)} violations"
            attempt.checks[f"{name} C3"] = f"{len(c3)} violations"
            if c1 or c3:
                ok = False
                first = (c1 + c3)[0]
                attempt.reason = f"checker: {first}"
        return ok


def harden_communication(source, budget=None, owner_computes=False,
                         split_messages=True, solver_backend=None):
    """Convenience wrapper around :class:`HardenedPipeline`."""
    pipeline = HardenedPipeline(budget=budget, owner_computes=owner_computes,
                                split_messages=split_messages,
                                solver_backend=solver_backend)
    return pipeline.run(source)
