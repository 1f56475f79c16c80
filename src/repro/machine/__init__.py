"""Distributed-memory machine simulator.

The paper's evaluation reasons about message counts, volume, and latency
hiding (Figure 2: N element messages vs. one vectorized message whose
latency hides behind the ``i`` loop).  The authors ran on a real
distributed-memory machine; we substitute a symbolic executor that runs
annotated programs under a simple cost model and reports exactly those
quantities (see DESIGN.md, substitutions).

* :class:`repro.machine.model.MachineModel` — latency / per-element
  cost / per-message overhead;
* :class:`repro.machine.executor.Simulator` — executes an annotated
  program under concrete bindings, pairing sends with receives;
* :class:`repro.machine.metrics.ExecutionMetrics` — messages, volume,
  work, exposed vs. hidden latency, total time;
* :class:`repro.machine.faults.FaultPlan` — seeded fault injection
  (drop/duplicate/jitter/crash) recovered by the
  :class:`repro.machine.model.RetryPolicy` timeout-and-backoff protocol
  (see ``docs/robustness.md``).
"""

from repro.util.lazy import lazy_exports

#: Exports by owning module, imported on first read (``repro.util.lazy``).
_EXPORTS = {
    "repro.machine.model": ("MachineModel", "RetryPolicy"),
    "repro.machine.executor": ("Simulator", "ConditionPolicy", "simulate"),
    "repro.machine.faults": ("FaultDecision", "FaultPlan", "FaultState"),
    "repro.machine.metrics": ("ExecutionMetrics",),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
