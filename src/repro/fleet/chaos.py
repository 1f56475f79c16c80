"""Seeded chaos for the compile fleet (``docs/robustness.md``).

The service-level sibling of the machine simulator's
:class:`~repro.machine.faults.FaultPlan`: where that plan makes the
*simulated machine* unreliable (dropped messages, node crashes), a
:class:`ChaosPlan` makes the *compile fleet itself* unreliable — it
scripts real failures against a live :class:`~repro.fleet.harness.LocalFleet`
while a load driver keeps compiling through the router:

* ``kill_shard`` — a shard dies mid-flight (connections reset, workers
  shot, nothing drained); the router's breaker opens and its keys
  fail over down the ring;
* ``crash_worker`` — one pool worker inside a live shard dies; the
  shard supervises (rebuild + requeue once) without the router ever
  noticing;
* ``sever`` — every open connection is aborted at once (clients into
  the router, clients into shards); in-flight requests are resent;
* ``delay`` — a shard's workers are held busy, turning it into a
  straggler (what hedging exists to beat).

Like ``FaultPlan``, the plan is frozen, seeded configuration:
:meth:`ChaosPlan.script` expands it into a deterministic event schedule
(same seed → same schedule), placed over the middle of the request
stream so the run warms up and settles down clean.  :func:`run_chaos`
drives a corpus through :meth:`~repro.service.client.ServiceClient.compile_retrying`
while a :class:`ChaosController` fires due events between requests, and
reports what survived — the benchmark gate
(``python -m repro.obs.bench --fleet``) then checks every reply against
a direct in-process compile, byte for byte.
"""

import random
import time
from dataclasses import dataclass

from repro.service.client import ServiceClient
from repro.util.errors import FaultSpecError

#: Event actions, mapped onto :class:`~repro.fleet.harness.LocalFleet`
#: chaos primitives by the controller.
ACTIONS = ("kill_shard", "crash_worker", "sever", "delay")


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted failure: fire before request ``at_request``."""

    at_request: int
    action: str
    shard: int = None
    seconds: float = 0.0

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise FaultSpecError(
                f"unknown chaos action {self.action!r} "
                f"(expected one of {', '.join(ACTIONS)})")

    def as_dict(self):
        payload = {"at_request": self.at_request, "action": self.action}
        if self.shard is not None:
            payload["shard"] = self.shard
        if self.seconds:
            payload["seconds"] = self.seconds
        return payload


@dataclass(frozen=True)
class ChaosPlan:
    """Seeded chaos configuration: how many of each failure to script.

    ``kills`` is clamped so at least one shard always survives — a
    fleet with zero live shards has no correct behavior to verify,
    only unavailability."""

    seed: int = 0
    kills: int = 1
    worker_crashes: int = 1
    severs: int = 1
    delays: int = 0
    delay_s: float = 0.5

    def __post_init__(self):
        for name in ("kills", "worker_crashes", "severs", "delays"):
            if getattr(self, name) < 0:
                raise FaultSpecError(f"{name} must be >= 0")
        if self.delay_s < 0:
            raise FaultSpecError("delay_s must be >= 0")

    @property
    def active(self):
        """Whether this plan can inject anything at all."""
        return bool(self.kills or self.worker_crashes or self.severs
                    or self.delays)

    def script(self, n_shards, n_requests):
        """Expand the plan into a deterministic event schedule.

        Events land in the middle three fifths of the request stream
        (warmup and tail run clean).  Killed shards are chosen first
        and never more than ``n_shards - 1`` of them; worker crashes
        and delays target shards that are never killed, so every
        scripted event is applicable when it fires."""
        rng = random.Random(self.seed)
        low = max(1, n_requests // 5)
        high = max(low + 1, (4 * n_requests) // 5)

        def position():
            return rng.randrange(low, high)

        kills = min(self.kills, n_shards - 1)
        killed = rng.sample(range(n_shards), kills)
        survivors = [s for s in range(n_shards) if s not in killed]
        events = []
        for shard in killed:
            events.append(ChaosEvent(position(), "kill_shard", shard=shard))
        for _ in range(self.worker_crashes):
            events.append(ChaosEvent(position(), "crash_worker",
                                     shard=rng.choice(survivors)))
        for _ in range(self.severs):
            events.append(ChaosEvent(position(), "sever"))
        for _ in range(self.delays):
            events.append(ChaosEvent(position(), "delay",
                                     shard=rng.choice(survivors),
                                     seconds=self.delay_s))
        return sorted(events, key=lambda event: (event.at_request,
                                                 event.action))


class ChaosController:
    """Fire scripted events against a live fleet as the load advances.

    A failed injection (the target shard raced into an unexpected
    state) is recorded under ``applied`` with an ``error`` — chaos that
    misfires should show up in the report, not kill the run."""

    def __init__(self, fleet, events):
        self.fleet = fleet
        self._pending = sorted(events, key=lambda e: e.at_request)
        self.applied = []

    def advance(self, request_index):
        """Fire every event due at or before ``request_index``."""
        while self._pending and self._pending[0].at_request <= request_index:
            event = self._pending.pop(0)
            record = event.as_dict()
            try:
                record["detail"] = self._apply(event)
            except Exception as error:
                record["error"] = f"{type(error).__name__}: {error}"
            self.applied.append(record)

    def _apply(self, event):
        fleet = self.fleet
        if event.action == "kill_shard":
            return fleet.kill_shard(event.shard)
        if event.action == "crash_worker":
            return fleet.crash_worker(event.shard)
        if event.action == "sever":
            return fleet.sever()
        return fleet.delay_shard(event.shard, seconds=event.seconds)


def run_chaos(fleet, programs, plan, deadline_s=None, options=None,
              timeout_s=60.0):
    """Drive ``programs`` (``(name, source)`` pairs) through ``fleet``'s
    router while ``plan`` (a :class:`ChaosPlan` or a pre-scripted event
    list) fires; returns the full report.

    Every request goes through
    :meth:`~repro.service.client.ServiceClient.compile_retrying`, so
    the client rides out resets, refused dials, and ``unavailable``
    replies the same way a polite production client would.  A request
    that still fails after all retries is **lost** — the report counts
    it, and the benchmark gate requires zero."""
    programs = list(programs)
    events = (plan.script(len(fleet.shards), len(programs))
              if isinstance(plan, ChaosPlan) else list(plan))
    controller = ChaosController(fleet, events)
    results = []
    lost = 0
    started = time.perf_counter()
    with ServiceClient(port=fleet.port, timeout_s=timeout_s) as client:
        for index, (name, source) in enumerate(programs):
            controller.advance(index)
            t0 = time.perf_counter()
            try:
                result = client.compile_retrying(
                    source, name=name, deadline_s=deadline_s,
                    options=options)
            except Exception as error:
                lost += 1
                results.append({
                    "name": name, "lost": True,
                    "error": f"{type(error).__name__}: {error}",
                    "latency_s": time.perf_counter() - t0,
                })
            else:
                results.append({
                    "name": name, "lost": False, "result": result,
                    "latency_s": time.perf_counter() - t0,
                })
        controller.advance(len(programs))  # flush any tail events
    supervision = {"pool_rebuilds": 0, "requeued": 0}
    for index in fleet.alive_shards():
        metrics = fleet.shards[index].service.metrics
        supervision["pool_rebuilds"] += metrics.pool_rebuilds
        supervision["requeued"] += metrics.requeued
    return {
        "requests": len(programs),
        "lost": lost,
        "elapsed_s": time.perf_counter() - started,
        "events": controller.applied,
        "results": results,
        "router": fleet.router.status(),
        "supervision": supervision,
    }
