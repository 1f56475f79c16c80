"""Shard health: circuit breakers and the consistent-hash ring.

Two small, deterministic mechanisms the
:class:`~repro.fleet.router.FleetRouter` is built on:

* :class:`CircuitBreaker` — the classic three-state failure detector,
  one per shard.  ``closed`` passes traffic; ``failure_threshold``
  consecutive failures trip it ``open`` (traffic avoids the shard);
  after ``reset_timeout_s`` it turns ``half_open`` and lets exactly one
  probe through — a success closes it, a failure re-opens it and the
  timer restarts.  Heartbeat pings and real forwards both feed it, so a
  dead shard is discovered by whichever arrives first.  The clock is
  injected (``time_fn``) so tests run the full state machine without
  sleeping.

* :class:`HashRing` — consistent hashing with virtual nodes.  Requests
  hash by source digest, so the same program lands on the same shard
  (cache affinity: its compile result is already cached there),
  and removing a dead shard only remaps the keys that lived on it —
  the rest of the fleet keeps its warmth.
"""

import bisect
import hashlib
import time

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-shard failure detector (see the module docstring)."""

    def __init__(self, failure_threshold=3, reset_timeout_s=1.0,
                 time_fn=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self._time = time_fn
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self._opened_at = None
        self._probe_outstanding = False

    def allow(self):
        """May a request (or heartbeat) be sent to this shard now?

        ``closed`` always allows; ``open`` allows nothing until
        ``reset_timeout_s`` has passed, then transitions to
        ``half_open`` and hands out a single probe slot; ``half_open``
        refuses everything while that probe is outstanding."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._time() - self._opened_at >= self.reset_timeout_s:
                self.state = HALF_OPEN
                self._probe_outstanding = True
                return True
            return False
        # half-open: one probe at a time
        if not self._probe_outstanding:
            self._probe_outstanding = True
            return True
        return False

    def record_success(self):
        """The shard answered: close the breaker, reset the counters."""
        self.state = CLOSED
        self.consecutive_failures = 0
        self._probe_outstanding = False
        self._opened_at = None

    def record_failure(self):
        """The shard failed (refused, reset, timed out): count it, trip
        the breaker at the threshold, re-open instantly from
        half-open."""
        self.consecutive_failures += 1
        self._probe_outstanding = False
        if self.state == HALF_OPEN or (
                self.state == CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self.state = OPEN
            self.opens += 1
            self._opened_at = self._time()
        elif self.state == OPEN:
            # Still failing while open: restart the reset timer.
            self._opened_at = self._time()

    @property
    def available(self):
        """Whether traffic would currently be allowed (non-mutating —
        an open breaker past its reset timeout reads as available but
        only :meth:`allow` performs the half-open transition)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            return self._time() - self._opened_at >= self.reset_timeout_s
        return not self._probe_outstanding

    def snapshot(self):
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
        }


def _ring_hash(text):
    """Position on the ring for ``text`` (stable across processes)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent hashing over named members with virtual nodes."""

    def __init__(self, members, virtual_nodes=64):
        if not members:
            raise ValueError("a hash ring needs at least one member")
        if virtual_nodes < 1:
            raise ValueError("virtual_nodes must be at least 1")
        self.virtual_nodes = virtual_nodes
        points = []
        for member in members:
            for replica in range(virtual_nodes):
                points.append((_ring_hash(f"{member}#{replica}"), member))
        points.sort()
        self._points = [point for point, _ in points]
        self._members = [member for _, member in points]

    def preference(self, key):
        """All members in ring order starting at ``key``'s successor —
        ``[0]`` is the home member (cache affinity), the rest are the
        deterministic failover sequence."""
        start = bisect.bisect_right(self._points, _ring_hash(key))
        seen = []
        n = len(self._members)
        for offset in range(n):
            member = self._members[(start + offset) % n]
            if member not in seen:
                seen.append(member)
        return seen

    def home(self, key):
        """The member ``key`` maps to."""
        return self.preference(key)[0]
