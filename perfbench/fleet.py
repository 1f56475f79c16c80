"""The fleet-edits workload: ``python -m repro fleet`` as its own
process, driven by a closed loop of client connections.

The fleet runs ``shards`` shards with ``workers`` process workers each
(2 x 1 fills a 2-core machine).  Set-up is timed from launch, through
the listening line, to the warm-up corpus compiled; it is repeated
``SETUP_LAUNCHES`` times and the last fleet serves the timed stream.
Set-up times are reported raw: over 24 seeds they spread by 0.13
(IQR/median) raw, and by 0.14 to 0.29 normalized by any calibration
job here (the single-process chunk, the :class:`FleetCalibrator` job,
its round trips).
Each client then sends, for ``seconds``:

* with probability ``1 - delta_share``, an unchanged recompile of a
  corpus program — a prepared-cache hit (router and shard hop, snapshot
  read, annotate, print);
* otherwise a ``compile_delta`` of a fresh one-statement
  ``EditModel`` edit of a corpus program against its base digest, which
  replays the interval and verdict memos and writes to the cache.

The stream runs in phases of ``PHASE_S`` seconds; between phases the
clients pause and a :class:`FleetCalibrator` pair is timed on the idle
machine.  All times of the stream are normalized by the median of those
pairs: the pair around one phase tracks that phase's speed poorly
(per-phase factors doubled the spread of p90 over seeds), while the
median tracks the run's.  The p50 of the stream lies between the
recompile and the delta latencies, so it spreads over seeds more than
p90 (0.13 against 0.07 IQR/median over 24 seeds).
Before the fleet starts, every corpus program and every pre-drawn edit
is compiled cold with ``compile_one`` (the oracle); programs and edits
the compiler rejects are left out.  Every reply must be byte-identical
to the oracle's output for its text.
"""

import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

from perfbench.common import (ROOT, SRC, calibration_chunk, digest,
                              generate_corpus, median, p90, rss_mb)
from perfbench.pool import parallel_map

#: Round trips in one :class:`FleetCalibrator` job, and how long the
#: job takes at the reference machine speed (about the speed at which a
#: calibration chunk takes ``REFERENCE_CHUNK_S``).
WAKEUP_ROUND_TRIPS = 8
REFERENCE_FLEET_JOB_S = 0.008
SETUP_LAUNCHES = 7
STOP_GRACE_S = 5
PHASE_S = 0.5
#: Fresh edits drawn per client before timing, per second of the run.
EDITS_PER_CLIENT_S = 70
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
_LISTENING = re.compile(r"listening on ([\w.]+):(\d+) \(\d+ shards: (.*)\)")


class FleetProcess:
    """One ``python -m repro fleet`` child process."""

    def __init__(self, config):
        os.makedirs(TMP_DIR, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        # Shard caches live in a temporary directory: keep it in the
        # checkout.
        env["TMPDIR"] = TMP_DIR
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet",
             "--shards", str(config["shards"]),
             "--workers", str(config["workers"]), "--pool", "process",
             "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        watchdog = threading.Timer(120, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"fleet did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.shards = [(host, int(port)) for host, port in
                       (item.rsplit(":", 1)
                        for item in match.group(3).split(", "))]

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout_s=60)

    def children(self):
        return child_pids(self.proc.pid)

    def peak_rss_kb(self):
        """VmHWM of the fleet process plus its pool workers."""
        total = 0
        for pid in [self.proc.pid] + self.children():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                continue
        return total

    def stop(self):
        """Drain the fleet and wait for it and its workers to end.  A
        drained fleet exits within a fraction of a second, but now and
        then one stays up; what still runs after ``STOP_GRACE_S`` is
        killed."""
        workers = self.children()
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.drain()
            except Exception:  # a dead router is stopped below
                pass
            try:
                self.proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + STOP_GRACE_S
        for pid in workers:
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _running(pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + STOP_GRACE_S
        while (any(_running(pid) for pid in workers)
               and time.monotonic() < deadline):
            time.sleep(0.05)


def _stat(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name, or
    None when there is no such process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _running(pid):
    """Whether process ``pid`` exists and has not ended (a zombie has)."""
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def child_pids(pid):
    """The processes whose parent is ``pid`` and that have not ended."""
    pids = []
    for entry in os.listdir("/proc"):
        fields = _stat(entry) if entry.isdigit() else None
        if fields is not None and fields[0] != "Z" and int(fields[1]) == pid:
            pids.append(int(entry))
    return pids


def calibration_helper():
    """The helper process of :class:`FleetCalibrator`: for each byte read
    from stdin, a slice (``w``) or a whole calibration chunk, then a
    byte back; ends at end of input."""
    while True:
        request = os.read(0, 1)
        if not request:
            return
        calibration_chunk(size=150 if request == b"w" else 1500)
        os.write(1, b"1")


class FleetCalibrator:
    """A fixed two-process job: ``WAKEUP_ROUND_TRIPS`` messages to a
    helper process that does a slice of work for each and answers, then
    one whole calibration chunk in each process at once.

    The fleet's requests hop between processes and keep both CPUs busy,
    and a shared machine's slow spells slow those two things by
    different amounts.  Over 24 seeds, normalizing fleet times by the
    single-process chunk left p90 and throughput spread by 0.17 and 0.19
    (IQR/median), by the round trips alone by 0.10 and 0.11, by this
    job by 0.07 and 0.07.  The job calls nothing of the program under
    test."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = ROOT
        self._helper = subprocess.Popen(
            [sys.executable, "-c", "from perfbench.fleet import "
             "calibration_helper; calibration_helper()"],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            bufsize=0)

    def pair(self):
        """The faster of two jobs: one interruption does not skew it."""
        return min(self._job(), self._job())

    def _job(self):
        start = time.perf_counter()
        for _ in range(WAKEUP_ROUND_TRIPS):
            self._helper.stdin.write(b"w")
            self._answer()
        self._helper.stdin.write(b"b")
        calibration_chunk()
        self._answer()
        return time.perf_counter() - start

    def _answer(self):
        if self._helper.stdout.read(1) != b"1":
            raise RuntimeError("the calibration helper stopped")

    def close(self):
        """End the helper and wait for it."""
        with contextlib.suppress(OSError):
            self._helper.stdin.close()
        try:
            self._helper.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


def warm(fleet, corpus):
    with fleet.client() as client:
        for name, text in corpus:
            result = client.compile(text, name=name)
            if not result["ok"]:
                raise RuntimeError(f"warm-up compile of {name} failed: "
                                   f"{result['error']}")


def start_fleets(config, corpus):
    """``SETUP_LAUNCHES`` timed launches; returns the last (running)
    fleet and the set-up seconds of every launch."""
    setup, fleet = [], None
    for launch in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        fleet = FleetProcess(config)
        try:
            warm(fleet, corpus)
        except BaseException:
            fleet.stop()
            raise
        setup.append(time.perf_counter() - start)
        if launch < SETUP_LAUNCHES - 1:
            fleet.stop()
    return fleet, setup


class EditStream:
    """Fresh seeded one-statement edits of corpus programs.  Streams
    share ``seen``, so no text is handed out twice and every delta
    compiles a text the fleet has not seen."""

    def __init__(self, corpus, seed, count, seen):
        from repro.batch.cache import source_fingerprint
        from repro.testing.edits import EditModel

        self._fingerprint = source_fingerprint
        self._rng = random.Random(seed)
        self._model = EditModel(seed=seed)
        self._corpus = corpus
        self._seen = seen
        self._ready = [self._draw() for _ in range(count)]
        self.drawn_late = 0

    def _draw(self):
        while True:
            name, base = self._rng.choice(self._corpus)
            _, edited = self._model.random_edit(base)
            if edited not in self._seen:
                self._seen.add(edited)
                return name, edited, self._fingerprint(base)

    def texts(self):
        return [text for _, text, _ in self._ready]

    def restrict(self, corpus, valid):
        """Draw only from ``corpus`` and drop the drawn edits whose text
        ``valid`` rejects."""
        names = {name for name, _ in corpus}
        self._corpus = corpus
        self._ready = [edit for edit in self._ready
                       if edit[0] in names and valid(edit[1])]

    def next(self):
        if self._ready:
            return self._ready.pop()
        self.drawn_late += 1
        return self._draw()


def client_loop(fleet, corpus, edits, rng, share, gate, ops, errors):
    """One closed-loop client: issue the next request only after the
    previous one has been answered."""
    from repro.service.protocol import E_BUSY, ServiceError

    client = fleet.client()
    try:
        while gate.begin():
            while time.perf_counter() < gate.deadline:
                if rng.random() < share:
                    name, text, base = edits.next()
                    kind = "delta"
                else:
                    name, text = rng.choice(corpus)
                    kind, base = "hit", None
                retries = 0
                start = time.perf_counter()
                while True:
                    try:
                        if kind == "delta":
                            result = client.compile_delta(
                                text, base_digest=base, name=name)
                        else:
                            result = client.compile(text, name=name)
                        break
                    except ServiceError as error:
                        if error.code != E_BUSY:
                            result = {"ok": False, "error": str(error)}
                            break
                        retries += 1
                        time.sleep(error.retry_after_s or 0.01)
                    except OSError as error:
                        result = {"ok": False, "error": f"connection: {error}"}
                        client.close()
                        break
                elapsed = time.perf_counter() - start
                ops.append({"kind": kind, "name": name, "text": text,
                            "round_trip_s": elapsed, "retries": retries,
                            "result": result})
            gate.end()
    except Exception as error:  # reported; the gate is broken below
        errors.append(f"client: {type(error).__name__}: {error}")
        gate.abort()
    finally:
        client.close()


class PhaseGate:
    """Start and end barriers shared by the clients and the timer."""

    def __init__(self, clients):
        self._start = threading.Barrier(clients + 1, timeout=120)
        self._end = threading.Barrier(clients + 1, timeout=120)
        self.deadline = 0.0
        self.stopping = False

    def begin(self):
        self._start.wait()
        return not self.stopping

    def end(self):
        self._end.wait()

    def abort(self):
        self._start.abort()
        self._end.abort()

    def run_phase(self, seconds):
        self.deadline = time.perf_counter() + seconds
        start = time.perf_counter()
        self._start.wait()
        self._end.wait()
        return time.perf_counter() - start

    def stop(self):
        self.stopping = True
        self._start.wait()


def cold_oracle_one(text):
    """The digest of a cold ``compile_one`` of ``text``, or None when
    the compiler rejects it."""
    from repro.batch.driver import compile_one

    try:
        compiled = compile_one("oracle", text)
    except Exception:  # a crash is a rejection
        return None
    return digest(compiled.annotated_source) if compiled.ok else None


def oracle(texts):
    texts = sorted(set(texts))
    return dict(zip(texts, parallel_map("perfbench.fleet:cold_oracle_one",
                                        texts)))


def run(workload, config, seed, seconds, trace):
    candidates = generate_corpus(seed, config["generator"],
                                 config["programs"])
    count = int(EDITS_PER_CLIENT_S * seconds * config["delta_share"])
    seen = {text for _, text in candidates}
    streams = [EditStream(candidates, seed * 1000 + client, count, seen)
               for client in range(config["clients"])]
    expected = oracle([text for _, text in candidates]
                      + [text for stream in streams
                         for text in stream.texts()])
    corpus = [(name, text) for name, text in candidates if expected[text]]
    excluded = [name for name, text in candidates if not expected[text]]
    for stream in streams:
        stream.restrict(corpus, expected.get)
    fleet, setup = start_fleets(config, corpus)
    ops, errors, phase_walls = [], [], []
    calibrator = None
    try:
        calibrator = FleetCalibrator()
        gate = PhaseGate(config["clients"])
        threads = [threading.Thread(
            target=client_loop,
            args=(fleet, corpus, streams[client],
                  random.Random(seed * 1000 + client),
                  config["delta_share"], gate, ops, errors))
            for client in range(config["clients"])]
        for thread in threads:
            thread.start()
        jobs = [calibrator.pair()]
        started = time.perf_counter()
        try:
            while time.perf_counter() - started < seconds:
                phase_walls.append(gate.run_phase(PHASE_S))
                jobs.append(calibrator.pair())
            gate.stop()
        except threading.BrokenBarrierError:
            errors.append("clients stopped early")
        for thread in threads:
            thread.join(timeout=120)
        wall = time.perf_counter() - started
        status = _statuses(fleet)
        peak_kb = fleet.peak_rss_kb()
    finally:
        if calibrator is not None:
            calibrator.close()
        fleet.stop()
    late = [op["text"] for op in ops if op["text"] not in expected]
    if late:
        expected.update(oracle(late))
    failures = errors + _verify(ops, expected)
    return _report(workload, config, seed, corpus, excluded, streams, ops,
                   failures, phase_walls, jobs, wall, status, peak_kb,
                   setup, trace)


def _statuses(fleet):
    from repro.service.client import ServiceClient

    with fleet.client() as client:
        router = client.status()
    shards = []
    for host, port in fleet.shards:
        with ServiceClient(host, port, timeout_s=60) as client:
            shards.append(client.status())
    return {"router": router, "shards": shards}


def _verify(ops, expected):
    failures = []
    for op in ops:
        result = op["result"]
        if not result.get("ok"):
            failures.append(f"{op['name']} ({op['kind']}): "
                            f"{result.get('error')}")
        elif digest(result["annotated_source"]) != expected[op["text"]]:
            failures.append(f"{op['name']} ({op['kind']}): reply differs "
                            f"from a cold compile_one")
    return failures


def _report(workload, config, seed, corpus, excluded, streams, ops,
            failures, phase_walls, jobs, wall, status, peak_kb, setup,
            trace):
    factor = REFERENCE_FLEET_JOB_S / median(jobs)
    raws = [op["round_trip_s"] for op in ops]
    normalized = [raw * factor for raw in raws]
    n = len(ops)
    timed_wall = sum(phase_walls) * factor
    hits = [op for op in ops if op["kind"] == "hit" and op["result"].get("ok")]
    deltas = [op for op in ops
              if op["kind"] == "delta" and op["result"].get("ok")]
    report = [
        f"workload {workload}: seed {seed}, closed loop, "
        f"{config['clients']} clients, fleet of {config['shards']} shards x "
        f"{config['workers']} process worker(s), corpus of "
        f"{len(corpus)} programs, generator {config['generator']}",
        f"  operations: {n} requests ({len(hits)} recompiles, {len(deltas)} "
        f"deltas) in {wall:.2f}s wall, {len(failures)} failed (error_rate "
        f"{len(failures) / max(n, 1):.4f})",
        f"  raw wall times: p50 {median(raws):.4f}s p90 {p90(raws):.4f}s; "
        f"set-up (not normalized) median {median(setup):.3f}s over "
        f"{len(setup)} launches",
    ]
    if excluded:
        report.append(f"  excluded (the compiler rejects them): "
                      f"{', '.join(excluded)}")
    late = sum(stream.drawn_late for stream in streams)
    if late:
        report.append(f"  {late} edits were drawn during the timed stream")
    incr = [op["result"].get("incremental") or {} for op in deltas]
    memo_hits = sum(1 for i in incr
                    if i.get("whole_hits", 0) + i.get("interval_hits", 0))
    report.append(f"  deltas with whole-solve or interval memo hits: "
                  f"{memo_hits}/{len(deltas)}; recompiles served from "
                  f"cache: {sum(op['result']['cache_hit'] for op in hits)}"
                  f"/{len(hits)}")
    report.append(f"  fleet calibration job median {median(jobs) * 1000:.3f}"
                  f"ms (reference {REFERENCE_FLEET_JOB_S * 1000:.1f}ms)")
    report.extend(f"  FAILED {line}" for line in failures[:20])
    if not trace:
        metrics = {
            "setup_s": (median(setup), "s"),
            "latency_p50_s": (median(normalized), "s"),
            "latency_p90_s": (p90(normalized), "s"),
            "throughput_per_s": (n / timed_wall if timed_wall else 0.0,
                                 "ops/s"),
            "peak_rss_mb": (rss_mb(peak_kb), "MB"),
        }
        return report, metrics, max(n, 1), len(failures), {"samples": n}

    hops = [(op["round_trip_s"] - op["result"]["duration_s"]) * factor
            for op in hits + deltas]
    changed = sum(i.get("intervals_changed", 0) for i in incr)
    total = sum(i.get("intervals_total", 0) for i in incr)
    per_delta = max(len(deltas), 1)
    queue = [shard["latency"]["queue_s"]["p50_s"]
             for shard in status["shards"]]
    router = status["router"]["fleet"]
    metrics = {
        "fleet.hop_p50_s": (median(hops), "s"),
        "service.queue_p50_s": (median(queue), "s"),
        "service.busy_retries": (sum(op["retries"] for op in ops), "count"),
        "fleet.rerouted": (router["rerouted"], "count"),
        "fleet.spilled": (router["spilled"], "count"),
        "batch.hit_compile_p50_s": (median(
            [op["result"]["duration_s"] * factor for op in hits]), "s"),
        "batch.hit_rate": (sum(op["result"]["cache_hit"] for op in hits)
                           / max(len(hits), 1), "ratio"),
        "batch.delta_compile_p50_s": (median(
            [op["result"]["duration_s"] * factor for op in deltas]), "s"),
        "incremental.whole_hits": (
            sum(i.get("whole_hits", 0) for i in incr) / per_delta,
            "count/op"),
        "incremental.interval_hits": (
            sum(i.get("interval_hits", 0) for i in incr) / per_delta,
            "count/op"),
        "incremental.verdict_hits": (
            sum(i.get("verdict_hits", 0) for i in incr) / per_delta,
            "count/op"),
        "incremental.changed_share": (changed / total if total else 0.0,
                                      "ratio"),
        "machine.calibration_s": (median(jobs), "s"),
    }
    return report, metrics, max(n, 1), len(failures), {"samples": n}
