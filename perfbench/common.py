"""Shared pieces of the benchmark: workload parameters, corpus
generation, machine-speed calibration and order statistics.

Machine-speed calibration
-------------------------
On small shared virtual machines the CPU speed a process sees drifts by
up to ~1.6x within seconds (noisy neighbours), which swamps any bound a
compile-time metric could hold.  The benchmark therefore interleaves a
fixed pure-Python job (:func:`calibration_pair`) with the measured
work and reports times *normalized to a reference machine speed*:
``raw_s * REFERENCE_CHUNK_S / chunk_s``, where ``chunk_s`` is the time
the job took next to that work (around each compile and each set-up
launch on the cold workloads).  ``REFERENCE_CHUNK_S`` is a fixed
constant, so the normalized figures are seconds on a machine on which
the job takes exactly that long; raw wall times are printed beside
them.  fleet-edits normalizes its request stream by a two-process job
instead and reports its set-up raw; ``perfbench/fleet.py`` says why.
"""

import hashlib
import os
import statistics
import time

#: The repository root (the directory holding ``perfbench`` and ``src``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: One calibration chunk takes this long at the reference machine speed.
REFERENCE_CHUNK_S = 0.003

#: The seeded inputs of each workload (BENCHMARK.json says why each
#: workload exists).
WORKLOADS = {
    "cold-jumpy": {
        "kind": "cold",
        "generator": {"size": 30, "goto_probability": 0.3, "max_depth": 3},
        # About one compile per program in an 18 s run: with 128 programs
        # which programs a seed drew moved p50 by 0.10 (IQR/median over
        # ten seeds), with 192 by 0.065.  The oracle compiles every
        # program once more before timing, so more costs set-up time.
        "programs": 192,
        "traced_programs": 24,
    },
    "cold-structured": {
        "kind": "cold",
        "generator": {"size": 30, "goto_probability": 0.0, "max_depth": 3},
        "programs": 96,
        "traced_programs": 96,
    },
    "fleet-edits": {
        "kind": "fleet",
        # Without jumps: with the generator's default goto probability
        # (0.2) about half the programs need path-replay certification
        # and cost ~6x the rest, so which programs a seed draws moved
        # p90 and throughput by 0.3-0.4 (IQR/median over seeds), more
        # than any bound.  cold-jumpy measures certification.
        "generator": {"size": 20, "goto_probability": 0.0, "max_depth": 3},
        "programs": 24,
        "shards": 2,
        "workers": 1,
        "clients": 2,
        "delta_share": 0.5,
    },
}


def generate_corpus(seed, generator, count, name="p"):
    """``count`` seeded ``(name, text)`` programs from one
    :class:`~repro.testing.generator.ArrayProgramGenerator`."""
    from repro.lang.printer import format_program
    from repro.testing.generator import ArrayProgramGenerator

    gen = ArrayProgramGenerator(
        seed=seed, max_depth=generator["max_depth"],
        goto_probability=generator["goto_probability"])
    return [(f"{name}{index:03d}",
             format_program(gen.program(size=generator["size"])))
            for index in range(count)]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- machine-speed calibration ------------------------------------------------


class _Node:
    def __init__(self, name):
        self.name = name
        self.succs = []


def calibration_chunk(size=1500):
    """Time one fixed pure-Python job (~3 ms at reference speed at the
    default ``size``).

    It mimics a compiler pass — build a graph of small objects, walk
    it, run a few bitset sweeps, render and sort text — because such a
    job slows down with compiles when the machine is contended, which a
    tight arithmetic loop tracks less well.  It calls nothing of the
    program under test, so a faster program never moves it."""
    start = time.perf_counter()
    nodes = [_Node(f"n{i}") for i in range(size)]
    for i, node in enumerate(nodes):
        node.succs.append(nodes[(i * 7 + 3) % size])
        node.succs.append(nodes[(i + 1) % size])
    seen, order, stack = set(), [], [nodes[0]]
    while stack:
        node = stack.pop()
        if node.name not in seen:
            seen.add(node.name)
            order.append(node)
            stack.extend(node.succs)
    index = {node.name: k for k, node in enumerate(order)}
    bits = dict.fromkeys(index, 0)
    for _ in range(3):
        for node in order:
            value = bits[node.name] | (1 << (index[node.name] % 61))
            for succ in node.succs:
                value |= bits[succ.name]
            bits[node.name] = value
    sorted(f"{node.name} = {len(node.succs)}" for node in order)
    return time.perf_counter() - start


def calibration_pair():
    """The faster of two chunks: one interruption does not skew it."""
    return min(calibration_chunk(), calibration_chunk())


def speed_factor(chunk_before, chunk_after):
    """The factor that turns raw seconds measured between two chunks
    into seconds at the reference machine speed."""
    return REFERENCE_CHUNK_S / ((chunk_before + chunk_after) / 2)


# -- order statistics -----------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    """The 90th percentile (``statistics.quantiles``' exclusive method;
    a single sample is its own percentile)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def rss_mb(kilobytes):
    return kilobytes / 1024.0
