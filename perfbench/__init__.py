"""The repository benchmark: cold compiles and a fleet edit stream.

Run it from the repository root with ``python3 perfbench/run.py
--workload NAME --seed N --seconds S --trace 0|1``; ``BENCHMARK.json``
lists the workloads and metrics.
"""
