"""Run benchmark workloads and print their metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-jumpy --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
(taken with tracing off), plus ``error_rate`` and, on the cold
workloads, the simulator figures of the generated code; ``--trace 1``
reports its per-layer metrics from a separate traced run, each with the
end-to-end metric and workload it should move.  Human-readable lines
come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-layer
metrics of layers a workload does not exercise read 0.

``--workload all`` runs every workload with tracing off and then on,
printing each run's lines and JSON object in turn, and exits with
status 1 if any output was wrong.

The program is run from ``src/``; without it the benchmark exits with
status 2 and prints no result.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(spec, workload, config, seed, seconds, trace):
    """Run one workload in one mode and print its report; returns the
    result object printed last."""
    from perfbench import cold, fleet
    from perfbench.layers import LAYER_TABLE, OTHER_TABLE

    module = cold if config["kind"] == "cold" else fleet
    report, measured, attempted, failed, extra = module.run(
        workload, config, seed, seconds, trace)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value, _ = measured.get(metric["name"], (0, metric["unit"]))
        if not trace and metric["name"] not in measured:
            raise RuntimeError(f"{workload} did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"{workload}: {why.get(workload, '')}")
    for line in report:
        print(line)
    if trace:
        should = {name: (moves, on)
                  for name, moves, on in LAYER_TABLE + OTHER_TABLE}
        print(f"  per-layer metrics ({extra['samples']} traced operations):")
        print(f"    {'metric':28} {'value':>14} {'unit':9} should move"
              f" / on")
        for name, entry in metrics.items():
            moves, on = should.get(name, ("", ""))
            hint = f"{moves} / {on}" if moves else ""
            print(f"    {name:28} {entry['value']:14.6g} {entry['unit']:9} "
                  f"{hint}")
    else:
        print(f"  end-to-end metrics ({extra['samples']} samples; times "
              f"normalized to the reference machine speed, except "
              f"fleet-edits set-up):")
        for name, entry in metrics.items():
            print(f"    {name:18} {entry['value']:14.6g} {entry['unit']}")
        print(f"    {'error_rate':18} {failed / attempted:14.6g} ratio "
              f"({failed} of {attempted} operations)")
        quality = extra.get("quality")
        if quality is not None:
            for name, unit in (("sim_messages", "count"),
                               ("sim_makespan", "sim-clock")):
                print(f"    {name:18} {quality[name]:14.6g} {unit} "
                      f"({extra['simulated']} programs simulated)")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return result


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: src/repro not found next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.common import WORKLOADS

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    elif args.workload in WORKLOADS:
        runs = [(args.workload, args.trace)]
    else:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(WORKLOADS)}, all)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    correct = True
    for name, trace in runs:
        result = run_one(spec, name, WORKLOADS[name], args.seed,
                         args.seconds, trace)
        correct = correct and result["correct"]
    return 0 if correct or len(runs) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
