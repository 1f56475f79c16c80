"""A parallel map over fresh interpreters, for the untimed oracles.

``parallel_map("perfbench.cold:oracle_one", items)`` splits ``items``
over ``WORKERS`` child interpreters, each running this module, and
returns the results in order; items and results travel as JSON.  The
children are plain subprocesses, not a ``multiprocessing`` pool: a
spawned pool starts multiprocessing's resource tracker, a process that
outlives the benchmark, and a forked one is unsafe once threads run.
Every child has ended when ``parallel_map`` returns or raises.
"""

import importlib
import json
import os
import subprocess
import sys

WORKERS = 2


def parallel_map(function, items):
    """``[f(item) for item in items]`` for ``f`` named ``module:name``."""
    from perfbench.common import ROOT, SRC

    shares = [items[k::WORKERS] for k in range(WORKERS)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    procs = []
    try:
        for share in shares:
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.pool"], cwd=ROOT, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            procs.append(proc)
            # The child reads all of its input before it writes anything.
            with proc.stdin:
                proc.stdin.write(json.dumps({"function": function,
                                             "items": share}))
        outputs = [proc.stdout.read() for proc in procs]
    except BaseException:
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            proc.stdout.close()
            proc.wait()
    results = [None] * len(items)
    for k, (proc, output) in enumerate(zip(procs, outputs)):
        if proc.returncode != 0:
            raise RuntimeError(f"oracle process exited with "
                               f"{proc.returncode}")
        results[k::WORKERS] = json.loads(output)
    return results


def main():
    request = json.load(sys.stdin)
    module, name = request["function"].split(":")
    function = getattr(importlib.import_module(module), name)
    json.dump([function(item) for item in request["items"]], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
