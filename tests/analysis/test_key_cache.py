"""Cached identity keys stay correct across processes.

``SymExpr`` and ``SymRange`` cache their sorted key tuple, and pickling
carries the filled cache along.  String hashes differ between processes
with different ``PYTHONHASHSEED`` values, so an object pickled under one
seed and loaded under another must still compare and hash equal to a
freshly built one — which holds because the cache keeps the tuple, not
its ``hash()``.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

#: Builds ``objects``: an expression, a range and a section descriptor.
BUILD = """
from repro.analysis.expr import SymExpr, SymRange
from repro.analysis.sections import AffineSection, _Substitution

i, n = SymExpr.var("i"), SymExpr.var("n")
lo, hi = SymExpr.number(1), n - SymExpr.number(1)
expr = i + n.scaled(2) + SymExpr.number(3)
rng = expr.substitute_range("i", lo, hi)
section = AffineSection("x", rng, (_Substitution("i", lo, hi),), expr)
objects = [expr, rng, section]
"""

DUMP = BUILD + """
import pickle, sys
lookup = {obj: True for obj in objects}  # fills every key cache
sys.stdout.buffer.write(pickle.dumps(objects))
"""

CHECK = BUILD + """
import json, pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
print(json.dumps({
    "cached": [loaded[0]._sorted_key is not None,
               loaded[1]._sorted_key is not None],
    "equal": [old == new for old, new in zip(loaded, objects)],
    "hash_equal": [hash(old) == hash(new) for old, new in zip(loaded, objects)],
    "lookup": [{old: True}.get(new, False) for old, new in zip(loaded, objects)],
}))
"""


def _run(script, seed, stdin=b""):
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", script], input=stdin,
                          env=env, capture_output=True, check=True).stdout


def test_pickled_keys_load_correctly_under_another_hash_seed():
    payload = _run(DUMP, seed=1)
    result = json.loads(_run(CHECK, seed=2, stdin=payload))
    assert result["cached"] == [True, True]  # the caches did travel
    assert result["equal"] == [True, True, True]
    assert result["hash_equal"] == [True, True, True]
    assert result["lookup"] == [True, True, True]
