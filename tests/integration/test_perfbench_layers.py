"""A compile reaches every layer the repository benchmark times.

perfbench's ``LayerTracer`` wraps the pipeline's entry points by name.
When the pipeline stops calling a wrapped name, the benchmark still
runs, but that layer reads zero calls and its time moves to
``unattributed_s``; this test fails instead.
"""

from perfbench.layers import LAYER_TABLE, LayerTracer
from repro.batch.driver import compile_one
from repro.testing.programs import FIG11_SOURCE


def test_a_compile_calls_every_traced_layer():
    tracer = LayerTracer()
    with tracer.installed():
        compiled = compile_one("fig11", FIG11_SOURCE)
    assert compiled.ok
    assert tracer.missing == []
    assert [layer for layer, _, _ in LAYER_TABLE
            if not tracer.calls[layer]] == []
    # Figure 11 jumps out of a loop: the optimistic WRITE solve is
    # certified once and kept.
    assert tracer.counts["core.solve_calls"] == 2
    assert tracer.counts["core.certify_calls"] == 1
    assert tracer.counts["core.certify_accepted"] == 1
