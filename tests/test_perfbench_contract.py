"""The benchmark under perfbench/ calls the library by name, outside the
per-request guard of its closed loop: the set-up warm-up, the correctness
gate and the traced run's metrics. A renamed function or a changed signature
there kills the worker before it prints its result line. These tests drive
small runs of both workloads through the same worker, layers and tracer code,
unedited: a traced cycle_default run, checked for the gate and the per-layer
metric names, and an untraced plan_m30 run, checked for the gate.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
# Import the benchmark's modules without leaving bytecode in perfbench/.
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import layers  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

sys.dont_write_bytecode = _write_bytecode


def test_one_traced_cycle_passes_the_gate_with_every_layer_metric(tmp_path):
    wl = worker.CycleWorkload(
        "cycle_default", 1, nodes=10, panel=1,
        activators=(worker.EXACT, "islr", "full", "mimo"),
    )
    wl.out = tmp_path / "out"
    wl.prepare()
    spans = tracer.Tracer()
    layers.instrument(spans)
    runner = worker.Runner(wl, spans)
    # index 0 traced and untraced, then a repeat of the same input, as run.py does
    timed = runner.closed_loop(0.0)
    runner.run(len(wl.items), traced=True)
    runner.misses.extend(layers.repeat_misses(spans, len(wl.items)))
    checks = runner.check()
    assert runner.misses == []
    assert checks[0]["compared"] == checks[0]["matched"] > 0

    traced = [r for r in runner.records if r.traced]
    got = layers.metrics(spans, len(wl.items), checks, traced, worker.overhead(timed))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(got) == sorted(m["name"] for m in declared)


def test_one_plan_m30_cycle_passes_the_gate(tmp_path):
    # the M=30 workload, untraced: no exact activator, so the gate's oracle
    # cycle stands in for it
    wl = worker.CycleWorkload(
        "plan_m30", 1, nodes=30, panel=1, activators=("islr", "full", "mimo")
    )
    wl.out = tmp_path / "out"
    wl.prepare()
    runner = worker.Runner(wl, None)
    runner.closed_loop(0.0)
    runner.run(1)  # a repeat of the same input must write the same bytes
    checks = runner.check()
    assert runner.misses == []
    assert checks[0]["compared"] == 0
