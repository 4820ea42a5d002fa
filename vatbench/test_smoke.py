"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest -q vatbench/test_smoke.py
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bindings(modules) -> dict:
    """Every attribute of the traced modules and of their classes, by identity."""
    out = {}
    for module in modules:
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if inspect.isclass(value):
                for name, member in vars(value).items():
                    out[(module.__name__, attr, name)] = member
    return out


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tracer_restores_every_wrapped_attribute():
    modules = run.import_vatlab()
    from tracer import Tracer
    before = bindings(modules)
    tracer = Tracer()
    tracer.install(modules)
    try:
        wrapped = [key for key, value in bindings(modules).items() if before.get(key) is not value]
    finally:
        tracer.uninstall()
    # names one module imports from another are wrapped where they are bound
    assert ("vatlab.vat", "sample_unit_vector") in wrapped
    assert ("vatlab.optim", "Adam", "step") in wrapped
    after = bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.restored(modules)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["synth-compare", "mnist-size", "synth-artifacts"])
def test_tiny_run(workload, trace):
    result, details = run.run(workload, seed=3, seconds=0.0, trace=trace, tiny=True)
    assert result["correct"], details
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.PER_LAYER if trace else run.END_TO_END)
    if trace:
        assert details["trace_check"]["weights_compared"] > 0
        assert result["metrics"]["nn.forward_per_update.vat"]["value"] > 0
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
