"""Smoke tests of the benchmark itself, at tiny simulated horizons.

    python3 -m pytest perfbench -q
"""

import json
import os

import pytest

import calibrate
import run
import tracer
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)

SMOKE_END_NS = 200_000  # simulated horizon small enough for a unit test


def _smoke(name, trace, tmp_path, **kwargs):
    return run.measure(name, workloads.DEFAULT_SEED, seconds=0, trace=trace,
                       end_ns=SMOKE_END_NS, out_root=str(tmp_path), **kwargs)


def test_contract_lists_the_emitted_metrics():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == tracer.LAYER_UNITS


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_a_unit(name, trace, tmp_path):
    result = _smoke(name, trace, tmp_path)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= workloads.VARIANTS
    expected = tracer.LAYER_UNITS if trace else run.E2E_UNITS
    assert result["metrics"] == {
        n: {"value": result["metrics"][n]["value"], "unit": u} for n, u in expected.items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_counts_match_the_kernel(tmp_path):
    layer = {n: m["value"] for n, m in _smoke("opt-k4", True, tmp_path)["metrics"].items()}
    assert layer["kernel.snapshot.count"] == layer["kernel.processed"] > 0
    assert layer["kernel.receive.count"] == layer["kernel.messages"]
    assert layer["routing.compute.calls"] == 2


def test_gate_trips_on_a_wrong_digest(tmp_path):
    result = _smoke("seq-default", False, tmp_path,
                    pinned=["0" * 64] * workloads.VARIANTS)
    assert not result["correct"]
    assert result["failed"] >= workloads.VARIANTS
    assert any("!= pinned" in e for e in result["errors"])


def test_calibration_work_is_fixed():
    # every scaled time depends on chunk(); a change to it must be deliberate
    assert calibrate.chunk() == 1186468252
    samples = []
    calibrate.sample(samples, 0.0)
    assert len(samples) == 1 and calibrate.scale(samples) > 0


def test_times_are_scaled_host_times(tmp_path):
    result = _smoke("seq-default", False, tmp_path)
    scale = result["calibration_scale"]
    host = result["host_times"]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["wall_s"] == pytest.approx(host["wall_s"] * scale)
    assert metrics["setup_s"] == pytest.approx(host["setup_s"] * scale)
    assert metrics["events_per_s"] == pytest.approx(host["events_per_s"] / scale)
