"""Checks on the benchmark itself: seeded inputs and the metric map.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _digest(name: str, seed: int) -> str:
    digest = hashlib.sha256()
    for array in workloads.WORKLOADS[name](seed).arrays():
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(name):
    assert _digest(name, 7) == _digest(name, 7)


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_another_seed_gives_other_inputs(name):
    assert _digest(name, 7) != _digest(name, 8)


def test_benchmark_json_matches_the_layer_map():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(layers.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == layers.WHY
    assert spec["per_layer"] == [
        {key: entry[key] for key in ("name", "unit", "better")} for entry in layers.PER_LAYER
    ]
    assert sorted(workloads.WORKLOADS) == sorted(layers.WORKLOADS)


def test_every_expected_span_has_a_wrapper():
    import tracer

    wrapped = {target[0] for target in tracer.TARGETS}
    for name, spans in layers.SPANS.items():
        assert set(spans) <= wrapped, name


def test_end_to_end_reports_the_median_over_units():
    import run

    # three units of one request each: sent at 0, first token at t, one more
    # token 10 ms later; the units' TTFTs are 20, 40 and 30 ms
    records = [
        workloads.Record(0.0, [0.0, ttft, ttft + 0.01], 1, 3, 6, unit=unit)
        for unit, ttft in enumerate((0.02, 0.04, 0.03))
    ]
    result = workloads.Pass(
        unit_s=[0.1, 0.3, 0.2], busy_s=0.6, units=3, records=records, rss_mib=1.0
    )
    metrics, samples = run.end_to_end(result, 0.5, (0.035, 1.0))
    assert metrics["ttft_p50_ms"]["value"] == pytest.approx(30.0)
    assert metrics["tokens_per_s"]["value"] == pytest.approx(15.0)
    assert metrics["itl_p50_ms"]["value"] == pytest.approx(10.0)
    assert metrics["slo_attain_frac"]["value"] == pytest.approx(2 / 3)
    assert samples["units"] == 3
