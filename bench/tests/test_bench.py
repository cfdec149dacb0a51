"""Tests of the benchmark harness itself (run: python3 -m pytest bench/tests)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import jobs, run, trace  # noqa: E402

mb = run.import_maxbias()
import maxbias.cli  # noqa: E402,F401

HELD_OUT_SEED = 987654  # never used while the workloads were shaped


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if run.per_layer_unit(k) in ("count", "B", "ratio")}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    loop1, first = run.traced_run(mb, workload, 3, tmp_path, decks=1)
    loop2, second = run.traced_run(mb, workload, 3, tmp_path, decks=1)
    assert not loop1.failures and not loop2.failures
    assert _counts(first) == _counts(second)
    assert first["gfunction.g_eval.calls"] > 0 and first["numerics.find_root.calls"] > 0


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_held_out_seed_passes_every_check(workload, tmp_path):
    loop = run.Loop(mb, workload, HELD_OUT_SEED, tmp_path)
    timings = loop.run_deck(0)
    assert loop.failures == []
    assert len(timings) == loop.attempted == len(jobs.deck(workload, HELD_OUT_SEED, 0))


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_default_seed_matches_reference(workload, tmp_path):
    loop = run.Loop(mb, workload, run.DEFAULT_SEED, tmp_path)
    assert loop.reference, "the default seed has recorded reference outputs"
    loop.run_deck(0)
    assert loop.failures == []


def test_reference_comparison_catches_a_changed_cell():
    ref = {"job": {"cls": "x"}, "exit": 0, "stdout": "eps,lower\n0.1,0.5\n", "files": {}}
    result = {"exit": 0, "stdout": "eps,lower\n0.1,0.500002\n", "files": {}}
    assert run.checks.compare_reference({"cls": "x"}, result, ref)
    result["stdout"] = "eps,lower\n0.1,0.5000002\n"
    assert run.checks.compare_reference({"cls": "x"}, result, ref) == []


def test_tracer_wraps_every_binding_site_and_restores_it():
    originals = {
        "find_root": mb.numerics.find_root,
        "objective_tail_inf": mb.curves.objective_tail_inf,
        "bias_curve": mb.curves.bias_curve,
        "g_eval": mb.GFunction.g_eval,
    }
    with trace.Tracer():
        assert mb.efficiency.find_root is not originals["find_root"]
        assert mb.efficiency.find_root is mb.numerics.find_root
        assert mb.dominance.objective_tail_inf is not originals["objective_tail_inf"]
        assert mb.cli.bias_curve is not originals["bias_curve"]
        assert mb.bias_curve is mb.cli.bias_curve
        assert mb.GFunction.g_eval is not originals["g_eval"]
    assert mb.efficiency.find_root is originals["find_root"]
    assert mb.numerics.find_root is originals["find_root"]
    assert mb.dominance.objective_tail_inf is originals["objective_tail_inf"]
    assert mb.cli.bias_curve is originals["bias_curve"]
    assert mb.GFunction.g_eval is originals["g_eval"]


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.setattr(trace, "REQUIRED", trace.REQUIRED + ("curves.renamed_away",))
    with pytest.raises(trace.TraceError, match="renamed_away"):
        trace.Tracer().install()
    assert mb.numerics.find_root.__module__ == "maxbias.numerics"
    assert not hasattr(mb.numerics.find_root, "__wrapped__")


def test_benchmark_json_names_every_reported_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(jobs.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    _, metrics = run.traced_run(mb, "curves", 1, tmp_path, decks=1)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: run.per_layer_unit(name) for name in metrics}
