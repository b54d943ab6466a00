"""Tests of the benchmark's tracer, correctness check and metric names.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import math

import numpy as np

import checks
import run
import spans


def test_tracer_sees_chi_quantile_called_through_couplings():
    from otrf import couplings, mathcore

    original = mathcore.chi_inv_cdf
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert couplings.chi_inv_cdf is not original
        couplings.build_ensemble(8, 8, "orthogonal_pnc", np.random.default_rng(0))
        couplings.chi_inv_cdf(0.5, mathcore.ChiParams(3))
    assert couplings.chi_inv_cdf is original and mathcore.chi_inv_cdf is original
    assert tracer.calls("mathcore.chi_inv_cdf") == 3
    assert tracer.counts["mathcore.chi_inv_cdf"]["values"] == 9
    parents = {parent for name, parent in tracer.spans if name == "mathcore.chi_inv_cdf"}
    assert parents == {"couplings.sample_norms", None}
    assert tracer.calls("mathcore.chi_cdf") > 0


def test_self_time_is_total_minus_children():
    tracer = spans.Tracer()

    def busy():
        return sum(i * i for i in range(20_000))

    inner = tracer.wrap("toy.inner", busy)

    def body():
        busy()
        inner()
        inner()

    outer = tracer.wrap("toy.outer", body)
    outer()
    outer()
    assert tracer.calls("toy.outer") == 2 and tracer.calls("toy.inner") == 4
    assert set(tracer.spans) == {("toy.outer", None), ("toy.inner", "toy.outer")}
    expected = tracer.total_s("toy.outer") - tracer.total_s("toy.inner")
    assert math.isclose(tracer.self_s("toy.outer"), expected, rel_tol=1e-12)
    assert tracer.self_s("toy.inner") == tracer.total_s("toy.inner")
    assert 0 < tracer.self_s("toy.outer") < tracer.total_s("toy.outer")


def _rf_summary(cells: dict) -> str:
    iid = cells["rff/m=8/iid"][0]
    results = {
        key: {"mean_rmse": mean, "se": se, "normalized": mean / iid}
        for key, (mean, se) in cells.items()
    }
    return json.dumps({"kind": "rf-bench", "seed": 0, "results": results})


def _swap_pnc_iid(cells: dict) -> dict:
    swapped = dict(cells)
    swapped["rff/m=8/iid"] = cells["rff/m=8/orthogonal_pnc"]
    swapped["rff/m=8/orthogonal_pnc"] = cells["rff/m=8/iid"]
    return swapped


def test_check_rejects_swapped_pnc_and_iid_cells():
    reference = run.load_reference("rf_gram", 0)
    assert checks.problems("rf_gram", _rf_summary(reference), "", reference) == []
    found = checks.problems("rf_gram", _rf_summary(_swap_pnc_iid(reference)), "", reference)
    assert any("ordering broken" in p for p in found)
    assert any(p.startswith("rff/m=8/orthogonal_pnc =") for p in found)


def test_every_run_of_consistently_wrong_outputs_fails():
    reference = run.load_reference("rf_gram", 0)
    wrong = (_rf_summary(_swap_pnc_iid(reference)), "")
    verifier = run.Verifier("rf_gram", reference)
    for _ in range(3):
        verifier.record(wrong)
    assert verifier.attempted == verifier.failed == 3
    assert len(verifier.messages) == len(set(verifier.messages)) > 0

    right = (_rf_summary(reference), "")
    verifier = run.Verifier("rf_gram", reference)
    verifier.record(right)
    verifier.record(right)
    verifier.record((right[0], "changed"))
    assert (verifier.attempted, verifier.failed) == (3, 1)
    assert verifier.messages == ["outputs differ from the first run at the same seed"]


def test_check_accepts_a_shift_far_below_one_standard_error():
    reference = run.load_reference("rf_gram", 0)
    nudged = {key: [mean * (1 + 5e-11), se] for key, (mean, se) in reference.items()}
    assert checks.problems("rf_gram", _rf_summary(nudged), "", reference) == []


def test_check_rejects_non_finite_values():
    reference = run.load_reference("rf_gram", 0)
    broken = dict(reference, **{"rlf/m=16/halton": [float("nan"), 0.01]})
    found = checks.problems("rf_gram", _rf_summary(broken), "", reference)
    assert "non-finite summary value at /results/rlf/m=16/halton/mean_rmse" in found
    assert all(p.startswith("non-finite") for p in found)


def test_emitted_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    layers = run.layer_metrics(spans.Tracer(), 0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layers
    }
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
