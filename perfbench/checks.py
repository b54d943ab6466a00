"""Correctness checks on the outputs of one benchmark experiment.

Three checks, each returning a list of problems (empty means correct):

- every number in ``summary.json`` is finite;
- the coupling orderings that ``tests/test_acceptance.py`` asserts for the
  experiment hold;
- each headline statistic lies within ``K_SE`` combined standard errors
  of the value recorded for the same (workload, seed) in
  ``references.json``.  An exact-arithmetic rewrite moves the statistics by
  far less than one standard error; a broken coupling moves them by many.

Determinism (byte-identical outputs for a repeated seed) is checked by the
caller, which holds the outputs of several runs.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import statistics
from pathlib import Path

K_SE = 4.0
COPULA_CONFIG = Path(__file__).resolve().parent / "workloads" / "copula_fit.cfg"
# Draws behind each reference loss: the literal 200 passed to
# reference_coupling_loss in otrf.experiments.run_copula_train.
COPULA_REFERENCE_DRAWS = 200

# The per-cell mean each grid experiment reports next to its "se".
GRID_STAT = {
    "rf_gram": "mean_rmse",
    "grf_walks": "mean_error",
    "pagerank_walks": "mean_l2_error",
}


def nonfinite(obj, path: str = "") -> list[str]:
    """Paths of the non-finite numbers in a parsed JSON document."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in nonfinite(v, f"{path}/{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in nonfinite(v, f"{path}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [path]
    return []


def copula_mc_samples() -> int:
    """RMSE draws per copula loss-trace step, as the workload config sets it."""
    config = configparser.ConfigParser()
    config.read_string(COPULA_CONFIG.read_text())
    return config.getint("copula", "mc_samples")


def headline(workload: str, summary: dict, trials_csv: str) -> dict[str, list[float]]:
    """Headline statistics as {name: [value, standard error]}."""
    results = summary["results"]
    if workload in GRID_STAT:
        stat = GRID_STAT[workload]
        return {
            key: [entry[stat], entry["se"]]
            for key, entry in results.items()
            if isinstance(entry, dict) and stat in entry
        }
    # copula_fit reports no standard error.  Each loss-trace step is the
    # mean RMSE of the workload's mc_samples draws, and each reference loss
    # the mean of COPULA_REFERENCE_DRAWS draws of the same RMSE, so both
    # standard errors come from the spread of the trace tail that
    # final_loss_smoothed averages.
    losses = [float(row["loss"]) for row in csv.DictReader(io.StringIO(trials_csv))]
    tail = losses[-max(1, len(losses) // 10) :]
    spread = statistics.stdev(tail) if len(tail) > 1 else 0.0
    ref_se = spread * math.sqrt(copula_mc_samples() / COPULA_REFERENCE_DRAWS)
    return {
        "final_loss_smoothed": [results["final_loss_smoothed"], spread / math.sqrt(len(tail))],
        "pnc_reference_loss": [results["pnc_reference_loss"], ref_se],
        "orthogonal_reference_loss": [results["orthogonal_reference_loss"], ref_se],
    }


def _ordered(cells, low: str, high: str, slack_se: float = 0.0) -> list[str]:
    """``low`` must lie below ``high`` (plus ``slack_se`` combined SEs)."""
    (a, sa), (b, sb) = cells[low], cells[high]
    if a < b + slack_se * math.hypot(sa, sb):
        return []
    margin = f" + {slack_se:g} se" if slack_se else ""
    return [f"ordering broken: {low} = {a:.6g} not below {high} = {b:.6g}{margin}"]


def orderings(workload: str, summary: dict, cells: dict) -> list[str]:
    """Coupling orderings asserted by the acceptance suite (c03, c07, c11)."""
    results = summary["results"]
    problems: list[str] = []
    if workload == "rf_gram":
        # c03 also asks pnc/orthogonal + 2 se < 0.95; at 200 trials that
        # margin is not resolved on every seed, so only the ordering is kept.
        rff = {tag: f"rff/m=8/{tag}" for tag in ("iid", "orthogonal", "orthogonal_pnc")}
        problems += _ordered(cells, rff["orthogonal"], rff["iid"])
        problems += _ordered(cells, rff["orthogonal_pnc"], rff["orthogonal"])
        problems += _ordered(cells, "rlf/m=16/orthogonal", "rlf/m=16/iid")
    elif workload == "copula_fit":
        pnc, orth = results["pnc_reference_loss"], results["orthogonal_reference_loss"]
        if not pnc < orth:
            problems.append(f"pnc reference loss {pnc:.6g} not below orthogonal {orth:.6g}")
    elif workload in ("grf_walks", "pagerank_walks"):
        # c07 also asserts strict sigma < antithetic < iid at p_halt = 0.1,
        # pooled over three graphs; on the one graph here the gaps are
        # within noise, so only the per-cell bound is kept.
        p_values = sorted({key.split("/")[0] for key in cells})
        for p in p_values:
            problems += _ordered(cells, f"{p}/sigma", f"{p}/iid", 2.0)
    return problems


def against_reference(cells: dict, reference: dict) -> list[str]:
    """Headline statistics within K_SE combined standard errors of the reference."""
    problems = []
    if set(cells) != set(reference):
        problems.append(f"headline keys {sorted(cells)} differ from {sorted(reference)}")
    for key in sorted(set(cells) & set(reference)):
        (value, se), (ref, ref_se) = cells[key], reference[key]
        band = K_SE * math.hypot(se, ref_se)
        if not abs(value - ref) <= band:
            problems.append(
                f"{key} = {value:.6g} outside reference {ref:.6g} +- {band:.3g}"
            )
    return problems


def problems(workload: str, summary_text: str, trials_csv: str, reference: dict | None) -> list[str]:
    """Every correctness problem found in one experiment's outputs."""
    summary = json.loads(summary_text)
    found = [f"non-finite summary value at {p}" for p in nonfinite(summary)]
    if found:
        return found
    cells = headline(workload, summary, trials_csv)
    try:
        found += orderings(workload, summary, cells)
    except KeyError as exc:
        found.append(f"summary lacks the coupling cell {exc}")
    if reference is None:
        found.append("no reference recorded for this seed")
    else:
        found += against_reference(cells, reference)
    return found
