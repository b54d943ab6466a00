"""otrf benchmark: seeded CLI experiments timed from outside, or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload rf_gram --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload's experiment runs as an ``otrf`` CLI child
process at ``--threads 1``, one child at a time: one warm-up child, then
children until ``--seconds`` have passed (at least three).  Each child is
timed from outside; the medians are reported, with times scaled by a
machine-speed calibration (see ``CALIBRATION_REF_S``).  With ``--trace 1`` the
experiment runs in this process instead, alternating untraced runs with runs
whose library calls go through :mod:`spans`, and the per-layer metrics are
reported.  Every run's outputs are checked (see :mod:`checks`) and must be
byte-identical to the warm-up run's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines carry
the machine block and then the unscaled medians or, when tracing, the
aggregated span table.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# The experiment seed is the workload seed modulo this; references.json
# holds the seed commit's headline statistics for each of these seeds.
REFERENCE_SEEDS = 32
MIN_TIMED = 3
HARD_LIMIT_S = 170.0

# Set before numpy is first imported, here or in a child, so that runs do
# not depend on the machine's default BLAS thread count.
BLAS_THREADS = 1
BLAS_ENV = {
    var: str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}

# On a shared machine the speed of a core drifts by 10-25% over minutes, and
# medians within one run cannot remove that.  A fixed kernel, independent of
# otrf, is timed before each child, and the reported times are scaled by
# CALIBRATION_REF_S / (median kernel time): seconds on a machine where the
# kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.05
SCALED = ("wall_s", "setup_s", "cpu_s")

# workload -> (CLI experiment kind, functions the experiment must call)
WORKLOADS = {
    "rf_gram": (
        "rf-bench",
        (
            "mathcore.chi_inv_cdf", "mathcore.chi_cdf", "mathcore.halton_points",
            "couplings.build_ensemble", "couplings.sample_orthogonal_directions",
            "eucrf.rff_feature_matrix", "eucrf.rlf_feature_matrix",
            "eucrf.gram_estimate", "eucrf.relative_rmse", "eucrf.gaussian_gram",
            "gp.fit_hyperparams",
        ),
    ),
    "copula_fit": (
        "copula-train",
        (
            "mathcore.chi_inv_cdf", "mathcore.chi_cdf",
            "couplings.optimize_copula", "couplings.reference_coupling_loss",
            "couplings.sample_orthogonal_directions", "eucrf.gaussian_gram",
            "gp.fit_hyperparams",
        ),
    ),
    "grf_walks": (
        "grf-bench",
        (
            "mathcore.geometric_inv_cdf", "graph.batch_walk_lengths",
            "graph.erdos_renyi", "graph.exact_graph_kernel",
            "grf.grf_feature_matrix", "grf.estimate_quantile_projections",
            "matching.averaged_sigma_cost_matrix", "matching.hungarian",
            "matching.solve_sigma_coupling",
        ),
    ),
    "pagerank_walks": (
        "pagerank-bench",
        (
            "mathcore.geometric_inv_cdf", "graph.batch_walk_lengths",
            "graph.batch_walk_endpoints", "graph.erdos_renyi",
            "pagerank.mc_pagerank", "pagerank.solve_pagerank_sigma",
            "pagerank.exact_pagerank", "matching.hungarian",
        ),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

SELF_TIMED = (
    "mathcore.geometric_inv_cdf", "mathcore.halton_points",
    "couplings.build_ensemble", "couplings.sample_orthogonal_directions",
    "couplings.reference_coupling_loss", "couplings.optimize_copula",
    "eucrf.rff_feature_matrix", "eucrf.rlf_feature_matrix", "eucrf.gram_estimate",
    "eucrf.relative_rmse", "eucrf.gaussian_gram",
    "gp.fit_hyperparams",
    "graph.batch_walk_lengths", "graph.batch_walk_endpoints", "graph.erdos_renyi",
    "graph.exact_graph_kernel",
    "grf.grf_feature_matrix", "grf.estimate_quantile_projections",
    "matching.averaged_sigma_cost_matrix", "matching.hungarian",
    "matching.solve_sigma_coupling",
    "pagerank.mc_pagerank", "pagerank.solve_pagerank_sigma", "pagerank.exact_pagerank",
)
WORK_COUNTS = (
    ("mathcore.chi_inv_cdf", "values"),
    ("graph.batch_walk_lengths", "walks"),
    ("graph.batch_walk_endpoints", "walks"),
    ("graph.batch_walk_endpoints", "steps"),
    ("grf.grf_feature_matrix", "walks"),
    ("grf.estimate_quantile_projections", "walks"),
    ("matching.hungarian", "order"),
)


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
    }


def calibration_s() -> float:
    """Median time of a kernel mixing the workloads' kinds of work.

    Python loops, small ``scipy.special`` calls and small matrix products,
    as in the experiments' trial loops.
    """
    import numpy as np
    from scipy import special

    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        x = np.linspace(0.1, 3.0, 8)
        for _ in range(6000):
            special.gammainc(4.0, x)
        a = np.random.default_rng(0).random((120, 120))
        for _ in range(40):
            a = np.sin(a) @ a / 120
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(5))


def load_reference(workload: str, exp_seed: int):
    refs = json.loads((HERE / "references.json").read_text())
    return refs.get(workload, {}).get(str(exp_seed))


def cli_args(workload: str, exp_seed: int, out_dir: Path) -> list[str]:
    kind = WORKLOADS[workload][0]
    config = HERE / "workloads" / f"{workload}.cfg"
    return [kind, "--config", str(config), "--seed", str(exp_seed),
            "--threads", "1", "--out-dir", str(out_dir)]


def read_outputs(out_dir: Path) -> tuple[str, str]:
    return (out_dir / "summary.json").read_text(), (out_dir / "trials.csv").read_text()


class Verifier:
    """Checks each run's outputs and that all runs' outputs are identical.

    The outputs are checked once, on the first run; a later run with
    identical outputs has the same problems and is charged them again, so a
    consistently wrong program fails every run.
    """

    def __init__(self, workload: str, reference):
        self.workload = workload
        self.reference = reference
        self.first = None
        self.first_problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, outputs, error: str | None = None):
        """Count one run: its ``(summary, trials)`` outputs, or the error that stopped it."""
        self.attempted += 1
        if error:
            found = [error]
        elif self.first is None:
            self.first = outputs
            self.first_problems = checks.problems(self.workload, *outputs, self.reference)
            found = self.first_problems
        elif outputs != self.first:
            found = ["outputs differ from the first run at the same seed"]
        else:
            found = self.first_problems
        if found:
            self.failed += 1
            self.messages += [m for m in found if m not in self.messages]


def run_child(workload: str, exp_seed: int, out_dir: Path, limit_s: float) -> dict:
    """One CLI child: exit code, outside timings and resource usage."""
    timing = out_dir / "timing.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(timing),
           *cli_args(workload, exp_seed, out_dir)]
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
    out_dir.mkdir(parents=True)
    with open(out_dir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(limit_s, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"code": proc.returncode}
    if proc.returncode != 0 or not timing.exists():
        tail = (out_dir / "stderr.txt").read_text(errors="replace").strip()[-300:]
        result["error"] = f"child exited with {proc.returncode}: {tail}"
        return result
    marks = json.loads(timing.read_text())
    result.update(
        setup_s=marks["run_start"] - spawned,
        wall_s=marks["run_end"] - marks["run_start"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        outputs=read_outputs(out_dir),
    )
    return result


def untraced(workload: str, exp_seed: int, seconds: float, work: Path, verifier: Verifier) -> dict:
    started = time.monotonic()
    timed = []
    index = 0
    deadline = None
    while True:
        now = time.monotonic()
        if deadline is not None and now >= deadline and len(timed) >= MIN_TIMED:
            break
        if now - started > HARD_LIMIT_S * 0.8:
            break
        cal = calibration_s()
        child = run_child(workload, exp_seed, work / f"child{index}",
                          started + HARD_LIMIT_S - now)
        child["calibration_s"] = cal
        verifier.record(child.get("outputs"), child.get("error"))
        if deadline is None:  # the warm-up child fills caches and is not timed
            deadline = time.monotonic() + seconds
        elif "wall_s" in child:
            timed.append(child)
        index += 1
    if not timed:
        return {}, {}
    unscaled = {
        name: statistics.median(child[name] for child in timed)
        for name in (*SCALED, "calibration_s")
    }
    scale = CALIBRATION_REF_S / unscaled["calibration_s"]
    metrics = {name: unscaled[name] * scale for name in SCALED}
    metrics["peak_rss_mb"] = statistics.median(child["peak_rss_mb"] for child in timed)
    metrics["ok_frac"] = (verifier.attempted - verifier.failed) / verifier.attempted
    return metrics, unscaled


def layer_metrics(tracer, truncated: int, overhead: float) -> dict:
    """Per-layer metrics of one traced experiment."""
    out = {f"{name}.self_s": tracer.self_s(name) for name in SELF_TIMED}
    for name, key in WORK_COUNTS:
        out[f"{name}.{key}"] = tracer.counts.get(name, {}).get(key, 0)
    out["mathcore.chi_inv_cdf.total_s"] = tracer.total_s("mathcore.chi_inv_cdf")
    out["mathcore.chi_inv_cdf.calls"] = tracer.calls("mathcore.chi_inv_cdf")
    out["mathcore.chi_cdf.calls"] = tracer.calls("mathcore.chi_cdf")
    steps = tracer.counts.get("couplings.optimize_copula", {}).get("steps", 0)
    copula_s = tracer.total_s("couplings.optimize_copula")
    out["couplings.optimize_copula.step_s"] = copula_s / steps if steps else 0.0
    launched = (out["grf.grf_feature_matrix.walks"]
                + out["grf.estimate_quantile_projections.walks"])
    out["grf.truncated_walks"] = truncated
    out["grf.truncated_frac"] = truncated / launched if launched else 0.0
    out["experiments.self_s"] = tracer.self_s("experiments.run")
    out["experiments.run.total_s"] = tracer.total_s("experiments.run")
    out["trace_overhead_frac"] = overhead
    return out


LAYER_UNITS = {
    "self_s": "s", "total_s": "s", "step_s": "s", "calls": "count", "values": "count",
    "walks": "count", "steps": "count", "order": "count", "truncated_walks": "count",
    "truncated_frac": "frac", "trace_overhead_frac": "frac",
}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[-1]]


def traced(workload: str, exp_seed: int, seconds: float, work: Path, verifier: Verifier):
    """Alternate untraced and traced in-process runs; per-layer medians."""
    sys.path.insert(0, str(SRC))
    import otrf
    from otrf import cli, grf

    import spans

    if not Path(otrf.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"otrf imported from {otrf.__file__}, not from {SRC}")

    expected = WORKLOADS[workload][1]

    def invoke(index: int, tracer=None) -> float:
        out_dir = work / f"run{index}"
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = cli.main(cli_args(workload, exp_seed, out_dir))
                else:
                    with spans.installed(tracer):
                        code = cli.main(cli_args(workload, exp_seed, out_dir))
        except Exception as exc:  # a crash is a failed run, not a crashed benchmark
            verifier.record(None, f"experiment raised {exc!r}")
            return float("nan")
        elapsed = time.perf_counter() - start
        missing = [name for name in expected if tracer is not None and not tracer.calls(name)]
        if code != 0:
            verifier.record(None, f"experiment exited with {code}")
        elif missing:
            verifier.record(None, f"traced run recorded no call of {', '.join(missing)}")
        else:
            verifier.record(read_outputs(out_dir))
        return elapsed

    started = time.monotonic()
    invoke(0)  # warm-up
    deadline = time.monotonic() + seconds
    plain, timed, reps = [], [], []
    index = 1
    while not reps or (time.monotonic() < deadline
                       and time.monotonic() - started < HARD_LIMIT_S * 0.6):
        plain.append(invoke(index))
        tracer = spans.Tracer()
        before = grf.truncation_count()
        timed.append(invoke(index + 1, tracer))
        reps.append((tracer, grf.truncation_count() - before))
        index += 2
    overhead = statistics.median(timed) / statistics.median(plain) - 1.0
    per_rep = [layer_metrics(tracer, truncated, overhead) for tracer, truncated in reps]
    metrics = {}
    for key, first in per_rep[0].items():
        median = statistics.median_low if isinstance(first, int) else statistics.median
        metrics[key] = median(rep[key] for rep in per_rep)
    return metrics, reps[0][0].table()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_ENV)

    if not (SRC / "otrf" / "cli.py").is_file():
        print(f"no otrf sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    exp_seed = args.seed % REFERENCE_SEEDS
    verifier = Verifier(args.workload, load_reference(args.workload, exp_seed))
    print(json.dumps({"machine": machine(), "workload": args.workload,
                      "experiment_seed": exp_seed}))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            values, table = traced(args.workload, exp_seed, args.seconds, work, verifier)
            print(json.dumps({"spans": table}))
            units = {name: layer_unit(name) for name in values}
        else:
            values, unscaled = untraced(args.workload, exp_seed, args.seconds, work, verifier)
            print(json.dumps({"unscaled": unscaled}))
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in verifier.messages:
        print(f"check failed: {message}", file=sys.stderr)
    if not values:
        print("no run completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
