"""The Euclidean experiment kinds: rf-bench, copula-train, gp-eval and attention-bench.

These kinds draw frequency ensembles, so this module imports the Euclidean
stack (couplings, datasets, eucrf, gp and, through them, scipy) at the
top.  :mod:`otrf.experiments` imports it while it checks such a kind's
config, so a graph kind never loads it and a Euclidean run starts with its
stack loaded.  Trials run through :func:`otrf.experiments._grid_bench`.
"""

from __future__ import annotations

import numpy as np

from . import couplings as cpl
from . import datasets, eucrf, gp
from .experiments import (
    _MAX_REPS,
    ConfigError,
    ExperimentConfig,
    _grid_bench,
    _mean_se,
    _normalized_summary,
    _rng,
)


def _read_csv(cfg: ExperimentConfig):
    """The csv's features and targets (None without ``target``), once its
    feature count is checked against the ensemble sizes."""
    try:
        X, y, _ = datasets.ingest_csv(cfg.path, cfg.target)
    except ValueError as exc:
        raise ConfigError(f"path: {exc}") from None
    if X.shape[1] == 0:
        raise ConfigError(f"path: {cfg.path} has no feature columns")
    cfg.check_ensemble_sizes(X.shape[1])
    return X, y


def _euclidean_dataset(cfg: ExperimentConfig):
    """Inputs (and targets when available) for the Euclidean benchmarks."""
    if cfg.source == "synthetic":
        true = eucrf.GaussianKernelParams(np.sqrt(cfg.dim), 1.0, 0.1)
        X, y = datasets.gp_synthetic_data(
            min(cfg.n_points, cfg.max_points), cfg.dim, true, _rng(cfg.seed, "data")
        )
        return X, y
    X, y = _read_csv(cfg)
    n = min(cfg.n_points, cfg.max_points, X.shape[0])
    idx = _rng(cfg.seed, "data").permutation(X.shape[0])[:n]
    X = datasets.standardize(X[idx])
    return X, (y[idx] if y is not None else None)


def _resolve_kernel(cfg: ExperimentConfig, featurizer: str, X, y) -> eucrf.GaussianKernelParams:
    """Kernel hyperparameters per the benchmark protocol.

    'gp' fits all three parameters by exact-GP evidence; 'rlf' pins the
    lengthscale to twice the average summed pair norm and fits the scales;
    'auto' picks 'gp' for trigonometric features and 'rlf' for exponential
    ones; a numeric literal fixes the lengthscale directly.
    """
    policy = cfg.lengthscale
    if policy == "auto":
        policy = "gp" if featurizer == "rff" else "rlf"
    if policy not in ("gp", "rlf"):  # a number, checked by ExperimentConfig
        return eucrf.GaussianKernelParams(float(policy), cfg.output_scale, cfg.noise_scale)
    if y is None:
        raise ConfigError(f"lengthscale policy {policy!r} needs targets to fit a GP")
    init = eucrf.GaussianKernelParams(np.sqrt(X.shape[1]), 1.0, 0.1)
    fix = eucrf.rlf_lengthscale_heuristic(X) if policy == "rlf" else None
    return gp.fit_hyperparams(X, y, init, cfg.fit_steps, fix)


def run_rf_bench(cfg: ExperimentConfig):
    X, y = _euclidean_dataset(cfg)
    d = X.shape[1]

    def cells():
        for featurizer in cfg.featurizers:
            params = _resolve_kernel(cfg, featurizer, X, y)
            k_exact = eucrf.gaussian_gram(X, X, params)
            for m in cfg.ensemble_sizes(d, featurizer):

                def trial(tag, rngs):
                    freqs = cpl.build_ensemble(m, d, tag, rngs)
                    rmses = eucrf._stacked_rmses(featurizer, X, freqs, params, k_exact)
                    return [{"rmse": rmse} for rmse in rmses]

                coords = {"featurizer": featurizer, "coupling": None, "m": m, "d": d}
                batch = cpl._ensemble_batch(m, d)
                yield f"{featurizer}/m={m}", f"rf/{featurizer}/{{}}/{m}", coords, batch, trial

    rows, grid = _grid_bench(cfg, cells(), cfg.trials)
    summary = _normalized_summary(cfg, grid, "rmse", "mean_rmse")
    summary["kernel_note"] = "rmse normalised by the iid coupling where present"
    return rows, summary


def run_copula_train(cfg: ExperimentConfig):
    X, y = _euclidean_dataset(cfg)
    d = X.shape[1]
    featurizer = cfg.featurizers[0]
    params = _resolve_kernel(cfg, featurizer, X, y)
    m = cfg.ensemble_sizes(d)[0]
    opt_cfg = cpl.CopulaOptConfig(
        steps=cfg.steps, lr=cfg.lr, mc_samples=cfg.mc_samples, m=m
    )
    learned, trace = cpl.optimize_copula(X, params, featurizer, opt_cfg, _rng(cfg.seed, "copula"))
    rows = [
        {"step": i, "loss": float(v), "seed": cfg.seed, "coupling": "copula"}
        for i, v in enumerate(trace)
    ]
    ref_rng = _rng(cfg.seed, "copula-ref")
    pnc = cpl.reference_coupling_loss(
        "orthogonal_pnc", m, X, params, featurizer, 200, ref_rng
    )
    orth = cpl.reference_coupling_loss(
        "orthogonal", m, X, params, featurizer, 200, _rng(cfg.seed, "copula-ref2")
    )
    tail = trace[-max(1, cfg.steps // 10) :]
    summary = {
        "featurizer": featurizer,
        "m": m,
        "final_loss_smoothed": float(np.mean(tail)),
        "pnc_reference_loss": pnc,
        "orthogonal_reference_loss": orth,
        "ratio_to_pnc": float(np.mean(tail)) / pnc,
        "theta": [float(v) for v in learned.theta],
    }
    return rows, summary, ("copula_params.json", learned.to_json())


def run_gp_eval(cfg: ExperimentConfig):
    if cfg.source == "synthetic":
        true = eucrf.GaussianKernelParams(np.sqrt(cfg.dim), 1.0, 0.1)
        X_all, y_all = datasets.gp_synthetic_data(
            cfg.n_points, cfg.dim, true, _rng(cfg.seed, "data")
        )
        standardized = False
    else:
        X_all, y_all = _read_csv(cfg)
        if y_all is None:
            raise ConfigError("gp-eval needs a target column")
        if len(y_all) < 2:
            raise ConfigError(f"path: {cfg.path} has 1 data row; gp-eval splits at least 2")
        # n_points rows drawn as in _euclidean_dataset, kept in file order
        idx = np.sort(_rng(cfg.seed, "data").permutation(len(y_all))[: cfg.n_points])
        X_all, y_all = X_all[idx], y_all[idx]
        standardized = True
    d = X_all.shape[1]
    m = cfg.ensemble_sizes(d)[0]
    draws = cfg.trials // cfg.splits

    def cells():
        for split in range(cfg.splits):
            rng_split = _rng(cfg.seed, f"split/{split}")
            X_tr, y_tr, X_te, y_te = datasets.split_dataset(
                X_all, y_all, rng_split, cfg.max_points
            )
            if standardized:
                X_tr, X_te = datasets.standardize(X_tr, X_te)
            params = gp.fit_hyperparams(
                X_tr, y_tr, eucrf.GaussianKernelParams(np.sqrt(d), 1.0, 0.1), cfg.fit_steps
            )
            k_dd, k_pd, k_pp = gp.kernel_blocks(X_tr, X_te, params)
            exact = gp.exact_posterior(k_dd, k_pd, k_pp, y_tr, params.noise_scale)
            X_joint = np.vstack([X_tr, X_te])
            n_tr = X_tr.shape[0]

            def trial(tag, rngs):
                out = []
                for freqs in cpl.build_ensemble(m, d, tag, rngs):
                    phi = eucrf.rff_feature_matrix(X_joint, freqs, params)
                    approx = gp.approx_posterior(
                        phi[:, :n_tr], phi[:, n_tr:], y_tr, params.noise_scale
                    )
                    kl = gp.gaussian_kl(approx, exact)
                    rmse = float(np.sqrt(np.mean((approx.mean - y_te) ** 2)))
                    out.append({"kl": kl, "kl_per_point": kl / len(y_te), "pred_rmse": rmse})
                return out

            coords = {"split": split, "coupling": None, "m": m}
            yield split, f"gp/{split}/{{}}", coords, cpl._ensemble_batch(m, d), trial

    rows, grid = _grid_bench(cfg, cells(), draws, index="draw")
    summary = {}
    for tag in cfg.couplings:
        entry = summary[tag] = {}
        for key in ("kl", "pred_rmse"):
            split_means = [np.mean(cell[tag][key]) for cell in grid.values()]
            entry[f"{key}_mean"], entry[f"{key}_se"] = _mean_se(split_means)
        entry.update(kl_two_se=2 * entry["kl_se"], splits=cfg.splits, draws_per_split=draws, m=m)
    return rows, summary


def run_attention_bench(cfg: ExperimentConfig):
    rng_data = _rng(cfg.seed, "tokens")
    X = datasets.gaussian_inputs(cfg.n_points, cfg.dim, rng_data, scale=cfg.dim**-0.25)
    heuristic = cfg.lengthscale in ("rlf", "auto")
    lengthscale = eucrf.rlf_lengthscale_heuristic(X) if heuristic else float(cfg.lengthscale)
    params = eucrf.GaussianKernelParams(lengthscale, 1.0, 0.0)
    d = X.shape[1]
    m = cfg.ensemble_sizes(d)[0]
    reps = min(_MAX_REPS, cfg.trials)
    rep_trials = cfg.trials // reps
    batch = cpl._ensemble_batch(m, d)

    def trial(tag, rngs):
        # a rep runs alone; its generator spawns one child per ensemble
        children = rngs[0].spawn(rep_trials)
        chunks = (children[i : i + batch] for i in range(0, rep_trials, batch))
        freqs = (f for chunk in chunks for f in cpl.build_ensemble(m, d, tag, chunk))
        return [eucrf.attention_estimate(X, freqs, params)]

    # each rep spawns and chunks its own ensembles, so reps run one per call
    coords = {"coupling": None, "m": m, "d": d, "rep": None, "trials": rep_trials}
    rows, grid = _grid_bench(cfg, [("attn", "attn/{}", coords, 1, trial)], reps, index="rep")
    summary = {}
    for tag, values in grid["attn"].items():
        entry = summary[tag] = {}
        for key in ("attention_mse", "kernel_var", "kernel_cov"):
            entry[f"{key}_mean"], entry[f"{key}_se"] = _mean_se(values[key])
        entry.update(reps=reps, trials_per_rep=rep_trials, m=m)
    return rows, summary
