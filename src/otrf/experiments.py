"""Seeded benchmark experiments behind the CLI.

Every experiment is a pure function of (config, seed): each trial draws
only from its own generator, derived deterministically from the master
seed, so outputs are identical across runs.  The five grid experiments
(rf-, grf-, pagerank- and attention-bench, gp-eval) run their trials
through one loop, :func:`_grid_bench`, the only place where trial seeds
become generators.  Each cell states how many trials go into one call:
as many as fit in one ensemble-layer call for rf-bench and gp-eval, one
rep's for attention-bench, and as many as fit in one walk-engine call for
grf-bench and pagerank-bench.  Since each trial draws only from its own
generator, no count changes a result.
Each runner only reduces the results to its own summary, and ``_KINDS``
holds one row of facts per kind.  The graph kinds' runners live here and
need numpy alone; the Euclidean kinds' live in :mod:`otrf.euclidean_kinds`,
which a config check imports, so only a Euclidean run loads scipy.  A run
writes its outputs only once it has succeeded.
"""

from __future__ import annotations

import importlib
import json
import typing
import zlib
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import graph as graphmod
from . import grf, matching, pagerank
from .errors import NumericalError
from .mathcore import _check_range


class ConfigError(ValueError):
    """Invalid or unusable experiment configuration."""


# attention-bench splits its trials into at most this many reps
_MAX_REPS = 10

# the kernel_* keys each graph kernel family reads; inverse_cosine reads none
_KERNEL_KEYS = {"d_regularized_laplacian": ("sigma", "degree"), "diffusion": ("sigma",),
                "p_step_random_walk": ("alpha", "p")}


def _key(section: str, default=MISSING, interval: str | None = None):
    """A config key: the [section] it is read from, its default and, for a
    numeric key, the interval each value (each entry of a tuple) lies in."""
    return field(default=default, metadata={"section": section, "interval": interval})


@dataclass
class ExperimentConfig:
    """Every config key, each declared once; the intervals are checked in
    field order.  A graph needs two nodes to have no isolated node, a sigma
    coupling two quantiles; counts stop at 1e6, ~300x the largest a shipped
    config sets; an exact GP fits at most 256 points; Adam moves theta by
    about lr per step, so lr <= 1 bounds |theta|; a walk runs 1/p_halt steps
    on average, so p_halt stops at 0.001, 100x below the smallest shipped.
    The kernel_* keys are checked with the kernel."""

    kind: str = _key("experiment")
    seed: int = _key("experiment", interval="[0, inf)")
    out_dir: str = _key("experiment", ".")
    trials: int = _key("experiment", 200, "[1, 1e6]")
    source: str = _key("data", "synthetic")  # synthetic | csv | graph-file | synthetic-graph
    path: str | None = _key("data", None)
    target: str | None = _key("data", None)
    n_points: int = _key("data", 64, "[1, 1e6]")
    dim: int = _key("data", 8, "[1, 1e6]")
    splits: int = _key("data", 20, "[1, 1e6]")
    max_points: int = _key("data", 256, "[1, 256]")
    # euclidean kernel / features; lengthscale is 'gp' | 'rlf' | 'auto' | a number
    lengthscale: str = _key("kernel", "auto", "(0, inf)")
    output_scale: float = _key("kernel", 1.0, "(0, inf)")
    noise_scale: float = _key("kernel", 0.1, "[0, inf)")
    featurizers: tuple[str, ...] = _key("kernel", ("rff",))
    couplings: tuple[str, ...] = _key("couplings", ("iid",))
    m_values: tuple[int, ...] = _key("grid", (), "[1, 1e6]")
    fit_steps: int = _key("kernel", 300, "[1, 5000]")
    # graph side
    graph_nodes: int = _key("graph", 100, "[2, 1e6]")
    edge_prob: float = _key("graph", 0.1, "(0, 1]")
    kernel_family: str = _key("graph", "d_regularized_laplacian")
    kernel_sigma: float = _key("graph", 1.0)
    kernel_degree: int = _key("graph", 2)
    kernel_alpha: float = _key("graph", 2.0)
    kernel_p: int = _key("graph", 1)
    p_halt_values: tuple[float, ...] = _key("grid", (0.1, 0.2, 0.3, 0.4, 0.5), "[0.001, 1)")
    n_quantiles: int = _key("graph", 10, "[2, 1e6]")
    walkers: int = _key("graph", 2, "[1, 1e6]")
    walks_per_quantile: int = _key("graph", 100, "[1, 1e6]")
    sigma_path: str | None = _key("graph", None)
    train_nodes: int = _key("graph", 100, "[2, 1e6]")
    train_edge_prob: float = _key("graph", 0.1, "(0, 1]")
    # copula training
    steps: int = _key("copula", 500, "[1, 1e6]")
    mc_samples: int = _key("copula", 2, "[1, 1e6]")
    lr: float = _key("copula", 1e-2, "(0, 1]")

    def __post_init__(self):
        kind = _KINDS.get(self.kind)
        if kind is None:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        _runner(self.kind)  # loads the kind's stack
        if self.seed is None:
            raise ConfigError("a master seed is required")
        if not self.couplings:
            raise ConfigError("coupling list must be nonempty")
        if not self.p_halt_values:
            raise ConfigError("p_halt grid must be nonempty")
        # attention-bench has no targets to fit a GP to
        policies = ("rlf", "auto") if self.kind == "attention-bench" else ("gp", "rlf", "auto")
        for f in fields(self):
            key, value, interval = f.name, getattr(self, f.name), f.metadata["interval"]
            if interval is None:
                continue
            if key == "lengthscale":  # a policy name or a number
                try:
                    value = () if value in policies else float(value)
                except ValueError:
                    raise ConfigError(f"lengthscale: {self.kind} takes {list(policies)} or a "
                                      f"number, not {value!r}") from None
            try:
                for entry in value if isinstance(value, tuple) else (value,):
                    _check_range(key, entry, interval)
                # a standard error needs two values, a train/test split two points
                if key == kind.se_count or (key, self.kind) == ("n_points", "gp-eval"):
                    _check_range(f"{key} for {self.kind}", value, "[2, 1e6]")
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        # attention-bench's reps and gp-eval's splits each run trials / count
        count = {"attention-bench": min(_MAX_REPS, self.trials), "gp-eval": self.splits}
        if self.trials % count.get(self.kind, 1):
            raise ConfigError(f"trials must be a multiple of {count[self.kind]} "
                              f"for {self.kind}, got {self.trials}")
        if self.source not in kind.sources:
            raise ConfigError(
                f"source: {self.kind} reads {list(kind.sources)}, not {self.source!r}"
            )
        if self.source in ("csv", "graph-file") and self.path is None:
            raise ConfigError(f"path: source {self.source!r} needs a path")
        for f_name in self.featurizers:
            if f_name not in ("rff", "rlf"):
                raise ConfigError(f"unknown featurizer {f_name!r}")
        allowed = kind.couplings or self.couplings
        bad = [c for c in self.couplings if c not in allowed]
        if bad:
            raise ConfigError(f"couplings: {self.kind} cannot run {bad}; it runs {list(allowed)}")
        paired = [c for c in self.couplings if c != "iid"]
        if kind.couplings == _WALK_COUPLINGS and paired and self.walkers % 2:
            raise ConfigError(
                f"walkers must be even for the paired couplings {paired}, got {self.walkers}"
            )
        # a kind that reads a graph builds its kernel; the others draw ensembles
        if "synthetic-graph" in kind.sources:
            try:
                spec = _graph_kernel_spec(self)
            except ValueError as exc:
                raise ConfigError(f"kernel_{exc}") from None
            # the modulation takes the lead coefficient's square root, and the
            # sigma cost squares kernel-sized dot products
            try:
                with np.errstate(all="ignore"):
                    coeffs = graphmod.taylor_coefficients(spec, grf.K_MAX_DEFAULT)
                    bounded = coeffs[0] > 0 and np.isfinite(np.sum(np.abs(coeffs)) ** 2)
            except OverflowError:  # a binomial beyond the float range
                bounded = False
            if not bounded:
                keys = [f"kernel_{k} = {getattr(spec, k)}" for k in _KERNEL_KEYS[spec.family]]
                raise ConfigError(f"{', '.join(keys)}: the {spec.family} kernel's walk "
                                  "expansion overflows or vanishes")
        elif self.source == "synthetic":
            self.check_ensemble_sizes(self.dim)

    def ensemble_sizes(self, d: int, featurizer: str = "rff") -> tuple[int, ...]:
        """The ensemble sizes m the experiment draws at data dimension d.

        rf-bench sweeps every ``m_values`` entry (default d for rff, 2d for
        rlf features); the other kinds use the first entry (default d).
        """
        if self.kind == "rf-bench":
            return self.m_values or ((d,) if featurizer == "rff" else (2 * d,))
        return self.m_values[:1] or (d,)

    def check_ensemble_sizes(self, d: int) -> None:
        """Reject an ensemble size the couplings cannot draw at data dimension d.

        copula-train draws copula ensembles; the other kinds draw one per
        listed coupling (see :func:`couplings.check_ensemble_size`).
        """
        from .couplings import check_ensemble_size  # loaded with the kind's runner

        tags = ("copula",) if self.kind == "copula-train" else self.couplings
        for featurizer in self.featurizers:
            for m in self.ensemble_sizes(d, featurizer):
                for tag in tags:
                    try:
                        check_ensemble_size(m, d, tag)
                    except ValueError as exc:
                        raise ConfigError(f"m_values: {exc}") from None

    def echo(self) -> str:
        lines = ["[resolved]"]
        for f in fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"


def parse_config_file(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a key=value sections config file into an ExperimentConfig.

    A non-None override replaces the file's value, except that ``kind``
    must match the file's when both name one.
    """
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = {f.name: f.metadata["section"] for f in fields(ExperimentConfig)}
    values: dict = {}
    for section in parser.sections():
        if section not in sections.values():
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if sections.get(key) != section:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = raw
    given = {k: v for k, v in (overrides or {}).items() if v is not None}
    if "kind" in values and given.get("kind", values["kind"]) != values["kind"]:
        raise ConfigError(f"kind: the command line runs {given['kind']!r}, "
                          f"the config file is for {values['kind']!r}")
    values.update(given)
    return _coerce_config(values)


def _coerce_config(values: dict) -> ExperimentConfig:
    """Each value as its ExperimentConfig field's type; str fields pass as given."""
    types = typing.get_type_hints(ExperimentConfig)
    out: dict = {}
    for key, raw in values.items():
        if raw is None:
            continue
        ftype = types.get(key)
        try:
            if typing.get_origin(ftype) is tuple:
                if isinstance(raw, (tuple, list)):
                    items = list(raw)
                else:
                    items = [part.strip() for part in str(raw).split(",") if part.strip()]
                out[key] = tuple(typing.get_args(ftype)[0](v) for v in items)
            else:
                out[key] = ftype(raw) if ftype in (int, float) else raw
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    if "kind" not in out:
        raise ConfigError("config must name an experiment kind")
    if "seed" not in out:
        raise ConfigError("config must provide a seed (file or --seed)")
    try:
        return ExperimentConfig(**out)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Determinism helpers


def _rng(master: int, label: str) -> np.random.Generator:
    """The single stream labelled ``label``: a graph, a dataset, a trainer's."""
    entropy = [master, zlib.crc32(label.encode())]
    return np.random.default_rng(np.random.SeedSequence(entropy).spawn(1)[0])


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


def _grid_bench(cfg: ExperimentConfig, cells, count: int, index: str = "trial"):
    """``count`` seeded trials of every coupling in every grid cell.

    This is the one place where trial seeds become generators.  ``cells``
    yields ``(name, label, coords, batch, trial)``, and ``label.format(tag)``
    seeds the cell's trials through :func:`otrf.seeding.trial_generators`.
    The trials run in order, ``batch`` per call: ``trial(tag, rngs)``
    takes one fresh generator per trial and returns a list of metric dicts,
    one row each.  Each trial draws only from its own generator, so unless
    a row reduces a whole call, the results do not depend on ``batch``.  A
    cell runs all its trials before the next is drawn, so ``trial`` may
    close over the generator's loop variables.  Each row is ``coords``, then
    "coupling", ``index`` (the row's number), "seed" and the metrics; a key
    already in ``coords`` keeps its place.
    Returns the rows and ``{name: {tag: {metric: [values]}}}``.
    """
    from .seeding import trial_generators

    rows = []
    grid = {}
    for name, label, coords, batch, trial in cells:
        cell = grid[name] = {}
        for tag in cfg.couplings:
            chunks = trial_generators(cfg.seed, label.format(tag), count, batch)
            metrics = [values for rngs in chunks for values in trial(tag, rngs)]
            for i, values in enumerate(metrics):
                rows.append({**coords, "coupling": tag, index: i, "seed": cfg.seed, **values})
            cell[tag] = {key: [values[key] for values in metrics] for key in metrics[0]}
    return rows, grid


def _normalized_summary(cfg: ExperimentConfig, grid, metric: str, mean_key: str) -> dict:
    """Per ``name/tag``: the mean of ``metric`` as ``mean_key``, its standard
    error and, when iid ran in the cell, the mean over the iid mean."""
    summary = {}
    for name, cell in grid.items():
        stats = {tag: _mean_se(values[metric]) for tag, values in cell.items()}
        base = stats.get("iid", (None, None))[0]
        for tag, (mean, se) in stats.items():
            entry = {mean_key: mean, "se": se, "two_se": 2 * se, "trials": cfg.trials}
            if base:
                entry["normalized"] = mean / base
            summary[f"{name}/{tag}"] = entry
    return summary


# ---------------------------------------------------------------------------
# Graph experiments


def _graph_for(cfg: ExperimentConfig, label: str, nodes: int, edge_prob: float):
    if cfg.source == "graph-file":
        try:
            return graphmod.GraphData.from_file(cfg.path)
        except ValueError as exc:
            raise ConfigError(f"path: {exc}") from None
    return graphmod.erdos_renyi(nodes, edge_prob, _rng(cfg.seed, label))


# walks per library call in grf-bench and pagerank-bench; bounds the step
# streams and the (trials, N, N) feature block that one call holds, which
# grf divides by m in place, so no second block of that size is made
_CHUNK_WALKS = 8192


def _walk_batch(cfg: ExperimentConfig, g) -> int:
    """Trials per walk-engine call on graph ``g``: at most _CHUNK_WALKS walks
    of ``walkers`` per node, and at least one trial."""
    return max(1, _CHUNK_WALKS // (g.n_nodes * cfg.walkers))


def _graph_kernel_spec(cfg: ExperimentConfig) -> graphmod.GraphKernelSpec:
    return graphmod.GraphKernelSpec(
        cfg.kernel_family,
        sigma=cfg.kernel_sigma,
        degree=cfg.kernel_degree,
        alpha=cfg.kernel_alpha,
        p=cfg.kernel_p,
    )


def _grf_sigma_solver(cfg: ExperimentConfig, f):
    """The grf sigma trainer of grf-bench and sigma-train, seeded by ``sigma-train/p_halt``."""
    return lambda graph, p_halt: matching.solve_sigma_coupling(
        graph, p_halt, cfg.n_quantiles, f, cfg.walks_per_quantile,
        _rng(cfg.seed, f"sigma-train/{p_halt}"),
    )


def _sigma_couplings(cfg: ExperimentConfig, label: str, solve) -> dict:
    """One sigma coupling per grid p_halt, keyed by rounded p_halt.

    Read from ``cfg.sigma_path`` when set, else trained by ``solve(graph,
    p_halt)`` on one G(train_nodes, train_edge_prob) graph seeded by
    ``label``.  Empty when the sigma coupling is not benchmarked.
    """
    if "sigma" not in cfg.couplings:
        return {}
    if not cfg.sigma_path:
        train_graph = graphmod.erdos_renyi(
            cfg.train_nodes, cfg.train_edge_prob, _rng(cfg.seed, f"{label}-graph")
        )
        return {round(p, 10): solve(train_graph, p) for p in cfg.p_halt_values}
    try:
        items = json.loads(Path(cfg.sigma_path).read_text())
        loaded = (graphmod.SigmaCoupling.from_json(json.dumps(item)) for item in items)
        out = {round(c.p_halt, 10): c for c in loaded}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"sigma_path: malformed couplings in {cfg.sigma_path}: {exc!r}") from None
    missing = [p for p in cfg.p_halt_values if round(p, 10) not in out]
    if missing:
        raise ConfigError(f"sigma_path: {cfg.sigma_path} lacks couplings for p_halt {missing}")
    return out


def run_grf_bench(cfg: ExperimentConfig):
    g = _graph_for(cfg, "graph", cfg.graph_nodes, cfg.edge_prob)
    spec = _graph_kernel_spec(cfg)
    k_exact = graphmod.exact_graph_kernel(g, spec)
    k_norm = float(np.linalg.norm(k_exact))
    f = grf.modulation_from_coefficients(graphmod.taylor_coefficients(spec, grf.K_MAX_DEFAULT))
    sigmas = _sigma_couplings(cfg, "sigma-train", _grf_sigma_solver(cfg, f))

    def cells():
        for p_halt in cfg.p_halt_values:

            def trial(tag, rngs):
                coupling = sigmas[round(p_halt, 10)] if tag == "sigma" else tag
                feats = grf.grf_feature_matrix(g, cfg.walkers, coupling, f, p_halt, rngs)
                return [
                    {"frobenius_error": float(np.linalg.norm(F @ F.T - k_exact) / k_norm)}
                    for F in feats
                ]

            coords = {"coupling": None, "p_halt": p_halt, "m": cfg.walkers}
            yield f"p_halt={p_halt}", f"grf/{{}}/{p_halt}", coords, _walk_batch(cfg, g), trial

    rows, grid = _grid_bench(cfg, cells(), cfg.trials)
    return rows, _normalized_summary(cfg, grid, "frobenius_error", "mean_error")


def run_sigma_train(cfg: ExperimentConfig):
    g = _graph_for(cfg, "graph", cfg.graph_nodes, cfg.edge_prob)
    spec = _graph_kernel_spec(cfg)
    f = grf.modulation_from_coefficients(graphmod.taylor_coefficients(spec, grf.K_MAX_DEFAULT))
    rows = []
    payload = []
    solve = _grf_sigma_solver(cfg, f)
    for p_halt in cfg.p_halt_values:
        coupling = solve(g, p_halt)
        coupling.seed = cfg.seed
        payload.append(json.loads(coupling.to_json()))
        for q, image in enumerate(coupling.perm):
            rows.append(
                {
                    "p_halt": p_halt,
                    "coupling": "sigma",
                    "quantile": q + 1,
                    "image": int(image) + 1,
                    "seed": cfg.seed,
                }
            )
    summary = {"couplings": payload, "file": str(Path(cfg.out_dir) / "sigma_couplings.json")}
    return rows, summary, ("sigma_couplings.json", json.dumps(payload, indent=2, sort_keys=True))


def run_pagerank_bench(cfg: ExperimentConfig):
    g = _graph_for(cfg, "graph", cfg.graph_nodes, cfg.edge_prob)
    sigmas = _sigma_couplings(
        cfg,
        "pr-train",
        lambda graph, p_halt: pagerank.solve_pagerank_sigma(graph, p_halt, cfg.n_quantiles),
    )

    def cells():
        for p_halt in cfg.p_halt_values:
            rho = pagerank.exact_pagerank(g, p_halt)

            def trial(tag, rngs):
                coupling = sigmas[round(p_halt, 10)] if tag == "sigma" else tag
                counts = pagerank.mc_pagerank(g, p_halt, cfg.walkers, coupling, rngs)
                walks = g.n_nodes * cfg.walkers
                return [{"l2_error": float(np.linalg.norm(c / walks - rho))} for c in counts]

            coords = {"p_halt": p_halt, "coupling": None, "m": cfg.walkers}
            yield f"p_halt={p_halt}", f"pr/{{}}/{p_halt}", coords, _walk_batch(cfg, g), trial

    rows, grid = _grid_bench(cfg, cells(), cfg.trials)
    return rows, _normalized_summary(cfg, grid, "l2_error", "mean_l2_error")


class _Kind(typing.NamedTuple):
    """What the config checks and :func:`run` know of one experiment kind."""

    runner: str  # "module.function" in otrf; see :func:`_runner`
    sources: tuple[str, ...]  # csv and graph-file read ``path``
    couplings: tuple[str, ...] | None = None  # None: runs none of ``couplings``
    se_count: str | None = None  # the count its standard errors run over


# every otrf.couplings.COUPLING_TAGS entry but copula, whose ensembles need the
# parameters copula-train writes; the graph kinds draw an Erdős–Rényi graph
# from any source but graph-file
_FREQUENCY_COUPLINGS = ("iid", "halton", "orthogonal", "orthogonal_pnc",
                        "orthogonal_pnc_antithetic", "positive_monotone")
_EUCLIDEAN_SOURCES = ("synthetic", "csv")
_GRAPH_SOURCES = ("synthetic", "synthetic-graph", "graph-file")
_WALK_COUPLINGS = graphmod.WALK_COUPLING_TAGS
_KINDS = {
    "rf-bench": _Kind("euclidean_kinds.run_rf_bench", _EUCLIDEAN_SOURCES,
                      _FREQUENCY_COUPLINGS, "trials"),
    "copula-train": _Kind("euclidean_kinds.run_copula_train", _EUCLIDEAN_SOURCES),
    "grf-bench": _Kind("experiments.run_grf_bench", _GRAPH_SOURCES, _WALK_COUPLINGS, "trials"),
    "sigma-train": _Kind("experiments.run_sigma_train", _GRAPH_SOURCES),
    "gp-eval": _Kind("euclidean_kinds.run_gp_eval", _EUCLIDEAN_SOURCES,
                     _FREQUENCY_COUPLINGS, "splits"),
    "pagerank-bench": _Kind("experiments.run_pagerank_bench", _GRAPH_SOURCES,
                            _WALK_COUPLINGS, "trials"),
    "attention-bench": _Kind("euclidean_kinds.run_attention_bench", ("synthetic",),
                             _FREQUENCY_COUPLINGS, "trials"),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def _runner(kind: str) -> typing.Callable:
    """The runner of ``kind``, imported with its module.

    The graph kinds run here, on numpy alone.  The Euclidean kinds run in
    :mod:`otrf.euclidean_kinds`, which loads couplings, eucrf, gp and scipy;
    the config check calls this first, so that stack loads before
    :func:`run` starts.
    """
    module, name = _KINDS[kind].runner.rsplit(".", 1)
    return getattr(importlib.import_module(f"otrf.{module}"), name)


def run(cfg: ExperimentConfig) -> dict:
    """Execute an experiment and write summary.json, trials.csv, config.echo.

    A runner returns its rows, its summary and any extra ``(file name,
    text)`` outputs.  The output directory is made only once the run has
    succeeded, so a failed run leaves none behind.
    """
    rows, summary, *files = _runner(cfg.kind)(cfg)
    payload = {"kind": cfg.kind, "seed": cfg.seed, "results": summary}
    try:  # JSON has no nan or inf, so a non-finite summary fails here
        summary_json = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericalError("experiment produced a non-finite result") from None
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files:
        (out_dir / name).write_text(text)
    (out_dir / "config.echo").write_text(cfg.echo())
    _write_rows(out_dir / "trials.csv", rows)
    (out_dir / "summary.json").write_text(summary_json)
    return payload


def _write_rows(path, rows):
    import csv as csvmod

    with open(path, "w", newline="") as fh:
        if not rows:
            fh.write("\n")
            return
        keys = list(rows[0])
        writer = csvmod.writer(fh)
        writer.writerow(keys)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in map(row.__getitem__, keys)]
            for row in rows
        )
