"""Config handling, ingestion, report emission and determinism."""

import csv
import dataclasses
import importlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import otrf
from otrf import couplings, euclidean_kinds, experiments
from otrf.cli import main
from otrf.datasets import ingest_csv, split_dataset, standardize
from otrf.experiments import ConfigError, ExperimentConfig, parse_config_file, run


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


BASE_RF = """
[experiment]
kind = rf-bench
seed = 7
trials = 20

[data]
source = synthetic
n_points = 24
dim = 4

[kernel]
featurizers = rff
fit_steps = 60

[couplings]
couplings = iid, orthogonal
"""


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        cfg = parse_config_file(write_cfg(tmp_path / "a.cfg", BASE_RF))
        assert cfg.kind == "rf-bench"
        assert cfg.seed == 7
        assert cfg.couplings == ("iid", "orthogonal")

    def test_missing_seed(self, tmp_path):
        text = BASE_RF.replace("seed = 7\n", "")
        with pytest.raises(ConfigError):
            parse_config_file(write_cfg(tmp_path / "b.cfg", text))

    def test_unknown_key(self, tmp_path):
        text = BASE_RF.replace("trials = 20", "trials = 20\nbogus = 1")
        with pytest.raises(ConfigError):
            parse_config_file(write_cfg(tmp_path / "c.cfg", text))

    def test_unknown_kind(self, tmp_path):
        text = BASE_RF.replace("rf-bench", "nonsense")
        with pytest.raises(ConfigError):
            parse_config_file(write_cfg(tmp_path / "d.cfg", text))

    def test_override_seed(self, tmp_path):
        cfg = parse_config_file(
            write_cfg(tmp_path / "e.cfg", BASE_RF), {"seed": 99}
        )
        assert cfg.seed == 99

    def test_empty_couplings_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="rf-bench", seed=1, couplings=())

    def test_every_key_declares_its_section_and_interval(self):
        # each key is declared once, with its [section] and, if numeric, the
        # interval the config check enforces; GraphKernelSpec checks kernel_*
        sections = {"experiment", "data", "kernel", "couplings", "grid", "graph", "copula"}
        types = typing.get_type_hints(ExperimentConfig)
        keys = dataclasses.fields(ExperimentConfig)
        assert {key.metadata["section"] for key in keys} == sections
        for key in keys:
            ftype = types[key.name]
            numeric = ftype in (int, float) or {int, float} & set(typing.get_args(ftype))
            if numeric and not key.name.startswith("kernel_"):
                assert key.metadata["interval"], key.name

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        # the --threads flag is still accepted and ignored; see
        # test_determinism_across_threads
        text = BASE_RF.replace("trials = 20", "trials = 20\nthreads = 1")
        cfg_path = write_cfg(tmp_path / "t.cfg", text)
        assert main(["rf-bench", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "unknown key 'threads'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_kind_must_match_the_config(self, tmp_path, capsys):
        # the command line's kind used to replace the config's, so a
        # pagerank-bench config ran grf-bench and exited 0
        text = GRAPH_BENCH.format(kind="pagerank-bench", couplings="iid", graph="",
                                  p_halt_values="0.3")
        cfg_path = write_cfg(tmp_path / "k.cfg", text)
        assert main(["grf-bench", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert ("config error: kind: the command line runs 'grf-bench', the config file is "
                "for 'pagerank-bench'") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCliProcess:
    def test_exit_codes(self, tmp_path):
        cfg_path = write_cfg(tmp_path / "run.cfg", BASE_RF)
        out = tmp_path / "out"
        assert main(["rf-bench", "--config", cfg_path, "--out-dir", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "trials.csv").exists()
        assert (out / "config.echo").exists()
        assert main(["rf-bench", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_config_error_exit(self, tmp_path):
        bad = write_cfg(tmp_path / "bad.cfg", BASE_RF.replace("seed = 7\n", ""))
        assert main(["rf-bench", "--config", bad]) == 2

    def test_numerical_failure_exit(self, tmp_path, monkeypatch):
        from otrf.errors import NumericalError

        def boom(cfg):
            raise NumericalError("diverged")

        monkeypatch.setattr(euclidean_kinds, "run_rf_bench", boom)
        cfg_path = write_cfg(tmp_path / "run.cfg", BASE_RF)
        assert main(["rf-bench", "--config", cfg_path]) == 3

    def test_chi_quantile_certificate_exit(self, tmp_path, monkeypatch, capsys):
        # a chi quantile that misses its chi_cdf round trip fails the run
        from scipy import special

        exact = special.gammaincinv
        monkeypatch.setattr(special, "gammaincinv", lambda a, u: exact(a, u) + 1e-6)
        cfg_path = write_cfg(tmp_path / "run.cfg", BASE_RF)
        out = tmp_path / "out"
        assert main(["rf-bench", "--config", cfg_path, "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "run failed: NumericalError" in err and "dof = 4" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "error", [MemoryError("cannot allocate"), OverflowError("too large"), ValueError("not PSD")]
    )
    def test_runner_failure_exit(self, tmp_path, monkeypatch, error, capsys):
        # any failure after the config is accepted exits 3, a ValueError too
        def boom(cfg):
            raise error

        monkeypatch.setattr(euclidean_kinds, "run_rf_bench", boom)
        cfg_path = write_cfg(tmp_path / "run.cfg", BASE_RF)
        assert main(["rf-bench", "--config", cfg_path]) == 3
        assert f"{type(error).__name__}: {error}" in capsys.readouterr().err

    def test_determinism_across_threads(self, tmp_path):
        cfg_path = write_cfg(tmp_path / "run.cfg", BASE_RF)
        outs = []
        for name, threads in (("o1", "1"), ("o2", "4"), ("o3", "1")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "rf-bench",
                        "--config",
                        cfg_path,
                        "--out-dir",
                        str(out),
                        "--threads",
                        threads,
                    ]
                )
                == 0
            )
            outs.append((out / "trials.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_iid_normalized_to_one(self, tmp_path):
        cfg = parse_config_file(write_cfg(tmp_path / "run.cfg", BASE_RF))
        cfg.out_dir = str(tmp_path / "out")
        summary = run(cfg)
        assert summary["results"]["rff/m=4/iid"]["normalized"] == 1.0

    def test_rows_carry_seed_and_coordinates(self, tmp_path):
        cfg = parse_config_file(write_cfg(tmp_path / "run.cfg", BASE_RF))
        cfg.out_dir = str(tmp_path / "out")
        run(cfg)
        lines = (tmp_path / "out" / "trials.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        for col in ("seed", "coupling", "m", "d", "trial"):
            assert col in header


class TestGraphExperiments:
    def test_sigma_train_then_grf_bench(self, tmp_path):
        train_cfg = ExperimentConfig(
            kind="sigma-train",
            seed=5,
            out_dir=str(tmp_path / "train"),
            source="synthetic-graph",
            graph_nodes=20,
            edge_prob=0.3,
            n_quantiles=4,
            walks_per_quantile=20,
            p_halt_values=(0.3,),
        )
        run(train_cfg)
        sigma_file = tmp_path / "train" / "sigma_couplings.json"
        payload = json.loads(sigma_file.read_text())
        assert sorted(payload[0]["sigma"]) == [1, 2, 3, 4]

        bench_cfg = ExperimentConfig(
            kind="grf-bench",
            seed=6,
            trials=10,
            out_dir=str(tmp_path / "bench"),
            source="synthetic-graph",
            graph_nodes=20,
            edge_prob=0.3,
            couplings=("iid", "antithetic_termination", "sigma"),
            p_halt_values=(0.3,),
            sigma_path=str(sigma_file),
            walkers=2,
        )
        summary = run(bench_cfg)
        assert "p_halt=0.3/sigma" in summary["results"]

    def test_grf_bench_from_graph_file(self, tmp_path):
        from otrf.graph import erdos_renyi

        g = erdos_renyi(12, 0.4, np.random.default_rng(40))
        path = tmp_path / "g.edges"
        path.write_text("".join(f"{u} {v}\n" for u, v in zip(*np.nonzero(np.triu(g.weights)))))
        cfg = ExperimentConfig(
            kind="grf-bench",
            seed=41,
            trials=5,
            out_dir=str(tmp_path / "out"),
            source="graph-file",
            path=str(path),
            couplings=("iid",),
            p_halt_values=(0.4,),
            walkers=2,
        )
        summary = run(cfg)
        assert summary["results"]["p_halt=0.4/iid"]["mean_error"] > 0

    def test_pagerank_bench_runs(self, tmp_path):
        cfg = ExperimentConfig(
            kind="pagerank-bench",
            seed=8,
            trials=15,
            out_dir=str(tmp_path / "pr"),
            source="synthetic-graph",
            graph_nodes=15,
            edge_prob=0.3,
            couplings=("iid", "sigma"),
            p_halt_values=(0.4,),
            n_quantiles=3,
            walks_per_quantile=30,
            train_nodes=15,
            train_edge_prob=0.3,
            walkers=2,
        )
        summary = run(cfg)
        entry = summary["results"]["p_halt=0.4/sigma"]
        assert entry["mean_l2_error"] > 0

    def test_gp_eval_runs(self, tmp_path):
        cfg = ExperimentConfig(
            kind="gp-eval",
            seed=9,
            trials=8,
            out_dir=str(tmp_path / "gp"),
            source="synthetic",
            n_points=40,
            dim=3,
            splits=2,
            couplings=("orthogonal",),
            fit_steps=40,
            m_values=(3,),
        )
        summary = run(cfg)
        assert summary["results"]["orthogonal"]["kl_mean"] >= 0

    def test_copula_train_writes_params(self, tmp_path):
        cfg = ExperimentConfig(
            kind="copula-train",
            seed=12,
            out_dir=str(tmp_path / "cop"),
            source="synthetic",
            n_points=16,
            dim=3,
            featurizers=("rff",),
            fit_steps=40,
            steps=15,
            mc_samples=2,
        )
        summary = run(cfg)
        assert (tmp_path / "cop" / "copula_params.json").exists()
        assert len(summary["results"]["theta"]) == 3
        assert summary["results"]["pnc_reference_loss"] > 0

    def test_copula_train_prints_plain_floats(self, tmp_path, capsys):
        text = BASE_RF.replace("rf-bench", "copula-train") + "\n[copula]\nsteps = 5\nmc_samples = 2\n"
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main(["copula-train", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "theta: [" in out
        assert "np.float64" not in out

    def test_rf_bench_on_csv(self, tmp_path):
        rng = np.random.default_rng(32)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("x0,x1\n")
            for _ in range(30):
                fh.write(",".join(repr(float(v)) for v in rng.standard_normal(2)) + "\n")
        cfg = ExperimentConfig(
            kind="rf-bench",
            seed=33,
            trials=5,
            out_dir=str(tmp_path / "rf"),
            source="csv",
            path=str(path),
            n_points=20,
            lengthscale="1.5",
            featurizers=("rff",),
            couplings=("iid",),
        )
        summary = run(cfg)
        assert summary["results"]["rff/m=2/iid"]["normalized"] == 1.0

    def test_gp_eval_on_csv(self, tmp_path):
        rng = np.random.default_rng(30)
        path = tmp_path / "data.csv"
        with open(path, "w") as fh:
            fh.write("x0,x1,y\n")
            for _ in range(60):
                row = rng.standard_normal(3)
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        cfg = ExperimentConfig(
            kind="gp-eval",
            seed=31,
            trials=4,
            out_dir=str(tmp_path / "out"),
            source="csv",
            path=str(path),
            target="y",
            splits=2,
            couplings=("orthogonal",),
            fit_steps=30,
            m_values=(2,),
        )
        summary = run(cfg)
        assert np.isfinite(summary["results"]["orthogonal"]["kl_mean"])

    def test_gp_eval_csv_reads_n_points_rows(self, tmp_path):
        # n_points rows of the seeded data permutation, kept in file order;
        # n_points >= rows reads every row, in file order
        data = np.random.default_rng(30).standard_normal((60, 3))

        def outputs(rows, n_points, name):
            path = tmp_path / f"{name}.csv"
            lines = (",".join(repr(float(v)) for v in row) + "\n" for row in rows)
            path.write_text("x0,x1,y\n" + "".join(lines))
            cfg = ExperimentConfig(
                kind="gp-eval", seed=31, trials=4, out_dir=str(tmp_path / name),
                source="csv", path=str(path), target="y", splits=2,
                couplings=("orthogonal",), fit_steps=30, m_values=(2,), n_points=n_points,
            )
            summary = run(cfg)
            return summary["results"], (tmp_path / name / "trials.csv").read_text()

        every_row = outputs(data, 60, "all")
        assert outputs(data, 1000, "more") == every_row
        four = outputs(data, 4, "four")
        assert four != every_row
        idx = np.sort(experiments._rng(31, "data").permutation(60)[:4])
        assert outputs(data[idx], 4, "subset") == four

    def test_attention_bench_runs(self, tmp_path):
        cfg = ExperimentConfig(
            kind="attention-bench",
            seed=10,
            trials=40,
            out_dir=str(tmp_path / "attn"),
            n_points=6,
            dim=4,
            couplings=("orthogonal", "positive_monotone"),
        )
        summary = run(cfg)
        assert summary["results"]["positive_monotone"]["attention_mse_mean"] > 0


GRAPH_BENCH = """
[experiment]
kind = {kind}
seed = 4
trials = 3

[data]
source = synthetic-graph

[couplings]
couplings = {couplings}

[graph]
graph_nodes = 10
edge_prob = 0.4
{graph}

[grid]
p_halt_values = {p_halt_values}
"""


def _rows_below(csv_text, trials):
    return [row for row in csv.DictReader(io.StringIO(csv_text)) if int(row["trial"]) < trials]


class TestTrialBatching:
    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    def test_chunk_boundaries_do_not_change_results(self, tmp_path, kind, monkeypatch):
        # enough walkers on the 10-node graph for chunks of two trials: 7
        # trials end in a short chunk, trial 4 of 5 runs alone, and in
        # chunks of three it runs second of two
        walkers = 2 * (experiments._CHUNK_WALKS // 40)
        pair = experiments._CHUNK_WALKS
        assert pair // (10 * walkers) == 2
        graph = (
            f"walkers = {walkers}\nn_quantiles = 3\nwalks_per_quantile = 10\n"
            "train_nodes = 10\ntrain_edge_prob = 0.4"
        )
        text = GRAPH_BENCH.format(
            kind=kind, couplings="iid, antithetic_termination, sigma", graph=graph,
            p_halt_values="0.3, 0.6",
        )
        outputs = {}
        for name, trials, chunk_walks in (
            ("first", 7, pair), ("again", 7, pair), ("five", 5, pair), ("threes", 5, 30 * walkers)
        ):
            monkeypatch.setattr(experiments, "_CHUNK_WALKS", chunk_walks)
            cfg_path = write_cfg(
                tmp_path / f"{name}.cfg", text.replace("trials = 3", f"trials = {trials}")
            )
            out = tmp_path / name
            assert main([kind, "--config", cfg_path, "--out-dir", str(out)]) == 0
            outputs[name] = ((out / "summary.json").read_bytes(), (out / "trials.csv").read_text())
        assert outputs["first"] == outputs["again"]
        assert outputs["five"] == outputs["threes"]
        five = _rows_below(outputs["five"][1], 5)
        assert len(five) == 5 * 3 * 2
        assert _rows_below(outputs["first"][1], 5) == five

    @pytest.mark.parametrize("kind", ["rf-bench", "gp-eval", "attention-bench"])
    def test_ensemble_chunks_do_not_change_results(self, tmp_path, kind, monkeypatch):
        # m = d = 4: the default budget runs each cell's 10 trials (each of
        # attention-bench's 10 reps' 7 ensembles) in one call, a budget of
        # m * d runs one per call, and 3 * m * d runs chunks of three that
        # end in a short chunk of one
        trials = 70 if kind == "attention-bench" else 10
        text = BASE_RF.replace("rf-bench", kind).replace("trials = 20", f"trials = {trials}")
        text = text.replace("dim = 4", "dim = 4\nsplits = 2").replace(
            "couplings = iid, orthogonal",
            "couplings = iid, halton, orthogonal_pnc, positive_monotone",
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        outputs = []
        for chunk_freqs in (couplings._CHUNK_FREQS, 16, 48):
            monkeypatch.setattr(couplings, "_CHUNK_FREQS", chunk_freqs)
            out = tmp_path / str(chunk_freqs)
            assert main([kind, "--config", cfg_path, "--out-dir", str(out)]) == 0
            outputs.append(((out / "summary.json").read_bytes(), (out / "trials.csv").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


TINY_EUCLIDEAN = dict(
    seed=7, trials=2, n_points=8, dim=2, fit_steps=5, couplings="iid, orthogonal"
)
TINY_GRAPH = dict(
    seed=4, trials=2, source="synthetic-graph", graph_nodes=6, edge_prob=0.5, train_nodes=6,
    n_quantiles=2, walks_per_quantile=4, p_halt_values=0.3, couplings="iid, sigma",
)
# a tiny config of each kind, and the numeric keys the probe sets in it
PROBE_BASES = {
    "rf-bench": TINY_EUCLIDEAN,
    "copula-train": dict(TINY_EUCLIDEAN, steps=2, mc_samples=1),
    "gp-eval": dict(TINY_EUCLIDEAN, splits=2),
    "attention-bench": dict(TINY_EUCLIDEAN, n_points=4),
    "grf-bench": TINY_GRAPH,
    "pagerank-bench": TINY_GRAPH,
}
PROBE_KEYS = {
    "rf-bench": ("seed", "trials", "n_points", "dim", "max_points", "lengthscale",
                 "output_scale", "noise_scale", "m_values", "fit_steps"),
    "copula-train": ("steps", "mc_samples", "lr"),
    "gp-eval": ("trials", "splits", "n_points", "max_points", "fit_steps"),
    "attention-bench": ("trials", "n_points", "dim", "lengthscale", "m_values"),
    "grf-bench": ("trials", "graph_nodes", "edge_prob", "kernel_sigma", "kernel_degree",
                  "kernel_alpha", "kernel_p", "p_halt_values", "n_quantiles", "walkers",
                  "walks_per_quantile", "train_nodes", "train_edge_prob"),
    "pagerank-bench": ("trials", "graph_nodes", "walkers", "n_quantiles"),
}


class TestBadInputExits:
    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    @pytest.mark.parametrize(
        "drop, message",
        [(None, "lacks couplings for p_halt [0.1]"), ("p_halt", "malformed coupling")],
    )
    def test_bad_sigma_file(self, tmp_path, kind, drop, message, capsys):
        from otrf.graph import SigmaCoupling

        sigma_file = tmp_path / "sigma.json"
        only = json.loads(SigmaCoupling(np.array([1, 0]), 0.3).to_json())
        only.pop(drop, None)
        sigma_file.write_text(json.dumps([only]))
        text = GRAPH_BENCH.format(
            kind=kind, couplings="iid, sigma", graph=f"sigma_path = {sigma_file}",
            p_halt_values="0.1, 0.3",
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    def test_sigma_file_p_halt_outside_open_interval(self, tmp_path, kind, capsys):
        # a coupling for a p_halt the grid does not run was once ignored unchecked
        from otrf.graph import SigmaCoupling

        good = json.loads(SigmaCoupling(np.array([1, 0]), 0.3).to_json())
        sigma_file = tmp_path / "sigma.json"
        sigma_file.write_text(json.dumps([good, {**good, "p_halt": 2.0}]))
        text = GRAPH_BENCH.format(
            kind=kind, couplings="iid, sigma", graph=f"sigma_path = {sigma_file}",
            p_halt_values="0.3",
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"sigma_path: malformed couplings in {sigma_file}" in err
        assert "p_halt must lie in (0, 1), got 2.0" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    def test_sigma_file_empty_permutation(self, tmp_path, kind, capsys):
        # an empty sigma once passed the check and failed the run with exit 3
        from otrf.graph import SigmaCoupling

        good = json.loads(SigmaCoupling(np.array([1, 0]), 0.3).to_json())
        sigma_file = tmp_path / "sigma.json"
        sigma_file.write_text(json.dumps([{**good, "sigma": [], "n": 0}]))
        text = GRAPH_BENCH.format(
            kind=kind, couplings="iid, sigma", graph=f"sigma_path = {sigma_file}",
            p_halt_values="0.3",
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"sigma_path: malformed couplings in {sigma_file}" in err
        assert "order must lie in [1, inf), got 0" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    def test_sigma_file_fractional_permutation(self, tmp_path, kind, capsys):
        # [1.5, 2] was once cast to the identity permutation and run
        from otrf.graph import SigmaCoupling

        good = json.loads(SigmaCoupling(np.array([1, 0]), 0.3).to_json())
        sigma_file = tmp_path / "sigma.json"
        sigma_file.write_text(json.dumps([{**good, "sigma": [1.5, 2]}]))
        text = GRAPH_BENCH.format(
            kind=kind, couplings="iid, sigma", graph=f"sigma_path = {sigma_file}",
            p_halt_values="0.3",
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"sigma_path: malformed couplings in {sigma_file}" in err
        assert "perm must hold whole numbers, got 0.5" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    def test_sigma_file_n_disagrees(self, tmp_path, kind, capsys):
        # the n field was once ignored
        from otrf.graph import SigmaCoupling

        good = json.loads(SigmaCoupling(np.array([1, 0]), 0.3).to_json())
        sigma_file = tmp_path / "sigma.json"
        sigma_file.write_text(json.dumps([{**good, "n": 5}]))
        text = GRAPH_BENCH.format(
            kind=kind, couplings="iid, sigma", graph=f"sigma_path = {sigma_file}",
            p_halt_values="0.3",
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"sigma_path: malformed couplings in {sigma_file}" in err
        assert "n must equal the length of sigma, 2, got 5" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    def test_sigma_file_not_json(self, tmp_path, kind, capsys):
        sigma_file = tmp_path / "sigma.json"
        sigma_file.write_text('[{"sigma": [2, 1],')
        text = GRAPH_BENCH.format(
            kind=kind, couplings="iid, sigma", graph=f"sigma_path = {sigma_file}",
            p_halt_values="0.3",
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"sigma_path: malformed couplings in {sigma_file}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, coupling, p_halt",
        [
            pytest.param("grf-bench", "antithetic_termination", "0.0", id="0.0"),
            pytest.param("grf-bench", "antithetic_termination", "1.0", id="1.0"),
            # walks of mean length 1e6 once ran for minutes, and at 1e-12
            # asked for 58.8 TiB
            pytest.param("pagerank-bench", "iid", "1e-6", id="pagerank-bench-1e-6"),
        ],
    )
    def test_antithetic_p_halt_outside_open_interval(self, tmp_path, kind, coupling, p_halt,
                                                     capsys):
        text = GRAPH_BENCH.format(
            kind=kind, couplings=coupling, graph="", p_halt_values=p_halt,
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "p_halt_values must lie in [0.001, 1)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_trials(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path / "run.cfg", BASE_RF.replace("trials = 20", "trials = 0"))
        assert main(["rf-bench", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "trials must lie in [1, 1e6], got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind", ["rf-bench", "grf-bench", "pagerank-bench", "attention-bench"]
    )
    def test_one_trial(self, tmp_path, kind, capsys):
        # a standard error over one trial is NaN: reject before any compute
        if kind in ("grf-bench", "pagerank-bench"):
            text = GRAPH_BENCH.format(
                kind=kind, couplings="iid", graph="", p_halt_values="0.3"
            ).replace("trials = 3", "trials = 1")
        else:
            text = BASE_RF.replace("rf-bench", kind).replace("trials = 20", "trials = 1")
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"trials for {kind} must lie in [2, 1e6], got 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "scales, code",
        [("lengthscale = 1.0\noutput_scale = 1e300", 3), ("lengthscale = 1e200", 0)],
        ids=["output_scale", "lengthscale"],
    )
    def test_kernel_scale_overflow(self, tmp_path, scales, code, capsys):
        # squaring a huge scale as a Python float raised an uncaught
        # OverflowError (exit 1); in numpy it is inf, so an infinite output
        # scale ends in the non-finite-result check, and an infinite
        # lengthscale gives the constant kernel, which the features reproduce
        text = BASE_RF.replace("fit_steps = 60", f"fit_steps = 60\n{scales}")
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main(["rf-bench", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == code
        if code == 3:
            assert "non-finite result" in capsys.readouterr().err

    def test_one_split(self, tmp_path, capsys):
        text = BASE_RF.replace("rf-bench", "gp-eval").replace("dim = 4", "dim = 4\nsplits = 1")
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main(["gp-eval", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "splits for gp-eval must lie in [2, 1e6], got 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gp_eval_one_point(self, tmp_path, capsys):
        # one point split in two left an empty test half: "Mean of empty
        # slice" warnings, then a non-finite result (exit 3) after every fit
        fields = dict(PROBE_BASES["gp-eval"], kind="gp-eval", n_points=1, trials=40)
        cfg_path = write_cfg(tmp_path / "run.cfg", _cfg_text(fields))
        assert main(["gp-eval", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "n_points for gp-eval must lie in [2, 1e6], got 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_gp_eval_one_row_csv(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,y\n0.1,0.2,0.3\n")
        fields = dict(PROBE_BASES["gp-eval"], kind="gp-eval", source="csv", path=path,
                      target="y", trials=40)
        cfg_path = write_cfg(tmp_path / "run.cfg", _cfg_text(fields))
        assert main(["gp-eval", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"path: {path} has 1 data row" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    @pytest.mark.parametrize("coupling", ["antithetic_termination", "sigma"])
    def test_odd_walkers_with_paired_coupling(self, tmp_path, kind, coupling, capsys):
        text = GRAPH_BENCH.format(
            kind=kind, couplings=f"iid, {coupling}", graph="walkers = 3", p_halt_values="0.3"
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "walkers must be even" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, couplings, m",
        [
            ("rf-bench", "orthogonal", 6),
            ("rf-bench", "orthogonal_pnc_antithetic", 4),
            ("rf-bench", "orthogonal_pnc_antithetic", None),  # default m = d
            ("gp-eval", "orthogonal_pnc", 3),
            ("attention-bench", "positive_monotone", 5),
            ("copula-train", "iid", 6),
        ],
    )
    def test_m_not_multiple_of_d(self, tmp_path, kind, couplings, m, capsys):
        text = BASE_RF.replace("rf-bench", kind).replace("iid, orthogonal", couplings)
        if m is not None:
            text += f"\n[grid]\nm_values = {m}\n"
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "m_values: " in err and " needs m " in err
        assert not (tmp_path / "o").exists()

    def test_m_not_multiple_of_csv_dimension(self, tmp_path, capsys):
        # a csv source's dimension is known only once the file is read
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,x2\n" + "0.1,0.2,0.3\n" * 5)
        text = (
            BASE_RF.replace("source = synthetic", f"source = csv\npath = {path}")
            + "\n[grid]\nm_values = 4\n"
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main(["rf-bench", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "m_values: orthogonal needs m to be a multiple of 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, coupling",
        [
            ("rf-bench", "copula"),
            ("rf-bench", "bogus"),
            ("gp-eval", "sigma"),
            ("attention-bench", "antithetic_termination"),
            ("grf-bench", "orthogonal"),
            ("pagerank-bench", "copula"),
        ],
    )
    def test_coupling_the_kind_cannot_run(self, kind, coupling):
        # rejected at construction, before a GP fit or a graph kernel runs
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, seed=1, couplings=("iid", coupling))
        assert str(err.value).startswith("couplings: ") and repr(coupling) in str(err.value)

    @pytest.mark.parametrize("key", ["mc_samples", "steps"])
    def test_copula_train_zero_count(self, tmp_path, key, capsys):
        # a zero count divides by zero or averages an empty trace: reject up front
        text = BASE_RF.replace("rf-bench", "copula-train") + f"\n[copula]\n{key} = 0\n"
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main(["copula-train", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{key} must lie in [1, 1e6], got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench"])
    @pytest.mark.parametrize(
        "couplings, graph, message",
        [
            ("iid", "walkers = 0", "walkers must lie in [1, 1e6], got 0"),
            ("iid", "graph_nodes = 0", "graph_nodes must lie in [2, 1e6], got 0"),
            ("iid", "graph_nodes = 1", "graph_nodes must lie in [2, 1e6], got 1"),
            ("iid, sigma", "train_nodes = 0", "train_nodes must lie in [2, 1e6], got 0"),
            ("iid, sigma", "n_quantiles = 1", "n_quantiles must lie in [2, 1e6], got 1"),
            ("iid, sigma", "walks_per_quantile = 0",
             "walks_per_quantile must lie in [1, 1e6], got 0"),
        ],
        # the ids the cases were first collected under, kept so their names stay stable
        ids=["iid-walkers = 0-walkers must be >= 1", "iid-graph_nodes = 0-graph_nodes must be >= 2",
             "iid-graph_nodes = 1-graph_nodes must be >= 2",
             "iid, sigma-train_nodes = 0-train_nodes must be >= 2",
             "iid, sigma-n_quantiles = 1-n_quantiles must be >= 2",
             "iid, sigma-walks_per_quantile = 0-walks_per_quantile must be >= 1"],
    )
    def test_graph_bench_bad_count(self, tmp_path, kind, couplings, graph, message, capsys):
        # rejected before a graph is sampled or a coupling trained; one node
        # can never give a connected graph without isolated nodes
        text = GRAPH_BENCH.format(
            kind=kind, couplings=couplings, graph=graph, p_halt_values="0.3"
        )
        if graph.startswith("graph_nodes"):
            text = text.replace("graph_nodes = 10\n", "")
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_csv_source_without_path(self, tmp_path, capsys):
        text = BASE_RF.replace("rf-bench", "gp-eval").replace("source = synthetic", "source = csv")
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main(["gp-eval", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "path: source 'csv' needs a path" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind", ["grf-bench", "pagerank-bench", "sigma-train", "attention-bench"]
    )
    def test_source_the_kind_cannot_read(self, tmp_path, kind, capsys):
        # a graph kind used to run on an Erdős–Rényi graph, and attention-bench
        # on Gaussian tokens, whatever the source
        data = tmp_path / "data.csv"
        data.write_text("x0,x1\n0.1,0.2\n")
        if kind == "attention-bench":
            text = BASE_RF.replace("rf-bench", kind)
        else:
            text = GRAPH_BENCH.format(kind=kind, couplings="iid", graph="", p_halt_values="0.3")
        text = re.sub(r"source = \S+", f"source = csv\npath = {data}", text)
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: source: {kind} reads [") and "not 'csv'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, trials, data, message",
        [
            ("attention-bench", 25, "", "multiple of 10 for attention-bench, got 25"),
            ("gp-eval", 30, "splits = 20", "multiple of 20 for gp-eval, got 30"),
        ],
    )
    def test_trials_that_do_not_split_evenly(self, tmp_path, kind, trials, data, message, capsys):
        # the remainder used to be dropped: trials = 25 ran 20 attention trials
        text = (
            BASE_RF.replace("rf-bench", kind)
            .replace("trials = 20", f"trials = {trials}")
            .replace("dim = 4", f"dim = 4\n{data}")
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "trials must be a multiple" in err and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "kind, old, new, message",
        [
            ("rf-bench", "dim = 4", "dim = 4\n\n[grid]\nm_values = 4, 0",
             "m_values must lie in [1, 1e6], got 0"),
            ("rf-bench", "n_points = 24", "n_points = 0", "n_points must lie in [1, 1e6], got 0"),
            ("rf-bench", "dim = 4", "dim = 0", "dim must lie in [1, 1e6], got 0"),
            ("rf-bench", "fit_steps = 60", "fit_steps = 0",
             "fit_steps must lie in [1, 5000], got 0"),
            ("attention-bench", "fit_steps = 60", "fit_steps = 60\nlengthscale = gp",
             "lengthscale: attention-bench takes ['rlf', 'auto'] or a number, not 'gp'"),
            ("grf-bench", "edge_prob = 0.4", "edge_prob = 0",
             "edge_prob must lie in (0, 1], got 0.0"),
            ("grf-bench", "edge_prob = 0.4", "edge_prob = 1.5",
             "edge_prob must lie in (0, 1], got 1.5"),
            ("pagerank-bench", "edge_prob = 0.4", "edge_prob = 0.4\ntrain_edge_prob = 0",
             "train_edge_prob must lie in (0, 1], got 0.0"),
            ("attention-bench", "fit_steps = 60", "lengthscale = -1",
             "lengthscale must lie in (0, inf), got -1.0"),
            ("attention-bench", "fit_steps = 60", "lengthscale = 0",
             "lengthscale must lie in (0, inf), got 0.0"),
            ("attention-bench", "fit_steps = 60", "lengthscale = nan",
             "lengthscale must lie in (0, inf), got nan"),
            ("attention-bench", "fit_steps = 60", "lengthscale = inf",
             "lengthscale must lie in (0, inf), got inf"),
            ("rf-bench", "fit_steps = 60", "lengthscale = -2",
             "lengthscale must lie in (0, inf), got -2.0"),
            ("rf-bench", "n_points = 24", "n_points = 24\nmax_points = 0",
             "max_points must lie in [1, 256], got 0"),
            ("rf-bench", "fit_steps = 60", "output_scale = 0",
             "output_scale must lie in (0, inf), got 0.0"),
            ("rf-bench", "fit_steps = 60", "lengthscale = 1\noutput_scale = nan",
             "output_scale must lie in (0, inf), got nan"),
            ("rf-bench", "fit_steps = 60", "lengthscale = 1\nnoise_scale = -0.1",
             "noise_scale must lie in [0, inf), got -0.1"),
            ("rf-bench", "fit_steps = 60", "noise_scale = inf",
             "noise_scale must lie in [0, inf), got inf"),
            ("copula-train", "fit_steps = 60", "fit_steps = 60\n\n[copula]\nlr = nan",
             "lr must lie in (0, 1], got nan"),
            ("copula-train", "fit_steps = 60", "fit_steps = 60\n\n[copula]\nlr = 0",
             "lr must lie in (0, 1], got 0.0"),
            ("copula-train", "fit_steps = 60", "fit_steps = 60\n\n[copula]\nlr = 1e300",
             "lr must lie in (0, 1], got 1e+300"),
            ("grf-bench", "edge_prob = 0.4", "edge_prob = 0.4\nkernel_family = bogus",
             "kernel_family must be one of ['d_regularized_laplacian', "),
            ("sigma-train", "edge_prob = 0.4", "edge_prob = 0.4\nkernel_degree = 0",
             "kernel_degree must lie in [1, inf), got 0"),
            ("grf-bench", "edge_prob = 0.4",
             "edge_prob = 0.4\nkernel_family = p_step_random_walk\nkernel_alpha = 1.5",
             "kernel_alpha must lie in [2, inf), got 1.5"),
            ("grf-bench", "edge_prob = 0.4", "edge_prob = 0.4\nkernel_sigma = nan",
             "kernel_sigma must lie in [-1e150, 1e150], got nan"),
            ("grf-bench", "edge_prob = 0.4",
             "edge_prob = 0.4\nkernel_family = diffusion\nkernel_sigma = inf",
             "kernel_sigma must lie in [-1e150, 1e150], got inf"),
            ("grf-bench", "edge_prob = 0.4",
             "edge_prob = 0.4\nkernel_family = p_step_random_walk\nkernel_p = -1",
             "kernel_p must lie in [0, inf), got -1"),
            ("grf-bench", "edge_prob = 0.4",
             "edge_prob = 0.4\nkernel_family = p_step_random_walk\nkernel_alpha = 1e300",
             "kernel_alpha = 1e+300, kernel_p = 1: the p_step_random_walk kernel's walk "
             "expansion overflows or vanishes"),
            ("grf-bench", "edge_prob = 0.4", "edge_prob = 0.4\nkernel_sigma = 1e300",
             "kernel_sigma must lie in [-1e150, 1e150], got 1e+300"),
            ("sigma-train", "edge_prob = 0.4", "edge_prob = 0.4\nkernel_degree = 1000000000000",
             "kernel_sigma = 1.0, kernel_degree = 1000000000000: the d_regularized_laplacian "
             "kernel's walk expansion overflows or vanishes"),
        ],
        ids=["m_values", "n_points", "dim", "fit_steps", "lengthscale", "edge_prob-0",
             "edge_prob-1.5", "train_edge_prob", "lengthscale-negative", "lengthscale-zero",
             "lengthscale-nan", "lengthscale-inf", "lengthscale-negative-rf-bench",
             "max_points", "output_scale-zero", "output_scale-nan", "noise_scale-negative",
             "noise_scale-inf", "lr-nan", "lr-zero", "lr-huge", "kernel_family", "kernel_degree",
             "kernel_alpha", "kernel_sigma-nan", "kernel_sigma-inf", "kernel_p",
             "kernel_alpha-huge", "kernel_sigma-huge", "kernel_degree-huge"],
    )
    def test_value_out_of_range(self, tmp_path, kind, old, new, message, capsys):
        # m = 0 used to report the RMSE of a zero-feature estimate, n_points = 0
        # and max_points = 0 a non-finite result, fit_steps = 0 a late error
        # naming "steps", edge_prob = 0 a thousand resamples, and
        # attention-bench ran the rlf heuristic for lengthscale = gp, -1 or 0;
        # a bad kernel scale, lr or graph kernel failed only after compute,
        # or not at all, with a message naming no key; a huge lr diverged, and
        # a finite kernel key whose walk expansion overflows failed after
        # sampling the graph and training sigma
        if kind in ("grf-bench", "pagerank-bench", "sigma-train"):
            text = GRAPH_BENCH.format(
                kind=kind, couplings="iid, sigma", graph="", p_halt_values="0.3"
            )
        else:
            text = BASE_RF.replace("rf-bench", kind)
        cfg_path = write_cfg(tmp_path / "run.cfg", text.replace(old, new))
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edges, message",
        [("", "g.edges: no edges"),
         ("0 1\n-1 2\n", "g.edges:2: node id must lie in [0, inf), got -1")],
        ids=["empty", "negative-id"],
    )
    def test_bad_graph_file(self, tmp_path, edges, message, capsys):
        # an empty file divided by zero nodes, and -1 wrapped to the last node
        path = tmp_path / "g.edges"
        path.write_text(edges)
        text = GRAPH_BENCH.format(kind="grf-bench", couplings="iid", graph="", p_halt_values="0.3")
        text = text.replace("source = synthetic-graph", f"source = graph-file\npath = {path}")
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main(["grf-bench", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["rf-bench", "gp-eval"])
    @pytest.mark.parametrize(
        "data, message",
        [("y\n" + "0.1\n" * 30, "has no feature columns"), ("x0,y\n", "no data rows")],
        ids=["only-the-target", "header-only"],
    )
    def test_bad_csv(self, tmp_path, kind, data, message, capsys):
        # zero feature columns used to divide by zero in the ensemble build,
        # and zero rows to raise an IndexError
        path = tmp_path / "data.csv"
        path.write_text(data)
        text = BASE_RF.replace("rf-bench", kind).replace(
            "source = synthetic", f"source = csv\npath = {path}\ntarget = y"
        )
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path}" in err and message in err
        assert not (tmp_path / "o").exists()

    def test_zero_splits(self, tmp_path, capsys):
        text = BASE_RF.replace("rf-bench", "gp-eval").replace("dim = 4", "dim = 4\nsplits = 0")
        cfg_path = write_cfg(tmp_path / "run.cfg", text)
        assert main(["gp-eval", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert "splits must lie in [1, 1e6], got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            (kind, key, value)
            for kind, keys in PROBE_KEYS.items()
            for key in keys
            for value in ("nan", "inf", "-1", "0", "huge")
        ],
    )
    def test_probe_every_numeric_key(self, tmp_path, kind, key, value, capsys):
        # each case exits 0, or 2 naming the key before any output, or 3;
        # an exception that escapes main (exit 1) fails the case
        fields = dict(PROBE_BASES[kind], kind=kind)
        if key in ("kernel_alpha", "kernel_p"):
            fields["kernel_family"] = "p_step_random_walk"
        if key in ("output_scale", "noise_scale"):
            fields["lengthscale"] = "1.0"
        if value == "huge":
            ftype = typing.get_type_hints(ExperimentConfig)[key]
            value = str(10**12) if int in (ftype, *typing.get_args(ftype)) else "1e300"
        fields[key] = value
        cfg_path = write_cfg(tmp_path / "run.cfg", _cfg_text(fields))
        code = main([kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")])
        assert code in (0, 2, 3)
        if code == 2:
            assert key in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "fields, keys",
        [
            ({"kernel_degree": 10**12}, "kernel_sigma = 1.0, kernel_degree = 1000000000000"),
            ({"kernel_family": "p_step_random_walk", "kernel_p": 10**12},
             "kernel_alpha = 2.0, kernel_p = 1000000000000"),
        ],
    )
    def test_kernel_binomial_beyond_float_range(self, tmp_path, fields, keys, capsys):
        # the exact binomial overflows a float where scipy's comb gave inf
        cfg_path = write_cfg(tmp_path / "run.cfg", _cfg_text(dict(TINY_GRAPH, **fields)))
        assert main(["grf-bench", "--config", cfg_path, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{keys}: the {fields.get('kernel_family', 'd_regularized_laplacian')} kernel's " \
            "walk expansion overflows or vanishes" in capsys.readouterr().err


def _cfg_text(fields) -> str:
    """A config file's text setting ``fields``, each in its own section."""
    sections: dict = {}
    for key in dataclasses.fields(ExperimentConfig):
        if key.name in fields:
            sections.setdefault(key.metadata["section"], []).append(key.name)
    return "".join(
        f"[{section}]\n" + "".join(f"{k} = {fields[k]}\n" for k in keys)
        for section, keys in sections.items()
    )


# Prints, as JSON on its last line, the scipy modules loaded after ``import
# otrf.cli``, when the runner starts and when ``cli.main(argv)`` returns,
# and main's exit code.
_STACK_PROBE = """
import json, sys
from otrf import cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

seen = {"imported": scipy_modules()}
run = cli.run

def spy(cfg):
    seen["run_start"] = scipy_modules()
    return run(cfg)

cli.run = spy
seen["code"] = cli.main(sys.argv[1:])
seen["returned"] = scipy_modules()
print(json.dumps(seen))
"""


def _fresh_python(args, code: str, env_vars=None) -> str:
    """The last line ``code`` prints in a new interpreter that imports this otrf.

    ``env_vars`` sets (a string) or unsets (None) environment variables.
    """
    src = str(Path(otrf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for key, value in (env_vars or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.splitlines()[-1]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# large enough that, on two cores, unpinned BLAS threads change the last bits
GP_EVAL_SMALL = """
[experiment]
kind = gp-eval
seed = 21
trials = 4

[data]
source = synthetic
n_points = 160
dim = 8
splits = 2
max_points = 64

[kernel]
fit_steps = 10

[couplings]
couplings = orthogonal

[grid]
m_values = 8
"""


class TestBlasThreads:
    """The CLI pins one BLAS thread unless its caller sets a count."""

    def test_caller_setting_wins(self):
        code = "import os, otrf.cli; print(*(os.environ[v] for v in %r))" % (BLAS_VARS,)
        unset = dict.fromkeys(BLAS_VARS)
        assert _fresh_python([], code, unset) == "1 1 1"
        assert _fresh_python([], code, {**unset, "OPENBLAS_NUM_THREADS": "2"}) == "2 1 1"

    def test_unset_environment_writes_pinned_bytes(self, tmp_path):
        cfg_path = write_cfg(tmp_path / "gp.cfg", GP_EVAL_SMALL)
        code = "import sys\nfrom otrf import cli\nsys.exit(cli.main(sys.argv[1:]))"
        outputs = []
        for value in (None, "1"):
            out = tmp_path / "out"  # one out path, as a rerun would use
            args = ["gp-eval", "--config", cfg_path, "--out-dir", str(out)]
            _fresh_python(args, code, dict.fromkeys(BLAS_VARS, value))
            outputs.append([(out / name).read_bytes() for name in ("summary.json", "trials.csv")])
        assert outputs[0] == outputs[1]


# frees four 1 MiB blocks at once, as a run frees its large temporaries
_CHURN_FAULTS = """
import resource
import numpy as np
import otrf.cli

def churn():
    blocks = [np.ones(1 << 17) for _ in range(4)]
    del blocks

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the CLI sets malloc thresholds on glibc only")
def test_freed_blocks_are_not_refaulted():
    # at glibc's starting thresholds each round trims the 4 MiB and faults it
    # back in: about 49,600 faults over the 50 rounds
    assert int(_fresh_python([], _CHURN_FAULTS)) < 1000


class TestModuleStacks:
    """A graph kind runs on numpy alone; a Euclidean kind loads scipy while its
    config is checked, so its run starts with the stack loaded."""

    def test_bare_import_loads_no_scipy(self):
        out = _fresh_python([], "import sys, otrf, otrf.cli\n"
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out == "[]"

    def test_config_check_loads_no_numpy_random(self, tmp_path):
        # importing numpy.random took about 12 ms on a 2-core x86 machine; a
        # run loads it when it first seeds, so no kind's setup pays for it
        cfg_path = write_cfg(tmp_path / "run.cfg", _cfg_text(dict(TINY_GRAPH, kind="grf-bench")))
        out = _fresh_python([cfg_path], "import sys, numpy\n"
                            "bare = 'numpy.random' in sys.modules\n"
                            "from otrf import cli\n"
                            "cli.parse_config_file(sys.argv[1], {'kind': 'grf-bench'})\n"
                            "print(bare, 'numpy.random' in sys.modules)")
        if out.startswith("True"):
            pytest.skip("this numpy loads numpy.random on import")
        assert out == "False False"

    def test_every_exported_name_resolves(self):
        for name in otrf.__all__:
            module = importlib.import_module(f"otrf.{otrf._EXPORTS[name]}")
            assert getattr(otrf, name) is getattr(module, name)
        with pytest.raises(AttributeError):
            otrf.no_such_name

    def test_frequency_couplings_are_the_tags_but_copula(self):
        tags = tuple(t for t in couplings.COUPLING_TAGS if t != "copula")
        assert experiments._FREQUENCY_COUPLINGS == tags

    @pytest.mark.parametrize("kind", ["grf-bench", "pagerank-bench", "sigma-train"])
    def test_graph_kind_runs_without_scipy(self, tmp_path, kind):
        cfg_path = write_cfg(tmp_path / "run.cfg", _cfg_text(dict(TINY_GRAPH, kind=kind)))
        seen = json.loads(_fresh_python(
            [kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")], _STACK_PROBE))
        assert seen == {"imported": [], "run_start": [], "code": 0, "returned": []}

    @pytest.mark.parametrize(
        "kind, fits_gp",
        [("rf-bench", True), ("copula-train", True), ("gp-eval", True),
         ("attention-bench", False)],
    )
    def test_euclidean_kind_loads_scipy_before_run(self, tmp_path, kind, fits_gp):
        cfg_path = write_cfg(tmp_path / "run.cfg", _cfg_text(dict(PROBE_BASES[kind], kind=kind)))
        seen = json.loads(_fresh_python(
            [kind, "--config", cfg_path, "--out-dir", str(tmp_path / "o")], _STACK_PROBE))
        assert seen["imported"] == [] and seen["code"] == 0
        assert "scipy.special" in seen["run_start"]
        assert "scipy.linalg" in seen["run_start"] or not fits_gp


def _run_rows(tmp_path, **fields):
    cfg = ExperimentConfig(seed=3, out_dir=str(tmp_path / "out"), **fields)
    results = run(cfg)["results"]
    text = (tmp_path / "out" / "trials.csv").read_text()
    return results, text.splitlines()[0], list(csv.DictReader(io.StringIO(text)))


def _grouped(rows, key, metric):
    groups = {}
    for row in rows:
        groups.setdefault((key(row), row["coupling"]), []).append(float(row[metric]))
    return groups


def _assert_mean_se(entry, values, mean_key, se_key):
    values = np.asarray(values)
    se = values.std(ddof=1) / np.sqrt(values.size)
    assert entry[mean_key] == pytest.approx(values.mean(), rel=1e-12, abs=0)
    assert entry[se_key] == pytest.approx(se, rel=1e-12, abs=0)


class TestSummaryFromRows:
    """Every summary.json statistic recomputed from the trials.csv rows."""

    @pytest.mark.parametrize(
        "fields, cell, metric, mean_key",
        [
            (
                dict(kind="rf-bench", trials=6, n_points=12, dim=4, fit_steps=20,
                     featurizers=("rff", "rlf"), couplings=("iid", "orthogonal"),
                     m_values=(4, 8)),
                lambda row: f"{row['featurizer']}/m={row['m']}", "rmse", "mean_rmse",
            ),
            (
                dict(kind="grf-bench", trials=5, source="synthetic-graph", graph_nodes=10,
                     edge_prob=0.4, couplings=("antithetic_termination", "iid"),
                     p_halt_values=(0.3, 0.6)),
                lambda row: f"p_halt={float(row['p_halt'])}", "frobenius_error", "mean_error",
            ),
            (
                dict(kind="pagerank-bench", trials=4, source="synthetic-graph", graph_nodes=10,
                     edge_prob=0.4, couplings=("antithetic_termination",),
                     p_halt_values=(0.3, 0.6)),
                lambda row: f"p_halt={float(row['p_halt'])}", "l2_error", "mean_l2_error",
            ),
        ],
        ids=["rf-bench", "grf-bench", "pagerank-bench"],
    )
    def test_normalized_grid(self, tmp_path, fields, cell, metric, mean_key):
        results, _, rows = _run_rows(tmp_path, **fields)
        groups = _grouped(rows, cell, metric)
        entries = {k: v for k, v in results.items() if k != "kernel_note"}
        assert set(entries) == {f"{name}/{tag}" for name, tag in groups}
        for (name, tag), values in groups.items():
            entry = entries[f"{name}/{tag}"]
            assert len(values) == entry["trials"] == fields["trials"]
            _assert_mean_se(entry, values, mean_key, "se")
            assert entry["two_se"] == 2 * entry["se"]
            if (name, "iid") in groups:
                iid = np.mean(groups[name, "iid"])
                assert entry["normalized"] == pytest.approx(np.mean(values) / iid, rel=1e-12)
            else:
                assert "normalized" not in entry

    def test_gp_eval_over_split_means(self, tmp_path):
        results, header, rows = _run_rows(
            tmp_path, kind="gp-eval", trials=9, n_points=30, dim=3, splits=3,
            fit_steps=20, couplings=("iid", "orthogonal"), m_values=(3,),
        )
        assert header == "split,coupling,m,draw,seed,kl,kl_per_point,pred_rmse"
        assert set(results) == {"iid", "orthogonal"}
        for metric in ("kl", "pred_rmse"):
            groups = _grouped(rows, lambda row: row["split"], metric)
            for tag, entry in results.items():
                per_split = [groups[str(s), tag] for s in range(3)]
                assert [len(v) for v in per_split] == [entry["draws_per_split"]] * 3 == [3] * 3
                split_means = [np.mean(v) for v in per_split]
                _assert_mean_se(entry, split_means, f"{metric}_mean", f"{metric}_se")
                assert entry["kl_two_se"] == 2 * entry["kl_se"]

    def test_attention_bench_over_reps(self, tmp_path):
        results, header, rows = _run_rows(
            tmp_path, kind="attention-bench", trials=30, n_points=5, dim=4,
            couplings=("iid", "orthogonal"),
        )
        assert header == "coupling,m,d,rep,trials,seed,attention_mse,kernel_var,kernel_cov"
        assert {row["trials"] for row in rows} == {"3"}
        for metric in ("attention_mse", "kernel_var", "kernel_cov"):
            groups = _grouped(rows, lambda row: None, metric)
            assert set(results) == {tag for _, tag in groups}
            for (_, tag), values in groups.items():
                entry = results[tag]
                assert len(values) == entry["reps"] == 10
                assert entry["trials_per_rep"] == 3
                _assert_mean_se(entry, values, f"{metric}_mean", f"{metric}_se")


class TestTrialsCsv:
    def test_bytes_match_dict_writer(self, tmp_path):
        # csv.DictWriter, fed one dict per row, is the reference
        rows = [
            {"coupling": 'a,"b"', "m": 4, "err": np.float64(0.1) + 0.2, "x": 1.5},
            {"x": float("inf"), "err": 3.0, "m": 8, "coupling": "iid"},
        ]
        expected = io.StringIO(newline="")
        writer = csv.DictWriter(expected, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v
                             for k, v in row.items()})
        experiments._write_rows(tmp_path / "trials.csv", rows)
        assert (tmp_path / "trials.csv").read_bytes() == expected.getvalue().encode()
        assert "0.30000000000000004" in expected.getvalue()


class TestIngestion:
    def test_csv_with_target(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n1.0,2.0,0.1\n3.0,4.0,0.2\n")
        X, y, cols = ingest_csv(path, target="y")
        assert X.shape == (2, 2)
        assert np.array_equal(y, [0.1, 0.2])
        assert cols == ["a", "b"]

    def test_malformed_rows_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\nx,3.0\n4.0\n5.0,nan\n")
        with pytest.raises(ValueError) as err:
            ingest_csv(path)
        assert "3" in str(err.value) and "4" in str(err.value) and "5" in str(err.value)

    def test_constant_column_standardizes_to_zero(self):
        X = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]])
        out = standardize(X)
        assert np.array_equal(out[:, 0], np.zeros(3))
        assert np.var(out[:, 1]) == pytest.approx(1.0)

    def test_split_respects_caps(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((700, 2))
        y = rng.standard_normal(700)
        X_tr, y_tr, X_te, y_te = split_dataset(X, y, rng, max_points=256)
        assert len(y_tr) <= 256 and len(y_te) <= 256
        assert X_tr.shape[0] == len(y_tr)
        # disjointness: no row of X_tr appears in X_te
        joined = {tuple(row) for row in X_tr}
        assert not any(tuple(row) in joined for row in X_te)

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(ValueError):
            ingest_csv(path, target="z")
