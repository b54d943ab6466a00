"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every tolerance is pinned here; seeds make each check
deterministic.
"""

import itertools

import numpy as np
import pytest

from otrf import couplings as cpl
from otrf import datasets, eucrf, gp, grf, matching, pagerank
from otrf import graph as graphmod
from otrf import mathcore as mc


def check(criterion: int, ok: bool, detail: str):
    print(f"\n[ACCEPTANCE {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def rng_for(*parts) -> np.random.Generator:
    """Deterministic generator from a mix of ints and string labels."""
    import zlib

    ints = [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in parts]
    return np.random.default_rng(ints)


def mean_se(values):
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(arr.size))


# ---------------------------------------------------------------------------
# Shared synthetic regression data (d=8, N=64) with protocol-fitted kernels


@pytest.fixture(scope="module")
def euclid():
    seed = 42
    d, n = 8, 64
    true = eucrf.GaussianKernelParams(np.sqrt(d), 1.0, 0.1)
    X, y = datasets.gp_synthetic_data(n, d, true, np.random.default_rng(seed))
    init = eucrf.GaussianKernelParams(np.sqrt(d), 1.0, 0.1)
    params_rff = gp.fit_hyperparams(X, y, init, 300)
    heur = eucrf.rlf_lengthscale_heuristic(X)
    params_rlf = gp.fit_hyperparams(X, y, init, 300, fix_lengthscale=heur)
    return {"X": X, "y": y, "d": d, "rff": params_rff, "rlf": params_rlf, "seed": seed}


def test_c01_discrete_ot_oracle():
    """Exhaustive permutation search finds the reversal coupling optimal."""
    n = 6
    ok = True
    details = []
    reversal = tuple(range(n - 1, -1, -1))
    identity = tuple(range(n))
    for d in (2, 4):
        chi = mc.ChiParams(d)
        mids = np.array([mc.chi_inv_cdf((q - 0.5) / n, chi) for q in range(1, n + 1)])
        for v in (0.5, 1.0):
            cost = np.array([[eucrf.cost_rlf(a, b, v, d) for b in mids] for a in mids])
            totals = sorted(
                (sum(cost[q, p[q]] for q in range(n)), p)
                for p in itertools.permutations(range(n))
            )
            ok &= totals[0][1] == reversal and totals[1][0] > totals[0][0]
            ok &= totals[-1][1] == identity  # positive monotone maximises
        cost = np.array(
            [[eucrf.cost_rff(a, b, 0.2, d) for b in mids] for a in mids]
        )
        totals = sorted(
            (sum(cost[q, p[q]] for q in range(n)), p)
            for p in itertools.permutations(range(n))
        )
        ok &= totals[0][1] == reversal and totals[1][0] > totals[0][0]
        details.append(f"d={d} reversal unique argmin")
    check(1, ok, "; ".join(details))


def test_c02_antithetic_optimality():
    """m=2 antithetic exponential features beat 50 sampled couplings."""
    rng = np.random.default_rng(11)
    d, trials, batches = 4, 10_000, 100
    X = rng.standard_normal((20, d))
    ell = eucrf.rlf_lengthscale_heuristic(X)
    pairs = [(X[2 * i] / ell, X[2 * i + 1] / ell) for i in range(10)]
    rotations = []
    for _ in range(50):
        gm = rng.standard_normal((d, d))
        q, r = np.linalg.qr(gm)
        rotations.append(q * np.sign(np.diag(r)))
    omega = rng.standard_normal((trials, d))
    omega_ind = rng.standard_normal((trials, d))
    worst_z = -np.inf
    for xs, ys in pairs:
        s = xs + ys
        pre = np.exp(-xs @ xs - ys @ ys)
        base = omega @ s
        est_anti = 0.5 * pre * (np.exp(base) + np.exp(-base))
        var_anti = est_anti.reshape(batches, -1).var(axis=1)
        for alt in rotations + [None]:
            alt_arg = omega_ind @ s if alt is None else (omega @ alt.T) @ s
            est_alt = 0.5 * pre * (np.exp(base) + np.exp(alt_arg))
            var_alt = est_alt.reshape(batches, -1).var(axis=1)
            diff = var_anti - var_alt
            se = diff.std(ddof=1) / np.sqrt(batches)
            worst_z = max(worst_z, diff.mean() / se)
    check(2, worst_z <= 3.0, f"max z(var_anti - var_alt) = {worst_z:.2f} <= 3")


def test_c03_coupling_rmse_ordering(euclid):
    """Normalised RMSE ordering and the pair-coupling improvement margin."""
    X, d = euclid["X"], euclid["d"]
    trials = 1000
    results = {}
    for featurizer, params, m, tags in (
        ("rff", euclid["rff"], d, ("iid", "orthogonal", "orthogonal_pnc")),
        ("rlf", euclid["rlf"], 2 * d, ("iid", "orthogonal", "orthogonal_pnc_antithetic")),
    ):
        k_exact = eucrf.gaussian_gram(X, X, params)
        for tag in tags:
            vals = np.empty(trials)
            for t in range(trials):
                rng = rng_for(euclid["seed"], featurizer, tag, t)
                ens = cpl.build_ensemble(m, d, tag, rng)
                phi = (
                    eucrf.rff_feature_matrix(X, ens, params)
                    if featurizer == "rff"
                    else eucrf.rlf_feature_matrix(X, ens, params)
                )
                vals[t] = eucrf.relative_rmse(eucrf.gram_estimate(phi), k_exact)
            results[featurizer, tag] = mean_se(vals)
    ok = True
    rff_iid, rff_orth, rff_pnc = (
        results["rff", "iid"],
        results["rff", "orthogonal"],
        results["rff", "orthogonal_pnc"],
    )
    ok &= rff_iid[0] > rff_orth[0] > rff_pnc[0]
    ratio = rff_pnc[0] / rff_orth[0]
    ratio_se = ratio * np.hypot(rff_pnc[1] / rff_pnc[0], rff_orth[1] / rff_orth[0])
    ok &= ratio + 2 * ratio_se < 0.95
    rlf_iid, rlf_orth, rlf_anti = (
        results["rlf", "iid"],
        results["rlf", "orthogonal"],
        results["rlf", "orthogonal_pnc_antithetic"],
    )
    ok &= rlf_iid[0] > rlf_orth[0] > rlf_anti[0]
    check(
        3,
        ok,
        f"rff iid/orth/pnc = {rff_iid[0]:.4f}/{rff_orth[0]:.4f}/{rff_pnc[0]:.4f}, "
        f"pnc ratio {ratio:.3f}+2se<{0.95}; "
        f"rlf iid/orth/anti = {rlf_iid[0]:.4f}/{rlf_orth[0]:.4f}/{rlf_anti[0]:.4f}",
    )


def test_c04_copula_recovers_pair_coupling(euclid):
    """Learned copula reaches the pair-coupled loss level within 2000 steps."""
    X, d = euclid["X"], euclid["d"]
    params = euclid["rff"]
    m = d
    pnc_loss = cpl.reference_coupling_loss(
        "orthogonal_pnc", m, X, params, "rff", 400, np.random.default_rng(1)
    )
    cfg = cpl.CopulaOptConfig(steps=2000, mc_samples=2, m=m)
    _, trace = cpl.optimize_copula(X, params, "rff", cfg, np.random.default_rng(euclid["seed"]))
    smoothed = float(np.mean(trace[-200:]))
    ok = smoothed <= 1.05 * pnc_loss
    check(
        4,
        ok,
        f"smoothed copula loss {smoothed:.5f} <= 1.05 x pnc {1.05 * pnc_loss:.5f} "
        f"(pnc {pnc_loss:.5f})",
    )


def test_c05_unbiasedness_suite():
    """Feature Gram estimates centred on exact kernels at 3 SE."""
    seed = 36
    rng = np.random.default_rng(seed)
    ok = True
    details = []

    # Euclidean: 20 random pairs, 1e4 ensembles
    d, trials = 4, 10_000
    X = rng.standard_normal((40, d)) * 0.5
    params = eucrf.GaussianKernelParams(1.0)
    pair_idx = [(2 * i, 2 * i + 1) for i in range(20)]
    for featurizer, tag, m in (("rff", "iid", 4), ("rlf", "orthogonal_pnc_antithetic", 8)):
        ests = np.empty((trials, 20))
        for t in range(trials):
            r = rng_for(seed, featurizer, t)
            ens = cpl.build_ensemble(m, d, tag, r)
            phi = (
                eucrf.rff_feature_matrix(X, ens, params)
                if featurizer == "rff"
                else eucrf.rlf_feature_matrix(X, ens, params)
            )
            for col, (i, j) in enumerate(pair_idx):
                ests[t, col] = phi[:, i] @ phi[:, j]
        worst = -np.inf
        for col, (i, j) in enumerate(pair_idx):
            k_true = eucrf.gaussian_kernel(X[i], X[j], params)
            se = ests[:, col].std(ddof=1) / np.sqrt(trials)
            worst = max(worst, abs(ests[:, col].mean() - k_true) / se)
        ok &= worst <= 3.0
        details.append(f"{featurizer}/{tag} max|z|={worst:.2f}")

    # Graph features: N=8, 1e4 feature draws, off-diagonal entries
    g = graphmod.erdos_renyi(8, 0.45, np.random.default_rng(seed))
    spec = graphmod.GraphKernelSpec("d_regularized_laplacian", sigma=1.0, degree=2)
    k_exact = graphmod.exact_graph_kernel(g, spec)
    f = grf.modulation_from_coefficients(graphmod.taylor_coefficients(spec, 64), 64)
    sigma = graphmod.SigmaCoupling(np.arange(6)[::-1], 0.5)
    for tag, coupling in (
        ("iid", "iid"),
        ("antithetic", "antithetic_termination"),
        ("sigma", sigma),
    ):
        draws = 10_000
        acc = np.zeros((8, 8))
        acc2 = np.zeros((8, 8))
        for t in range(draws):
            feats = grf.grf_feature_matrix(
                g, 2, coupling, f, 0.5, rng_for(seed, tag, t)
            )
            k_hat = feats @ feats.T
            acc += k_hat
            acc2 += k_hat**2
        mean = acc / draws
        se = np.sqrt(np.maximum(acc2 / draws - mean**2, 1e-30) / draws)
        off = ~np.eye(8, dtype=bool)
        worst = float(np.max(np.abs(mean - k_exact)[off] / se[off]))
        ok &= worst <= 3.0
        details.append(f"grf/{tag} max|z|={worst:.2f}")
    check(5, ok, "; ".join(details))


def test_c06_hungarian_exact():
    """Optimal assignment equals brute force on 100 random 7x7 instances."""
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(100):
        cost = rng.random((7, 7))
        perm, total = matching.hungarian(cost)
        best = min(
            sum(cost[i, p[i]] for i in range(7))
            for p in itertools.permutations(range(7))
        )
        ok &= total == best
    check(6, ok, "100/100 instances match the exhaustive optimum exactly")


def test_c07_sigma_grf_transfer():
    """Length-coupled walk features transfer to held-out graphs."""
    seed = 3
    train_g = graphmod.erdos_renyi(100, 0.1, np.random.default_rng((seed, 0)))
    spec = graphmod.GraphKernelSpec("d_regularized_laplacian", sigma=1.0, degree=2)
    f = grf.modulation_from_coefficients(graphmod.taylor_coefficients(spec, 64), 64)
    p_grid = (0.1, 0.2, 0.3, 0.4, 0.5)
    sigmas = {
        p: matching.solve_sigma_coupling(
            train_g, p, 30, f, 100, np.random.default_rng((seed, 1, int(10 * p)))
        )
        for p in p_grid
    }
    trials = 400
    ok = True
    details = []
    p01_diffs = []
    p01_by_tag = {"iid": [], "anti": [], "sigma": []}
    for gi in range(3):
        g = graphmod.erdos_renyi(100, 0.1, np.random.default_rng((seed, 10 + gi)))
        k_exact = graphmod.exact_graph_kernel(g, spec)
        k_norm = np.linalg.norm(k_exact)
        for p in p_grid:
            cells = {}
            tags = (
                (("iid", "iid"), ("anti", "antithetic_termination"), ("sigma", sigmas[p]))
                if p == 0.1
                else (("iid", "iid"), ("sigma", sigmas[p]))
            )
            for name, coupling in tags:
                vals = np.empty(trials)
                for t in range(trials):
                    r = rng_for(seed, gi, int(10 * p), t, name)
                    feats = grf.grf_feature_matrix(g, 2, coupling, f, p, r)
                    vals[t] = np.linalg.norm(feats @ feats.T - k_exact) / k_norm
                cells[name] = vals
            m_sig, se_sig = mean_se(cells["sigma"])
            m_iid, se_iid = mean_se(cells["iid"])
            ok &= m_sig <= m_iid + 2 * np.hypot(se_sig, se_iid)
            if p == 0.1:
                ok &= m_sig < m_iid  # strictly lower at the smallest halt rate
                p01_diffs.append((m_sig - m_iid) / np.hypot(se_sig, se_iid))
                for name in ("iid", "anti", "sigma"):
                    p01_by_tag[name].append(np.mean(cells[name]))
    pooled = {name: float(np.mean(v)) for name, v in p01_by_tag.items()}
    ordering = pooled["sigma"] <= pooled["anti"] <= pooled["iid"]
    ok &= ordering
    # the coupling adapts to the halt rate
    ok &= not np.array_equal(sigmas[0.1].perm, sigmas[0.5].perm)
    details.append(
        f"p=0.1 pooled means sigma/anti/iid = "
        f"{pooled['sigma']:.4f}/{pooled['anti']:.4f}/{pooled['iid']:.4f}"
    )
    details.append(f"p=0.1 per-graph z = {[round(float(z), 2) for z in p01_diffs]}")
    check(7, ok, "; ".join(details))


def test_c08_gp_identity_and_feature_count(euclid):
    """Feature-space posterior identity and KL decay in the feature count."""
    X, y, d = euclid["X"], euclid["y"], euclid["d"]
    params = euclid["rff"]
    n_tr = 48
    X_tr, y_tr, X_te = X[:n_tr], y[:n_tr], X[n_tr:]
    k_dd, k_pd, k_pp = gp.kernel_blocks(X_tr, X_te, params)
    exact = gp.exact_posterior(k_dd, k_pd, k_pp, y_tr, params.noise_scale)

    X_joint = np.vstack([X_tr, X_te])
    k_joint = eucrf.gaussian_gram(X_joint, X_joint, params)
    root = np.linalg.cholesky(k_joint + 1e-12 * np.eye(len(X_joint)))
    phi = root.T
    ident = gp.approx_posterior(phi[:, :n_tr], phi[:, n_tr:], y_tr, params.noise_scale)
    mean_gap = float(np.max(np.abs(ident.mean - exact.mean)))
    cov_gap = float(np.max(np.abs(ident.cov - exact.cov)))
    ok = mean_gap < 1e-8 and cov_gap < 1e-8

    medians = []
    for m in (d, 4 * d, 16 * d):
        kls = []
        for s in range(100):
            ens = cpl.build_ensemble(m, d, "orthogonal", np.random.default_rng((8, m, s)))
            feats = eucrf.rff_feature_matrix(X_joint, ens, params)
            approx = gp.approx_posterior(
                feats[:, :n_tr], feats[:, n_tr:], y_tr, params.noise_scale
            )
            kls.append(gp.gaussian_kl(approx, exact))
        medians.append(float(np.median(kls)))
    ok &= medians[0] >= medians[1] >= medians[2]
    check(
        8,
        ok,
        f"identity gaps mean {mean_gap:.2e}, cov {cov_gap:.2e} < 1e-8; "
        f"KL medians {[round(v, 3) for v in medians]} nonincreasing",
    )


def test_c09_pair_coupling_posterior_equivalence():
    """Pair coupling neither helps nor hurts the predictive posterior."""
    seed = 21
    d, n_all = 8, 160
    true = eucrf.GaussianKernelParams(np.sqrt(d), 1.0, 0.1)
    X_all, y_all = datasets.gp_synthetic_data(n_all, d, true, np.random.default_rng((seed, 0)))
    splits, draws = 20, 40
    diffs = []
    for sp in range(splits):
        rng = np.random.default_rng((seed, 3, sp))
        X_tr, y_tr, X_te, _ = datasets.split_dataset(X_all, y_all, rng, 64)
        params = gp.fit_hyperparams(X_tr, y_tr, true, 150)
        k_dd, k_pd, k_pp = gp.kernel_blocks(X_tr, X_te, params)
        exact = gp.exact_posterior(k_dd, k_pd, k_pp, y_tr, params.noise_scale)
        X_joint = np.vstack([X_tr, X_te])
        n_tr = len(y_tr)
        per = {}
        for tag in ("orthogonal", "orthogonal_pnc"):
            kls = []
            for dr in range(draws):
                ens = cpl.build_ensemble(
                    d, d, tag, rng_for(seed, 4, sp, dr, tag)
                )
                feats = eucrf.rff_feature_matrix(X_joint, ens, params)
                approx = gp.approx_posterior(
                    feats[:, :n_tr], feats[:, n_tr:], y_tr, params.noise_scale
                )
                kls.append(gp.gaussian_kl(approx, exact))
            per[tag] = float(np.mean(kls))
        diffs.append(per["orthogonal_pnc"] - per["orthogonal"])
    diffs = np.asarray(diffs)
    se = diffs.std(ddof=1) / np.sqrt(splits)
    z = diffs.mean() / se
    check(9, abs(z) <= 2.0, f"paired KL difference z = {z:.2f} within the 2 SE band")


def test_c10_attention_variance_and_mse():
    """Coupling effects on kernel variance versus attention error.

    Each rep draws a fresh token set from the stated distribution, so the
    comparison targets the population over tokens; within a rep all
    couplings share directions and norm uniforms (common random numbers).
    The lengthscale sits slightly below the exponential-feature heuristic,
    where norm couplings have measurable effect but estimator tails stay
    light.
    """
    seed = 5
    n_tok, d, m = 16, 16, 16
    chi = mc.ChiParams(d)
    tags = ("orthogonal", "orthogonal_pnc", "positive_monotone")
    reps, rep_trials = 40, 300

    per_rep = {tag: [] for tag in tags}
    for rep in range(reps):
        rng = np.random.default_rng((seed, rep))
        X = datasets.gaussian_inputs(n_tok, d, rng, scale=d**-0.25)
        params = eucrf.GaussianKernelParams(eucrf.rlf_lengthscale_heuristic(X) / 1.3)
        a_exact = eucrf.attention_exact(X, params)
        acc = {
            tag: [np.zeros((n_tok, n_tok)), np.zeros((n_tok, n_tok)), np.zeros((n_tok, n_tok))]
            for tag in tags
        }
        for _ in range(rep_trials):
            dirs = cpl.sample_orthogonal_directions(d, m, rng)
            u = rng.random(m)
            norms = {
                "orthogonal": mc.chi_inv_cdf(u, chi),
                "positive_monotone": np.full(m, mc.chi_inv_cdf(u[0], chi)),
            }
            paired = np.empty(m)
            paired[0::2] = mc.chi_inv_cdf(u[0::2], chi)
            paired[1::2] = mc.chi_inv_cdf(1.0 - u[0::2], chi)
            norms["orthogonal_pnc"] = paired
            for tag in tags:
                phi = eucrf.rlf_feature_matrix(X, norms[tag][:, None] * dirs, params)
                k_hat = phi.T @ phi
                a_hat = k_hat / k_hat.sum(axis=1, keepdims=True)
                acc[tag][0] += k_hat
                acc[tag][1] += k_hat**2
                acc[tag][2] += (a_hat - a_exact) ** 2
        for tag in tags:
            k_mean = acc[tag][0] / rep_trials
            var = float(np.mean(acc[tag][1] / rep_trials - k_mean**2))
            mse = float(np.mean(acc[tag][2] / rep_trials))
            per_rep[tag].append((var, mse))

    arr = {tag: np.asarray(v) for tag, v in per_rep.items()}

    def paired_z(a, b, col):
        # per-rep relative differences pool cleanly across token sets
        delta = (arr[a][:, col] - arr[b][:, col]) / arr[b][:, col]
        return float(delta.mean() / (delta.std(ddof=1) / np.sqrt(reps)))

    z_var = paired_z("orthogonal_pnc", "orthogonal", 0)
    z_mse_pnc = paired_z("orthogonal_pnc", "orthogonal", 1)
    z_mse_pm = paired_z("positive_monotone", "orthogonal", 1)
    ok = z_var <= -3.0 and abs(z_mse_pnc) <= 2.0 and z_mse_pm <= -2.0
    check(
        10,
        ok,
        f"pair coupling: kernel-variance z {z_var:.1f} <= -3, attention-mse z "
        f"{z_mse_pnc:.2f} within 2; equal-norm coupling mse z {z_mse_pm:.1f} <= -2",
    )


def test_c11_pagerank_couplings():
    """Exact unit mass, unbiasedness and coupled-walk error on test graphs."""
    seed = 17
    train_g = graphmod.erdos_renyi(100, 0.1, np.random.default_rng((seed, 0)))
    p_grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    sigmas = {p: pagerank.solve_pagerank_sigma(train_g, p, 10) for p in p_grid}
    ok = True
    details = []

    # bitwise unit mass: integer counts account for every walk
    g0 = graphmod.erdos_renyi(20, 0.25, np.random.default_rng((seed, 2)))
    for t in range(50):
        counts = pagerank.mc_pagerank(g0, 0.3, 2, "iid", np.random.default_rng((seed, 3, t)))
        ok &= int(counts.sum()) == 20 * 2

    # unbiasedness at 3 SE per node over 1e4 runs
    rho0 = pagerank.exact_pagerank(g0, 0.4)
    runs = 10_000
    acc = np.zeros(20)
    acc2 = np.zeros(20)
    for t in range(runs):
        est = pagerank.mc_pagerank(g0, 0.4, 2, "iid", np.random.default_rng((seed, 4, t))) / 40
        acc += est
        acc2 += est**2
    mean = acc / runs
    se = np.sqrt((acc2 / runs - mean**2) / runs)
    worst = float(np.max(np.abs(mean - rho0) / se))
    ok &= worst <= 3.0
    details.append(f"unbiasedness max|z| = {worst:.2f}")

    trials = 600
    worst_z = -np.inf
    for gi, (n_nodes, p_edge) in enumerate(((60, 0.12), (50, 0.2))):
        g = graphmod.erdos_renyi(n_nodes, p_edge, np.random.default_rng((seed, 5 + gi)))
        for p in p_grid:
            rho = pagerank.exact_pagerank(g, p)
            cells = {}
            for tag in ("iid", "sigma"):
                coupling = sigmas[p] if tag == "sigma" else tag
                vals = np.empty(trials)
                for t in range(trials):
                    r = rng_for(seed, gi, int(10 * p), t, tag)
                    counts = pagerank.mc_pagerank(g, p, 2, coupling, r)
                    vals[t] = float(np.linalg.norm(counts / (2 * n_nodes) - rho))
                cells[tag] = mean_se(vals)
            gap = cells["sigma"][0] - cells["iid"][0]
            z = gap / np.hypot(cells["sigma"][1], cells["iid"][1])
            worst_z = max(worst_z, z)
            ok &= gap <= 2 * np.hypot(cells["sigma"][1], cells["iid"][1])
    details.append(f"max z(sigma - iid) over grid = {worst_z:.2f} <= 2")
    check(11, ok, "; ".join(details))


def test_c12_jlt_and_random_projection_solver():
    """Dimension-reduction concentration and the quadratic matching solver."""
    seed = 13
    rng = np.random.default_rng(seed)
    n_vec, eps = 8, 0.2
    r = matching.jlt_dimension(n_vec, eps)
    base = rng.standard_normal((n_vec, 30))
    outer = np.array([matching.outer_product_vector(v) for v in base])  # dim 900
    u, v = outer[0], outer[1]
    ok_trials = 0
    trials = 1000
    for t in range(trials):
        red = matching.jlt_reduce(np.vstack([u, v]), r, np.random.default_rng((seed, t)))
        plus = np.sum((red[0] + red[1]) ** 2) / np.sum((u + v) ** 2)
        minus = np.sum((red[0] - red[1]) ** 2) / np.sum((u - v) ** 2)
        if 0.8 <= plus <= 1.2 and 0.8 <= minus <= 1.2:
            ok_trials += 1
    frac = ok_trials / trials
    ok = frac >= 0.95

    # solver instances drawn from its real input distribution: estimated
    # quantile projections on random graphs (near-perpendicularity of the
    # candidate sums, which the solver relies on, holds there)
    spec = graphmod.GraphKernelSpec("d_regularized_laplacian", sigma=1.0, degree=2)
    f = grf.modulation_from_coefficients(graphmod.taylor_coefficients(spec, 30), 30)
    hits = 0
    rescued = 0
    for s in range(100):
        r = np.random.default_rng((seed, 7, s))
        g = graphmod.erdos_renyi(6, 0.5, r)
        vectors = grf.estimate_quantile_projections(g, 5, 0.3, f, 20, r)[0]
        best = min(
            matching.quadratic_objective(vectors, np.array(p))
            for p in itertools.permutations(range(5))
        )
        diag_perm, _ = matching.hungarian(
            matching.build_sigma_cost_matrix(vectors, vectors)
        )
        seed_optimal = matching.quadratic_objective(vectors, diag_perm) <= best + 1e-9
        perm = matching.quadratic_matching_random_projection(
            vectors, 50, np.random.default_rng((seed, 8, s))
        )
        if matching.quadratic_objective(vectors, perm) <= best + 1e-9:
            hits += 1
            rescued += not seed_optimal
    ok &= hits >= 90
    check(
        12,
        ok,
        f"norm ratios preserved in {frac:.1%} of trials (>=95%); "
        f"solver matched the exhaustive optimum in {hits}/100 seeds (>=90, "
        f"{rescued} beyond the diagonal seed)",
    )
