"""Bad numbers in every numeric argument of the exported API.

Each case feeds nan, inf, -1 or 0 (and 1e300 to a float argument, or 10^12
to a count refused before any allocation or loop) into one scalar argument
of one callable in ``otrf.__all__``, or into one numeric field of an exported
parameter class, which is then handed to an exported callable that reads it.
The call must return finite output, or raise ValueError or TypeError whose
message names the argument in the one refusal form, "{name} must lie in
{interval}, got {value}".  Warnings are errors.  A NaN or infinite entry of
an array argument is refused in the same form, with the interval (-inf, inf).
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import otrf
from otrf.couplings import CopulaOptConfig, reference_coupling_loss
from otrf.graph import GraphData, GraphKernelSpec, SigmaCoupling, taylor_coefficients
from otrf.grf import modulation_from_coefficients
from otrf.matching import averaged_sigma_cost_matrix, build_sigma_cost_matrix

# a 5-cycle with one chord: connected, no isolated node
G = GraphData.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
# its Laplacian's eigenvalue 0 is exact, so an infinite sigma^2 made NaN kernels
TWO_PATH = GraphData(np.array([[0.0, 1.0], [1.0, 0.0]]))
F = modulation_from_coefficients(taylor_coefficients(GraphKernelSpec("diffusion"), 6), 6)
X = np.array([[0.3, -0.2], [0.1, 0.5], [-0.4, 0.2], [0.6, 0.1]])


def rng():
    return np.random.default_rng(5)


def kernel_outputs(params):
    ens = otrf.build_ensemble(3, 2, "iid", rng())
    return (otrf.gaussian_kernel(X[0], X[1], params), otrf.rff_features(X[0], ens, params),
            otrf.rlf_features(X[0], ens, params))


def copula_fit(dataset=X, **fields):
    config = CopulaOptConfig(**{**dict(steps=2, lr=1e-2, mc_samples=1, m=2), **fields})
    return otrf.optimize_copula(dataset, otrf.GaussianKernelParams(1.0), "rff", config, rng())


def reference_loss_on(dataset):
    return reference_coupling_loss("orthogonal", 2, dataset, otrf.GaussianKernelParams(1.0),
                                   "rff", 1, rng())


# (callable, argument, "float" or "count", huge count refused up front?, call)
CASES = [
    ("CorrelationParams", "m", "count", False,
     lambda v: otrf.CorrelationParams(v, np.array([0.1]))),
    ("GaussianKernelParams", "lengthscale", "float", False,
     lambda v: kernel_outputs(otrf.GaussianKernelParams(v))),
    ("GaussianKernelParams", "output_scale", "float", False,
     lambda v: kernel_outputs(otrf.GaussianKernelParams(1.0, v))),
    ("GaussianKernelParams", "noise_scale", "float", False,
     lambda v: kernel_outputs(otrf.GaussianKernelParams(1.0, 1.0, v))),
    ("GraphKernelSpec", "sigma", "float", False,
     lambda v: otrf.exact_graph_kernel(TWO_PATH, GraphKernelSpec("diffusion", sigma=v))),
    ("GraphKernelSpec", "degree", "count", False,
     lambda v: otrf.exact_graph_kernel(G, GraphKernelSpec("d_regularized_laplacian", degree=v))),
    ("GraphKernelSpec", "alpha", "float", False,
     lambda v: otrf.exact_graph_kernel(G, GraphKernelSpec("p_step_random_walk", alpha=v))),
    ("GraphKernelSpec", "p", "count", False,
     lambda v: otrf.exact_graph_kernel(G, GraphKernelSpec("p_step_random_walk", p=v))),
    ("SigmaCoupling", "p_halt", "float", False, lambda v: SigmaCoupling([1, 0], v)),
    ("averaged_sigma_cost_matrix", "max_pairs", "count", False,
     lambda v: averaged_sigma_cost_matrix(PSI, max_pairs=v, rng=rng())),
    ("SigmaCoupling", "seed", "float", False, lambda v: SigmaCoupling([1, 0], 0.3, v)),
    ("build_ensemble", "m", "count", False, lambda v: otrf.build_ensemble(v, 2, "iid", rng())),
    ("build_ensemble", "d", "count", False, lambda v: otrf.build_ensemble(3, v, "iid", rng())),
    ("exact_pagerank", "p_halt", "float", False, lambda v: otrf.exact_pagerank(G, v)),
    ("grf_features", "node", "count", True,
     lambda v: otrf.grf_features(G, v, 2, "iid", F, 0.3, rng())),
    ("grf_features", "m", "count", False,
     lambda v: otrf.grf_features(G, 1, v, "iid", F, 0.3, rng())),
    ("grf_features", "p_halt", "float", False,
     lambda v: otrf.grf_features(G, 1, 2, "iid", F, v, rng())),
    ("mc_pagerank", "p_halt", "float", False,
     lambda v: otrf.mc_pagerank(G, v, 2, "iid", rng())),
    ("mc_pagerank", "m", "count", False,
     lambda v: otrf.mc_pagerank(G, 0.3, v, "iid", rng())),
    ("modulation_from_coefficients", "k_max", "count", False,
     lambda v: otrf.modulation_from_coefficients([1.0, 0.5], v)),
    ("CopulaOptConfig", "steps", "count", True, lambda v: copula_fit(steps=v)),
    ("CopulaOptConfig", "lr", "float", False, lambda v: copula_fit(lr=v)),
    ("CopulaOptConfig", "mc_samples", "count", True, lambda v: copula_fit(mc_samples=v)),
    ("CopulaOptConfig", "m", "count", False, lambda v: copula_fit(m=v)),
    ("solve_sigma_coupling", "p_halt", "float", False,
     lambda v: otrf.solve_sigma_coupling(G, v, 3, F, 4, rng())),
    ("solve_sigma_coupling", "order", "count", False,
     lambda v: otrf.solve_sigma_coupling(G, 0.3, v, F, 4, rng())),
    ("solve_sigma_coupling", "walks_per_quantile", "count", False,
     lambda v: otrf.solve_sigma_coupling(G, 0.3, 3, F, v, rng())),
]

# gaussian_kernel squares the output scale: 1e300 overflows to the inf that
# the CLI reports as a non-finite result (exit 3, test_kernel_scale_overflow)
LEFT_OUT = {("GaussianKernelParams", "output_scale", 1e300)}


def probe_values(kind, huge):
    values = [math.nan, math.inf, -1, 0]
    if kind == "float":
        values.append(1e300)
    elif huge:
        values.append(10**12)
    return values


def finite(out) -> bool:
    """Every number in ``out``, through containers and dataclass fields."""
    if out is None or isinstance(out, str):
        return True
    if isinstance(out, (tuple, list)):
        return all(finite(item) for item in out)
    if dataclasses.is_dataclass(out):
        return all(finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    return bool(np.all(np.isfinite(np.asarray(out, dtype=float))))


def test_every_export_is_probed():
    probed = {owner for owner, *_ in CASES}
    # no scalar numeric argument: arrays, tags, graphs, ensembles and generators
    scalar_free = {"CouplingSpec", "GraphData", "ModulationFn",
                   "exact_graph_kernel", "gaussian_kernel", "hungarian", "rff_features",
                   "rlf_features", "optimize_copula"}
    assert probed | scalar_free == set(otrf.__all__) | {"CopulaOptConfig",
                                                        "averaged_sigma_cost_matrix"}


@pytest.mark.parametrize(
    "owner, arg, value, call",
    [
        pytest.param(owner, arg, value, call, id=f"{owner}-{arg}-{value}")
        for owner, arg, kind, huge, call in CASES
        for value in probe_values(kind, huge)
        if (owner, arg, value) not in LEFT_OUT
    ],
)
def test_bad_number_refused_or_finite(owner, arg, value, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(value)
        except (ValueError, TypeError) as exc:
            form = rf"^{re.escape(arg)}\b[^,]* must lie in [\[(][^,]+, [^,]+[\])], got "
            assert re.match(form, str(exc)), f"{owner}({arg}={value}): {exc}"
            return
    assert finite(out), f"{owner}({arg}={value}) returned {out!r}"


PSI = np.random.default_rng(1).standard_normal((3, 2, 4))
FREQS = np.array([[0.5, -1.0], [1.2, 0.3], [-0.7, 0.8]])

# (callable, array argument, call given a function that spoils one entry)
ARRAY_CASES = [
    ("gaussian_kernel", "x",
     lambda bad: otrf.gaussian_kernel(bad(X[0]), X[1], otrf.GaussianKernelParams(1.0))),
    ("gaussian_kernel", "y",
     lambda bad: otrf.gaussian_kernel(X[0], bad(X[1]), otrf.GaussianKernelParams(1.0))),
    ("build_sigma_cost_matrix", "psi_i", lambda bad: build_sigma_cost_matrix(bad(PSI[0]), PSI[1])),
    ("build_sigma_cost_matrix", "psi_j", lambda bad: build_sigma_cost_matrix(PSI[0], bad(PSI[1]))),
    ("averaged_sigma_cost_matrix", "psi", lambda bad: averaged_sigma_cost_matrix(bad(PSI))),
    ("rff_features", "x",
     lambda bad: otrf.rff_features(bad(X[0]), FREQS, otrf.GaussianKernelParams(1.0))),
    ("rff_features", "freqs",
     lambda bad: otrf.rff_features(X[0], bad(FREQS), otrf.GaussianKernelParams(1.0))),
    ("rlf_features", "x",
     lambda bad: otrf.rlf_features(bad(X[0]), FREQS, otrf.GaussianKernelParams(1.0))),
    ("rlf_features", "freqs",
     lambda bad: otrf.rlf_features(X[0], bad(FREQS), otrf.GaussianKernelParams(1.0))),
    ("CorrelationParams", "theta", lambda bad: otrf.CorrelationParams(3, bad([0.1, -0.2, 0.3]))),
    ("ModulationFn", "coeffs", lambda bad: otrf.ModulationFn(bad(F.coeffs))),
    ("optimize_copula", "dataset", lambda bad: copula_fit(bad(X))),
    ("reference_coupling_loss", "dataset", lambda bad: reference_loss_on(bad(X))),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("owner, arg, call", ARRAY_CASES,
                         ids=[f"{owner}-{arg}" for owner, arg, _ in ARRAY_CASES])
def test_non_finite_array_entry_refused(owner, arg, call, value):
    def bad(a):
        a = np.array(a, dtype=float)
        a.flat[-1] = value
        return a

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{arg} must lie in (-inf, inf), got {value}")):
            call(bad)


# (callable, array argument, required form, bad shapes, call given the array)
SHAPE_CASES = [
    ("rff_features", "freqs", "an (m, d) array with m >= 1", [(2,), (3, 2, 2), (0, 2)],
     lambda a: otrf.rff_features(X[0], a, otrf.GaussianKernelParams(1.0))),
    ("rlf_features", "freqs", "an (m, d) array with m >= 1", [(2,), (3, 2, 2), (0, 2)],
     lambda a: otrf.rlf_features(X[0], a, otrf.GaussianKernelParams(1.0))),
    ("ModulationFn", "coeffs", "a nonempty sequence", [(0,), (1, 2)], otrf.ModulationFn),
    ("averaged_sigma_cost_matrix", "psi", "an (n_nodes, order, dim) array with n_nodes >= 1",
     [(0,), (0, 2, 4), (3, 4)], averaged_sigma_cost_matrix),
]


# a 1-D freqs once raised IndexError, a 3-D one returned a value and zero
# rows divided by zero; empty coeffs failed inside the walk loop; an empty
# psi divided by zero and a 2-D one raised numpy's AxisError
@pytest.mark.parametrize("owner, arg, form, shape, call", [
    pytest.param(owner, arg, form, shape, call, id=f"{owner}-{arg}-{shape}")
    for owner, arg, form, shapes, call in SHAPE_CASES
    for shape in shapes
])
def test_array_of_wrong_shape_refused(owner, arg, form, shape, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"{arg} must be {form}, got shape {shape}")):
            call(np.ones(shape))


# a 3-D dataset once failed in an unpacking that named no argument, and a 1-D
# one was read as a single point
@pytest.mark.parametrize("shape", [(4,), (1, 4, 2)])
@pytest.mark.parametrize("call", [copula_fit, reference_loss_on])
def test_dataset_not_two_dimensional_refused(call, shape):
    with pytest.raises(ValueError, match=re.escape(f"dataset ndim must lie in [2, 2], got {len(shape)}")):
        call(np.ones(shape))


# a fractional degree once reached math.comb's TypeError in taylor_coefficients,
# while exact_graph_kernel took a fractional power
@pytest.mark.parametrize("family, arg", [("d_regularized_laplacian", "degree"),
                                         ("p_step_random_walk", "p")])
def test_fractional_kernel_power_refused(family, arg):
    with pytest.raises(ValueError, match=re.escape(f"{arg} must hold whole numbers, got 2.5")):
        GraphKernelSpec(family, **{arg: 2.5})
    # a whole float is the integer power, and a family that reads neither ignores both
    spec = GraphKernelSpec(family, **{arg: 2.0})
    assert np.array_equal(taylor_coefficients(spec, 5),
                          taylor_coefficients(GraphKernelSpec(family, **{arg: 2}), 5))
    GraphKernelSpec("diffusion", **{arg: 2.5})


SQUARE = np.array([[0.0, 1.0], [1.0, 0.0]])

# (callable, argument, spoilt form, message, call): each refused since it was probed
REFUSED_ARRAYS = [
    ("GraphData", "weights", "nan", "weights must lie in (-inf, inf), got nan",
     lambda: GraphData(np.where(SQUARE > 0, math.nan, 0.0))),
    ("GraphData", "weights", "inf", "weights must lie in (-inf, inf), got inf",
     lambda: GraphData(np.where(SQUARE > 0, math.inf, 0.0))),
    ("GraphData", "weights", "negative", "weights must lie in [0, inf), got -1.0",
     lambda: GraphData(-SQUARE)),
    ("GraphData", "weights", "1-D", "weights ndim must lie in [2, 2], got 1",
     lambda: GraphData(np.ones(4))),
    ("GraphData", "weights", "non-square", "weights columns must lie in [2, 2], got 3",
     lambda: GraphData(np.ones((2, 3)))),
    ("modulation_from_coefficients", "alpha", "nan", "alpha must lie in (-inf, inf), got nan",
     lambda: modulation_from_coefficients([1.0, math.nan], 4)),
    ("modulation_from_coefficients", "alpha", "empty",
     "alpha must be a nonempty sequence, got shape (0,)",
     lambda: modulation_from_coefficients([], 4)),
    ("modulation_from_coefficients", "alpha", "2-D",
     "alpha must be a nonempty sequence, got shape (1, 2)",
     lambda: modulation_from_coefficients([[1.0, 0.5]], 4)),
    ("SigmaCoupling", "perm", "nan", "perm must hold whole numbers, got nan",
     lambda: SigmaCoupling([1, math.nan], 0.3)),
    ("SigmaCoupling", "perm", "2-D", "perm must be a permutation of 0..n-1",
     lambda: SigmaCoupling([[1, 0]], 0.3)),
    ("CorrelationParams", "theta", "empty", "theta must have shape (3,) for m=3, got (0,)",
     lambda: otrf.CorrelationParams(3, np.array([]))),
    ("CorrelationParams", "theta", "2-D", "theta must have shape (3,) for m=3, got (1, 3)",
     lambda: otrf.CorrelationParams(3, np.ones((1, 3)))),
    ("CorrelationParams", "theta", "wrong length", "theta must have shape (3,) for m=3, got (2,)",
     lambda: otrf.CorrelationParams(3, np.ones(2))),
    ("ModulationFn", "coeffs", "2-D", "coeffs must be a nonempty sequence, got shape (2, 2)",
     lambda: otrf.ModulationFn(np.ones((2, 2)))),
    ("gaussian_kernel", "y", "empty", "y size must lie in [2, 2], got 0",
     lambda: otrf.gaussian_kernel(X[0], np.array([]), otrf.GaussianKernelParams(1.0))),
    ("gaussian_kernel", "y", "wrong length", "y size must lie in [2, 2], got 3",
     lambda: otrf.gaussian_kernel(X[0], np.ones(3), otrf.GaussianKernelParams(1.0))),
    ("reference_coupling_loss", "featurizer", "unknown",
     "featurizer must be 'rff' or 'rlf', got 'bogus'",
     lambda: reference_coupling_loss("orthogonal", 2, X, otrf.GaussianKernelParams(1.0),
                                     "bogus", 1, rng())),
]


@pytest.mark.parametrize("owner, arg, form, message, call", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2]}") for case in REFUSED_ARRAYS
])
def test_spoilt_array_argument_refused(owner, arg, form, message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_hungarian_of_empty_cost_is_empty_assignment():
    perm, total = otrf.hungarian(np.zeros((0, 0)))
    assert perm.shape == (0,) and total == 0.0
