"""Coupled random features with optimal-transport couplings.

Feature ensembles on Euclidean inputs (trigonometric and exponential maps)
and on graph nodes (random-walk features) whose joint sampling laws are
shaped to reduce kernel-estimator variance, together with the downstream
evaluators (GP posteriors, attention error, PageRank) and a benchmark CLI.

The names below load with their module on first use (PEP 562), so that
``import otrf`` loads neither module stack: the graph modules need numpy
alone, the Euclidean ones scipy too.
"""

import importlib

# exported name -> the module that defines it
_EXPORTS = {
    "CorrelationParams": "couplings",
    "CouplingSpec": "couplings",
    "GaussianKernelParams": "eucrf",
    "GraphData": "graph",
    "GraphKernelSpec": "graph",
    "ModulationFn": "grf",
    "SigmaCoupling": "graph",
    "build_ensemble": "couplings",
    "exact_graph_kernel": "graph",
    "exact_pagerank": "pagerank",
    "gaussian_kernel": "eucrf",
    "grf_features": "grf",
    "hungarian": "matching",
    "mc_pagerank": "pagerank",
    "modulation_from_coefficients": "grf",
    "optimize_copula": "couplings",
    "rff_features": "eucrf",
    "rlf_features": "eucrf",
    "solve_sigma_coupling": "matching",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
