"""In-process span tracing of the otrf library layers.

The tracer wraps the public functions of each library module and rebinds
every ``otrf.*`` module attribute that refers to one of them, because
``couplings``, ``graph``, ``grf``, ``pagerank`` and ``matching`` import
names with ``from .x import f``: patching only the defining module would
miss those call sites.  Spans are aggregated in memory by (name, parent),
since ``mathcore.chi_cdf`` runs hundreds of thousands of times per
experiment.  The call stack is a plain list, so the traced experiment must
run single-threaded (``--threads 1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager

import numpy as np

# Library modules whose public functions are spans; ``experiments.run`` is
# the root span of every experiment.
LAYERS = ("mathcore", "couplings", "eucrf", "gp", "graph", "grf", "matching", "pagerank")
ROOT = "experiments.run"


def _walks_of_feature_matrix(a):
    return {"walks": a["g"].n_nodes * a["m"]}


def _walks_of_quantile_projections(a):
    return {"walks": a["g"].n_nodes * a["order"] * a["walks_per_quantile"]}


# Work counts taken from a call's bound arguments, per span name.  Counts
# add up over calls, except ``order``, which keeps the largest value.
COUNTERS = {
    "mathcore.chi_inv_cdf": lambda a: {"values": int(np.size(a["u"]))},
    "graph.batch_walk_lengths": lambda a: {"walks": int(a["n_walks"])},
    "graph.batch_walk_endpoints": lambda a: {
        "walks": int(np.size(a["starts"])),
        "steps": int(np.sum(a["lengths"])),
    },
    "grf.grf_feature_matrix": _walks_of_feature_matrix,
    "grf.estimate_quantile_projections": _walks_of_quantile_projections,
    "matching.hungarian": lambda a: {"order": len(a["cost"])},
    "couplings.optimize_copula": lambda a: {"steps": int(a["config"].steps)},
}
MAX_COUNTS = {"order"}


class Tracer:
    """Aggregated spans: (name, parent) -> [calls, total_s, children_s]."""

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[list] = []  # [name, children_s] per open span

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(name, counter(bound.arguments))
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = self.spans.get((name, parent))
                if record is None:
                    record = self.spans[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]

        return traced

    def _count(self, name: str, values: dict[str, int]):
        into = self.counts.setdefault(name, {})
        for key, value in values.items():
            if key in MAX_COUNTS:
                into[key] = max(into.get(key, 0), value)
            else:
                into[key] = into.get(key, 0) + value

    def calls(self, name: str) -> int:
        return sum(r[0] for (n, _), r in self.spans.items() if n == name)

    def total_s(self, name: str) -> float:
        return sum(r[1] for (n, _), r in self.spans.items() if n == name)

    def self_s(self, name: str) -> float:
        """Span time of ``name`` minus the time of its traced children."""
        return sum(r[1] - r[2] for (n, _), r in self.spans.items() if n == name)

    def table(self) -> list[dict]:
        """Every aggregated span, slowest total first."""
        rows = [
            {"name": n, "parent": p, "calls": r[0], "total_s": r[1], "self_s": r[1] - r[2]}
            for (n, p), r in self.spans.items()
        ]
        return sorted(rows, key=lambda row: -row["total_s"])


def _otrf_modules() -> dict:
    import otrf

    mods = {"otrf": otrf}
    for info in pkgutil.iter_modules(otrf.__path__):
        mods[info.name] = importlib.import_module(f"otrf.{info.name}")
    return mods


def _traced_functions(mods: dict) -> dict:
    """Original function -> span name, for every public layer function."""
    names = {}
    for layer in LAYERS:
        mod = mods[layer]
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                names[obj] = f"{layer}.{attr}"
    names[mods["experiments"].run] = ROOT
    return names


@contextmanager
def installed(tracer: Tracer):
    """Route every otrf call site of a layer function through ``tracer``."""
    mods = _otrf_modules()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in _traced_functions(mods).items()}
    patched = []
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    try:
        yield tracer
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)
