"""Synthetic data generation, CSV ingestion and split handling."""

from __future__ import annotations

import csv

import numpy as np

from .eucrf import GaussianKernelParams, gaussian_gram
from .mathcore import ensure_rng


def gaussian_inputs(n: int, d: int, rng, scale: float = 1.0) -> np.ndarray:
    """n points in R^d with iid N(0, scale^2) coordinates."""
    return scale * ensure_rng(rng).standard_normal((n, d))


def gp_synthetic_data(n: int, d: int, params: GaussianKernelParams, rng):
    """Inputs plus targets drawn from the corresponding GP prior."""
    rng = ensure_rng(rng)
    X = gaussian_inputs(n, d, rng)
    K = gaussian_gram(X, X, params) + params.noise_scale**2 * np.eye(n)
    L = np.linalg.cholesky(K + 1e-10 * np.eye(n))
    y = L @ rng.standard_normal(n)
    return X, y


def ingest_csv(path, target: str | None = None):
    """Numeric CSV with a header row; returns (features, targets, columns).

    ``target`` selects the target column by name (None means no targets).
    Malformed or non-finite cells raise with the offending line numbers.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = []
        bad_lines = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                bad_lines.append(lineno)
                continue
            try:
                vals = [float(v) for v in row]
            except ValueError:
                bad_lines.append(lineno)
                continue
            if not all(np.isfinite(v) for v in vals):
                bad_lines.append(lineno)
                continue
            rows.append(vals)
    if bad_lines:
        raise ValueError(f"{path}: malformed or non-finite rows at lines {bad_lines}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    if target is None:
        return data, None, header
    if target not in header:
        raise ValueError(f"{path}: no column named {target!r}")
    t_idx = header.index(target)
    mask = np.ones(len(header), dtype=bool)
    mask[t_idx] = False
    return data[:, mask], data[:, t_idx], [h for h in header if h != target]


def standardize(train: np.ndarray, *others):
    """Zero-mean unit-variance columns, statistics from the training block.

    Columns whose training variance falls below 1e-12 come out as all
    zeros.  Returns the transformed train block followed by the others.
    """
    train = np.atleast_2d(np.asarray(train, dtype=float))
    mean = train.mean(axis=0)
    var = train.var(axis=0)
    denom = np.sqrt(np.maximum(var, 1e-12))
    out = [(train - mean) / denom]
    for block in others:
        out.append((np.atleast_2d(np.asarray(block, dtype=float)) - mean) / denom)
    return out[0] if not others else tuple(out)


def split_dataset(X: np.ndarray, y: np.ndarray, rng, max_points: int = 256):
    """Disjoint random train/test halves, each capped at ``max_points``."""
    rng = ensure_rng(rng)
    n = X.shape[0]
    perm = rng.permutation(n)
    n_test = min(max_points, round(n / 2))
    n_train = min(max_points, n - n_test)
    test_idx = perm[:n_test]
    train_idx = perm[n_test : n_test + n_train]
    return (X[train_idx], y[train_idx], X[test_idx], y[test_idx])
