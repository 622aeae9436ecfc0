"""Seeded, deterministic instance generators and a fresh-interpreter runner for the tests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pml
from pml import (
    AssignmentSpec,
    Profile,
    build_d_grids,
    d_profile_of,
    discretize_d_profile,
    profile_of_sequence,
)


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this pml; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(pml.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return proc.stdout


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_distribution(rng, support: int, min_prob: float = 0.06) -> np.ndarray:
    """Random distribution with every entry at least min_prob."""
    assert support * min_prob < 1.0
    p = min_prob + (1.0 - support * min_prob) * rng.dirichlet(np.ones(support))
    assert p.min() >= min_prob
    return p


def random_sequence(rng, n: int, alphabet: int) -> list[str]:
    symbols = [chr(ord("a") + i) for i in range(alphabet)]
    return [symbols[i] for i in rng.integers(0, alphabet, size=n)]


def random_profile(rng, n: int, alphabet: int) -> Profile:
    return profile_of_sequence(random_sequence(rng, n, alphabet))


def random_fractional_point(rng, spec: AssignmentSpec) -> np.ndarray:
    """Random point of the fractional feasible set (budget variant).

    Columns get Dirichlet splits of their counts; if the mass budget is
    exceeded, a fraction of every column moves to the cheapest level, which
    lands exactly on the binding budget.
    """
    R, J = spec.shape
    X = np.zeros((R, J))
    for j in range(1, J):
        count = spec.col_counts[j - 1]
        if count:
            X[:, j] = rng.dirichlet(np.ones(R)) * count
    cheapest = int(np.argmin(spec.levels.sum(axis=1)))
    use = spec.budget_use(X)
    if np.any(use > 1.0):
        floor_use = spec.col_counts.sum() * spec.levels[cheapest]
        alpha = max(
            (u - 1.0) / (u - f) for u, f in zip(use, floor_use) if u > 1.0
        )
        assert 0 < alpha <= 1.0
        moved = alpha * X[:, 1:].sum(axis=0)
        X[:, 1:] *= 1.0 - alpha
        X[cheapest, 1:] += moved
    # Spend part of the leftover budget on unseen elements at the cheapest level.
    slack = float((1.0 - spec.budget_use(X)).min())
    if slack > 0:
        X[cheapest, 0] += 0.5 * slack / float(spec.levels[cheapest].max())
    return X


def tiny_solver_specs() -> list[AssignmentSpec]:
    """Hand-built enumerable instances with num_levels * observed_cols <= 12."""
    specs = []

    def add(levels, freqs, counts):
        specs.append(
            AssignmentSpec(
                levels=np.asarray(levels, dtype=float),
                freqs=np.asarray(freqs, dtype=float),
                col_counts=np.asarray(counts, dtype=np.int64),
            )
        )

    ladder4 = [0.125, 0.25, 0.5, 1.0]
    ladder3 = [0.25, 0.5, 1.0]
    add(ladder4, [0, 1, 2], [2, 0])  # two singletons, n = 2
    add(ladder4, [0, 1, 2], [0, 1])  # one doubleton
    add(ladder4, [0, 1, 2], [1, 1])  # ababc-like mix at n = 3
    add(ladder4, [0, 1, 2], [3, 0])
    add(ladder4, [0, 1, 2], [2, 1])
    add(ladder3, [0, 1, 2, 3], [1, 1, 0])
    add(ladder3, [0, 1, 2, 3], [0, 0, 1])
    add(ladder3, [0, 1, 2, 3], [2, 0, 1])
    add(ladder3, [0, 1, 3, 4], [1, 0, 1])
    add([0.0625, 0.25, 1.0], [0, 1, 2], [2, 2])
    add([0.0625, 0.25, 1.0], [0, 1, 4], [3, 1])
    add([0.1, 0.3, 0.9], [0, 1, 2], [1, 1])  # non-commensurable levels
    add([0.2, 0.5], [0, 1, 2, 3], [1, 1, 1])
    add([0.11, 0.47], [0, 1, 2, 5], [2, 1, 0])
    add(ladder4, [0, 1, 3], [1, 2])
    add(ladder3, [0, 2, 3], [2, 1])
    add([0.5, 1.0], [0, 1], [2])
    add([1 / 3, 2 / 3, 1.0], [0, 1, 2], [2, 1])
    add([0.125, 0.5], [0, 1, 2], [1, 2])
    add([0.0625, 0.125, 0.25, 0.5], [0, 1, 2], [4, 1])
    return specs


@pytest.fixture
def rng():
    return make_rng(20240817)


def default_grids(sequences, eps=None):
    """The d-profile of these samples and the pipeline's grids for it: the
    default grids, or every eps1 and eps2 equal to `eps`."""
    dp = d_profile_of([list(s) for s in sequences])
    if eps is None:
        eps = tuple(min(1.0, nk ** (-1.0 / (2 * dp.d + 1))) for nk in dp.n)
    else:
        eps = (eps,) * dp.d
    return dp, build_d_grids(dp.n, eps, eps)


def frequency_product(grids):
    """Every frequency tuple of the grids' ladders, each extended with 0, in
    ascending tuple order, without the all-zero tuple."""
    axes = np.meshgrid(*[np.r_[0, g.values] for g in grids.freq_grids], indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)[1:]


def default_grid_spec(sequences, eps=None):
    """The pipeline's assignment problem for these samples (see
    :func:`default_grids`): one column per observed discretized tuple."""
    dp, grids = default_grids(sequences, eps)
    counts, tuples = discretize_d_profile(dp, grids)
    return AssignmentSpec(
        levels=grids.level_values,
        freqs=np.vstack([np.zeros((1, dp.d)), tuples]),
        col_counts=counts,
    )


def every_grid_column_spec(sequences, eps=None):
    """:func:`default_grid_spec` over every tuple of the frequency product,
    observed or not: the unobserved columns are empty."""
    dp, grids = default_grids(sequences, eps)
    counts, tuples = discretize_d_profile(dp, grids)
    product = frequency_product(grids)
    rows = {t: i for i, t in enumerate(map(tuple, product.tolist()))}
    col_counts = np.zeros(len(product), dtype=np.int64)
    col_counts[[rows[t] for t in map(tuple, tuples.tolist())]] = counts
    return AssignmentSpec(
        levels=grids.level_values,
        freqs=np.vstack([np.zeros((1, dp.d)), product]),
        col_counts=col_counts,
    )
