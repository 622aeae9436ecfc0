"""Floor-and-repair conversion of fractional assignments to integral ones.

Each observed column is floored entrywise; the lost fractional counts of
column j are collected on one fresh level whose probability value is the
mass-weighted mean of the donors, so column sums are restored exactly and no
probability mass is created. Unseen-column fractions are simply floored away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import AssignmentSpec, is_feasible, log_weight
from .estimators import LevelSetDistribution

__all__ = ["RoundedSolution", "pseudo_from_assignment", "round_assignment"]

# Fractional entries this close to an integer count as that integer, so solver
# noise like 2.9999999997 does not floor to 2.
SNAP = 1e-9


@dataclass(frozen=True, eq=False)
class RoundedSolution:
    """Integral assignment on the level set extended by one row per column.

    ``X`` has shape (R + J - 1, J) for a spec of R levels and J columns, and
    ``levels`` holds one value row per row of ``X``: the spec's levels, then
    one fresh level per observed column. Appended row ``R + j`` is nonzero in
    column ``j + 1`` only; a column that rounded exactly keeps the placeholder
    level 1.0 on an empty row. ``log_weight`` is the exact log-weight of ``X``
    on those levels, one term of their grouped sum.
    """

    X: np.ndarray
    levels: np.ndarray
    log_weight: float


def round_assignment(fractional: np.ndarray, spec: AssignmentSpec) -> RoundedSolution:
    """Round a fractional feasible assignment onto the extended level set.

    Column sums are restored exactly (residuals are integers because the
    column targets are), and the probability budget of the input is conserved
    to roundoff by construction of the fresh level values.
    """
    if spec.row_counts is not None:
        raise ValueError("rounding applies to the budget (fractional) variant")
    X_frac = np.asarray(fractional, dtype=float)
    if not is_feasible(X_frac, spec, tol=1e-8):
        raise ValueError("input must be feasible for the fractional set")
    R, J = spec.shape
    cols = J - 1

    X = np.zeros((R + cols, J))
    floors = X[:R]  # floored in place: X, the input and frac are the only full-size arrays
    np.floor(np.add(X_frac, SNAP, out=floors), out=floors)
    np.maximum(floors, 0.0, out=floors)  # a feasible entry may be as low as -tol
    frac = X_frac - floors  # ~-1e-9 where SNAP rounded a cell up or a cell was raised to 0

    residuals = np.rint(spec.col_counts - floors[:, 1:].sum(axis=0)).astype(np.int64)
    if np.any(residuals < 0):
        raise ValueError("floored column sums exceed their targets")

    appended = np.ones((cols, spec.dim))  # placeholder 1.0 keeps logs finite
    for j in range(cols):
        r = residuals[j]
        if r == 0:
            continue
        appended[j] = frac[:, j + 1] @ spec.levels / r
        X[R + j, j + 1] = r
    del frac

    # Appended row R + j holds r_j elements in column j + 1 alone, so its
    # multinomial term is log r_j! - log r_j! = 0 and its mass term is
    # r_j * (f_j . log v_j).
    weight = log_weight(floors, spec) + residuals @ (np.log(appended) * spec.freqs[1:]).sum(axis=1)
    return RoundedSolution(X, np.vstack([spec.levels, appended]), float(weight))


def pseudo_from_assignment(rounded: RoundedSolution) -> LevelSetDistribution:
    """Level-set view of a rounded assignment: one level per nonempty row."""
    row_sums = rounded.X.sum(axis=1)
    keep = row_sums > 0
    if not np.any(keep):
        raise ValueError("assignment has no elements")
    return LevelSetDistribution(rounded.levels[keep], row_sums[keep])
