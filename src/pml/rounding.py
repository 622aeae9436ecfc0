"""Floor-and-repair conversion of fractional assignments to integral ones.

Each observed column is floored entrywise; the lost fractional counts of
column j are collected on one fresh level whose probability value is the
mass-weighted mean of the donors, so column sums are restored exactly and no
probability mass is created. Unseen-column fractions are simply floored away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import AssignmentSpec, is_feasible

__all__ = ["RoundedSolution", "round_assignment"]

# Fractional entries this close to an integer count as that integer, so solver
# noise like 2.9999999997 does not floor to 2.
SNAP = 1e-9
_BLOCK = 1 << 14  # entries per integrality check


@dataclass(frozen=True, eq=False)
class RoundedSolution:
    """Integral assignment on the level set extended by one row per column.

    ``X`` has shape (base_rows + num_observed_cols, num_cols); appended row
    ``base_rows + j`` may only be nonzero in column ``j + 1``. ``extra_levels``
    keeps the fresh level values, with all-zero rows marking columns that
    rounded exactly and needed no new level.
    """

    X: np.ndarray
    extra_levels: np.ndarray
    spec_ext: AssignmentSpec
    base_rows: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        step = max(1, _BLOCK // max(X.shape[1], 1))  # rows checked at a time, not a copy of X
        for block in (X[start:start + step] for start in range(0, X.shape[0], step)):
            if np.any(block != np.rint(block)) or np.any(block < 0):
                raise ValueError("rounded assignments are nonnegative integers")
        for j in range(X.shape[1] - 1):
            row = self.base_rows + j
            mask = np.ones(X.shape[1], dtype=bool)
            mask[j + 1] = False
            if np.any(X[row, mask] != 0):
                raise ValueError(f"appended row {row} may only use column {j + 1}")
        object.__setattr__(self, "X", X)


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
    frac = X_frac - floors  # may be ~-1e-9 where SNAP rounded a cell up
    extra_levels = np.zeros((cols, spec.dim))

    residuals = np.rint(spec.col_counts - floors[:, 1:].sum(axis=0)).astype(np.int64)
    if np.any(residuals < 0):
        raise ValueError("floored column sums exceed their targets")

    appended = np.ones((cols, spec.dim))  # placeholder 1.0 keeps logs finite
    for j in range(cols):
        r = residuals[j]
        if r == 0:
            continue
        value = frac[:, j + 1] @ spec.levels / r
        extra_levels[j] = value
        appended[j] = value
        X[R + j, j + 1] = r
    del frac

    spec_ext = AssignmentSpec(
        levels=np.vstack([spec.levels, appended]),
        freqs=spec.freqs,
        col_counts=spec.col_counts,
    )
    return RoundedSolution(X=X, extra_levels=extra_levels, spec_ext=spec_ext, base_rows=R)
