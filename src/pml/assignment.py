"""Assignment matrices over (probability level, discretized frequency) cells.

An assignment matrix ``X`` describes a level-set distribution together with the
observations: ``X[i, j]`` is the number of domain elements that sit at
probability level ``i`` and were observed with the frequency of column ``j``.
Column 0 counts unseen elements. Feasible matrices must reproduce the observed
column totals and keep the total probability mass at most one.

Objective values are carried in log space. ``log_weight`` scores integral
matrices (probability mass times multinomial arrangement count); ``log_weight_relaxed``
replaces the factorials with ``x log x - x`` so the score extends to fractional
matrices and is concave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, xlogy

from .combinatorics import composition_array, num_compositions

__all__ = [
    "AssignmentSpec",
    "EnumerationCapError",
    "log_weight",
    "log_weight_relaxed",
    "grad_log_weight_relaxed",
    "is_feasible",
    "iter_feasible",
    "count_feasible",
    "has_commensurable_levels",
    "log_count_bound",
    "log_weight_sum",
    "log_weight_total",
]

GRAD_FLOOR = 1e-12


class EnumerationCapError(ValueError):
    """Feasible-set enumeration would exceed the requested cap."""


@dataclass(frozen=True, eq=False)
class AssignmentSpec:
    """Shapes and constraints of one assignment problem.

    Parameters
    ----------
    levels : array, shape (R,) or (R, d)
        Probability value of each level row, per coordinate; all in (0, 1].
    freqs : array, shape (J,) or (J, d)
        Frequency represented by each column; row 0 must be zero (unseen).
    col_counts : array, shape (J - 1,)
        Required number of elements in each observed column.
    row_counts : array, shape (R,), optional
        When given, row sums are pinned to this vector (the restricted set
        used to sum probabilities of a fixed level-set distribution).
    """

    levels: np.ndarray
    freqs: np.ndarray
    col_counts: np.ndarray
    row_counts: np.ndarray | None = None

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        if levels.ndim == 1:
            levels = levels[:, None]
        freqs = np.asarray(self.freqs, dtype=float)
        if freqs.ndim == 1:
            freqs = freqs[:, None]
        if levels.ndim != 2 or freqs.ndim != 2 or levels.shape[1] != freqs.shape[1]:
            raise ValueError("levels and freqs must agree on the number of coordinates")
        if np.any(levels <= 0) or np.any(levels > 1 + 1e-9):
            raise ValueError("level values must lie in (0, 1]")
        if np.any(freqs[0] != 0):
            raise ValueError("column 0 is the unseen column and must have zero frequency")
        if freqs.shape[0] < 2 and np.asarray(self.col_counts).size:
            raise ValueError("need at least one observed column")
        if np.any(freqs < 0) or np.any(freqs != np.rint(freqs)):
            raise ValueError("frequencies must be nonnegative integers")
        if freqs.shape[0] > 1 and np.any(freqs[1:].max(axis=1) < 1):
            raise ValueError("every observed column needs a nonzero frequency somewhere")
        col_counts = np.asarray(self.col_counts, dtype=np.int64)
        if col_counts.shape != (freqs.shape[0] - 1,) or np.any(col_counts < 0):
            raise ValueError("col_counts must give a nonnegative count per observed column")
        row_counts = self.row_counts
        if row_counts is not None:
            row_counts = np.asarray(row_counts, dtype=np.int64)
            if row_counts.shape != (levels.shape[0],) or np.any(row_counts < 0):
                raise ValueError("row_counts must give a nonnegative count per level")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "col_counts", col_counts)
        object.__setattr__(self, "row_counts", row_counts)
        # Linear coefficient of cell (i, j): sum_k freq_j(k) * log(level_i(k)).
        object.__setattr__(self, "lin_coeff", np.log(levels) @ freqs.T)

    lin_coeff: np.ndarray = None  # set in __post_init__

    @property
    def num_levels(self) -> int:
        return self.levels.shape[0]

    @property
    def num_cols(self) -> int:
        return self.freqs.shape[0]

    @property
    def dim(self) -> int:
        return self.levels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_levels, self.num_cols)

    @property
    def disc_lengths(self) -> np.ndarray:
        """Per-coordinate discretized sample length: freqs[1:].T @ col_counts."""
        return self.freqs[1:].T @ self.col_counts

    def budget_use(self, X: np.ndarray) -> np.ndarray:
        """Per-coordinate probability mass of the assignment."""
        return self.levels.T @ np.asarray(X, dtype=float).sum(axis=1)

    def row_caps(self) -> np.ndarray:
        """Largest integral row sum the unit budget allows at each level."""
        caps = np.floor(1.0 / self.levels + 1e-9)
        return caps.min(axis=1).astype(np.int64)


def _check_matrix(X, spec: AssignmentSpec) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != spec.shape:
        raise ValueError(f"assignment shape {X.shape[-2:]} does not match spec {spec.shape}")
    return X


def log_weight(X, spec: AssignmentSpec) -> float | np.ndarray:
    """Log score of an integral assignment: mass term plus multinomial count.

    Accepts a stack of matrices (leading axes) and returns matching shape.
    """
    X = _check_matrix(X, spec)
    if np.any(np.abs(X - np.rint(X)) > 1e-9):
        raise ValueError("log_weight is defined for integral assignments only")
    if np.any(X < 0):
        raise ValueError("assignments are nonnegative")
    rows = X.sum(axis=-1)
    lin = (X * spec.lin_coeff).sum(axis=(-2, -1))
    count = gammaln(rows + 1).sum(axis=-1) - gammaln(X + 1).sum(axis=(-2, -1))
    out = lin + count
    return float(out) if np.ndim(out) == 0 else out


def log_weight_relaxed(X, spec: AssignmentSpec) -> float | np.ndarray:
    """Concave continuous extension of :func:`log_weight` (x log x entropy form).

    The linear Stirling terms cancel row-wise, so only ``x log x`` pieces
    remain; 0 log 0 is taken as 0. Accepts stacked matrices.
    """
    X = _check_matrix(X, spec)
    if np.any(X < 0):
        raise ValueError("assignments are nonnegative")
    rows = X.sum(axis=-1)
    lin = (X * spec.lin_coeff).sum(axis=(-2, -1))
    ent = xlogy(rows, rows).sum(axis=-1) - xlogy(X, X).sum(axis=(-2, -1))
    out = lin + ent
    return float(out) if np.ndim(out) == 0 else out


def grad_log_weight_relaxed(X, spec: AssignmentSpec, floor: float = GRAD_FLOOR) -> np.ndarray:
    """Gradient of the relaxed score; entries below `floor` are clamped.

    The true gradient diverges to +inf at a zero entry, which only ever pushes
    iterates inward, so the clamp preserves ascent directions.
    """
    X = _check_matrix(X, spec)
    rows = X.sum(axis=-1)
    return (
        spec.lin_coeff
        + np.log(np.maximum(rows, floor))[..., None]
        - np.log(np.maximum(X, floor))
    )


def is_feasible(X, spec: AssignmentSpec, tol: float = 1e-9, integral: bool = False) -> bool:
    """Check finiteness, nonnegativity, observed column sums, and the mass budget.

    When the spec pins row counts, those are checked as well. ``integral``
    additionally requires near-integer entries.
    """
    X = _check_matrix(X, spec)
    if X.ndim != 2:
        raise ValueError("feasibility is checked one matrix at a time")
    # Every check below is a comparison, and comparisons with NaN are false.
    if not np.all(np.isfinite(X)) or np.any(X < -tol):
        return False
    if integral and np.any(np.abs(X - np.rint(X)) > tol):
        return False
    if np.any(np.abs(X[:, 1:].sum(axis=0) - spec.col_counts) > tol):
        return False
    if np.any(spec.budget_use(X) > 1 + tol):
        return False
    if spec.row_counts is not None and np.any(np.abs(X.sum(axis=1) - spec.row_counts) > tol):
        return False
    return True


def _observed_combos(spec: AssignmentSpec, cap: int):
    """Iterate over observed-column placements as (R, J-1) integer arrays."""
    R = spec.num_levels
    est = 1
    for count in spec.col_counts:
        est *= num_compositions(int(count), R)
        if est > cap:
            raise EnumerationCapError(
                f"observed placements exceed cap ({est} > {cap})"
            )
    per_col = [composition_array(int(count), R) for count in spec.col_counts]

    def rec(j, partial):
        if j == len(per_col):
            yield partial.copy()
            return
        for row in per_col[j]:
            partial[:, j] = row
            yield from rec(j + 1, partial)
            partial[:, j] = 0

    yield from rec(0, np.zeros((R, len(per_col)), dtype=np.int64))


def iter_feasible(spec: AssignmentSpec, cap: int = 200_000):
    """Yield every integral feasible assignment exactly once.

    Observed columns run over compositions of their counts across levels; the
    unseen column then ranges over everything the remaining budget (or the
    pinned row counts) allows. Raises :class:`EnumerationCapError` if more
    than `cap` matrices would be produced.
    """
    R, J = spec.shape
    produced = 0
    if spec.row_counts is not None:
        for obs in _observed_combos(spec, cap):
            slack = spec.row_counts - obs.sum(axis=1)
            if np.any(slack < 0):
                continue
            X = np.zeros((R, J), dtype=np.int64)
            X[:, 1:] = obs
            X[:, 0] = slack
            produced += 1
            if produced > cap:
                raise EnumerationCapError(f"feasible set exceeds cap {cap}")
            yield X
        return

    levels = spec.levels
    for obs in _observed_combos(spec, cap):
        remaining = 1.0 - levels.T @ obs.sum(axis=1)
        if np.any(remaining < -1e-12):
            continue
        X = np.zeros((R, J), dtype=np.int64)
        X[:, 1:] = obs

        def fill(i, rem):
            nonlocal produced
            if i == R:
                produced += 1
                if produced > cap:
                    raise EnumerationCapError(f"feasible set exceeds cap {cap}")
                yield X.copy()
                return
            max_units = int(np.floor((rem / levels[i] + 1e-12).min()))
            for u in range(max_units + 1):
                X[i, 0] = u
                yield from fill(i + 1, rem - u * levels[i])
            X[i, 0] = 0

        yield from fill(0, remaining)


def _commensurable_units(spec: AssignmentSpec):
    """Integer level multiples per coordinate, or None when levels are not
    integer multiples of the smallest level (needed for exact counting)."""
    base = spec.levels.min(axis=0)
    ratios = spec.levels / base
    units = np.rint(ratios)
    if np.any(np.abs(ratios - units) > 1e-9):
        return None
    budgets = np.floor(1.0 / base + 1e-9).astype(np.int64)
    return units.astype(np.int64), budgets


def has_commensurable_levels(spec: AssignmentSpec) -> bool:
    """True when every level is an integer multiple of the smallest level."""
    return _commensurable_units(spec) is not None


def count_feasible(spec: AssignmentSpec, cap: int = 2_000_000) -> int:
    """Exact cardinality of the integral feasible set.

    For the budget variant the unseen column is counted with an integer
    lattice dynamic program, which requires the level values to be integer
    multiples of the smallest level (true for grids built with eps = 1).
    Raises :class:`EnumerationCapError` when the count cannot be obtained
    within the cap.
    """
    R, _ = spec.shape
    if spec.row_counts is not None:
        total = 0
        for obs in _observed_combos(spec, cap):
            if np.all(obs.sum(axis=1) <= spec.row_counts):
                total += 1
        return total

    units = _commensurable_units(spec)
    if units is None:
        total = 0
        for _ in iter_feasible(spec, cap=cap):
            total += 1
        return total
    unit_costs, budgets = units

    # ways[b1, .., bd] = number of unseen fills for rows >= i within budget b.
    ways = np.ones(tuple(int(b) + 1 for b in budgets), dtype=object)
    for i in reversed(range(R)):
        nxt = ways.copy()
        cost = tuple(int(c) for c in unit_costs[i])
        for idx in np.ndindex(ways.shape):
            shifted = tuple(b - c for b, c in zip(idx, cost))
            if all(s >= 0 for s in shifted):
                nxt[idx] = ways[idx] + nxt[shifted]
            else:
                nxt[idx] = ways[idx]
        ways = nxt

    base = spec.levels.min(axis=0)
    total = 0
    for obs in _observed_combos(spec, cap):
        remaining = 1.0 - spec.levels.T @ obs.sum(axis=1)
        if np.any(remaining < -1e-12):
            continue
        slot = tuple(int(np.floor(r / b + 1e-9)) for r, b in zip(remaining, base))
        total += int(ways[slot])
    return total


def log_count_bound(spec: AssignmentSpec) -> float:
    """Explicit upper bound on log |feasible set| from per-cell ranges.

    Observed columns contribute their composition counts (via log-gamma, the
    exact counts overflow floats); each unseen entry is at most the row cap
    implied by the unit budget. A small safety margin absorbs the log-gamma
    roundoff so the bound stays valid.
    """
    R = spec.num_levels
    out = 0.0
    for count in spec.col_counts:
        c = int(count)
        out += float(gammaln(c + R) - gammaln(c + 1) - gammaln(R))
    out += float(np.log(spec.row_caps() + 1.0).sum())
    return out + 1e-9


def log_weight_total(matrices, spec: AssignmentSpec) -> float:
    """log of the sum of exp(log_weight) over an iterable of integral matrices.

    Matrices are scored 8192 at a time, so the iterable may be a long
    generator; an empty one gives -inf.
    """
    chunks: list[float] = []
    batch: list[np.ndarray] = []
    for X in matrices:
        batch.append(X)
        if len(batch) == 8192:
            chunks.append(float(logsumexp(log_weight(np.stack(batch), spec))))
            batch = []
    if batch:
        chunks.append(float(logsumexp(log_weight(np.stack(batch), spec))))
    if not chunks:
        return float("-inf")
    return float(logsumexp(np.array(chunks)))


def log_weight_sum(spec: AssignmentSpec, cap: int = 200_000) -> float:
    """log of the sum of exp(log_weight) over the whole feasible set."""
    return log_weight_total(iter_feasible(spec, cap=cap), spec)
