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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._special import log_factorial, logsumexp
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
    "log_weight_total",
]

GRAD_FLOOR = 1e-12


class EnumerationCapError(ValueError):
    """An enumeration would exceed its cap or an oracle's size guard."""


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
        # Column-major, so the solver's table of the observed columns is a view.
        lin_coeff = np.empty((levels.shape[0], freqs.shape[0]), order="F")
        object.__setattr__(self, "lin_coeff", np.matmul(np.log(levels), freqs.T, out=lin_coeff))

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
        """Largest integral row sum the unit budget allows at each level.

        In float: a level below about 1e-19 allows more than int64 holds.
        """
        return np.floor(1.0 / self.levels + 1e-9).min(axis=1)


def _check_matrix(X, spec: AssignmentSpec) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != spec.shape:
        raise ValueError(f"assignment shape {X.shape[-2:]} does not match spec {spec.shape}")
    return X


def log_weight(X, spec: AssignmentSpec) -> float | np.ndarray:
    """Log score of an integral assignment: mass term plus multinomial count.

    Accepts a stack of matrices (leading axes) and returns matching shape.
    Besides X, it holds one array of X's shape at a time: the integrality
    check's and the linear term's share one, and the factorials are another.
    """
    X = _check_matrix(X, spec)
    work = np.rint(X, order="C")  # the layout X * lin_coeff has, so its sum keeps its bits
    if np.any(np.abs(np.subtract(X, work, out=work), out=work) > 1e-9):
        raise ValueError("log_weight is defined for integral assignments only")
    if np.any(X < 0):
        raise ValueError("assignments are nonnegative")
    rows = X.sum(axis=-1)
    lin = np.multiply(X, spec.lin_coeff, out=work).sum(axis=(-2, -1))
    del work
    count = log_factorial(rows).sum(axis=-1) - log_factorial(X).sum(axis=(-2, -1))
    out = lin + count
    return float(out) if np.ndim(out) == 0 else out


def _xlogx(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x log x`` entrywise into ``out``, with 0 log 0 = 0."""
    np.copyto(out, 1.0)
    np.copyto(out, x, where=x > 0)
    return np.multiply(x, np.log(out, out=out), out=out)


def log_weight_relaxed(X, spec: AssignmentSpec) -> float | np.ndarray:
    """Concave continuous extension of :func:`log_weight` (x log x entropy form).

    The linear Stirling terms cancel row-wise, so only ``x log x`` pieces
    remain; 0 log 0 is taken as 0. With r the row sums, the score is
    ``sum_i r_i log r_i + sum_ij X_ij (C_ij - log X_ij)``: one log and one
    multiply over X. An entry below the smallest normal number, zero
    included, takes that number's finite log, which moves its term by less
    than 1e-306. Accepts stacked matrices. Besides X, it holds one array of
    X's shape.
    """
    X = _check_matrix(X, spec)
    if np.any(X < 0):
        raise ValueError("assignments are nonnegative")
    rows = X.sum(axis=-1)
    work = np.maximum(X, np.finfo(float).tiny)
    np.subtract(spec.lin_coeff, np.log(work, out=work), out=work)
    # On one matrix a dot product, a third faster than einsum at 423 x 57.
    inner = np.vdot(X, work) if X.ndim == 2 else np.einsum("...ij,...ij->...", X, work)
    out = _xlogx(rows, np.empty_like(rows)).sum(axis=-1) + inner
    return float(out) if np.ndim(out) == 0 else out


def grad_log_weight_relaxed(X, spec: AssignmentSpec) -> np.ndarray:
    """Gradient of the relaxed score; entries below ``GRAD_FLOOR`` are clamped.

    The true gradient diverges to +inf at a zero entry, which only ever pushes
    iterates inward, so the clamp preserves ascent directions.
    """
    X = _check_matrix(X, spec)
    rows = X.sum(axis=-1)
    return (
        spec.lin_coeff
        + np.log(np.maximum(rows, GRAD_FLOOR))[..., None]
        - np.log(np.maximum(X, GRAD_FLOOR))
    )


def is_feasible(X, spec: AssignmentSpec, tol: float = 1e-9) -> bool:
    """Check finiteness, nonnegativity, observed column sums, and the mass budget.

    When the spec pins row counts, those are checked as well.
    """
    X = _check_matrix(X, spec)
    if X.ndim != 2:
        raise ValueError("feasibility is checked one matrix at a time")
    # Every check below is a comparison, and comparisons with NaN are false.
    if not np.all(np.isfinite(X)) or np.any(X < -tol):
        return False
    if np.any(np.abs(X[:, 1:].sum(axis=0) - spec.col_counts) > tol):
        return False
    if np.any(spec.budget_use(X) > 1 + tol):
        return False
    if spec.row_counts is not None and np.any(np.abs(X.sum(axis=1) - spec.row_counts) > tol):
        return False
    return True


def _observed_combos(spec: AssignmentSpec, cap: int):
    """Observed-column placements as (R, J-1) integer arrays, yielded lazily.

    Raises :class:`EnumerationCapError` at the call, before any placement is
    built, when there would be more than `cap` of them.
    """
    R = spec.num_levels
    est = 1
    for count in spec.col_counts:
        est *= num_compositions(int(count), R)
        if est > cap:
            raise EnumerationCapError(
                f"observed placements exceed cap ({est} > {cap})"
            )
    per_col = [composition_array(int(count), R) for count in spec.col_counts]
    return (
        np.array(cols, dtype=np.int64).reshape(len(per_col), R).T
        for cols in itertools.product(*per_col)
    )


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
    """Integer level multiples and unit budgets per coordinate, or None.

    Levels are commensurable when each is an integer multiple (within 1e-9)
    of its coordinate's smallest level, as on grids built with eps = 1. The
    budget is then a whole number of smallest-level units, and
    :func:`count_feasible` counts the unseen column on that integer lattice.
    None too when a budget passes int64 (a smallest level below about 1e-19):
    no such lattice could be counted anyway.
    """
    base = spec.levels.min(axis=0)
    ratios = spec.levels / base
    units = np.rint(ratios)
    if np.any(np.abs(ratios - units) > 1e-9):
        return None
    budgets = np.floor(1.0 / base + 1e-9)
    if max(units.max(), budgets.max()) >= 2.0**63:
        return None
    return units.astype(np.int64), budgets.astype(np.int64)


def has_commensurable_levels(spec: AssignmentSpec) -> bool:
    """True when every level is an integer multiple of the smallest level
    and the budget, in units of it, fits int64."""
    return _commensurable_units(spec) is not None


def count_feasible(spec: AssignmentSpec, cap: int = 2_000_000) -> int:
    """Exact cardinality of the integral feasible set.

    With commensurable levels and free row counts, an integer-lattice dynamic
    program counts the unseen fills for every remaining budget, and each
    placement of the observed columns looks its count up. There `cap` bounds
    the work, and two checks refuse before the table is built: more than
    `cap` observed placements, or more than `cap` rows times table cells
    (the table has one cell per budget vector, about (2 n^2)^d of them).
    Every other spec is counted by enumerating :func:`iter_feasible`, which
    refuses once the count passes `cap`. A refusal raises
    :class:`EnumerationCapError`.
    """
    units = None if spec.row_counts is not None else _commensurable_units(spec)
    if units is None:
        return sum(1 for _ in iter_feasible(spec, cap))
    unit_costs, budgets = units
    placements = _observed_combos(spec, cap)
    shape = tuple(int(b) + 1 for b in budgets)
    work = spec.num_levels * math.prod(shape)
    if work > cap:
        raise EnumerationCapError(f"counting work exceeds cap ({work} > {cap})")

    # ways[b1, .., bd] = number of unseen fills for rows >= i within budget b.
    ways = np.ones(shape, dtype=object)
    for i in reversed(range(spec.num_levels)):
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
    for obs in placements:
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
        out += log_factorial(c + R - 1) - log_factorial(c) - log_factorial(R - 1)
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
