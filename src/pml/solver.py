"""Maximizes the relaxed assignment score over the fractional feasible set.

The solve runs on the Lagrangian dual. For column multipliers mu and budget
multipliers lam >= 0, the dual value ``c . mu + sum lam`` bounds the optimum
whenever every level row satisfies
``lam . level_i >= W_i(mu) = log(1 + sum_j exp(C_ij - mu_j))``. Smoothing
those row constraints at temperature t gives the convex function

    F_t(mu, lam) = c . mu + sum lam + t sum_i exp((W_i(mu) - lam . level_i) / (kappa_i t))

over the observed columns, with ``kappa_i`` the row's largest level. lam is
eliminated by its own convex solve of at most three variables (in closed form
for one budget); mu takes Levenberg-Marquardt-damped Newton steps on the
reduced function, and t falls tenfold per stage from 0.1 n'.

Each stage proposes the smoothed primal ``X_ij = a_i softmax_j(C_ij - mu_j)``
and the KKT rebuild from its multipliers; the boundary start
:func:`initial_point` is a candidate too, for feasible sets with no interior.
The certified gap is the dual value, repaired to exact feasibility against
the exact, unclipped row term, minus the relaxed score of the best feasible
candidate; neither bound depends on how the point or multipliers were found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls
from scipy.special import logsumexp

from .assignment import AssignmentSpec, is_feasible, log_weight_relaxed

# bench/spans.py patches linprog, minimize, log_weight_relaxed and
# grad_log_weight_relaxed on this module and fails on a missing name; these
# imports keep the three this solver does not call bound until it stops.
from scipy.optimize import linprog, minimize  # noqa: F401,E402
from .assignment import grad_log_weight_relaxed  # noqa: F401,E402

__all__ = [
    "InfeasibleError",
    "SolverConfig",
    "SolveResult",
    "default_delta",
    "initial_point",
    "solve",
]

_STAGES = 12


class InfeasibleError(ValueError):
    """The feasible set is empty: observed counts cannot fit the mass budget."""


@dataclass(frozen=True)
class SolverConfig:
    """Target additive gap (log units) and the budget of Newton steps."""

    delta: float
    max_iters: int = 300

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveResult:
    """Feasible point, its objective, and the certified optimality gap."""

    X: np.ndarray
    objective: float
    certified_gap: float
    iterations: int
    certified: bool


def default_delta(spec: AssignmentSpec) -> float:
    """1e-6 times the objective scale n' log n' (floored for tiny inputs)."""
    lengths = spec.disc_lengths
    scale = max(float(np.max(lengths * np.log(np.maximum(lengths, 1.0)))), 1.0)
    return 1e-6 * scale


def _feasible(X: np.ndarray, spec: AssignmentSpec) -> np.ndarray | None:
    """X with observed columns rescaled to their counts and unseen mass cut to
    the budget, dearest levels first; None if X is still infeasible."""
    scale = np.where(spec.col_counts > 0, spec.col_counts / X[:, 1:].sum(axis=0), 0.0)
    X[:, 1:] *= np.where(np.isfinite(scale), scale, 1.0)  # an empty column stays off
    over = spec.budget_use(X) - 1.0
    for i in np.argsort(-spec.levels.max(axis=1)):
        if np.all(over <= 0):
            break
        rate = spec.levels[i]
        cut = min(X[i, 0], float(np.max(over / rate)))
        if cut > 0:
            X[i, 0] -= cut
            over -= cut * rate
    return X if is_feasible(X, spec, tol=1e-9) else None


def initial_point(spec: AssignmentSpec) -> np.ndarray:
    """Feasible start: each column at the level nearest its empirical rate.

    Columns sit on the row whose log-level is closest to log(freq / n');
    if that overshoots the budget, mass moves to the cheapest level, splitting
    one cell so the binding budget is met exactly.
    """
    if spec.row_counts is not None:
        raise ValueError("initial points are for the budget (fractional) variant")
    R, J = spec.shape
    lengths = np.maximum(spec.disc_lengths, 1.0)
    log_levels = np.log(spec.levels)
    X = np.zeros((R, J))
    for j in range(1, J):
        count = spec.col_counts[j - 1]
        if count == 0:
            continue
        seen = spec.freqs[j] > 0
        target = np.log(spec.freqs[j, seen] / lengths[seen])
        i = int(np.argmin(((log_levels[:, seen] - target) ** 2).sum(axis=1)))
        X[i, j] = float(count)

    cheapest = int(np.argmin(spec.levels.sum(axis=1)))
    if np.any(spec.col_counts.sum() * spec.levels[cheapest] > 1 + 1e-12):
        raise InfeasibleError("observed counts cannot fit the unit budget at any level")

    for _ in range(R * J * 64):
        use = spec.budget_use(X)
        worst = int(np.argmax(use))
        if use[worst] <= 1 + 1e-15:
            break
        gain = spec.levels[:, worst] - spec.levels[cheapest, worst]
        candidates = np.argwhere((X[:, 1:] > 0) & (gain[:, None] > 0))
        if candidates.size == 0:
            raise InfeasibleError("cannot rebalance the start onto the budget")
        i, j = max(candidates, key=lambda ij: spec.levels[ij[0], worst])
        j += 1
        amount = min(X[i, j], (use[worst] - 1.0) / gain[i])
        X[i, j] -= amount
        X[cheapest, j] += amount
    else:
        raise InfeasibleError("budget rebalancing did not converge")
    return X


def _row_terms(spec: AssignmentSpec, mu: np.ndarray) -> np.ndarray:
    """Exact ``W_i = log(1 + sum_j exp(C_ij - mu_j))`` over the finite mu.

    Evaluated as ``logaddexp(0, logsumexp(...))``, so no term is clipped: a
    bound repaired against an undercounted W is no bound at all.
    """
    finite = np.isfinite(mu)
    shifted = spec.lin_coeff[:, 1:][:, finite] - mu[finite]
    return np.logaddexp(0.0, logsumexp(shifted, axis=1))


def _repaired_dual_value(
    spec: AssignmentSpec, mu: np.ndarray, lam: np.ndarray
) -> tuple[float, np.ndarray]:
    """Rescale lam so the tightest row constraint just holds; the dual value and that lam.

    Scaling lam by ``max_i W_i / (lam . level_i)`` keeps every row feasible,
    so the value is an upper bound for any mu and any lam >= 0.
    """
    counts = spec.col_counts.astype(float)
    finite = np.isfinite(mu)
    W = _row_terms(spec, mu)
    scale = float(np.max(W / np.maximum(lam @ spec.levels.T, 1e-300)))
    if not np.isfinite(scale) or np.all(lam == 0):
        lam = np.full(spec.dim, float(np.max(W / spec.levels.min(axis=1).min())))
    else:
        lam = lam * scale
    lam = lam * (1 + 1e-12) + 1e-15
    assert np.all(W <= lam @ spec.levels.T + 1e-9)
    return float(counts @ np.where(finite, mu, 0.0) + lam.sum()), lam


def _descend(evaluate, x: np.ndarray, max_steps: int, lower: float | None = None,
             rtol: float = 1e-13):
    """Minimize a smooth convex function by Levenberg-Marquardt-damped Newton steps.

    ``evaluate(x)`` returns ``(value, grad, hessian, info)``. With a ``lower``
    bound, steps are projected onto it and bound coordinates whose gradient
    points outward are decoupled from the rest. Stops when the predicted
    decrease over the free coordinates falls to ``rtol`` times the value, when
    no damping gives sufficient decrease, or after ``max_steps``; returns the
    point, its evaluation and the steps taken.
    """
    current = evaluate(x)
    tau, steps, eye = 0.0, 0, np.eye(x.size)
    while steps < max_steps:
        value, grad, H, _ = current
        free = np.full(x.size, True) if lower is None else (x > lower) | (grad < 0)
        H = np.where(np.outer(free, free) | (eye > 0), H, 0.0)
        scale = float(np.abs(np.diag(H)).max(initial=0.0)) + 1e-300
        trial = None
        while tau < 1e8:
            try:
                step = -np.linalg.solve(H + (tau + 1e-14) * scale * eye, grad)
            except np.linalg.LinAlgError:
                tau = max(10.0 * tau, 1e-12)
                continue
            if not -float(grad[free] @ step[free]) > rtol * max(1.0, abs(value)):
                break
            new_x = x + step if lower is None else np.maximum(x + step, lower)
            decrease = -float(grad @ (new_x - x))
            trial = evaluate(new_x) if decrease > 0 else None
            if trial is not None and trial[0] <= value - 1e-4 * decrease:
                break
            trial = None
            tau = max(10.0 * tau, 1e-12)
        if trial is None:
            break
        x, current = new_x, trial
        steps += 1
        tau = tau / 100.0 if tau > 1e-10 else 0.0
    return x, current, steps


def _budget_multipliers(W: np.ndarray, levels: np.ndarray, kappa: np.ndarray, t: float,
                        lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lam >= 0 minimizing ``sum lam + t sum_i exp(s_i)``, and the exponents s.

    ``s_i = (W_i - lam . level_i) / (kappa_i t)``. One budget has the closed
    form ``lam = t logsumexp(W / (level t))``. Several take damped Newton steps
    from ``lam`` rescaled so that the largest s_i is zero.
    """
    if levels.shape[1] == 1:
        x = W / (levels[:, 0] * t)
        lse = logsumexp(x)
        return np.array([t * lse]), x - lse
    share = levels / kappa[:, None]

    def evaluate(lam):
        s = (W - levels @ lam) / (kappa * t)
        e = np.exp(s)
        H = (share.T * (e / t)) @ share
        return lam.sum() + t * e.sum(), 1.0 - share.T @ e, H, s

    lam = lam * np.max(W / (levels @ lam))
    # The mu gradient reads the budget residuals, so lam is solved to roundoff.
    lam, (*_, s), _ = _descend(evaluate, lam, 100, lower=0.0, rtol=1e-20)
    return lam, s


def _reconstruct_primal(spec: AssignmentSpec, mu: np.ndarray, lam: np.ndarray):
    """Yield primal points rebuilt from repaired multipliers via the KKT structure.

    At an optimum ``X_ij = a_i exp(C_ij - mu_j - lam . level_i)`` on the rows
    whose dual constraint is tight, and every other row is empty. Only the
    row masses a_i are unknown. They solve one nonnegative least-squares
    system: the observed column equations ``sum_i a_i w_ij = count_j`` and the
    budget equations ``sum_i a_i level_ik = 1`` that lam_k > 0 makes tight,
    each scaled to a unit right-hand side. Which rows count as tight depends
    on how accurate the multipliers are, so several dual-slack thresholds are
    tried; infeasible rebuilds are skipped.
    """
    finite = np.isfinite(mu)
    load = lam @ spec.levels.T
    # mu, lam are repaired, so every exponent below is at most zero.
    shifted = spec.lin_coeff[:, 1:][:, finite] - mu[finite] - load[:, None]
    weights = np.zeros(spec.shape)
    weights[:, 0] = np.exp(-load)
    weights[:, 1:][:, finite] = np.exp(shifted)
    M = np.vstack([(weights[:, 1:][:, finite] / spec.col_counts[finite]).T,
                   spec.levels[:, lam > 0].T])
    slack = -np.log(weights.sum(axis=1))  # lam . level_i - W_i
    for cut in (1e-10, 1e-7, 1e-4, 1e-2):
        rows = slack <= cut
        if not np.any(rows):
            continue
        a = np.zeros(spec.num_levels)
        try:
            a[rows] = nnls(M[:, rows], np.ones(M.shape[0]))[0]
        except RuntimeError:  # iteration limit
            continue
        X = _feasible(a[:, None] * weights, spec)
        if X is not None:
            yield X


def solve(spec: AssignmentSpec, config: SolverConfig | None = None) -> SolveResult:
    """Damped-Newton continuation on the smoothed dual, with a certified gap.

    Each stage runs Newton steps in mu until they stop decreasing the smoothed
    dual, then scores its primal candidates and its repaired dual bound. The
    solve stops once the certified gap drops below ``config.delta``; a gap
    still above it when the stages or the ``config.max_iters`` Newton steps
    run out flags the result non-certified.
    """
    if config is None:
        config = SolverConfig(delta=default_delta(spec))
    best = initial_point(spec)
    best_value = log_weight_relaxed(best, spec)
    active = spec.col_counts > 0
    c = spec.col_counts[active].astype(float)
    C = spec.lin_coeff[:, 1:][:, active]
    levels = spec.levels
    kappa = levels.max(axis=1)
    lam = np.ones(spec.dim)

    def evaluate(mu):
        nonlocal lam
        Z = C - mu
        W = np.logaddexp(0.0, logsumexp(Z, axis=1))
        P = np.exp(Z - W[:, None])
        lam, s = _budget_multipliers(W, levels, kappa, t, lam)
        a = np.exp(s) / kappa
        q = a / (kappa * t)
        # Hessian in mu: the Schur complement of F_t's Hessian over the free lam.
        H = np.diag(P.T @ a) - (P.T * a) @ P + (P.T * q) @ P
        K = (P.T * q) @ levels[:, lam > 0]
        H -= K @ np.linalg.pinv((levels[:, lam > 0].T * q) @ levels[:, lam > 0]) @ K.T
        value = float(c @ mu + lam.sum() + t * np.exp(s).sum())
        return value, c - P.T @ a, H, (lam, a, W, P)

    # Start each column on the row the boundary start placed most of it in.
    mu = C[np.argmax(best[:, 1:][:, active], axis=0), np.arange(c.size)] - np.log(c)
    mu_full = np.full(spec.num_cols - 1, np.inf)
    bound, steps = np.inf, 0
    t = 0.1 * max(float(spec.disc_lengths.max()), 1.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_STAGES):
            mu, (*_, (lam_t, a, W, P)), taken = _descend(evaluate, mu, config.max_iters - steps)
            steps += taken
            mu_full[active] = mu
            stage_bound, lam_tight = _repaired_dual_value(spec, mu_full, lam_t)
            bound = min(bound, stage_bound)
            smoothed = np.zeros(spec.shape)
            smoothed[:, 0] = a * np.exp(-W)
            smoothed[:, 1:][:, active] = a[:, None] * P
            for X in (_feasible(smoothed, spec), *_reconstruct_primal(spec, mu_full, lam_tight)):
                value = -np.inf if X is None else log_weight_relaxed(X, spec)
                if value > best_value:
                    best, best_value = X, value
            if bound - best_value <= config.delta or steps >= config.max_iters:
                break
            t *= 0.1
    gap = max(bound - best_value, 0.0)
    return SolveResult(
        X=best,
        objective=float(best_value),
        certified_gap=gap,
        iterations=steps,
        certified=bool(gap <= config.delta),
    )
