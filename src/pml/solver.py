"""Maximizes the relaxed assignment score over the fractional feasible set.

The solve runs on the Lagrangian dual. For column multipliers mu and budget
multipliers lam >= 0, the dual value ``c . mu + sum lam`` bounds the optimum
whenever every level row satisfies
``lam . level_i >= W_i(mu) = log(1 + sum_j exp(C_ij - mu_j))``. Smoothing
those row constraints at temperature t gives the convex function

    F_t(mu, lam) = c . mu + sum lam + t sum_i exp((W_i(mu) - lam . level_i) / (kappa_i t))

over the observed columns (:func:`solve` drops empty ones on entry, so every
multiplier is finite), with ``kappa_i`` the row's largest level. lam is
eliminated by its own convex solve of at most three variables (in closed form
for one budget); mu takes Levenberg-Marquardt-damped Newton steps on the
reduced function, and t falls tenfold per stage from 0.1 n'. Each stage
starts its damping where the previous stage's first step was accepted, not
at zero: the stages are nearby problems, and a damping restarted at zero
climbs the same tenfold ladder again, up to 19 rejected trials before the
stage's first step. Within a stage, a step that needed its damping raised
keeps a tenth of it for the next step, not a hundredth: the next step
mostly needs the same damping, and a hundredfold fall paid two rejected
trials to climb back (see :func:`_descend`).

Both Newton solves are value first: a trial point gets only its value, and
the gradient and Hessian are built from the state of a point once it is
accepted (most trials are rejected). A value call takes one ``exp`` over the
level-by-column table, and the derivatives reuse it. Every exponential on
that path is clipped from below at ``EXP_FLOOR`` = -700 (:func:`clipped_exp`),
which keeps numpy's ``exp`` off its slow underflow path: the row terms span
thousands of log units, and without the clip most value calls underflow. A
clipped term is only ever raised, never lowered. The mu Hessian drops rows
with ``a_i <= 1e-150`` and entries of ``P`` below 1e-150, which keeps its
matrix product off subnormal numbers; see :class:`_ReducedDual`.

Each stage proposes one primal point, its smoothed primal
``X_ij = a_i softmax_j(C_ij - mu_j)`` (with the unseen column's logit 0) made
feasible by :func:`_feasible`; the boundary start :func:`initial_point` is
the first candidate, for feasible sets with no interior. Both make a point
feasible by the least blend toward one that fits the budget, in closed form
(:func:`_toward_budget`). The certified gap
is the dual value, repaired to feasibility against the row terms, minus the
exact relaxed score of the best feasible candidate. The clip can only
overstate a row term, so lam repaired against it is feasible for the exact
ones too; neither bound depends on how the point or multipliers were found.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._special import EXP_FLOOR, clipped_exp, logsumexp
from .assignment import AssignmentSpec, is_feasible, log_weight_relaxed

# bench/spans.py patches linprog, minimize, log_weight_relaxed and
# grad_log_weight_relaxed on this module and fails on a missing name; these
# keep the three this solver does not call bound until it stops.
linprog = minimize = None  # the solver makes no LP or NLP call, so no scipy import
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
        if not 0.0 < self.delta < np.inf:  # NaN fails both comparisons
            raise ValueError("delta must be positive and finite")
        # A NaN passes `< 1` and would run no step; a fraction would be rounded up.
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer of at least 1")


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


def _budget_theta(use_x: np.ndarray, use_y: np.ndarray) -> float:
    """The least theta in [0, 1] for which ``(1 - theta) X + theta Y`` fits the
    budget, from the budget uses of X and Y.

    Budget use is linear in the assignment, so theta is the largest
    ``(use_X - 1) / (use_X - use_Y)`` over the coordinates X overshoots; a
    coordinate where Y is no cheaper than X takes theta = 1. The blend fits
    whenever Y does.
    """
    over = use_x > 1.0
    drop = (use_x - use_y)[over]
    theta = np.divide(use_x[over] - 1.0, drop, out=np.ones_like(drop), where=drop > 0)
    return min(max(float(theta.max(initial=0.0)), 0.0), 1.0)


def _toward_budget(X: np.ndarray, Y: np.ndarray, spec: AssignmentSpec) -> np.ndarray:
    """X blended in place toward Y by :func:`_budget_theta`; Y is overwritten.

    Each entry is ``X + theta (Y - X)``, as the blend is written; at theta = 0
    that is X itself, which is returned untouched.
    """
    theta = _budget_theta(spec.budget_use(X), spec.budget_use(Y))
    if theta > 0.0:
        Y -= X
        Y *= theta
        X += Y
    return X


def _cheapest_placement(spec: AssignmentSpec) -> np.ndarray:
    """Every observed column on the cheapest level, the unseen column empty."""
    cheapest = np.zeros(spec.shape)
    cheapest[np.argmin(spec.levels.sum(axis=1)), 1:] = spec.col_counts
    return cheapest


def _feasible(X: np.ndarray, spec: AssignmentSpec) -> np.ndarray | None:
    """X with observed columns rescaled to their counts and blended toward
    :func:`_cheapest_placement` just onto the budget if they overshoot it, then
    the unseen column scaled by one factor onto what is left; None if X is
    still infeasible.

    All in place on X, with the cheapest placement the only other array of
    its shape: the observed columns are blended with the unseen column set
    aside, and the second blend, toward that result, moves only the unseen
    column (the observed ones blend toward themselves).
    """
    X[:, 1:] *= spec.col_counts / X[:, 1:].sum(axis=0)
    unseen = X[:, 0].copy()
    X[:, 0] = 0.0
    use_seen = spec.budget_use(_toward_budget(X, _cheapest_placement(spec), spec))
    X[:, 0] = unseen
    theta = _budget_theta(spec.budget_use(X), use_seen)
    X[:, 0] = unseen + theta * (0.0 - unseen)
    return X if is_feasible(X, spec, tol=1e-9) else None


def _nearest_rows(spec: AssignmentSpec) -> np.ndarray:
    """Per observed column, the first row closest to ``log(freq / n')`` in its seen coordinates."""
    seen = spec.freqs[1:] > 0
    targets = np.log(np.where(seen, spec.freqs[1:], 1.0) / np.maximum(spec.disc_lengths, 1.0))
    # Column-major, so the argmin down each column reads dist in place, not a transposed copy.
    dist = np.zeros((spec.num_levels, spec.num_cols - 1), order="F")
    gap = np.empty_like(dist)
    for k in range(spec.dim):  # one level-by-column pass per coordinate, not an (R, J, d) table
        np.subtract(np.log(spec.levels[:, k, None]), targets[:, k], out=gap)
        gap *= seen[:, k]
        gap *= gap
        dist += gap
    return np.argmin(dist, axis=0)


def initial_point(spec: AssignmentSpec) -> np.ndarray:
    """Feasible start: each column at the level nearest its empirical rate.

    Columns sit on their :func:`_nearest_rows` row; if that overshoots the
    budget, it is blended toward every observed column on the cheapest level
    just until the binding budget is met exactly. An empty column stays zero.
    """
    if spec.row_counts is not None:
        raise ValueError("initial points are for the budget (fractional) variant")
    return _start(spec, _nearest_rows(spec))


def _start(spec: AssignmentSpec, nearest: np.ndarray) -> np.ndarray:
    """:func:`initial_point` from the columns' :func:`_nearest_rows`."""
    X = np.zeros(spec.shape)
    X[nearest, np.arange(1, spec.num_cols)] = spec.col_counts
    cheapest = _cheapest_placement(spec)
    if np.any(spec.budget_use(cheapest) > 1 + 1e-12):
        raise InfeasibleError("observed counts cannot fit the unit budget at any level")
    return _toward_budget(X, cheapest, spec)


def _log1p_sum_exp(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``log(1 + sum_j exp(Z_ij))`` per row, with the exponentials it is built from.

    Returns ``W``, ``E = exp(Z - top)`` and ``terms = exp(-top) + sum_j E_ij``,
    shifted by ``top = max(0, max_j Z_ij)``, so that ``W = top + log(terms)``
    and ``exp(Z - W) = E / terms``. ``E`` is ``Z`` itself, overwritten: no
    caller reads Z again, and a second level-by-column array per call is what
    a trial point would cost. Every shifted exponent is clipped at
    ``EXP_FLOOR``, so no ``exp`` underflows. The clip only raises terms, so
    ``W`` is never below the exact value, and it exceeds it by at most
    ``(J + 1) e^-700`` relative (the largest shifted term is one), which is
    lost in roundoff.
    """
    top = Z.max(axis=1, initial=0.0)
    E = np.subtract(Z, top[:, None], out=Z)
    np.exp(np.maximum(E, EXP_FLOOR, out=E), out=E)  # clipped_exp, in place
    terms = clipped_exp(-top) + E.sum(axis=1)
    return top + np.log(terms), E, terms


def _row_terms(spec: AssignmentSpec, mu: np.ndarray) -> np.ndarray:
    """``W_i = log(1 + sum_j exp(C_ij - mu_j))`` per row, never undercounted.

    A bound repaired against an undercounted W is no bound at all. The clip
    in :func:`_log1p_sum_exp` only overstates W, so lam repaired against it
    satisfies every true row constraint too, and the dual value stays an
    upper bound. ``C - mu`` is column-major as in :class:`_ReducedDual`.
    """
    return _log1p_sum_exp(np.subtract(spec.lin_coeff[:, 1:], mu, order="F"))[0]


def _repaired_dual_value(
    spec: AssignmentSpec, mu: np.ndarray, lam: np.ndarray
) -> tuple[float, np.ndarray]:
    """Rescale lam so the tightest row constraint just holds; the dual value and that lam.

    Scaling lam by ``max_i W_i / (lam . level_i)`` keeps every row feasible,
    so the value is an upper bound for any finite mu and any lam >= 0.
    Raises ``RuntimeError`` rather than return a value that may not be a
    bound: on a mu that is not finite, and when the repaired lam still
    violates a row (as it does for lam = inf).
    """
    if not np.all(np.isfinite(mu)):
        raise RuntimeError("a dual multiplier is not finite")
    W = _row_terms(spec, mu)
    scale = float(np.max(W / np.maximum(lam @ spec.levels.T, 1e-300)))
    if not np.isfinite(scale) or np.all(lam == 0):
        lam = np.full(spec.dim, float(np.max(W / spec.levels.min(axis=1).min())))
    else:
        lam = lam * scale
    lam = lam * (1 + 1e-12) + 1e-15
    if not np.all(W <= lam @ spec.levels.T + 1e-9):
        raise RuntimeError("the repaired dual multipliers violate a row constraint")
    return float(spec.col_counts.astype(float) @ mu + lam.sum()), lam


def _descend(value, derivatives, x: np.ndarray, max_steps: int,
             lower: float | None = None, rtol: float = 1e-13, tau: float = 0.0):
    """Minimize a smooth convex function by Levenberg-Marquardt-damped Newton steps.

    Value first: ``value(x)`` returns ``(f(x), state)`` and is all a trial
    point gets; ``derivatives(x, state)`` returns ``(grad, hessian, state)``
    and runs only at the start and at each accepted point, so a descent that
    takes k steps builds k + 1 Hessians however many trials it rejects. With
    a ``lower`` bound, steps are projected onto it and bound coordinates whose
    gradient points outward are decoupled from the rest.

    The damping is ``tau`` times the largest Hessian diagonal entry. It starts
    at ``tau`` and rises tenfold per rejected trial. After an accepted step
    it falls a hundredfold if the step was accepted at its first trial, and
    tenfold if the damping had to rise: falling a hundredfold there mostly
    rejected the next two trials (tau / 100, tau / 10) before accepting at
    ``tau`` again, three value calls per step. A caller that solves a
    sequence of related problems passes the first accepted ``tau`` of one as
    the start of the next, so it does not climb the same ladder again. If
    ``tau`` reaches 1e8 with no accepted trial, the step restarts once from
    zero with the scale raised to the largest gradient entry: a Hessian that
    has collapsed (largest diagonal entry 1e-11 against a gradient of order
    one) otherwise proposes steps of hundreds of units at every damping.

    A trial is accepted on sufficient decrease (Armijo, 1e-4 of the predicted
    decrease). A trial whose predicted decrease is below 1e-14 of the value
    is accepted unless it raises the value by more than that: the value's
    roundoff then hides the decrease, and the lam solve, which asks for
    ``rtol`` = 1e-20, otherwise stalled with budget residuals near 1e-9 that
    the mu gradient reads.

    Stops when the predicted decrease over the free coordinates falls to
    ``rtol`` times the value, when no damping gives sufficient decrease, or
    after ``max_steps``. Returns the point, the state its derivatives
    returned, the steps taken, and the ``tau`` of the first accepted step
    (the starting ``tau`` if none was accepted).
    """
    f, state = value(x)
    grad, H, state = derivatives(x, state)
    steps, first_tau = 0, tau
    while steps < max_steps:
        free = slice(None)  # every coordinate is free: nothing to decouple or index
        if lower is not None:
            mask = (x > lower) | (grad < 0)
            if not mask.all():
                free = mask
                H = np.where(np.outer(free, free) | np.eye(x.size, dtype=bool), H, 0.0)
        scale = float(np.abs(np.diag(H)).max(initial=0.0)) + 1e-300
        trial, restarted, raised = None, False, False
        while True:
            if tau >= 1e8:
                if restarted:
                    break
                tau, restarted = 0.0, True
                scale = max(scale, float(np.abs(grad).max(initial=0.0)))
            try:
                damped = H.copy()
                damped.flat[:: x.size + 1] += (tau + 1e-14) * scale
                step = -np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                tau, raised = max(10.0 * tau, 1e-12), True
                continue
            if not -float(grad[free] @ step[free]) > rtol * max(1.0, abs(f)):
                break
            new_x = x + step if lower is None else np.maximum(x + step, lower)
            decrease = -float(grad @ (new_x - x))
            trial = value(new_x) if decrease > 0 else None
            if trial is not None and (trial[0] <= f - 1e-4 * decrease or (
                    decrease <= 1e-14 * abs(f) and trial[0] <= f + 1e-14 * abs(f))):
                break
            trial = None
            tau, raised = max(10.0 * tau, 1e-12), True
        if trial is None:
            break
        if steps == 0:
            first_tau = tau
        x, (f, state) = new_x, trial
        grad, H, state = derivatives(x, state)
        steps += 1
        tau = tau / (10.0 if raised else 100.0) if tau > 1e-10 else 0.0
    return x, state, steps, first_tau


def _budget_multipliers(W: np.ndarray, levels: np.ndarray, kappa: np.ndarray, share_t: np.ndarray,
                        t: float, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """lam >= 0 minimizing ``sum lam + t sum_i exp(s_i)``, the exponents s, and ``sum_i exp(s_i)``.

    ``s_i = (W_i - lam . level_i) / (kappa_i t)``. One budget has the closed
    form ``lam = t logsumexp(W / (level t))``, where ``s`` is ``W / (level t)``
    minus that logsumexp, so ``sum_i exp(s_i)`` is one and needs no second
    ``exp``. Several take damped Newton steps from ``lam`` rescaled so that
    the largest s_i is zero; ``share_t = (levels / kappa).T`` is made C-contiguous
    once, as a transposed view made the Hessian product 2.5 times slower at d = 3.
    """
    if levels.shape[1] == 1:
        x = W / (levels[:, 0] * t)
        lse = logsumexp(x)
        return np.array([t * lse]), x - lse, 1.0

    def value(lam):
        s = (W - levels @ lam) / (kappa * t)
        e = clipped_exp(s)
        return lam.sum() + t * e.sum(), (s, e)

    def derivatives(lam, state):
        e = state[1]
        return 1.0 - share_t @ e, (share_t * (e / t)) @ share_t.T, state

    lam = lam * np.max(W / (levels @ lam))
    # The mu gradient reads the budget residuals ``1 - share^T e``, but they
    # are not solved to roundoff: the descent stops when its predicted
    # decrease, about r^2 / H for a residual r, is 1e-20 of the value, and at
    # small t the Hessian H is large. On the joint d = 2, n = 1000 Zipf draw
    # 57 of 274 solves end with an active residual above 1e-9, at most 4e-5.
    lam, (s, e), *_ = _descend(value, derivatives, lam, 100, lower=0.0, rtol=1e-20)
    return lam, s, float(e.sum())


class _ReducedDual:
    """F_t with lam eliminated, over the observed columns, split value first.

    :meth:`value` is what a Newton trial needs: the row terms ``W`` with the
    shifted exponentials ``E`` of ``Z = C - mu`` and the row sums ``terms``
    they are built from (:func:`_log1p_sum_exp`), the budget multipliers
    ``lam`` and the exponents ``s``, and ``F_t``. :meth:`derivatives` turns
    an accepted point's state into the gradient ``c - P^T a`` and the
    Schur-complement Hessian
    ``diag(P^T a) + P^T diag(q - a) P - K (L^T diag(q) L)^+ K^T``, with
    ``P = exp(Z - W) = E / terms`` (no second ``exp``), ``a = exp(s) / kappa``,
    ``q = a / (kappa t)``, ``K = P^T diag(q) L`` and ``L`` the levels of the
    budgets with lam > 0.

    The derivatives drop rows with ``a_i <= FLOOR`` and zero the entries of
    ``P`` below it (``FLOOR`` = 1e-150). A dropped term is FLOOR times at
    most ``max(1, a_i / (kappa_i t))``, and ``a_i / (kappa_i t)`` is below
    2e12 n^2 (a row holds at most n' elements, the smallest level is about
    1 / (2 n^2), t is at least 1e-12 n'). Up to n = 1e9 that is below
    1e-120, more than 100 orders of magnitude under the roundoff of the
    entries of order ``c_j >= 1`` it is added to. The floor keeps the
    Hessian's operands normal: nearly empty rows (``a_i`` down to 1e-308) and
    ``exp(Z - W)`` down to e^-21444 made its matrix product ten times slower.
    It does not keep every product of three operands normal:
    ``P_ij (q_i - a_i) P_ik`` can still fall below 1e-308, and under
    ``np.errstate(under="raise")`` that product underflows in 54 of 113 calls
    at Zipf n = 3000 and 44 of 166 at n = 10 000. A floor of 1e-100 leaves one
    such call each, with the same Newton steps, but was no faster in paired
    timings.

    Every exponential here is :func:`clipped_exp`, floored at ``e^-700``
    (about 1e-304), which keeps numpy's ``exp`` off its slow underflow path.
    The clip only raises a term, so ``W`` (see :func:`_log1p_sum_exp`) and
    ``F_t`` can only be overstated, by amounts lost in roundoff. An entry of
    ``P`` that the clip touches is below ``FLOOR`` and is zeroed, as it would
    be unclipped, and a row whose ``a_i`` is clipped (at most
    ``e^-700 / kappa_i``, with ``kappa_i`` at least about ``1 / (2 n^2)``) is
    dropped. The Hessian only steers the steps. The certificate reads
    :func:`_row_terms`, which the same clip can only overstate, in
    :func:`_repaired_dual_value`, and scores the primal exactly with
    :func:`log_weight_relaxed`.

    Level-by-column arrays: ``C`` is a view of the spec's table. ``C - mu``
    is written into ``scratch``, one array the dual keeps for all its calls,
    and becomes ``E`` there, so a value state is good until the next value
    call, which is all :func:`_descend` asks of it. A new array per trial
    point made the process's peak RSS swing by up to two such arrays from
    run to run (d = 3, n = 300: 140 to 162 MB, against 118 MB with the
    scratch array). :meth:`derivatives` copies ``E / terms`` into a new
    row-major ``P`` (the BLAS products below give other bits on a
    column-major one), then writes the Hessian's row-weighted copy of ``P``
    over ``E``. Between descents, :func:`solve` builds its candidate in
    ``scratch``.
    """

    FLOOR = 1e-150

    def __init__(self, spec: AssignmentSpec, t: float):
        self.c = spec.col_counts.astype(float)
        # Column-major: value calls reduce C - mu along rows, which numpy then does
        # a whole column at a time. A row-major C made Zipf n = 1000 to 10 000
        # solves 11-25% slower and moved their results in the last bits. The
        # spec's table is column-major too, so this is a view of it, not a copy.
        self.C = np.asfortranarray(spec.lin_coeff[:, 1:])
        self.levels = spec.levels
        self.kappa = self.levels.max(axis=1)
        self.share_t = np.ascontiguousarray((self.levels / self.kappa[:, None]).T)
        self.t = t
        self.lam = np.ones(spec.dim)  # warm start of the next lam solve
        # C - mu, column-major, in the first R (J - 1) entries of a row-major
        # (R, J) array, the shape of solve's candidates (see the class).
        self.scratch = np.empty(spec.shape)

    def value(self, mu: np.ndarray):
        """``F_t(mu)`` and the state ``(W, E, terms, lam, s)`` it computed."""
        Z = self.scratch.reshape(-1)[: self.C.size].reshape(self.C.shape[::-1]).T
        W, E, terms = _log1p_sum_exp(np.subtract(self.C, mu, out=Z))
        self.lam, s, penalty = _budget_multipliers(W, self.levels, self.kappa, self.share_t,
                                                   self.t, self.lam)
        value = float(self.c @ mu + self.lam.sum() + self.t * penalty)
        return value, (W, E, terms, self.lam, s)

    def derivatives(self, mu: np.ndarray, state):
        """Gradient and Hessian at ``mu`` from its value state, and the state
        ``(lam, a, W, rows, P)`` of the smoothed primal ``X = a_i P_ij`` (zero
        off ``rows``). The state's ``E`` is overwritten (see the class)."""
        W, E, terms, lam, s = state
        a = clipped_exp(s) / self.kappa
        rows = a > self.FLOOR
        if rows.all():  # the common case: every row-indexed array below is a view
            rows, P = slice(None), E.copy(order="C")  # row-major: see the class
        else:
            P = E[rows]
        P /= terms[rows, None]
        P[P < self.FLOOR] = 0.0
        weighted = E.reshape(-1, order="F")[: P.size].reshape(P.shape).T  # E's memory
        kappa, used = self.kappa[rows], a[rows]
        q = used / (kappa * self.t)
        mass = P.T @ used
        H = np.multiply(P.T, q - used, out=weighted) @ P
        H.flat[:: mass.size + 1] += mass  # the diagonal
        L = self.levels[rows][:, lam > 0]
        if L.shape[1] == 1:  # one budget: K is a vector and pinv(M) a division
            qL = q * L[:, 0]
            M = float(qL @ L[:, 0])
            if M > 0:
                K = P.T @ qL
                H -= np.outer(K / M, K)
        else:
            K = np.multiply(P.T, q, out=weighted) @ L
            H -= K @ np.linalg.pinv((L.T * q) @ L) @ K.T
        return self.c - mass, H, (lam, a, W, rows, P)


def solve(spec: AssignmentSpec, config: SolverConfig | None = None) -> SolveResult:
    """Damped-Newton continuation on the smoothed dual, with a certified gap.

    Each stage runs Newton steps in mu until they stop decreasing the smoothed
    dual, then scores its smoothed primal and its repaired dual bound. The
    solve stops once the certified gap drops below ``config.delta``; a gap
    still above it when the stages or the ``config.max_iters`` Newton steps
    run out flags the result non-certified. It runs on the observed columns
    and returns its point in the caller's shape, zero on the empty columns.

    Level-by-column arrays: the spec's table (``_ReducedDual.C`` is a view of
    it), the best point so far, the dual's scratch array (``C - mu`` during a
    descent, the stage's candidate after it) and the accepted point's ``P``
    exist throughout; a trial value, a Hessian or a score adds one more while
    it runs. A spec whose columns are all observed, as the pipeline's are, is
    solved as given and its best point returned as is; only a spec with empty
    columns is rebuilt without them (a second table) and its point padded
    back with zeros.
    """
    if spec.row_counts is not None:
        raise ValueError("the solver is for the budget (fractional) variant")
    if config is None:
        config = SolverConfig(delta=default_delta(spec))
    kept = np.r_[True, spec.col_counts > 0]  # the unseen and the observed columns
    full = spec
    if not kept.all():
        spec = AssignmentSpec(spec.levels, spec.freqs[kept], spec.col_counts[kept[1:]])
    nearest = _nearest_rows(spec)
    best = _start(spec, nearest)
    best_value = log_weight_relaxed(best, spec)
    dual = _ReducedDual(spec, 0.1 * max(float(spec.disc_lengths.max()), 1.0))

    # Start each column on its nearest level, as the start places it before any blend.
    mu = dual.C[nearest, np.arange(dual.c.size)] - np.log(dual.c)
    bound, steps, tau = np.inf, 0, 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_STAGES):
            mu, (lam_t, a, W, rows, P), taken, tau = _descend(
                dual.value, dual.derivatives, mu, config.max_iters - steps, tau=tau)
            steps += taken
            X = dual.scratch  # C - mu is not read again: the candidate is built there
            X.fill(0.0)
            X[:, 0] = a * np.exp(-W)
            P *= a[rows, None]
            X[rows, 1:] = P
            del P  # one level-by-column array fewer while the candidate is scored
            bound = min(bound, _repaired_dual_value(spec, mu, lam_t)[0])
            X = _feasible(X, spec)
            value = -np.inf if X is None else log_weight_relaxed(X, spec)
            if value > best_value:  # the old best becomes the scratch array
                best, best_value, dual.scratch = X, value, best
            if bound - best_value <= config.delta or steps >= config.max_iters:
                break
            dual.t *= 0.1
    gap = max(bound - best_value, 0.0)
    if spec is not full:
        X = np.zeros(full.shape)
        X[:, kept] = best
        best = X
    return SolveResult(X=best, objective=float(best_value), certified_gap=gap, iterations=steps,
                       certified=bool(gap <= config.delta))
