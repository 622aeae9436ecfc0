"""Maximizes the relaxed assignment score over the fractional feasible set.

The solve runs on the Lagrangian dual. For column multipliers mu and budget
multipliers lam >= 0, the dual value ``c . mu + sum lam`` bounds the optimum
whenever every level row satisfies
``lam . level_i >= W_i(mu) = log(1 + sum_j exp(C_ij - mu_j))``. Smoothing
those row constraints at temperature t gives the convex function

    F_t(mu, lam) = c . mu + sum lam + t sum_i exp((W_i(mu) - lam . level_i) / (kappa_i t))

over the observed columns (:func:`solve` drops empty ones on entry, so every
multiplier is finite), with ``kappa_i`` the row's largest level. At one
budget lam has a closed form and is eliminated, and mu takes
Levenberg-Marquardt-damped Newton steps on the reduced function. At two or
three, the steps are taken in ``(mu, lam)`` together, with lam bound below
by zero: one Newton system per step, as in path following. t falls tenfold
per stage from 0.1 n', and each stage starts its damping where the last
stage's first step was accepted, as the stages are nearby problems.

At two or three budgets each stage first puts lam on its exact minimiser at
the start's mu (:func:`_budget_multipliers`): a tenfold fall of t multiplies
every exponent ``s_i`` tenfold, which leaves every ``a_i`` near zero and the
budget gradient at one. The joint descent stops at a predicted decrease of
1e-20 of the value, as the lam solve does, which meets the active budgets
to roundoff.

The first stage starts at the Poissonized dual point
``mu_j = sum_k [log f_jk! - f_jk log n'_k]``, with f the observed columns'
frequencies and n' the discretized lengths (floored at one). At
``lam = n'`` its row terms are Poisson probabilities,
``exp(C_ij - mu_j - lam . level_i) = prod_k Pois(f_jk; n'_k level_ik)``,
and the unseen column's term ``exp(-lam . level_i)`` is that of zero
counts. The frequency tuples are distinct, so a row's terms sum to at most
one: ``W_i <= lam . level_i`` on every row, a feasible dual point.

Each later stage starts on the central path's tangent (the predictor step
of path following) if ``F_t`` is lower there than at the last stage's end
``x_k``, both with lam on its minimiser at two or three budgets, and the
prediction's value state is handed to the descent. A stage that takes no
step from the prediction reruns from ``x_k``: the point can be lower in
``F_t`` and still leave the damped steps stuck, as ``[[200, 1], [100, 1]]``
at eps = 0.5 did. The path's point ``x = (mu, lam)`` zeroes the gradient
``(c - P^T a, 1 - L^T a)``, and at fixed x only ``a_i = exp(s_i) / kappa_i``
depends on t, with ``s_i = (W_i - lam . level_i) / (kappa_i t)``, so
``da/dt = -a s / t``. Hence ``dx/dt = -H^-1 (P^T (a s), L^T (a s)) / t``,
with the Hessian ``H`` the descent built at the stage's end, and the
tenfold fall ``dt = -0.9 t`` gives the step
``0.9 H^-1 (P^T (a s), L^T (a s))``; a lam at its zero bound is held there.
At one budget lam's closed form ``t logsumexp(x)``, with
``x_i = W_i / (level_i t)``, makes ``s = x - logsumexp(x)``, and eliminating
lam leaves the mu step ``0.9 H^-1 P^T (a (x - xbar))`` with the reduced
Hessian, ``xbar`` the softmax mean of x.

The Newton steps are value first: a trial point gets only its value, and
the gradient and Hessian are built once a point is accepted (most trials
are rejected). A trial reads its row terms off the anchor, the last exact
pass, at ``mu_e``, with its ``W_e`` and ``P0_ij = exp(C_ij - mu_e_j - W_e_i)``:

    W_i(mu) = W_e_i + log(exp(-W_e_i) + (P0 v)_i),  v_j = exp(mu_e_j - mu_j).

This is exact, as each row of P0 with its unseen term ``exp(-W_e_i)`` sums
to one, and costs one matrix-vector product. P0 is kept until the next
exact pass: an accepted point's P is ``diag(r) P0 diag(v)``, with
``r_i = exp(W_e_i - W_i)`` (see :class:`_ReducedDual`). Entries of P0 below
``FLOOR`` = 1e-150 are zero, each at most ``FLOOR e^g`` of its row at mu,
with g the range of ``mu - mu_e`` over the columns and the unseen column's
fixed 0. A trial whose g exceeds ``REACH`` = 300 gets an exact pass
instead, so the anchored W misses at most ``J FLOOR e^300 = J 2e-20`` of a
row, and every product in ``P0 v`` is a normal number. A stage's end gets
an exact pass for its bound (:func:`_row_terms`), whose W the next stage's
value there reads. An exact pass takes one ``exp`` over the level-by-column
table (:func:`_log1p_sum_exp`), clipped from below at ``EXP_FLOOR`` = -700,
which keeps numpy's ``exp`` off its slow underflow path: the row terms span
thousands of log units.

Each stage proposes one primal point, its smoothed primal
``X_ij = a_i softmax_j(C_ij - mu_j)`` (with the unseen column's logit 0) made
feasible by :func:`_feasible`; the boundary start :func:`initial_point` is
the first candidate, for feasible sets with no interior. Both make a point
feasible by the least blend toward one that fits the budget, in closed form
(:func:`_toward_budget`). The certified gap is the dual value, repaired to
feasibility against the exact row terms of :func:`_row_terms`, minus the
exact relaxed score of the best feasible candidate. The anchored W only
steers the steps. The clip can only overstate a row term, so lam repaired
against it is feasible for the exact ones too; neither bound depends on how
the point or multipliers were found.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from ._special import EXP_FLOOR, clipped_exp, log_factorial, logsumexp
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


def _cheapest(spec: AssignmentSpec) -> tuple[int, np.ndarray]:
    """The cheapest level (least level sum) and the budget use of every observed column on it."""
    cheap = int(np.argmin(spec.levels.sum(axis=1)))
    return cheap, spec.levels[cheap] * float(spec.col_counts.sum())


def _toward_budget(X: np.ndarray, spec: AssignmentSpec) -> np.ndarray:
    """X's observed columns blended in place toward Y, all of them on the
    :func:`_cheapest` level, by :func:`_budget_theta`; their budget use.
    Each entry is ``X + theta (Y - X)``, as the blend is written (X is
    untouched at theta = 0); Y is zero off one row, so it is never built."""
    seen = X[:, 1:]
    cheap, use_cheap = _cheapest(spec)
    use = spec.levels.T @ seen.sum(axis=1)
    theta = _budget_theta(use, use_cheap)
    if theta > 0.0:
        row = seen[cheap] + theta * (spec.col_counts - seen[cheap])
        seen += theta * (0.0 - seen)
        seen[cheap] = row
        use = spec.levels.T @ seen.sum(axis=1)
    return use


def _feasible(X: np.ndarray, spec: AssignmentSpec) -> np.ndarray | None:
    """X with observed columns rescaled to their counts and blended toward
    the cheapest level just onto the budget if they overshoot it
    (:func:`_toward_budget`), then the unseen column scaled by one factor
    onto what is left; None if X is still infeasible. All in place on X,
    with budget uses taken from row sums."""
    X[:, 1:] *= spec.col_counts / X[:, 1:].sum(axis=0)
    use_seen = _toward_budget(X, spec)
    unseen = X[:, 0]
    theta = _budget_theta(use_seen + spec.levels.T @ unseen, use_seen)
    unseen += theta * (0.0 - unseen)
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
    if np.any(_cheapest(spec)[1] > 1 + 1e-12):
        raise InfeasibleError("observed counts cannot fit the unit budget at any level")
    X = np.zeros(spec.shape)
    X[_nearest_rows(spec), np.arange(1, spec.num_cols)] = spec.col_counts
    _toward_budget(X, spec)
    return X


def _log1p_sum_exp(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``log(1 + sum_j exp(Z_ij))`` per row, with the exponentials it is built from.

    Returns ``W``, ``E = exp(Z - top)`` and ``terms = exp(-top) + sum_j E_ij``,
    shifted by ``top = max(0, max_j Z_ij)``, so that ``W = top + log(terms)``
    and ``exp(Z - W) = E / terms``. ``E`` is ``Z`` itself, overwritten: no
    caller reads Z again. Every shifted exponent is clipped at ``EXP_FLOOR``,
    so no ``exp`` underflows. The clip only raises terms, so ``W`` is never
    below the exact value, and it exceeds it by at most ``(J + 1) e^-700``
    relative (the largest shifted term is one), which is lost in roundoff.
    """
    top = Z.max(axis=1, initial=0.0)
    E = np.subtract(Z, top[:, None], out=Z)
    np.exp(np.maximum(E, EXP_FLOOR, out=E), out=E)  # clipped_exp, in place
    terms = clipped_exp(-top) + E.sum(axis=1)
    return top + np.log(terms), E, terms


def _row_terms(spec: AssignmentSpec, mu: np.ndarray) -> np.ndarray:
    """``W_i = log(1 + sum_j exp(C_ij - mu_j))`` per row, never undercounted.

    A bound repaired against an undercounted W is no bound at all. This is
    an exact pass, whose clip (:func:`_log1p_sum_exp`) only overstates W, so
    lam repaired against it satisfies every true row constraint too, and the
    dual value stays an upper bound. The anchored W of :class:`_ReducedDual`
    can miss up to ``J FLOOR e^REACH`` of a row, and the certificate never
    reads it. ``C - mu`` is column-major as in :class:`_ReducedDual`.
    """
    return _log1p_sum_exp(np.subtract(spec.lin_coeff[:, 1:], mu, order="F"))[0]


def _repaired_dual_value(
    spec: AssignmentSpec, mu: np.ndarray, lam: np.ndarray, W: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Rescale lam so the tightest row constraint just holds; the dual value and that lam.

    Scaling lam by ``max_i W_i / (lam . level_i)`` keeps every row feasible,
    so the value is an upper bound for any finite mu and any lam >= 0. ``W``
    is mu's :func:`_row_terms`, computed here unless the caller has them.
    Raises ``RuntimeError`` rather than return a value that may not be a
    bound: on a mu that is not finite, and when the repaired lam still
    violates a row (as it does for lam = inf).
    """
    if not np.all(np.isfinite(mu)):
        raise RuntimeError("a dual multiplier is not finite")
    if W is None:
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


def _damped_solve(H: np.ndarray, b: np.ndarray, tau: float, scale: float) -> np.ndarray:
    """``(H + (tau + 1e-14) scale I)^-1 b``; raises ``LinAlgError`` if that is singular."""
    damped = H.copy()
    damped.flat[:: b.size + 1] += (tau + 1e-14) * scale
    return np.linalg.solve(damped, b)


def _descend(value, derivatives, x: np.ndarray, max_steps: int,
             lower: float | np.ndarray | None = None, rtol: float = 1e-13, tau: float = 0.0,
             evaluated: tuple | None = None):
    """Minimize a smooth convex function by Levenberg-Marquardt-damped Newton steps.

    Value first: ``value(x)`` returns ``(f(x), state)`` and is all a trial
    point gets; ``derivatives(x, state)`` returns ``(grad, hessian, state)``
    and runs only at the start and at each accepted point, on the state of
    the last value call. A caller that has just evaluated the start passes
    that ``(f, state)`` as ``evaluated``. With a ``lower`` bound (one for all
    coordinates, or one each, -inf for a free one), steps are projected onto
    it and bound coordinates whose gradient points outward are decoupled
    from the rest.

    The damping is ``tau`` times the largest Hessian diagonal entry. It rises
    tenfold per rejected trial. After an accepted step it falls a
    hundredfold, or tenfold if it had to rise: a hundredfold fall there
    mostly rejected the next two trials before accepting at ``tau`` again.
    If ``tau`` reaches 1e8 with no accepted trial, the step restarts once
    from zero with the scale raised to the largest gradient entry: a
    collapsed Hessian (largest diagonal entry 1e-11 against a gradient of
    order one) otherwise proposes steps of hundreds of units at every
    damping.

    A trial is accepted on sufficient decrease (Armijo, 1e-4 of the predicted
    decrease), or, when a predicted decrease below 1e-14 of the value is
    hidden by the value's roundoff, unless it raises the value by more than
    that: without this the lam solve (``rtol`` = 1e-20) stalled with budget
    residuals near 1e-9.

    Stops when the predicted decrease over the free coordinates falls to
    ``rtol`` times the value, when no damping gives sufficient decrease, or
    after ``max_steps``. Returns the point, the state its derivatives
    returned, the steps taken, the ``tau`` of the first accepted step (the
    starting ``tau`` if none was accepted), and the point's Hessian.
    """
    f, state = value(x) if evaluated is None else evaluated
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
                step = -_damped_solve(H, grad, tau, scale)
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
    return x, state, steps, first_tau, H


def _budget_multipliers(W: np.ndarray, levels: np.ndarray, kappa: np.ndarray, share_t: np.ndarray,
                        t: float, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """lam >= 0 minimizing ``sum lam + t sum_i exp(s_i)`` at two or three
    budgets, the exponents s, and ``sum_i exp(s_i)``.

    ``s_i = (W_i - lam . level_i) / (kappa_i t)``. Damped Newton steps from
    lam rescaled so that the largest s_i is zero, once per start of a joint
    stage (see the module); ``share_t = (levels / kappa).T`` is C-contiguous,
    as a transposed view made the Hessian product 2.5 times slower at d = 3.
    """
    def value(lam):
        s = (W - levels @ lam) / (kappa * t)
        e = clipped_exp(s)
        return lam.sum() + t * e.sum(), (s, e)

    def derivatives(lam, state):
        e = state[1]
        return 1.0 - share_t @ e, (share_t * (e / t)) @ share_t.T, state

    lam = lam * np.max(W / (levels @ lam))
    lam, (s, e), *_ = _descend(value, derivatives, lam, 100, lower=0.0, rtol=1e-20)
    return lam, s, float(e.sum())


class _ReducedDual:
    """F_t over the observed columns, split value first: in mu with lam
    eliminated at one budget, in ``x = (mu, lam)`` at two or three.

    :meth:`value` gives a trial's ``F_t`` and state, its row terms ``W``
    from an exact pass over ``Z = C - mu`` or off the anchor (see the
    module). :meth:`derivatives` turns an accepted point's state into the
    gradient and Hessian, with ``P = exp(Z - W)``, ``a = exp(s) / kappa``,
    ``q = a / (kappa t)``, ``L`` the levels, ``K = P^T diag(q) L``,
    ``M = L^T diag(q) L`` and ``H = diag(P^T a) + P^T diag(q - a) P``: at
    one budget the reduced gradient ``c - P^T a`` and the Schur complement
    ``H - K K^T / M``, at two or three the joint gradient
    ``(c - P^T a, 1 - L^T a)`` and Hessian ``[[H, K], [K^T, M]]``.

    P is never formed (see the module): r goes into the R-length row
    weights, ``P^T a = v (P0^T (r a))``, K likewise, and the Gram's weights
    ``(q - a) r^2``, and v into its J-length result, times ``v v^T``. With mu
    within ``REACH`` of mu_e, r, v and ``r_i P0_ij = P_ij / v_j`` are at most
    e^300, and the Gram's entries at most ``e^600 sum_i |q_i - a_i|``, a sum
    below ``1.2e13 n^3`` where ``L^T a <= 1`` (always at one budget; kappa
    and t as below): finite up to n = 1e9.

    The derivatives drop rows with ``a_i <= FLOOR`` and an exact pass zeroes
    the entries of P0 below it. A dropped term is FLOOR times at most
    ``max(1, a_i / (kappa_i t))``, below 2e12 n^2 (a row holds at most n'
    elements, the smallest level is about 1 / (2 n^2), t is at least
    1e-12 n'): up to n = 1e9, over 100 orders of magnitude under the
    roundoff of the entries of order ``c_j >= 1`` it is added to. The floor
    keeps the Hessian's operands normal: nearly empty rows (``a_i`` down to
    1e-308) and ``exp(Z - W)`` down to e^-21444 made its matrix product ten
    times slower. Every exponential here is :func:`clipped_exp`; an entry of
    P or a row's ``a_i`` that the clip touches (at most ``e^-700 / kappa_i``)
    is below FLOOR and dropped, as it would be unclipped.

    Level-by-column arrays: ``C`` is a view of the spec's table, and the dual
    holds two more, ``scratch`` and the anchor's row-major ``P0`` (the BLAS
    products give other bits on a column-major one). An exact pass turns
    ``C - mu`` into ``E`` in ``scratch``, so its state is good until the next
    value call; an anchored state until the next exact pass is accepted.
    That is all :func:`_descend` asks. :meth:`derivatives` writes
    ``E / terms`` into P0 and builds the Hessian's weighted rows in
    ``scratch``, where :func:`solve` builds its candidate between descents.
    """

    FLOOR = 1e-150
    REACH = 300.0  # log units a trial may range from the anchor before an exact pass

    def __init__(self, spec: AssignmentSpec, t: float):
        self.c = spec.col_counts.astype(float)
        # Column-major, as is the spec's table, so this is a view of it: value calls reduce
        # C - mu along rows, a whole column at a time. A row-major C made Zipf n = 1000 to
        # 10 000 solves 11-25% slower and moved their results in the last bits.
        self.C = np.asfortranarray(spec.lin_coeff[:, 1:])
        self.levels = spec.levels
        self.kappa = self.levels.max(axis=1)
        self.share_t = np.ascontiguousarray((self.levels / self.kappa[:, None]).T)
        self.t = t
        # C - mu, column-major, in the first R (J - 1) entries of a row-major
        # (R, J) array, the shape of solve's candidates (see the class).
        self.scratch = np.empty(spec.shape)
        self.anchor = None  # (P0, mu_e, W_e, exp(-W_e)) of the last exact pass
        self.exact = None  # (mu, W) of an exact pass outside the dual, for the next value call

    def anchored_row_terms(self, mu: np.ndarray) -> np.ndarray:
        """``W(mu)`` from the anchor: ``W_e + log(e^-W_e + P0 exp(mu_e - mu))``."""
        P0, mu_e, W_e, exp_w = self.anchor
        return W_e + np.log(exp_w + P0 @ np.exp(mu_e - mu))

    def _reach(self, mu: np.ndarray) -> float:
        """The range of ``mu - mu_e`` over the columns and the unseen column's 0."""
        d = mu - self.anchor[1]
        return max(float(d.max()), 0.0) - min(float(d.min()), 0.0)

    def value(self, x: np.ndarray, settle: bool = False):
        """``F_t(x)`` and the state ``(W, E, terms, lam, s)`` it computed.

        ``x`` is mu at one budget, where lam has its closed form, and
        ``(mu, lam)`` at two or three. With ``settle``, lam is first moved
        onto its minimiser at x's mu by :func:`_budget_multipliers`, warm
        started from x's lam, and the state's lam is that minimiser. ``E``
        and ``terms`` are None when W was read off the anchor, or off
        :attr:`exact`, which only the next value call reads.
        """
        mu, lam = x[: self.c.size], x[self.c.size:]
        exact, self.exact = self.exact, None
        if exact is not None and np.array_equal(mu, exact[0]):
            W, E, terms = exact[1], None, None
        elif self.anchor is None or self._reach(mu) > self.REACH:
            Z = self.scratch.reshape(-1)[: self.C.size].reshape(self.C.shape[::-1]).T
            W, E, terms = _log1p_sum_exp(np.subtract(self.C, mu, out=Z))
        else:
            W, E, terms = self.anchored_row_terms(mu), None, None
        if self.levels.shape[1] == 1:  # lam = t logsumexp(W / (level t)), so sum_i exp(s_i) = 1
            y = W / (self.levels[:, 0] * self.t)
            top = logsumexp(y)
            lam, s, penalty = np.array([self.t * top]), y - top, 1.0
        elif settle:
            lam, s, penalty = _budget_multipliers(W, self.levels, self.kappa, self.share_t,
                                                  self.t, lam)
        else:
            s = (W - self.levels @ lam) / (self.kappa * self.t)
            penalty = clipped_exp(s).sum()
        value = float(self.c @ mu + lam.sum() + self.t * penalty)
        return value, (W, E, terms, lam, s)

    def settle(self, x: np.ndarray):
        """At two or three budgets, x with lam on its minimiser at x's mu,
        and that point's value and state (see :meth:`value`)."""
        f, state = self.value(x, settle=True)
        return np.r_[x[: self.c.size], state[3]], (f, state)

    def derivatives(self, x: np.ndarray, state):
        """Gradient and Hessian at ``x`` from its value state, and the state
        ``(lam, a, W, rows, (P0, r, v))`` of the smoothed primal
        ``X = a_i P_ij`` (zero off ``rows``), with ``P = diag(r) P0 diag(v)``.
        An exact pass at ``x`` becomes the anchor (see the class)."""
        W, E, terms, lam, s = state
        mu = x[: self.c.size]
        if E is not None:  # an exact pass: its row-major P0 is the anchor's (see the class)
            P0 = np.divide(E, terms[:, None], out=None if self.anchor is None else self.anchor[0],
                           order="C")
            np.multiply(P0, P0 >= self.FLOOR, out=P0)  # the floor; a masked store was 6x slower
            self.anchor = (P0, mu, W, clipped_exp(-W))
        P0, mu_e, W_e, _ = self.anchor
        r, v = np.exp(W_e - W), np.exp(mu_e - mu)  # both one at the anchor itself
        a = clipped_exp(s) / self.kappa
        rows = a > self.FLOOR
        used = np.where(rows, a, 0.0)
        q = used / (self.kappa * self.t)
        L = self.levels
        qL = q[:, None] * L
        mass, K = v * ((used * r) @ P0), ((r[:, None] * qL).T @ P0).T * v[:, None]
        H = self._gram(P0, np.flatnonzero(rows), (q - used) * r * r)
        H *= np.outer(v, v)
        H.flat[:: mass.size + 1] += mass  # the diagonal
        derived = (lam, a, W, rows, (P0, r, v))
        if L.shape[1] == 1:  # lam eliminated: the Schur complement of M = L^T diag(q) L
            M = float(qL[:, 0] @ L[:, 0])
            if M > 0:
                H -= np.outer(K[:, 0] / M, K[:, 0])
            return self.c - mass, H, derived
        grad = np.concatenate([self.c - mass, 1.0 - L.T @ used])
        return grad, np.block([[H, K], [K.T, qL.T @ L]]), derived

    def _gram(self, P: np.ndarray, kept: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``P^T diag(w) P`` for a ``w`` that is zero off the row indices
        ``kept``, in the scratch array and with no copy of P: over the kept
        rows and their weighted copy if both fit in it (at most half the
        rows), else over every row, which then costs at most twice as much."""
        J = P.shape[1]
        buf = self.scratch.reshape(-1)
        n = kept.size * J
        if 2 * n > buf.size:
            return np.multiply(P.T, w, out=buf[: P.size].reshape(P.shape).T) @ P
        Pk = np.take(P, kept, axis=0, out=buf[:n].reshape(-1, J), mode="clip")
        return np.multiply(Pk.T, w[kept], out=buf[n: 2 * n].reshape(-1, J).T) @ Pk

    def tangent(self, lam, a, W, rows, P, H: np.ndarray) -> np.ndarray | None:
        """The step along the central path from ``t`` to ``t / 10``, to first
        order, from an accepted point's lam, :meth:`derivatives` state and
        Hessian (see the module). None if the Hessian is singular."""
        P0, r, v = P
        x = W / (self.kappa * self.t)
        if lam.size == 1:  # lam eliminated: 0.9 H^-1 P^T (a (x - xbar))
            x -= (self.kappa * a) @ x  # the weights kappa_i a_i are softmax(x): they sum to one
        else:  # x becomes s
            x -= (self.levels @ lam) / (self.kappa * self.t)
        b = v * (P0.T @ np.where(rows, a * x * r, 0.0))
        if lam.size > 1:  # a lam at its zero bound is held there
            free = np.r_[np.ones(self.c.size, dtype=bool), lam > 0]
            b = np.r_[b, self.levels.T @ (a * x)] * free
            H = np.where(np.outer(free, free) | np.eye(free.size, dtype=bool), H, 0.0)
        scale = float(np.abs(np.diag(H)).max(initial=0.0)) + 1e-300
        try:
            step = _damped_solve(H, b, 0.0, scale)
        except np.linalg.LinAlgError:
            return None
        return 0.9 * step if np.all(np.isfinite(step)) else None


def solve(spec: AssignmentSpec, config: SolverConfig | None = None) -> SolveResult:
    """Damped-Newton continuation on the smoothed dual, with a certified gap.

    Each stage runs Newton steps in mu (at one budget) or in (mu, lam) (at
    two or three) until they stop decreasing the smoothed dual, then scores
    its smoothed primal and its repaired dual bound. The first stage starts
    at the Poissonized dual point; each later one at the last stage's end
    point or on the central path's tangent, at two or three budgets with lam
    first put on its minimiser (see the module). The solve stops once the
    certified gap drops below ``config.delta``; a gap still above it when the
    stages or the ``config.max_iters`` Newton steps run out flags the result
    non-certified. It runs on the observed columns and returns its point in
    the caller's shape, zero on the empty columns.

    Level-by-column arrays: the spec's table (``_ReducedDual.C`` is a view of
    it), the best point so far and the dual's scratch array exist
    throughout, and the anchor's ``P0`` while a stage descends. The stage's
    candidate is built in the scratch array, with the anchor dropped, and
    scoring it adds one more array. A spec whose columns are all observed, as
    the pipeline's are, is solved as given and its best point returned as
    is; only a spec with empty columns is rebuilt without them (a second
    table) and its point padded back with zeros.
    """
    if spec.row_counts is not None:
        raise ValueError("the solver is for the budget (fractional) variant")
    if config is None:
        config = SolverConfig(delta=default_delta(spec))
    kept = np.r_[True, spec.col_counts > 0]  # the unseen and the observed columns
    full = spec
    if not kept.all():
        spec = AssignmentSpec(spec.levels, spec.freqs[kept], spec.col_counts[kept[1:]])
    best = initial_point(spec)
    best_value = log_weight_relaxed(best, spec)
    dual = _ReducedDual(spec, 0.1 * max(float(spec.disc_lengths.max()), 1.0))

    # The Poissonized dual point, feasible with lam = n' (see the module).
    f = spec.freqs[1:]
    x = (log_factorial(f) - f * np.log(np.maximum(spec.disc_lengths, 1.0))).sum(axis=1)
    lower, rtol = None, 1e-13
    if spec.dim > 1:  # lam is a variable of the descent, bound below by zero
        x = np.r_[x, np.maximum(spec.disc_lengths, 1.0)]
        lower, rtol = np.r_[np.full(x.size - spec.dim, -np.inf), np.zeros(spec.dim)], 1e-20
    bound, steps, tau, ahead = np.inf, 0, 0.0, None

    def descend(start, evaluated):
        return _descend(dual.value, dual.derivatives, start, config.max_iters - steps,
                        lower=lower, rtol=rtol, tau=tau, evaluated=evaluated)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_STAGES):
            here, evaluated = dual.settle(x) if spec.dim > 1 else (x, None)
            start = here
            if ahead is not None:  # the predicted start, if F_t is lower there (see the module)
                # First: only the next value call reads the certificate's W at x.
                at_here = dual.value(here)[0] if evaluated is None else evaluated[0]
                ahead, trial = dual.settle(ahead) if spec.dim > 1 else (ahead, dual.value(ahead))
                start, evaluated = (ahead, trial) if trial[0] < at_here else (here, None)
            x, (lam_t, a, W, rows, P), taken, tau, H = descend(start, evaluated)
            if taken == 0 and start is not here:  # stuck at the prediction: rerun from here
                del P
                dual.anchor = None  # an exact start, and no second P while the rerun runs
                x, (lam_t, a, W, rows, P), taken, tau, H = descend(here, None)
            step = dual.tangent(lam_t, a, W, rows, P, H)  # the central path's tangent
            ahead = None if step is None else x + step
            mu = x[: spec.num_cols - 1]
            steps += taken
            X = dual.scratch  # C - mu is not read again: the candidate is built there
            X[:, 0] = a * np.exp(-W)
            P0, r, v = P
            np.multiply(P0, (np.where(rows, a, 0.0) * r)[:, None], out=X[:, 1:])
            X[:, 1:] *= v
            del P, P0  # one level-by-column array fewer while the candidate is scored
            dual.anchor = None
            W = _row_terms(spec, mu)
            bound = min(bound, _repaired_dual_value(spec, mu, lam_t, W)[0])
            X = _feasible(X, spec)
            value = -np.inf if X is None else log_weight_relaxed(X, spec)
            if value > best_value:  # the old best becomes the scratch array
                best, best_value, dual.scratch = X, value, best
            if bound - best_value <= config.delta or steps >= config.max_iters:
                break
            dual.t *= 0.1
            dual.exact = None if ahead is None else (mu, W)  # for F_t at x (see the module)
    gap = max(bound - best_value, 0.0)
    if spec is not full:
        X = np.zeros(full.shape)
        X[:, kept] = best
        best = X
    return SolveResult(X=best, objective=float(best_value), certified_gap=gap, iterations=steps,
                       certified=bool(gap <= config.delta))
