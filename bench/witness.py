"""Independent soundness check of the solver's claimed bound (d = 1).

The pipeline claims that ``solver_objective + solver_gap`` bounds the optimum
of the relaxed assignment problem from above. This module rebuilds that
problem from the public grid builders at the ``eps`` the diagnostics report
and computes its own feasible point. Any feasible point's value is a lower
bound on the optimum, so a claim it beats by more than ``REFUTE_RTOL`` is
false.

The feasible point comes from the smoothed reduced dual. For column
multipliers ``mu`` and one budget, the dual is

    h(mu) = c . mu + max_i W_i(mu) / level_i,
    W_i(mu) = log(1 + sum_j exp(C_ij - mu_j)),

and replacing the max by ``t * logsumexp(. / t)`` gives a smooth convex
function whose stationary point yields an exactly feasible primal point:
row masses ``a_i = pi_i / level_i`` (``pi`` the softmax weights) and cells
``X_ij = a_i softmax_j(C_ij - mu_j)``. Damped Newton steps minimize it while
``t`` falls by tenfold stages; every stage's primal point is repaired to exact
column sums and budget, checked with :func:`pml.is_feasible` and scored with
:func:`pml.log_weight_relaxed`. The unsmoothed ``h`` at the final ``mu`` is an
upper bound on the optimum, reported so the witness's own gap is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

import pml

# A claim is refuted when a feasible point beats it by more than this share of
# its magnitude (floored at REFUTE_ATOL). The witness point satisfies its
# constraints to float roundoff, so 1e-8 relative is far above evaluation error
# and far below the solver's own target gap (1e-6 n log n).
REFUTE_RTOL = 1e-8
REFUTE_ATOL = 1e-9

_STAGES = 12
_NEWTON_PER_STAGE = 60


@dataclass
class Witness:
    """Feasible value (lower bound) and dual value (upper bound) of one problem."""

    lower: float
    upper: float
    newton_steps: int

    @property
    def found(self) -> bool:
        return bool(np.isfinite(self.lower))


def relaxed_spec(profile: "pml.Profile", eps1: float, eps2: float) -> "pml.AssignmentSpec":
    """The d = 1 relaxed problem at the given grid coarseness, built as the
    pipeline builds it: probability ladder, frequency ladder with the unseen
    column prepended, and the discretized profile's column counts."""
    n = profile.n
    pgrid = pml.build_probability_grid(max(n, 2), eps1)
    fgrid = pml.build_frequency_grid(n, eps2)
    disc = pml.discretize_profile(profile, fgrid)
    freqs = np.concatenate([[0], fgrid.values]).astype(float)
    return pml.AssignmentSpec(levels=pgrid.values[:, None], freqs=freqs[:, None],
                              col_counts=disc.counts)


def refutes(witness: Witness, claim: float) -> bool:
    """True when the witness's feasible value beats the claimed upper bound."""
    tol = max(REFUTE_ATOL, REFUTE_RTOL * abs(claim))
    return witness.found and witness.lower > claim + tol


def lower_bound(spec: "pml.AssignmentSpec") -> Witness:
    """Best feasible value found for a one-budget spec (``-inf`` if none)."""
    if spec.dim != 1 or spec.row_counts is not None:
        raise ValueError("the witness handles the one-budget fractional problem only")
    level = spec.levels[:, 0]
    R, J = spec.shape
    counts = spec.col_counts.astype(float)
    active = counts > 0
    c = counts[active]
    C = spec.lin_coeff[:, 1:][:, active]
    m = c.size
    n = float(spec.disc_lengths[0])

    def row_terms(mu):
        Z = np.concatenate([np.zeros((R, 1)), C - mu], axis=1)
        return Z, logsumexp(Z, axis=1)

    def smoothed(mu, t):
        _, W = row_terms(mu)
        value = c @ mu + t * logsumexp(W / level / t)
        return value if np.isfinite(value) else np.inf

    def primal(mu, t):
        Z, W = row_terms(mu)
        s = W / level / t
        pi = np.exp(s - logsumexp(s))
        cells = (pi / level)[:, None] * np.exp(Z - W[:, None])
        X = np.zeros((R, J))
        X[:, 0] = cells[:, 0]
        X[:, 1:][:, active] = cells[:, 1:]
        sums = X[:, 1:][:, active].sum(axis=0)
        if np.any(sums <= 0) or not np.all(np.isfinite(sums)):
            return None
        X[:, 1:][:, active] *= c / sums
        over = float(spec.budget_use(X)[0]) - 1.0
        for i in np.argsort(-level):  # trim unseen mass, dearest levels first
            if over <= 0:
                break
            cut = min(X[i, 0], over / level[i])
            X[i, 0] -= cut
            over -= cut * level[i]
        return X if over <= 0 else None

    # Start with each column on the level nearest its empirical rate.
    rates = spec.freqs[1:, 0][active] / n
    nearest = np.argmin(np.abs(np.log(level)[:, None] - np.log(rates)[None, :]), axis=0)
    mu = C[nearest, np.arange(m)] - np.log(c)

    best, upper, steps = -np.inf, np.inf, 0
    t = 0.1 * n
    for _ in range(_STAGES):
        tau = 0.0
        for _ in range(_NEWTON_PER_STAGE):
            Z, W = row_terms(mu)
            s = W / level / t
            lse = logsumexp(s)
            pi = np.exp(s - lse)
            P = np.exp(Z[:, 1:] - W[:, None])
            G = -P / level[:, None]
            gbar = pi @ G
            grad = c + gbar
            w = pi / level
            H = np.diag(w @ P) - (P * w[:, None]).T @ P
            H += ((G * pi[:, None]).T @ G - np.outer(gbar, gbar)) / t
            f0 = c @ mu + t * lse
            scale = float(np.abs(np.diag(H)).max()) + 1e-300
            accepted = False
            while tau < 1e8:  # Levenberg-Marquardt damping on a failed step
                try:
                    step = -np.linalg.solve(H + (tau + 1e-14) * scale * np.eye(m), grad)
                except np.linalg.LinAlgError:
                    tau = max(10.0 * tau, 1e-12)
                    continue
                decrease = -(grad @ step)
                if decrease <= 1e-13 * max(1.0, abs(f0)):
                    break
                if smoothed(mu + step, t) <= f0 - 1e-4 * decrease:
                    accepted = True
                    break
                tau = max(10.0 * tau, 1e-12)
            if not accepted:
                break
            mu = mu + step
            steps += 1
            tau = tau / 100.0 if tau > 1e-10 else 0.0
        _, W = row_terms(mu)
        upper = min(upper, float(c @ mu + np.max(W / level)))
        X = primal(mu, t)
        if X is not None and pml.is_feasible(X, spec):
            best = max(best, float(pml.log_weight_relaxed(X, spec)))
        if upper - best < 1e-9 * abs(upper):
            break
        t *= 0.1
    return Witness(lower=best, upper=upper, newton_steps=steps)
