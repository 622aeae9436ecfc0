"""Self-test of the soundness checker (``python3 bench/run.py --selftest``).

1. On tiny specs the witness's lower bound never exceeds the exact relaxed
   optimum. The optimum is bracketed independently of the witness: from below
   by the best integral feasible point (enumerated) and an SLSQP solve of the
   primal, from above by the reduced dual minimized with Nelder-Mead.
2. The witness flags the false claim the solver made on the ROADMAP's Zipf(1)
   baseline instance at n = 1000 (k = 500, ``default_rng(0)``, default eps):
   an upper bound of -4332.131302421957 on an optimum above -4302.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np
from scipy.optimize import minimize

import pml
import witness

BASELINE_CLAIM_N1000 = -4332.131302421957


def tiny_specs() -> list:
    specs = []
    for n_levels, eps in ((2, 1.0), (3, 1.0), (4, 0.5)):
        levels = (1.0 + eps) ** -np.arange(n_levels)[::-1] / (1.0 + eps) ** 1
        for freqs, counts in (((1,), (1,)), ((1,), (2,)), ((1, 2), (1, 1)), ((1, 3), (2, 1))):
            if sum(counts) * levels.min() > 1:
                continue
            specs.append(pml.AssignmentSpec(levels=levels, freqs=np.array((0,) + freqs, float),
                                            col_counts=np.array(counts)))
    return specs


def dual_upper(spec) -> float:
    """min over mu of c.mu + max_i W_i(mu)/level_i, a valid bound at every mu."""
    level = spec.levels[:, 0]
    c = spec.col_counts.astype(float)
    C = spec.lin_coeff[:, 1:]

    def h(mu):
        W = np.log1p(np.exp(C - mu).sum(axis=1))
        return float(c @ mu + np.max(W / level))

    best = np.inf
    for start in (np.zeros(c.size), np.full(c.size, -3.0), np.full(c.size, 3.0)):
        res = minimize(h, start, method="Nelder-Mead",
                       options={"maxiter": 20000, "xatol": 1e-12, "fatol": 1e-14})
        best = min(best, h(res.x))
    return best


def primal_lower(spec) -> float:
    best = max(pml.log_weight_relaxed(X.astype(float), spec)
               for X in pml.iter_feasible(spec, cap=200_000))
    R, J = spec.shape
    cols = np.zeros((J - 1, R * J))
    for j in range(1, J):
        cols[j - 1, j::J] = 1.0
    budget = np.repeat(spec.levels[:, 0], J)
    for start in itertools.islice(pml.iter_feasible(spec), 5):
        res = minimize(lambda x: -pml.log_weight_relaxed(x.reshape(R, J), spec),
                       start.astype(float).ravel() + 1e-3, method="SLSQP",
                       bounds=[(0, None)] * (R * J),
                       constraints=[{"type": "eq", "fun": lambda x: cols @ x - spec.col_counts},
                                    {"type": "ineq", "fun": lambda x: 1.0 - budget @ x}],
                       options={"maxiter": 500, "ftol": 1e-14})
        X = np.maximum(res.x.reshape(R, J), 0.0)
        if pml.is_feasible(X, spec, tol=1e-9):
            best = max(best, pml.log_weight_relaxed(X, spec))
    return best


def main() -> int:
    failures = 0
    for k, spec in enumerate(tiny_specs()):
        w = witness.lower_bound(spec)
        low, up = primal_lower(spec), dual_upper(spec)
        sound = w.found and w.lower <= up + 1e-9 * max(1.0, abs(up))
        tight = w.found and w.lower >= low - 1e-6
        failures += not (sound and tight)
        print(f"tiny spec {k}: witness {w.lower:.9f}  exact in [{low:.9f}, {up:.9f}]  "
              f"{'ok' if sound and tight else 'FAIL'}")

    n, k = 1000, 500
    p = 1.0 / np.arange(1, k + 1)
    p /= p.sum()
    profile = pml.profile_of_sequence(np.random.default_rng(0).choice(k, size=n, p=p).tolist())
    eps = n ** (-1.0 / 3.0)
    w = witness.lower_bound(witness.relaxed_spec(profile, eps, eps))
    flagged = witness.refutes(w, BASELINE_CLAIM_N1000)
    not_self_refuting = not witness.refutes(w, w.upper)
    failures += not (flagged and not_self_refuting)
    print(f"baseline n=1000: witness {w.lower:.6f} (dual {w.upper:.6f}) vs claimed "
          f"{BASELINE_CLAIM_N1000:.6f}: {'flagged' if flagged else 'NOT FLAGGED'}")
    print("selftest", "passed" if failures == 0 else f"FAILED ({failures})")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
