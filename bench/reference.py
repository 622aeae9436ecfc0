"""Fixed reference work, independent of the code under test; prints its seconds.

    python3 bench/reference.py

A fresh interpreter imports numpy and scipy, solves a fixed HiGHS LP and a
fixed SLSQP problem with Python callbacks, and does dense numpy arithmetic:
the same kinds of work the pipeline spends its time in, without importing it.
``run.py`` runs this script after every set-up probe and every timed pass, and
reports times scaled by it, so that the machine's drifting speed cancels while
a change to the code under test does not. Each sample is a new process: one
process's speed can stay a tenth off another's for its whole life.
"""

import time

start = time.monotonic()

import numpy as np  # noqa: E402
from scipy.optimize import linprog, minimize  # noqa: E402
from scipy.special import logsumexp  # noqa: E402

rng = np.random.default_rng(12345)
A = rng.random((60, 1000))
linprog(-rng.random(1000), A_ub=A, b_ub=A.sum(axis=1) / 3.0, bounds=(0, 1), method="highs")

C = rng.random((40, 60))


def objective(x):
    return float(logsumexp(C @ x) + 0.5 * x @ x)


def gradient(x):
    w = np.exp(C @ x - logsumexp(C @ x))
    return C.T @ w + x


minimize(objective, np.zeros(60), jac=gradient, method="SLSQP",
         constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0}],
         options={"maxiter": 400, "ftol": 1e-14})
M = rng.random((200, 200))
for _ in range(10):
    np.linalg.solve(M + 200.0 * np.eye(200), np.log1p(np.exp(M)))
print(time.monotonic() - start)
