"""Seeded certification sweeps: random d = 1 profiles and few-symbol d = 2 pairs.

Each sweep asserts that every one of its estimates certifies (see
:func:`pml.solver.solve`), so a change that certifies fewer fails here.
"""

import numpy as np

from pml import approximate_pml, approximate_pml_d, d_profile_of, profile_of_sequence

SHAPES = ("uniform", "zipf", "zipf2", "twostep", "geometric")


def shape(name: str, k: int) -> np.ndarray:
    i = np.arange(1, k + 1)
    weights = {
        "uniform": np.ones(k),
        "zipf": 1.0 / i,
        "zipf2": 1.0 / i**2,
        "twostep": np.where(i <= k // 2, 5.0, 1.0),
        "geometric": 0.9**i,
    }[name]
    return weights / weights.sum()


def certified(results):
    return sum(diag.certified for _, diag in results)


def uncertified(results):
    return [(key, diag.solver_gap / diag.delta) for key, diag in results if not diag.certified]


def test_d1_sweep_certifies():
    # Five shapes, five draws each of n in [30, 3000] over k = n/2 symbols,
    # each at the default grids and at eps1 = eps2 = 1, 0.5 and 0.25: 100
    # estimates, all certified before and after.
    rng = np.random.default_rng(7)
    results = []
    for name in SHAPES:
        for _ in range(5):
            n = int(rng.integers(30, 3001))
            k = n // 2
            profile = profile_of_sequence(rng.choice(k, size=n, p=shape(name, k)).tolist())
            for eps in (None, 1.0, 0.5, 0.25):
                kwargs = {} if eps is None else {"eps1": eps, "eps2": eps}
                results.append(((name, n, eps), approximate_pml(profile, **kwargs)[1]))
    assert certified(results) >= 100, uncertified(results)


def test_d2_few_symbol_sweep_certifies():
    # 60 pairs: n in {30, 100, 300}, k in {2, 3, 5, n/2 + 1}, each coordinate
    # drawn from its own Dirichlet(1) distribution. With stages started from
    # the extrapolated central path 59 of 60 certified, but not the same 59
    # as before: [[[79, 35], 1], [[21, 65], 1]] went from 4.08 times delta to
    # certified, and [[[33, 49], 1], [[31, 0], 1], [[24, 23], 1],
    # [[7, 17], 1], [[5, 11], 1]] from certified to 1.31 times delta. With
    # Newton steps in (mu, lam) together, all 60 certify.
    rng = np.random.default_rng(3)
    results = []
    for _ in range(60):
        n = int(rng.choice([30, 100, 300]))
        k = int(rng.choice([2, 3, 5, n // 2 + 1]))
        sequences = [rng.choice(k, size=n, p=rng.dirichlet(np.ones(k))).tolist() for _ in range(2)]
        profile = d_profile_of(sequences)
        results.append((profile.entries, approximate_pml_d(profile)[1]))
    assert certified(results) == 60, uncertified(results)
