"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion, or
add ``-s`` to see the printed slack values.
"""

import math

import numpy as np
import pytest

from pml import (
    AssignmentSpec,
    DProfile,
    GridSearchConfig,
    Profile,
    SolverConfig,
    approximate_pml,
    approximate_pml_d,
    brute_force_pml,
    brute_force_pml_d,
    build_d_grids,
    build_probability_grid,
    d_profile_of,
    discretize_d_profile,
    distance_to_uniformity,
    entropy,
    exact_d_profile_logprob,
    grad_log_weight_relaxed,
    is_feasible,
    iter_feasible,
    kl_plugin,
    levelset_d_profile_logprob,
    levelset_profile_logprob,
    log_weight,
    log_weight_relaxed,
    profile_logprob,
    profile_logprob_by_sequences,
    profile_of_sequence,
    round_assignment,
    solve,
    support_coverage,
    support_size,
)
from pml.estimators import LevelSetDistribution
from conftest import (
    make_rng,
    random_distribution,
    random_fractional_point,
    random_profile,
    random_sequence,
    tiny_solver_specs,
)


def min_prob_for(n: int) -> float:
    """Keep random distributions above the grid floor 1/(2 n^2) and n^-3."""
    return max(0.06, 1.1 / (2 * n * n), 1.1 * n**-3)


def test_criterion_01_oracle_self_consistency():
    rng = make_rng(101)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 6))
        alphabet = int(rng.integers(1, 5))
        p = random_distribution(rng, alphabet)
        profile = random_profile(rng, n, alphabet)
        by_types = profile_logprob(p, profile)
        by_sequences = profile_logprob_by_sequences(p, profile)
        if by_types == float("-inf"):
            assert by_sequences == float("-inf")
        else:
            assert abs(by_types - by_sequences) <= 1e-12
        checked += 1
    print(f"criterion 1 PASS: {checked} instances, type and sequence paths agree to 1e-12")


def test_criterion_02_probability_discretization():
    rng = make_rng(102)
    worst = 0.0
    for trial in range(200):
        eps1 = (0.2, 0.5, 1.0)[trial % 3]
        n = int(rng.integers(2, 9))
        alphabet = int(rng.integers(2, 6))
        p = random_distribution(rng, alphabet, min_prob=min_prob_for(n))
        profile = random_profile(rng, n, alphabet)
        grid = build_probability_grid(n, eps1)
        exact = profile_logprob(p, profile)
        floored = profile_logprob(np.array([grid.floor_value(v) for v in p]), profile)
        drop = exact - floored
        assert -1e-9 <= drop <= eps1 * n + 1e-9
        worst = max(worst, drop / (eps1 * n))
    print(f"criterion 2 PASS: 200 instances, worst drop at {worst:.3f} of the eps1*n budget")


def test_criterion_03_profile_discretization():
    rng = make_rng(103)
    worst = 0.0
    for trial in range(100):
        eps2 = (0.5, 1.0)[trial % 2]
        n = int(rng.integers(3, 9))
        alphabet = int(rng.integers(2, 6))
        p = random_distribution(rng, alphabet, min_prob=min_prob_for(n))
        profile = random_profile(rng, n, alphabet)
        # The pipeline's discretization: the observed tuples ceiled at d = 1.
        grids = build_d_grids((n,), (eps2,), (eps2,))
        counts, tuples = discretize_d_profile(DProfile.from_profile(profile), grids)
        n_disc = tuple(int(v) for v in counts @ tuples)
        disc = Profile(tuple(zip(tuples[:, 0].tolist(), counts.tolist())))
        assert (disc.n,) == n_disc
        assert disc.num_observed == profile.num_observed
        here = profile_logprob(p, profile)
        there = profile_logprob(p, disc, max_length=16)
        bound = 7 * eps2 * n * math.log(n) + 1e-9
        assert abs(here - there) <= bound
        worst = max(worst, abs(here - there) / bound)
    print(f"criterion 3 PASS: 100 instances, worst at {worst:.3f} of the 7*eps2*n*log(n) budget")


def test_criterion_04_reformulation_equality():
    rng = make_rng(104)
    checked = 0
    while checked < 50:
        n_levels = int(rng.integers(1, 4))
        values = np.sort(
            rng.choice([0.5, 0.25, 0.125, 0.0625], size=n_levels, replace=False)
        )[::-1]
        counts = rng.integers(1, 4, size=n_levels)
        if values @ counts > 1:
            continue
        n = int(rng.integers(1, 7))
        remaining, freqs = n, []
        while remaining:
            f = int(rng.integers(1, remaining + 1))
            freqs.append(f)
            remaining -= f
        pairs: dict[int, int] = {}
        for f in freqs:
            pairs[f] = pairs.get(f, 0) + 1
        profile = Profile(tuple(pairs.items()))
        expected = profile_logprob(np.repeat(values, counts), profile)
        grouped = levelset_profile_logprob(values, counts, profile)
        if expected == float("-inf"):
            assert grouped == float("-inf")
        else:
            assert abs(grouped - expected) <= 1e-9
        checked += 1
    print(f"criterion 4 PASS: {checked} instances, grouped sum equals the oracle to 1e-9")


def test_criterion_05_stirling_sandwich():
    checked = 0
    for spec in tiny_solver_specs():
        matrices = np.stack(list(iter_feasible(spec, cap=200_000)))
        w = log_weight(matrices.astype(float), spec)
        g = log_weight_relaxed(matrices.astype(float), spec)
        rows = matrices.sum(axis=2)
        upper = np.where(rows > 0, 1.0 + 0.5 * np.log(rows + 1.0), 0.0).sum(axis=1)
        lower = np.where(matrices > 0, 1.0 + 0.5 * np.log(matrices + 1.0), 0.0).sum(axis=(1, 2))
        assert np.all(w - g <= upper + 1e-12)
        assert np.all(w - g >= -lower - 1e-12)
        checked += matrices.shape[0]
    print(f"criterion 5 PASS: {checked} assignments, zero sandwich violations")


def test_criterion_06_concavity_and_gradient():
    rng = make_rng(106)
    specs = tiny_solver_specs()
    # Midpoint concavity on 100 random feasible pairs.
    for trial in range(100):
        spec = specs[trial % len(specs)]
        X = random_fractional_point(rng, spec)
        Y = random_fractional_point(rng, spec)
        mid = log_weight_relaxed((X + Y) / 2, spec)
        assert mid >= 0.5 * (log_weight_relaxed(X, spec) + log_weight_relaxed(Y, spec)) - 1e-9

    # Gradient vs central differences at 100 interior points.
    h = 1e-6
    for trial in range(100):
        spec = specs[trial % len(specs)]
        X = np.maximum(random_fractional_point(rng, spec), 1e-3)
        grad = grad_log_weight_relaxed(X, spec)
        i = int(rng.integers(0, spec.num_levels))
        j = int(rng.integers(0, spec.num_cols))
        up, down = X.copy(), X.copy()
        up[i, j] += h
        down[i, j] -= h
        numeric = (log_weight_relaxed(up, spec) - log_weight_relaxed(down, spec)) / (2 * h)
        assert grad[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-8)

    # The entropy-difference function a -> sum a log a - A log A is convex:
    # its Hessian is diag(1/a) - (1/A) * ones, PSD up to roundoff.
    worst_eig = np.inf
    for dim in range(2, 6):
        for _ in range(20):
            a = rng.uniform(0.3, 3.0, size=dim)
            hessian = np.diag(1.0 / a) - 1.0 / a.sum()
            # Cross-check the closed form against central differences once per dim.
            eigs = np.linalg.eigvalsh((hessian + hessian.T) / 2)
            worst_eig = min(worst_eig, float(eigs.min()))
            assert eigs.min() >= -1e-8
        a = rng.uniform(0.5, 2.0, size=dim)
        step = 1e-4

        def h_fun(v):
            return float((v * np.log(v)).sum() - v.sum() * np.log(v.sum()))

        for i in range(dim):
            for j in range(dim):
                e_i = np.eye(dim)[i] * step
                e_j = np.eye(dim)[j] * step
                numeric = (
                    h_fun(a + e_i + e_j) - h_fun(a + e_i - e_j)
                    - h_fun(a - e_i + e_j) + h_fun(a - e_i - e_j)
                ) / (4 * step**2)
                analytic = (1.0 / a[i] if i == j else 0.0) - 1.0 / a.sum()
                assert numeric == pytest.approx(analytic, rel=1e-3, abs=1e-6)
    print(f"criterion 6 PASS: concavity, gradients, and Hessian (min eig {worst_eig:.2e})")


def test_criterion_07_solver_contract():
    specs = tiny_solver_specs()
    assert len(specs) == 20
    not_certified = 0
    for spec in specs:
        scale = float(spec.disc_lengths.max())
        delta = 1e-6 * max(scale * math.log(max(scale, 2.0)), 1.0)
        result = solve(spec, SolverConfig(delta=delta, max_iters=300))
        assert is_feasible(result.X, spec, tol=1e-9)
        best = max(
            log_weight_relaxed(X.astype(float), spec)
            for X in iter_feasible(spec, cap=500_000)
        )
        assert result.objective >= best - delta
        if not result.certified:
            not_certified += 1
    assert not_certified <= 1
    print(f"criterion 7 PASS: 20 instances dominate the integral max, {20 - not_certified}/20 certified")


def test_criterion_08_rounding_claim():
    rng = make_rng(108)
    specs = tiny_solver_specs()
    checked = 0
    while checked < 500:
        spec = specs[checked % len(specs)]
        fractional = random_fractional_point(rng, spec)
        if checked % 2 == 0:
            fractional[:, 0] = np.floor(fractional[:, 0])
        rounded = round_assignment(fractional, spec)
        X = rounded.X
        ext = AssignmentSpec(rounded.levels, spec.freqs, spec.col_counts)
        R, J = spec.shape
        # Column sums restored exactly.
        assert np.array_equal(X[:, 1:].sum(axis=0).astype(int), spec.col_counts)
        # Budget conserved to 1e-12 (up to the floored unseen fractions, the
        # only mass the floor step may drop; exact when they are integral).
        dropped = spec.levels.T @ (fractional[:, 0] - np.floor(fractional[:, 0] + 1e-9))
        assert np.allclose(
            ext.budget_use(X) + dropped,
            spec.budget_use(fractional),
            atol=1e-12,
        )
        # Row-sum sandwich on the base rows.
        base = X[:R].sum(axis=1)
        frac_rows = fractional.sum(axis=1)
        assert np.all(base <= frac_rows + 1e-7)
        assert np.all(base >= frac_rows - J - 1e-7)
        # Probability term never decreases (per coordinate).
        for k in range(spec.dim):
            before = (fractional @ spec.freqs[:, k]) @ np.log(spec.levels[:, k])
            after = (X @ ext.freqs[:, k]) @ np.log(ext.levels[:, k])
            assert after >= before - 1e-9
        checked += 1
    print(f"criterion 8 PASS: {checked} roundings satisfy the claim")


END_TO_END_PROFILES = [
    Profile(((4, 1),)),
    Profile(((1, 4),)),
    Profile(((2, 2),)),
    Profile(((2, 2), (1, 1))),  # "ababc"
    Profile(((2, 1), (1, 3))),
    Profile(((3, 1), (2, 1))),
    Profile(((1, 6),)),
    Profile(((2, 3),)),
    Profile(((3, 2),)),
    Profile(((2, 2), (1, 2))),
    Profile(((4, 1), (1, 3))),
    Profile(((2, 3), (1, 1))),
    Profile(((1, 8),)),
    Profile(((3, 2), (2, 1))),
    Profile(((5, 1), (2, 1), (1, 1))),
]


def test_criterion_09_end_to_end_chain():
    assert profile_of_sequence("ababc") in END_TO_END_PROFILES
    ratios = []
    for profile in END_TO_END_PROFILES:
        n = profile.n
        assert 4 <= n <= 8
        dist, diag = approximate_pml(profile, eps1=1.0, eps2=1.0)
        achieved = levelset_profile_logprob(
            dist.values, np.rint(dist.counts).astype(int), profile
        )
        config = GridSearchConfig(support_cap=min(2 * n * n, 8), resolution=8, n=n)
        _, reference = brute_force_pml(profile, config)
        assert diag.assignment_count_method == "counted"
        assert achieved >= reference - diag.slack_total - 1e-9
        ratios.append(achieved - reference)
    summary = ", ".join(f"{r:+.3f}" for r in ratios)
    print(f"criterion 9 PASS: {len(ratios)} profiles; log-ratio achieved-vs-bruteforce: {summary}")


def _discretized_d_profile(dp: DProfile, grids) -> DProfile:
    entries = {}
    for freqs, count in dp.entries:
        key = tuple(
            grid.ceil_value(int(f)) if f else 0
            for grid, f in zip(grids.freq_grids, freqs)
        )
        entries[key] = entries.get(key, 0) + count
    return DProfile(tuple(entries.items()))


def test_criterion_10_multidimensional():
    rng = make_rng(110)
    # (a) d = 1 reduction is bit-exact on 20 profiles.
    for _ in range(20):
        n = int(rng.integers(2, 7))
        profile = profile_of_sequence(random_sequence(rng, n, 3))
        dist1, diag1 = approximate_pml(profile, eps1=1.0, eps2=1.0)
        dist2, diag2 = approximate_pml_d(
            DProfile.from_profile(profile), eps1=(1.0,), eps2=(1.0,)
        )
        assert np.array_equal(dist1.values, dist2.values)
        assert np.array_equal(dist1.counts, dist2.counts)
        assert diag1.to_dict() == diag2.to_dict()

    # (b) d = 2 discretization sandwich on 20 tiny instances.
    worst = 0.0
    for _ in range(20):
        n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        seqs = [random_sequence(rng, n1, 3), random_sequence(rng, n2, 3)]
        dp = d_profile_of(seqs)
        p = [random_distribution(rng, 3, min_prob=0.16) for _ in range(2)]
        eps = (1.0, 1.0)
        gamma = (1.0, 1.0)
        grids = build_d_grids(dp.n, eps, gamma)
        exact = exact_d_profile_logprob(p, dp)
        floored = np.stack(
            [
                np.array([grids.prob_grids[k].floor_value(v) for v in p[k]])
                for k in range(2)
            ],
            axis=1,
        )
        disc_dp = _discretized_d_profile(dp, grids)
        disc_value = levelset_d_profile_logprob(floored, np.ones(3, dtype=int), disc_dp)
        n_arr = np.array(dp.n, dtype=float)
        changed = float((np.array(gamma) * n_arr).sum())
        bound = (
            float((np.array(eps) * n_arr).sum())
            + 5.0 * float((np.array(gamma) * n_arr * np.log(n_arr)).sum())
            + (changed * math.log(changed) if changed > 1 else 0.0)
            + 1e-9
        )
        assert abs(disc_value - exact) <= bound
        worst = max(worst, abs(disc_value - exact) / bound)

    # (c) d = 2 end-to-end bound on 5 instances.
    pairs = [
        ["ab", "ab"],
        ["aa", "ab"],
        ["aab", "abb"],
        ["ab", "aab"],
        ["aabb", "aabc"],
    ]
    for seqs in pairs:
        dp = d_profile_of(seqs)
        assert all(nk <= 5 for nk in dp.n)
        dist, diag = approximate_pml_d(dp, eps1=(1.0, 1.0), eps2=(1.0, 1.0))
        achieved = levelset_d_profile_logprob(
            dist.values, np.rint(dist.counts).astype(int), dp
        )
        _, reference = brute_force_pml_d(dp, support_cap=3, resolution=6)
        assert achieved >= reference - diag.slack_total - 1e-9
    print(f"criterion 10 PASS: d=1 reduction exact, d=2 sandwich (worst {worst:.3f} of budget), 5 end-to-end bounds")


def test_criterion_11_estimator_identities():
    for k in range(1, 101):
        uniform = LevelSetDistribution(np.array([1.0 / k]), np.array([k]))
        assert abs(entropy(uniform) - math.log(k)) <= 1e-12
        assert distance_to_uniformity(uniform, k) == pytest.approx(0.0, abs=1e-12)
    point = LevelSetDistribution(np.array([1.0]), np.array([1]))
    for draws in (1, 3, 50):
        assert support_coverage(point, draws) == pytest.approx(1.0, abs=1e-12)
    assert support_size(point) == 1
    identical = LevelSetDistribution(
        np.array([[0.5, 0.5], [0.3, 0.3], [0.2, 0.2]]), np.array([1, 1, 1])
    )
    assert kl_plugin(identical) == pytest.approx(0.0, abs=1e-12)
    print("criterion 11 PASS: estimator identities hold to 1e-12")
