import math
import tracemalloc

import numpy as np
import pytest

from pml import (
    GridSearchConfig,
    Profile,
    approximate_pml,
    approximate_pml_d,
    brute_force_pml,
    d_profile_of,
    entropy,
    levelset_profile_logprob,
    profile_of_sequence,
    support_size,
)


def output_logprob(dist, profile):
    return levelset_profile_logprob(
        dist.values, np.rint(dist.counts).astype(int), profile
    )


def test_point_mass_profile_gives_point_mass():
    profile = Profile(((4, 1),))
    dist, diag = approximate_pml(profile, eps1=1.0, eps2=1.0)
    assert len(dist) == 1
    assert dist.values[0] == pytest.approx(1.0, abs=1e-9)
    assert dist.total_mass == pytest.approx(1.0, abs=1e-12)
    assert output_logprob(dist, profile) >= -diag.slack_total - 1e-9
    assert support_size(dist) == 1


def test_two_singletons_matches_capped_brute_force():
    profile = Profile(((1, 2),))
    dist, diag = approximate_pml(profile, eps1=1.0, eps2=1.0)
    # P(out, [(1,2)]) = 1 - sum p^2 of the output.
    got = output_logprob(dist, profile)
    direct = math.log(1.0 - float((dist.values**2) @ dist.counts))
    assert got == pytest.approx(direct, abs=1e-9)
    _, bf = brute_force_pml(profile, GridSearchConfig(support_cap=8, resolution=8, n=2))
    assert got >= bf - diag.slack_total - 1e-9


def test_ababc_passes_bound_with_diagnostics():
    profile = profile_of_sequence("ababc")
    dist, diag = approximate_pml(profile, eps1=1.0, eps2=1.0)
    _, bf = brute_force_pml(profile)
    assert output_logprob(dist, profile) >= bf - diag.slack_total - 1e-9
    # The slack budget is the advertised sum of its parts.
    total = (
        diag.slack_prob_disc
        + 2 * diag.slack_freq_disc
        + diag.log_num_assignments
        + max(diag.solver_gap, 0.0)
        + diag.slack_relax_upper
        + diag.slack_round
    )
    assert diag.slack_total == pytest.approx(total)
    assert diag.n == (5,)
    assert diag.certified


def test_default_grid_coarseness():
    profile = profile_of_sequence("aabbccdd")
    _, diag = approximate_pml(profile)
    expected = 8 ** (-1 / 3)
    assert diag.eps1 == (pytest.approx(expected),)
    assert diag.eps2 == (pytest.approx(expected),)


def test_mass_and_entropy_of_output():
    profile = profile_of_sequence("abcabcxyz")
    dist, diag = approximate_pml(profile, eps1=0.5, eps2=0.5)
    assert dist.total_mass == pytest.approx(1.0, abs=1e-9)
    assert entropy(dist) > 0
    assert diag.mass_before_normalize[0] <= 1.0 + 1e-9


def test_single_assignment_term_lower_bounds_levelset_probability(rng):
    # P(levels of X, discretized profile) >= coeff * weight(X): one term of
    # the grouped sum never exceeds the whole sum.
    import pml
    from conftest import random_fractional_point, tiny_solver_specs

    for spec in tiny_solver_specs()[:6]:
        if spec.freqs.shape[1] != 1:
            continue
        rounded = pml.round_assignment(random_fractional_point(rng, spec), spec)
        rows = rounded.X.sum(axis=1)
        if not rows.any():
            continue
        pairs = [
            (int(f), int(c))
            for f, c in zip(spec.freqs[1:, 0], spec.col_counts)
            if c > 0
        ]
        disc_profile = Profile(tuple(pairs))
        whole = pml.levelset_profile_logprob(
            rounded.spec_ext.levels[rows > 0, 0], rows[rows > 0].astype(int), disc_profile
        )
        one_term = pml.log_profile_coefficient(disc_profile) + pml.log_weight(
            rounded.X, rounded.spec_ext
        )
        assert whole >= one_term - 1e-9


def test_normalization_never_decreases_profile_probability(rng):
    # P(q / |q|, profile) = |q|^-n P(q, profile) >= P(q, profile) for |q| <= 1.
    from pml import LevelSetDistribution, normalize
    from conftest import random_profile

    for _ in range(20):
        profile = random_profile(rng, int(rng.integers(1, 7)), 3)
        values = np.sort(rng.uniform(0.05, 0.3, size=2))[::-1]
        counts = rng.integers(1, 3, size=2)
        if values @ counts > 1:
            continue
        pseudo = LevelSetDistribution(values, counts)
        scaled = normalize(pseudo)
        before = levelset_profile_logprob(pseudo.values, counts, profile)
        after = levelset_profile_logprob(scaled.values, counts, profile)
        assert after >= before - 1e-12


def test_diagnostics_serialize():
    profile = profile_of_sequence("aab")
    _, diag = approximate_pml(profile, eps1=1.0, eps2=1.0)
    data = diag.to_dict()
    assert data["assignment_count_method"] in ("counted", "bound")
    assert data["slack_total"] == diag.slack_total
    assert isinstance(data["n"], tuple)


def zipf(k: int, shift: int = 0) -> np.ndarray:
    p = 1.0 / np.arange(1, k + 1)
    return np.roll(p / p.sum(), shift)


def test_zipf_n10000_certifies_at_default_delta():
    # n = 10 000 draws from Zipf(1) over k = 5 000 symbols: 423 levels and
    # 56 observed frequencies on the default grids.
    sample = np.random.default_rng(0).choice(5000, size=10_000, p=zipf(5000))
    dist, diag = approximate_pml(profile_of_sequence(sample.tolist()))
    assert diag.certified
    assert 0 <= diag.solver_gap <= diag.delta
    assert dist.counts @ dist.values == pytest.approx(1.0)


def test_zipf_pair_n100_certifies_at_default_delta():
    # Two sequences of n = 100 draws over k = 50 symbols, the second from
    # Zipf(1) rotated by one place: d = 2 on a 961-level product grid.
    rng = np.random.default_rng(0)
    sequences = [rng.choice(50, size=100, p=zipf(50, s)).tolist() for s in range(2)]
    dist, diag = approximate_pml_d(d_profile_of(sequences))
    assert diag.certified
    assert 0 <= diag.solver_gap <= diag.delta
    assert dist.counts @ dist.values == pytest.approx(np.ones(2))


def test_joint_estimate_holds_few_level_by_column_arrays():
    # d = 3, n = 30 draws from Zipf(1) over k = 15 symbols, coordinate s
    # rotated by s places: 4 913 levels and 15 columns, 0.59 MB per array of
    # that shape. The solve keeps its table, the best point, the dual's
    # scratch array and one P; the rest is done in place. Before, the
    # estimate peaked at 11.2 such arrays (6.6 MB); now at 5.4.
    rng = np.random.default_rng(0)
    profile = d_profile_of([rng.choice(15, size=30, p=zipf(15, s)).tolist() for s in range(3)])
    tracemalloc.start()
    try:
        _, diag = approximate_pml_d(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.certified
    assert (diag.num_levels, diag.num_freqs + 1) == (4913, 15)
    assert peak <= 6 * diag.num_levels * (diag.num_freqs + 1) * 8


def test_heavy_symbol_with_three_singletons_certifies():
    _, diag = approximate_pml(profile_of_sequence("a" * 200 + "bcd"))
    assert diag.certified


@pytest.mark.parametrize("singletons", [1, 2, 3, 5, 10])
@pytest.mark.parametrize("heavy", [20, 50, 100, 200, 500, 1000])
def test_heavy_symbol_with_singletons_certifies(heavy, singletons):
    # One symbol seen `heavy` times and `singletons` symbols seen once. Far
    # into the continuation the mu Hessian collapses (largest diagonal entry
    # 4e-11 against a gradient of 3 for "a" * 200 + "bcd"), and a damping
    # scaled by the Hessian alone then rejected every step: 21 of these 30
    # ended uncertified, with gaps from 0.004 to 3.75 nats.
    sequence = ["a"] * heavy + [f"s{i}" for i in range(singletons)]
    _, diag = approximate_pml(profile_of_sequence(sequence))
    assert diag.certified


@pytest.mark.parametrize(
    "n, eps",
    [(n, eps) for n in (100, 300, 1000, 3000) for eps in (1.0, 0.5, 0.25, None)]
    + [(10000, 1.0)],
)
def test_zipf_certifies_across_grid_coarseness(n, eps):
    # n draws from Zipf(1) over k = n/2 symbols (default_rng(0)), at
    # eps1 = eps2 = eps or at the default grids. n = 300 and 1000 at eps = 1,
    # n = 1000 at eps = 0.5 and n = 10 000 at eps = 1 stalled or crawled
    # while the start moved most of the highest-frequency column onto the
    # cheapest level, so that column's mu started from that level (n = 10 000
    # ended at gap 1.4e11). The start now keeps most of each column on its
    # nearest level.
    sample = np.random.default_rng(0).choice(n // 2, size=n, p=zipf(n // 2))
    kwargs = {} if eps is None else {"eps1": eps, "eps2": eps}
    _, diag = approximate_pml(profile_of_sequence(sample.tolist()), **kwargs)
    assert diag.certified


def test_zipf_n300_certifies_at_eps_one():
    # n = 300 draws from Zipf(1) over k = 150 symbols: 19 levels and 9
    # observed frequencies at eps1 = eps2 = 1.
    sample = np.random.default_rng(0).choice(150, size=300, p=zipf(150))
    _, diag = approximate_pml(profile_of_sequence(sample.tolist()), eps1=1.0, eps2=1.0)
    assert diag.certified


@pytest.mark.parametrize("eps", [None, 1.0, 0.5, 0.25])
@pytest.mark.parametrize("n", [30, 100, 300, 1000, 3000])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_few_symbols_certify(k, n, eps):
    # k symbols with frequencies in proportion 1 : 2 : ... : k, the largest
    # taking what the floors leave, e.g. [[67, 1], [33, 1]] at k = 2, n = 100.
    # The observed columns of every stage's smoothed primal overshot the
    # budget on their own, so no stage gave a feasible point and only the
    # start was scored: 10 of these 80 ended uncertified, [[67, 1], [33, 1]]
    # at gap 1.25 against delta 4.6e-4.
    freqs = [n * i // (k * (k + 1) // 2) for i in range(1, k)]
    profile = Profile(tuple((f, 1) for f in freqs + [n - sum(freqs)]))
    kwargs = {} if eps is None else {"eps1": eps, "eps2": eps}
    _, diag = approximate_pml(profile, **kwargs)
    assert diag.certified


@pytest.mark.parametrize(
    "sequences, eps",
    [
        (["ababc"], 1.0),
        (["a" * 200 + "bcd"], None),
        (["a" * 67 + "b" * 33], None),
        ([np.random.default_rng(0).choice(500, size=1000, p=zipf(500)).tolist()], None),
        ([np.random.default_rng(0).choice(50, size=100, p=zipf(50, s)).tolist() for s in range(2)],
         None),
    ],
    ids=["ababc", "heavy", "two-symbols", "zipf-1000", "zipf-pair-100"],
)
def test_measured_rounding_loss_is_within_the_a_priori_bounds(sequences, eps):
    # slack_round replaced two a-priori bounds on the same loss: rounding
    # costs the relaxed score at most R J log(2 n^2), and at the rounded
    # point the integral score is below the relaxed one by at most
    # sum over positive entries of 1 + log(X_ij + 1) / 2.
    from conftest import default_grid_spec
    from pml import SolverConfig, round_assignment, solve

    dprofile = d_profile_of(sequences)
    kwargs = {} if eps is None else {"eps1": (eps,) * dprofile.d, "eps2": (eps,) * dprofile.d}
    _, diag = approximate_pml_d(dprofile, **kwargs)
    spec = default_grid_spec(sequences, eps)
    result = solve(spec, SolverConfig(delta=diag.delta))
    assert result.objective == diag.solver_objective
    X = round_assignment(result.X, spec).X
    count_term = spec.num_levels * spec.num_cols * math.log(2.0 * min(dprofile.n) ** 2)
    stirling_term = float((1.0 + 0.5 * np.log(X[X > 0] + 1.0)).sum())
    assert 0.0 <= diag.slack_round <= count_term + stirling_term
