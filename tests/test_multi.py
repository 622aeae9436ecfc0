import itertools
import math

import numpy as np
import pytest

from pml import (
    DProfile,
    EnumerationCapError,
    Profile,
    approximate_pml,
    approximate_pml_d,
    brute_force_pml_d,
    build_d_grids,
    d_profile_of,
    discretize_d_profile,
    exact_d_profile_logprob,
    levelset_d_profile_logprob,
    log_d_profile_coefficient,
    log_profile_coefficient,
    profile_logprob,
    profile_of_sequence,
)
from pml import exact
from conftest import default_grids, frequency_product, make_rng, random_distribution, random_sequence


def joint_sequence_logprob(prob_vectors, dprofile):
    """Independent check: enumerate every joint sequence pair directly."""
    d = dprofile.d
    support = len(prob_vectors[0])
    total = []
    for seqs in itertools.product(
        *(itertools.product(range(support), repeat=nk) for nk in dprofile.n)
    ):
        tuples = {}
        for x in range(support):
            key = tuple(seq.count(x) for seq in seqs)
            if any(key):
                tuples[key] = tuples.get(key, 0) + 1
        if tuple(sorted(tuples.items(), reverse=True)) != dprofile.entries:
            continue
        logp = 0.0
        for k, seq in enumerate(seqs):
            for sym in seq:
                if prob_vectors[k][sym] == 0:
                    logp = -np.inf
                    break
                logp += math.log(prob_vectors[k][sym])
        total.append(logp)
    return float(np.logaddexp.reduce(total)) if total else float("-inf")


def test_d_profile_of_examples():
    dp = d_profile_of(["ab", "aa"])
    assert dp.entries == (((1, 2), 1), ((1, 0), 1))
    assert dp.n == (2, 2)

    same = d_profile_of(["abc", "abc"])
    assert all(f[0] == f[1] for f, _ in same.entries)

    one = d_profile_of(["ababc"])
    assert DProfile.from_profile(profile_of_sequence("ababc")) == one


def test_d_profile_json_round_trip():
    dp = d_profile_of(["ab", "aa"])
    assert DProfile.from_json(dp.to_json()) == dp
    assert dp.to_dict() == {"d": 2, "entries": [[[1, 2], 1], [[1, 0], 1]]}


def test_d_profile_lengths_and_dimension_come_from_the_entries():
    dp = DProfile((((2, 0, 1), 3), ((1, 1, 0), 2), ((2, 0, 1), 1)))
    assert dp.entries == (((2, 0, 1), 4), ((1, 1, 0), 2))
    assert dp.d == 3
    assert dp.n == (10, 2, 4)
    # Equal entries are equal profiles, however they were written.
    assert dp == DProfile((((1, 1, 0), 2), ((2, 0, 1), 4)))
    assert hash(dp) == hash(DProfile(dp.entries))


@pytest.mark.parametrize(
    "entries",
    [
        (((1, 0), 2),),  # the second coordinate has no sample
        (((0, 0, 1), 1), ((0, 1, 0), 3)),  # nor has the first
        (((1, 1), 1), ((1,), 1)),  # tuples of two lengths
        (((1, 1, 1, 1), 1),),  # d = 4
        (),
    ],
)
def test_d_profile_refuses_bad_entries(entries):
    with pytest.raises(ValueError):
        DProfile(entries)
    with pytest.raises(ValueError):
        DProfile.from_dict({"d": 2, "entries": [[list(f), c] for f, c in entries]})


def test_d_profile_of_refuses_an_empty_sequence():
    with pytest.raises(ValueError, match="coordinate 1 has no sample"):
        d_profile_of(["ab", ""])


@pytest.mark.parametrize("d", [3, 1, True, 2.5, "2", None])
def test_d_profile_from_dict_refuses_a_d_unlike_the_tuples(d):
    with pytest.raises(ValueError):
        DProfile.from_dict({"d": d, "entries": [[[1, 2], 1]]})
    assert DProfile.from_dict({"d": 2.0, "entries": [[[1, 2], 1]]}).d == 2


def test_exact_d_reduces_to_one_dimensional():
    rng = make_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        alphabet = int(rng.integers(2, 5))
        p = random_distribution(rng, alphabet)
        profile = profile_of_sequence(random_sequence(rng, n, alphabet))
        dp = DProfile.from_profile(profile)
        assert exact_d_profile_logprob([p], dp) == pytest.approx(
            profile_logprob(p, profile), abs=1e-12
        )


def test_exact_d_point_mass_pair():
    dp = d_profile_of(["aa", "aa"])
    assert exact_d_profile_logprob(
        [np.array([1.0]), np.array([1.0])], dp
    ) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "probs",
    [[[0.9, 0.9], [0.9, 0.9]], [[np.nan, 0.5], [0.5, 0.5]], [[0.5, 0.5], [-0.5, 0.5]]],
)
def test_exact_d_refuses_what_is_not_a_distribution(probs):
    # Mass 1.8 per coordinate gave log-probability +0.965, a NaN gave
    # -0.693 and a negative entry was accepted; the d = 1 oracle refuses all.
    with pytest.raises(ValueError):
        exact_d_profile_logprob([np.array(p) for p in probs], d_profile_of(["ab", "ab"]))


def test_exact_d_matches_joint_sequence_enumeration():
    rng = make_rng(23)
    for _ in range(12):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        alphabet = int(rng.integers(2, 4))
        seqs = [random_sequence(rng, n1, alphabet), random_sequence(rng, n2, alphabet)]
        dp = d_profile_of(seqs)
        p = [random_distribution(rng, alphabet), random_distribution(rng, alphabet)]
        fast = exact_d_profile_logprob(p, dp)
        slow = joint_sequence_logprob(p, dp)
        assert fast == pytest.approx(slow, abs=1e-10)


def test_levelset_d_matches_exact_oracle():
    rng = make_rng(25)
    for _ in range(10):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        seqs = [random_sequence(rng, n1, 3), random_sequence(rng, n2, 3)]
        dp = d_profile_of(seqs)
        values = np.array([[0.5, 0.4], [0.2, 0.3], [0.2, 0.2]])
        counts = np.array([1, 1, 1])
        dense = [values[:, 0], values[:, 1]]
        assert levelset_d_profile_logprob(values, counts, dp) == pytest.approx(
            exact_d_profile_logprob(dense, dp), abs=1e-10
        )


def test_levelset_d_with_zero_coordinate_levels():
    dp = d_profile_of(["ab", "aa"])  # tuples (1,2) and (1,0)
    values = np.array([[0.5, 1.0], [0.5, 0.0]])
    counts = np.array([1, 1])
    got = levelset_d_profile_logprob(values, counts, dp)
    expected = exact_d_profile_logprob([values[:, 0], values[:, 1]], dp)
    assert got == pytest.approx(expected, abs=1e-10)


def test_discretize_d_profile_zero_coordinates_stay_zero():
    dp = d_profile_of(["ab", "aa"])
    grids = build_d_grids((2, 2), (1.0, 1.0), (1.0, 1.0))
    counts, tuples = discretize_d_profile(dp, grids)
    n_disc = tuple(int(v) for v in counts @ tuples)
    assert n_disc == (2, 2)  # frequencies 1 and 2 are grid members
    nonzero = {tuple(t): int(c) for t, c in zip(tuples.tolist(), counts) if c}
    assert nonzero == {(1.0, 2.0): 1, (1.0, 0.0): 1}


def test_discretize_d_profile_stretch_bound():
    rng = make_rng(27)
    for _ in range(20):
        n1, n2 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        seqs = [random_sequence(rng, n1, 3), random_sequence(rng, n2, 3)]
        dp = d_profile_of(seqs)
        gamma = (float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0)))
        grids = build_d_grids(dp.n, (1.0, 1.0), gamma)
        counts, tuples = discretize_d_profile(dp, grids)
        n_disc = counts @ tuples
        for k in range(2):
            assert n_disc[k] <= (1 + gamma[k]) * dp.n[k] + 1e-9


@pytest.mark.parametrize(
    "sequences",
    [[np.random.default_rng(0).choice(50, size=100).tolist()],
     ["aaaaaaabbbbccd"], ["cbcfhdhbbd", "cddbcbpccb"], ["sgdbochffb", "bbgcedfbbb", "cbfgbbbbbb"]],
)
def test_discretized_tuples_are_the_nonempty_rows_of_the_frequency_product(sequences):
    # The pipeline's columns come in this order, so its outputs are those of
    # counting every tuple into the product of the ladders (each extended
    # with 0) and keeping the nonempty rows, bit for bit.
    dp, grids = default_grids(sequences)
    counts, tuples = discretize_d_profile(dp, grids)
    sizes = [len(g) + 1 for g in grids.freq_grids]
    full = np.zeros(math.prod(sizes) - 1, dtype=np.int64)
    for freqs, count in dp.entries:
        index = [g.ceil_index(f) + 1 if f else 0 for g, f in zip(grids.freq_grids, freqs)]
        full[np.ravel_multi_index(index, sizes) - 1] += count
    assert counts.dtype == tuples.dtype == np.int64
    assert np.array_equal(tuples, frequency_product(grids)[full > 0])
    assert np.array_equal(counts, full[full > 0])


def test_log_coefficient_reduces_to_one_dimensional():
    profile = profile_of_sequence("aabbc")
    dp = DProfile.from_profile(profile)
    assert log_d_profile_coefficient(dp) == pytest.approx(
        log_profile_coefficient(profile)
    )


def test_pipeline_d1_reduction_is_bit_exact():
    rng = make_rng(29)
    for _ in range(5):
        n = int(rng.integers(2, 7))
        profile = profile_of_sequence(random_sequence(rng, n, 3))
        dist1, diag1 = approximate_pml(profile, eps1=1.0, eps2=1.0)
        dist2, diag2 = approximate_pml_d(
            DProfile.from_profile(profile), eps1=(1.0,), eps2=(1.0,)
        )
        assert np.array_equal(dist1.values, dist2.values)
        assert np.array_equal(dist1.counts, dist2.counts)
        assert diag1.to_dict() == diag2.to_dict()


def test_pipeline_d2_point_mass_pair():
    dp = d_profile_of(["aa", "aa"])
    dist, diag = approximate_pml_d(dp, eps1=(1.0, 1.0), eps2=(1.0, 1.0))
    assert dist.values.shape[1] == 2
    assert np.allclose(dist.total_mass, 1.0)
    value = levelset_d_profile_logprob(
        dist.values, np.rint(dist.counts).astype(int), dp
    )
    assert value >= -diag.slack_total - 1e-9


def test_pipeline_d3_runs_and_normalizes():
    dp = d_profile_of(["ab", "aa", "ba"])
    dist, diag = approximate_pml_d(dp, eps1=(1.0,) * 3, eps2=(1.0,) * 3, max_iters=60)
    assert dist.values.shape[1] == 3
    assert np.allclose(dist.total_mass, 1.0, atol=1e-9)
    assert diag.slack_total > 0
    with pytest.raises(ValueError):
        d_profile_of(["a", "a", "a", "a"])


@pytest.mark.parametrize(
    "sequences",
    [["aaaaaaabbbbccd"], ["cbcfhdhbbd", "cddbcbpccb"], ["sgdbochffb", "bbgcedfbbb", "cbfgbbbbbb"]],
)
def test_pipeline_columns_are_the_observed_tuples(sequences):
    # One assignment column per distinct discretized frequency tuple, at the
    # default grids, where most of the frequency-grid product stays empty.
    dp = d_profile_of([list(s) for s in sequences])
    _, diag = approximate_pml_d(dp)
    grids = build_d_grids(dp.n, diag.eps1, diag.eps2)
    observed = {
        tuple(grid.ceil_value(int(f)) if f else 0 for grid, f in zip(grids.freq_grids, freqs))
        for freqs, _ in dp.entries
    }
    assert diag.num_freqs == len(observed)
    assert diag.certified


def test_brute_force_d2_prefers_matching_pair():
    dp = d_profile_of(["aa", "aa"])
    pair, logprob = brute_force_pml_d(dp, support_cap=2, resolution=4)
    assert logprob == pytest.approx(0.0, abs=1e-12)
    assert pair[0].tolist() == [1.0, 1.0]


def test_brute_force_d2_refuses_too_many_pairs_before_scoring_one(monkeypatch):
    dp = d_profile_of(["ab", "ab"])
    calls = []
    monkeypatch.setattr(exact, "exact_d_profile_logprob", lambda q, _: calls.append(q) or 0.0)
    # 7 partitions of 6 into at most 3 parts, times 28 compositions.
    brute_force_pml_d(dp, support_cap=3, resolution=6)
    assert len(calls) == 7 * 28

    def scored(*_):
        raise AssertionError("a pair was scored")

    monkeypatch.setattr(exact, "exact_d_profile_logprob", scored)
    # 108 partitions of 20 into at most 4 parts times 1 771 compositions;
    # at 200 the compositions alone pass the limit.
    for resolution in (20, 200):
        with pytest.raises(EnumerationCapError):
            brute_force_pml_d(dp, support_cap=4, resolution=resolution)


@pytest.mark.parametrize(
    "values, counts",
    [
        ([[0.9, 0.9]], [5]),  # mass 4.5 in each coordinate: unchecked, the oracle gives 2.574
        ([[0.5, 0.1], [0.3, 0.1]], [1, 2]),  # mass 1.1 in the first coordinate only
        ([[0.5, 1.5]], [1]),  # a value above one
        ([[0.5, -0.1]], [1]),  # a negative value
        ([[float("nan"), 0.5]], [1]),
        ([[float("inf"), 0.5]], [1]),
    ],
)
def test_levelset_d_oracle_refuses_what_is_not_a_pseudo_distribution(values, counts):
    with pytest.raises(ValueError):
        levelset_d_profile_logprob(values, counts, d_profile_of([[0, 0], [1, 1]]))
