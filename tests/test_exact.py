import math

import numpy as np
import pytest

from pml import (
    EnumerationCapError,
    Profile,
    brute_force_pml,
    levelset_profile_logprob,
    profile_logprob,
    profile_logprob_by_sequences,
    profile_of_sequence,
    sequence_logprob,
)
from pml import exact
from conftest import make_rng, random_distribution, random_profile


def test_sequence_logprob_examples():
    assert sequence_logprob([0.5, 0.5], {0: 1, 1: 1}) == pytest.approx(
        math.log(0.25)
    )
    assert sequence_logprob([1.0], {0: 4}) == pytest.approx(0.0)
    assert sequence_logprob([0.6, 0.4], {0: 2, 1: 1}) == pytest.approx(
        math.log(0.144)
    )


def test_sequence_logprob_zero_and_range():
    assert sequence_logprob([0.0, 1.0], {0: 1}) == float("-inf")
    # A symbol that is no index of probs is refused, not read from the end.
    for symbol in (3, 2, -1, 1.0, True, "a"):
        with pytest.raises(ValueError, match="not an index"):
            sequence_logprob([0.5, 0.25], {symbol: 1})
    assert sequence_logprob([0.5, 0.25], {np.int64(1): 1}) == pytest.approx(math.log(0.25))


def test_profile_logprob_examples():
    uniform = [0.5, 0.5]
    assert profile_logprob(uniform, Profile(((1, 2),))) == pytest.approx(math.log(0.5))
    assert profile_logprob(uniform, Profile(((2, 1),))) == pytest.approx(math.log(0.5))
    for n in (1, 3, 7):
        assert profile_logprob([1.0], Profile(((n, 1),))) == pytest.approx(0.0)


def test_profile_logprob_agrees_with_sequence_enumeration():
    rng = make_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        alphabet = int(rng.integers(1, 5))
        p = random_distribution(rng, alphabet)
        profile = random_profile(rng, n, alphabet)
        a = profile_logprob(p, profile)
        b = profile_logprob_by_sequences(p, profile)
        assert a == pytest.approx(b, abs=1e-12)


def test_profile_logprob_scaling_identity():
    # For a pseudo-distribution v with |v|_1 = s: log P(v) = log P(v/s) + n log s.
    rng = make_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        alphabet = int(rng.integers(1, 5))
        profile = random_profile(rng, n, alphabet)
        p = random_distribution(rng, alphabet)
        s = float(rng.uniform(0.3, 1.0))
        scaled = profile_logprob(p * s, profile)
        assert scaled == pytest.approx(profile_logprob(p, profile) + n * math.log(s), abs=1e-10)


def test_profile_logprob_guards():
    with pytest.raises(EnumerationCapError):
        profile_logprob([1.0], Profile(((13, 1),)))
    with pytest.raises(EnumerationCapError):
        profile_logprob(np.full(11, 1 / 11), Profile(((1, 1),)))
    # explicit overrides lift the default guard
    assert profile_logprob([1.0], Profile(((14, 1),)), max_length=14) == pytest.approx(0.0)


def test_profile_logprob_impossible_profile():
    assert profile_logprob([1.0], Profile(((1, 2),))) == float("-inf")


def test_brute_force_point_mass_cases():
    for profile in (Profile(((2, 1),)), Profile(((5, 1),))):
        probs, logprob = brute_force_pml(profile)
        assert logprob == pytest.approx(0.0, abs=1e-12)
        assert probs.tolist() == [1.0]


def test_brute_force_two_singletons_uniform_over_cap():
    # P([(1,2)]) = 1 - sum p^2, maximized by uniform over the allowed support.
    for cap in (2, 4, 5):
        probs, logprob = brute_force_pml(Profile(((1, 2),)), cap, 2 * cap)
        assert logprob == pytest.approx(math.log(1 - 1 / cap))
        assert np.allclose(probs, np.full(cap, 1 / cap))


def test_brute_force_monotone_in_resolution_and_cap():
    profile = profile_of_sequence("aabbc")
    values = []
    for resolution in (4, 8, 12):
        _, v = brute_force_pml(profile, 5, resolution)
        values.append(v)
    assert values == sorted(values)
    by_cap = []
    for cap in (1, 2, 4):
        _, v = brute_force_pml(profile, cap, 12)
        by_cap.append(v)
    assert by_cap == sorted(by_cap)


def test_brute_force_guards():
    with pytest.raises(ValueError, match="may not exceed 2 n"):
        brute_force_pml(Profile(((1, 2),)), support_cap=9, resolution=5)  # 9 > 2 n^2
    with pytest.raises(EnumerationCapError):
        brute_force_pml(Profile(((13, 1),)))


def test_brute_force_refuses_too_many_candidates_before_scoring_one(monkeypatch):
    profile = Profile(((1, 3),))
    calls = []
    monkeypatch.setattr(exact, "profile_logprob", lambda probs, _: calls.append(probs) or 0.0)
    # Resolution 40 over at most 10 parts: 16 928 candidates, all scored.
    brute_force_pml(profile, resolution=40)
    assert len(calls) == 16_928

    def scored(*_):
        raise AssertionError("a candidate was scored")

    monkeypatch.setattr(exact, "profile_logprob", scored)
    # 1 314 972 candidates at resolution 80; far more at the others.
    for resolution in (80, 200, 10**9):
        with pytest.raises(EnumerationCapError):
            brute_force_pml(profile, resolution=resolution)


def test_levelset_profile_logprob_matches_dense():
    rng = make_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        profile = random_profile(rng, n, 4)
        values = np.sort(rng.uniform(0.05, 0.4, size=2))[::-1]
        counts = rng.integers(1, 4, size=2)
        if values @ counts > 1:
            continue
        dense = np.repeat(values, counts)
        assert levelset_profile_logprob(values, counts, profile) == pytest.approx(
            profile_logprob(dense, profile), abs=1e-10
        )


def test_levelset_merges_duplicate_values():
    profile = Profile(((1, 2),))
    merged = levelset_profile_logprob([0.25, 0.25], [1, 1], profile)
    direct = levelset_profile_logprob([0.25], [2], profile)
    assert merged == pytest.approx(direct, abs=1e-12)


def test_oracles_refuse_what_is_not_a_pseudo_distribution():
    profile = Profile(((1, 2),))
    for probs in ([float("nan"), 0.5, 0.5], [float("inf"), 0.5], [1e308, 1e308], [0.5, 0.7]):
        with pytest.raises(ValueError):
            profile_logprob(probs, profile)
    # Mass below one is a pseudo-distribution, and a rounding excess is forgiven.
    assert profile_logprob([0.25, 0.25], profile) == pytest.approx(math.log(2 * 0.25**2))
    assert np.isfinite(profile_logprob([0.5, 0.5 + 1e-12], profile))


@pytest.mark.parametrize(
    "values, counts, pairs",
    [
        ([0.9], [5], ((1, 2),)),  # mass 4.5: unchecked, the oracle gives 2.785, above log 1
        ([float("nan")], [1], ((1, 1),)),  # unchecked, the oracle gives 0.0
        ([0.5, 0.3], [1, 2], ((1, 1),)),  # mass 1.1
    ],
)
def test_levelset_oracle_refuses_what_is_not_a_pseudo_distribution(values, counts, pairs):
    with pytest.raises(ValueError):
        levelset_profile_logprob(values, counts, Profile(pairs))


def test_levelset_oracle_forgives_a_rounding_excess():
    profile = Profile(((1, 2),))
    assert levelset_profile_logprob([0.5], [2], profile) == pytest.approx(math.log(0.5))
    assert np.isfinite(levelset_profile_logprob([0.5 + 1e-12], [2], profile))
