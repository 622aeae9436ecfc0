import math

import pytest

from pml import (
    Profile,
    log_profile_coefficient,
    profile_coefficient_exact,
    profile_of_sequence,
)
from conftest import make_rng, random_sequence


def test_profile_of_ababc():
    assert profile_of_sequence("ababc").pairs == ((2, 2), (1, 1))


def test_profile_of_constant_and_distinct():
    assert profile_of_sequence("aaaa").pairs == ((4, 1),)
    assert profile_of_sequence("abc").pairs == ((1, 3),)


def test_profile_rejects_empty_sequence():
    with pytest.raises(ValueError):
        profile_of_sequence("")


def test_log_coefficient_examples():
    assert log_profile_coefficient(Profile(((4, 1),))) == pytest.approx(0.0, abs=1e-12)
    # n = 4 with one pair and two singletons: 4!/2! = 12
    assert log_profile_coefficient(Profile(((2, 1), (1, 2)))) == pytest.approx(math.log(12))
    assert log_profile_coefficient(Profile(((1, 3),))) == pytest.approx(math.log(6))


def test_round_trip_type_profile():
    rng = make_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        alphabet = int(rng.integers(1, 7))
        seq = random_sequence(rng, n, alphabet)
        profile = profile_of_sequence(seq)
        counts = sorted((seq.count(sym) for sym in set(seq)), reverse=True)
        assert profile.expanded_frequencies().tolist() == counts
        assert profile.n == len(seq)


def test_log_coefficient_matches_exact_integer():
    rng = make_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        seq = random_sequence(rng, n, int(rng.integers(1, 7)))
        profile = profile_of_sequence(seq)
        exact = profile_coefficient_exact(profile)
        assert math.exp(log_profile_coefficient(profile)) == pytest.approx(
            exact, rel=1e-12
        )


def test_exact_coefficient_guard():
    with pytest.raises(ValueError):
        profile_coefficient_exact(Profile(((21, 1),)))


def test_profile_canonicalization_and_validation():
    assert Profile(((1, 1), (2, 1), (1, 1))).pairs == ((2, 1), (1, 2))
    with pytest.raises(ValueError):
        Profile(((0, 1),))
    with pytest.raises(ValueError):
        Profile(((1, 0),))
    with pytest.raises(ValueError):
        Profile(())


def test_profile_json_round_trip():
    profile = profile_of_sequence("ababc")
    assert profile.to_json() == '{"pairs": [[2, 2], [1, 1]]}'
    assert Profile.from_json(profile.to_json()) == profile
    with pytest.raises(ValueError):
        Profile.from_dict({"nope": []})


def test_expanded_frequencies():
    profile = Profile(((3, 1), (1, 2)))
    assert profile.expanded_frequencies().tolist() == [3, 1, 1]
    assert profile.num_observed == 3
    assert profile.n == 5
