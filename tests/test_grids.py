import math

import numpy as np
import pytest

from pml import (
    Profile,
    build_frequency_grid,
    build_probability_grid,
    discretize_profile,
    profile_logprob,
    profile_of_sequence,
)
from pml.grids import MAX_LENGTH, MAX_LEVELS, GridSizeError
from pml.multi import build_d_grids
from conftest import make_rng, random_distribution, random_profile


def test_probability_grid_examples():
    grid = build_probability_grid(10, 0.5)
    assert grid.size == 15
    assert grid.values[0] == pytest.approx(1.5**-14)
    assert grid.values[0] <= 1 / 200
    assert grid.values[-1] == 1.0

    grid2 = build_probability_grid(2, 0.5)
    assert grid2.size == 7
    assert grid2.values[0] <= 1 / 8 < grid2.values[1]

    for n in (2, 5, 100):
        assert build_probability_grid(n, 0.3).values[-1] == 1.0


def test_probability_grid_validation():
    with pytest.raises(ValueError):
        build_probability_grid(10, 0.0)
    with pytest.raises(ValueError):
        build_probability_grid(10, 1.5)
    with pytest.raises(ValueError):
        build_probability_grid(1, 0.5)


def test_oversized_probability_grid_is_refused_before_it_is_built():
    # Each call below would allocate gigabytes (or loop forever once 1 + eps
    # rounds to 1) if the refusal came after the build.
    # n = 10**300 at its default eps = n^(-1/3) is refused before 2 n^2, which
    # is too large for a float, is formed.
    for n, eps in ((5, 1e-9), (5, 1e-300), (5, 5e-324), (10**5, 1e-5), (10**300, 1e-100)):
        with pytest.raises(GridSizeError, match="levels"):
            build_probability_grid(n, eps)
    assert issubclass(GridSizeError, ValueError)
    # Per-coordinate grids of 2e4 and 3.5e4 levels, 7e8 in the product.
    with pytest.raises(GridSizeError):
        build_d_grids((2, 4), (1e-4, 1e-4), (1.0, 1.0))
    # The limit sits far above the largest grid in use: d = 3 at n = 100.
    eps = 100 ** (-1 / 7)
    assert build_d_grids((100,) * 3, (eps,) * 3, (eps,) * 3).level_values.shape[0] == 15_625
    assert MAX_LEVELS >= 64 * 15_625
    assert 300_000 < len(build_probability_grid(5, 1e-5)) <= MAX_LEVELS


def test_frequency_grid_examples():
    assert build_frequency_grid(10, 1.0).values.tolist() == [1, 2, 3, 4, 6, 8, 10]
    assert build_frequency_grid(3, 1.0).values.tolist() == [1, 2, 3]
    assert build_frequency_grid(1, 0.5).values.tolist() == [1]


def ladder_one_rung_at_a_time(n, eps):
    """The frequency grid as first written: every power of 1 + eps/2 from k = 1."""
    values = set(range(1, min(n, math.ceil(1.0 / eps)) + 1))
    ratio = 1.0 + eps / 2.0
    k = 1
    while True:
        rung = math.ceil(ratio**k)
        if rung >= n:
            break
        values.add(rung)
        k += 1
    values.add(n)
    return sorted(values)


def test_frequency_grid_matches_the_full_ladder():
    rng = make_rng(7)
    sizes = [*range(1, 40), *np.unique(np.geomspace(40, 10**5, 40).astype(int)).tolist()]
    coarseness = [1.0, 0.75, 0.5, 1 / 3, 0.3, 0.2, 0.1, 0.05, 0.01, 1e-3,
                  *rng.uniform(1e-3, 1.0, 8).tolist()]
    for n in sizes:
        for eps in coarseness:
            assert build_frequency_grid(n, eps).values.tolist() == \
                ladder_one_rung_at_a_time(n, eps), (n, eps)


def test_tiny_eps_frequency_grid_is_the_integer_run():
    # A ladder climbed from k = 1 would take days at eps = 1e-12; 1/eps
    # overflows at 5e-324.
    for eps in (1e-9, 1e-12, 5e-324):
        assert build_frequency_grid(5, eps).values.tolist() == [1, 2, 3, 4, 5]
    assert len(build_frequency_grid(10**5, 1e-5)) == 10**5


def test_length_beyond_int64_grids_is_refused():
    # At eps = 1 both ladders are short, but 2 n^2 at n = 1e300 is too large
    # for a float, and frequencies near 1e150 too large for int64.
    for n in (10**300, 10**150, MAX_LENGTH + 1):
        for build in (build_probability_grid, build_frequency_grid):
            with pytest.raises(GridSizeError, match="sample length"):
                build(n, 1.0)
    assert build_frequency_grid(MAX_LENGTH, 1.0).max_value == MAX_LENGTH
    assert build_probability_grid(MAX_LENGTH, 1.0).values[0] <= 1 / (2 * MAX_LENGTH**2)


def test_oversized_frequency_grid_is_refused_before_it_is_built():
    # An integer run of 1e7, and a ladder of about 1.4e7 steps above a run of 1e6.
    for n, eps in ((10**7, 1e-7), (10**9, 1e-6)):
        with pytest.raises(GridSizeError, match="frequency grid"):
            build_frequency_grid(n, eps)


def test_frequency_grid_contains_endpoints():
    rng = make_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        eps = float(rng.uniform(0.05, 1.0))
        grid = build_frequency_grid(n, eps)
        assert grid.values[0] == 1
        assert grid.max_value == n


def test_floor_value_examples():
    grid = build_probability_grid(10, 0.5)
    assert grid.floor_value(0.6) == 1.5**-2
    assert grid.floor_value(0.4) == 1.5**-3
    assert grid.floor_value(1.0) == 1.0
    assert grid.floor_index(1.0) == grid.size - 1

    fine = build_probability_grid(2, 0.01)
    value = fine.floor_value(0.5)
    assert value <= 0.5 < value * 1.01

    # Below the grid, and at zero, there is no level to floor onto.
    coarse = build_probability_grid(5, 1.0)
    for below in (coarse.values[0] / 3, 0.0):
        assert coarse.floor_index(below) == -1
        assert coarse.floor_value(below) == 0.0


def test_discretize_floor_bound_and_idempotence():
    rng = make_rng(4)
    for _ in range(100):
        eps = float(rng.uniform(0.05, 1.0))
        grid = build_probability_grid(int(rng.integers(2, 30)), eps)
        c = float(rng.uniform(grid.values[0], 1.0))
        floored = grid.floor_value(c)
        assert floored <= c * (1 + 1e-12)
        assert floored >= c / (1 + eps)
        assert grid.floor_value(floored) == floored


def test_discretize_profile_examples():
    grid = build_frequency_grid(3, 1.0)
    disc = discretize_profile(profile_of_sequence("aab"), grid)
    assert disc.to_profile().pairs == ((2, 1), (1, 1))
    assert disc.n_prime == 3

    grid10 = build_frequency_grid(10, 1.0)
    disc2 = discretize_profile(Profile(((5, 1),)), grid10)
    assert disc2.to_profile().pairs == ((6, 1),)
    assert disc2.n_prime == 6

    singles = Profile(((1, 4),))
    disc3 = discretize_profile(singles, build_frequency_grid(4, 1.0))
    assert disc3.to_profile() == singles
    assert disc3.n_prime == 4


def test_discretize_profile_guards_and_idempotence():
    grid = build_frequency_grid(4, 1.0)
    with pytest.raises(ValueError):
        discretize_profile(Profile(((5, 1),)), grid)
    rng = make_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        eps = float(rng.uniform(0.1, 1.0))
        grid = build_frequency_grid(n, eps)
        profile = random_profile(rng, n, int(rng.integers(1, 6)))
        disc = discretize_profile(profile, grid)
        assert disc.n_prime <= (1 + eps) * n + 1e-9
        again = discretize_profile(disc.to_profile(), grid)
        assert np.array_equal(again.counts, disc.counts)


def test_probability_discretization_sandwich_small_sample():
    # 0 <= log P(p, phi) - log P(disc(p), phi) <= eps * n (spot check; the
    # acceptance suite runs the full-size version).
    rng = make_rng(8)
    for _ in range(30):
        n = int(rng.integers(3, 9))
        alphabet = int(rng.integers(2, 6))
        eps = float(rng.choice([0.2, 0.5, 1.0]))
        p = random_distribution(rng, alphabet)
        profile = random_profile(rng, n, alphabet)
        grid = build_probability_grid(n, eps)
        exact = profile_logprob(p, profile)
        floored = profile_logprob(np.array([grid.floor_value(v) for v in p]), profile)
        assert exact + 1e-9 >= floored
        assert floored >= exact - eps * n - 1e-9


def test_grid_json():
    pgrid = build_probability_grid(4, 1.0)
    assert len(pgrid) == 6
    assert np.array_equal(pgrid.values, 2.0 ** np.arange(-5, 1))
    fgrid = build_frequency_grid(4, 1.0)
    assert fgrid.values.tolist() == [1, 2, 3, 4]
