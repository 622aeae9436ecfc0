import math

import numpy as np
import pytest

from pml import (
    AssignmentSpec,
    InfeasibleError,
    SolverConfig,
    build_d_grids,
    d_profile_of,
    default_delta,
    discretize_d_profile,
    initial_point,
    is_feasible,
    iter_feasible,
    log_weight_relaxed,
    solve,
)
from pml.solver import _repaired_dual_value
from conftest import random_fractional_point, tiny_solver_specs


def test_initial_point_examples():
    # Empty observed columns: the zero matrix.
    empty = AssignmentSpec(levels=[0.25, 0.5], freqs=[0, 1], col_counts=[0])
    assert np.array_equal(initial_point(empty), np.zeros((2, 2)))

    # Two elements of frequency 1 at n' = 2: both sit on the 0.5 row, budget 1.
    spec = AssignmentSpec(levels=[0.25, 0.5, 1.0], freqs=[0, 1], col_counts=[2])
    X = initial_point(spec)
    assert X[1, 1] == pytest.approx(2.0)
    assert spec.budget_use(X)[0] == pytest.approx(1.0)

    # Overshooting start rebalances exactly onto the budget.
    crowded = AssignmentSpec(levels=[0.125, 0.5, 1.0], freqs=[0, 3, 4], col_counts=[2, 1])
    X2 = initial_point(crowded)
    assert is_feasible(X2, crowded)
    assert crowded.budget_use(X2)[0] == pytest.approx(1.0)


def test_initial_point_infeasible():
    spec = AssignmentSpec(levels=[0.5, 1.0], freqs=[0, 1], col_counts=[5])
    with pytest.raises(InfeasibleError):
        initial_point(spec)


def test_solve_certifies_and_dominates_integral_max():
    for spec in tiny_solver_specs():
        delta = 1e-6 * max(float(spec.disc_lengths.max()) * math.log(max(float(spec.disc_lengths.max()), 2.0)), 1.0)
        result = solve(spec, SolverConfig(delta=delta, max_iters=300))
        assert is_feasible(result.X, spec, tol=1e-9)
        best = max(
            log_weight_relaxed(X.astype(float), spec)
            for X in iter_feasible(spec, cap=500_000)
        )
        assert result.objective >= best - delta
        assert result.certified
        assert result.certified_gap <= delta


def test_solve_bound_dominates_feasible_points(rng):
    # objective + certified_gap bounds the relaxed optimum from above, so no
    # feasible point may score above it; a loose delta checks the bound of an
    # early stage too, while its gap is still large.
    for spec in tiny_solver_specs():
        points = [random_fractional_point(rng, spec) for _ in range(5)]
        points.append(max((X.astype(float) for X in iter_feasible(spec, cap=500_000)),
                          key=lambda X: log_weight_relaxed(X, spec)))
        for delta in (default_delta(spec), 10.0):
            result = solve(spec, SolverConfig(delta=delta))
            claim = result.objective + result.certified_gap
            for point in points:
                assert is_feasible(point, spec)
                assert log_weight_relaxed(point, spec) <= claim + 1e-12 * max(1.0, abs(claim))


def test_solve_point_mass_profile_hits_hand_built_point():
    # Single element with full frequency: the top level alone is feasible.
    spec = AssignmentSpec(levels=[0.25, 0.5, 1.0], freqs=[0, 4], col_counts=[1])
    hand = np.zeros((3, 2))
    hand[2, 1] = 1.0
    result = solve(spec, SolverConfig(delta=1e-7))
    assert result.objective >= log_weight_relaxed(hand, spec) - 1e-7


def test_solve_deterministic():
    spec = tiny_solver_specs()[2]
    a = solve(spec, SolverConfig(delta=1e-6, max_iters=120))
    b = solve(spec, SolverConfig(delta=1e-6, max_iters=120))
    assert np.array_equal(a.X, b.X)
    assert a.objective == b.objective
    assert a.certified_gap == b.certified_gap


def test_repaired_dual_value_bounds_a_feasible_point():
    # C - mu reaches 1000 here; any clipped evaluation of the row term
    # undercounts it, and the "repaired" dual value falls far below the optimum.
    spec = AssignmentSpec(levels=[0.5, 1.0], freqs=[0, 1], col_counts=[1])
    feasible = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert is_feasible(feasible, spec)
    assert log_weight_relaxed(feasible, spec) == pytest.approx(math.log(2))
    value, lam = _repaired_dual_value(spec, np.array([-1000.0]), np.array([0.0]))
    assert value >= log_weight_relaxed(feasible, spec)
    assert np.all(lam >= 0)


def test_solve_certifies_joint_aa_pair():
    # The joint profile of ("aa", "aa") at eps = 1: d = 2, a 16 x 9 grid and a
    # single observed column. The optimum below is the dual optimum computed
    # independently (an LP in lam for each mu, minimized over mu at
    # mu = -5.4116); its active rows are (0.5, 0.5), (1, 0.5) and (1, 1).
    dprofile = d_profile_of([list("aa"), list("aa")])
    grids = build_d_grids(dprofile.n, (1.0, 1.0), (1.0, 1.0))
    counts, _ = discretize_d_profile(dprofile, grids)
    spec = AssignmentSpec(
        levels=grids.level_values,
        freqs=np.vstack([np.zeros((1, 2)), grids.freq_values]),
        col_counts=counts,
    )
    delta = default_delta(spec)
    result = solve(spec)
    assert is_feasible(result.X, spec, tol=1e-9)
    assert result.certified
    assert result.certified_gap <= delta
    assert result.iterations < 300
    assert abs(result.objective - 0.0044543508) <= delta


@pytest.mark.parametrize(
    "sequences",
    [["cbcfhdhbbd", "cddbcbpccb"], ["sgdbochffb", "bbgcedfbbb", "cbfgbbbbbb"]],
)
def test_solve_certifies_joint_profiles_at_default_eps(sequences):
    # d = 2 and d = 3 at n = 10 on the pipeline's default grids: 144 and 1331
    # levels against 80 and 728 frequency columns, few of them observed.
    dprofile = d_profile_of([list(s) for s in sequences])
    eps = tuple(nk ** (-1.0 / (2 * dprofile.d + 1)) for nk in dprofile.n)
    grids = build_d_grids(dprofile.n, eps, eps)
    counts, _ = discretize_d_profile(dprofile, grids)
    spec = AssignmentSpec(
        levels=grids.level_values,
        freqs=np.vstack([np.zeros((1, dprofile.d)), grids.freq_values]),
        col_counts=counts,
    )
    result = solve(spec)
    assert is_feasible(result.X, spec, tol=1e-9)
    assert result.certified
    assert result.certified_gap <= default_delta(spec)


def test_default_delta_scales_with_length():
    spec = AssignmentSpec(levels=[0.5], freqs=[0, 1], col_counts=[2])
    assert default_delta(spec) == pytest.approx(1e-6 * 2 * math.log(2))
    tiny = AssignmentSpec(levels=[1.0], freqs=[0, 1], col_counts=[1])
    assert default_delta(tiny) == pytest.approx(1e-6)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(delta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(delta=1e-6, max_iters=0)
