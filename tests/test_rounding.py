import numpy as np
import pytest

from pml import (
    AssignmentSpec,
    is_feasible,
    log_weight,
    log_weight_relaxed,
    round_assignment,
)
from conftest import random_fractional_point, tiny_solver_specs


def extended_spec(rounded, spec):
    """The rounded assignment's own problem: its levels, the spec's columns."""
    return AssignmentSpec(rounded.levels, spec.freqs, spec.col_counts)


def test_integral_input_passes_through():
    spec = AssignmentSpec(levels=[0.25, 0.5], freqs=[0, 1], col_counts=[2])
    X = np.array([[1.0, 2.0], [0.0, 0.0]])
    rounded = round_assignment(X, spec)
    assert np.array_equal(rounded.X[:2], X)
    assert np.all(rounded.levels[2:] == 1)  # no fresh level: placeholders only
    assert np.all(rounded.X[2:] == 0)


def test_entries_just_below_zero_floor_to_zero():
    # is_feasible at tol 1e-8 accepts the -5e-9 entry; flooring it to -1 made
    # log_weight refuse the rounded assignment.
    spec = AssignmentSpec(levels=[0.25, 0.5, 1], freqs=[0, 1], col_counts=[1])
    X = np.array([[0.0, 1.0], [-5e-9, 0.0], [0.0, 0.0]])
    assert is_feasible(X, spec, tol=1e-8)
    rounded = round_assignment(X, spec)
    assert np.array_equal(rounded.X[:3], [[0, 1], [0, 0], [0, 0]])
    assert rounded.log_weight == pytest.approx(log_weight(rounded.X, extended_spec(rounded, spec)))


def test_single_column_half_split():
    spec = AssignmentSpec(levels=[0.5, 0.25], freqs=[0, 1], col_counts=[1])
    fractional = np.array([[0.0, 0.5], [0.0, 0.5]])
    rounded = round_assignment(fractional, spec)
    assert rounded.levels[2, 0] == pytest.approx(0.375)
    assert rounded.X[2, 1] == 1
    assert extended_spec(rounded, spec).budget_use(rounded.X)[0] == pytest.approx(0.375)


def test_residual_two_takes_weighted_mean():
    spec = AssignmentSpec(levels=[0.5, 0.25, 0.125], freqs=[0, 1], col_counts=[2])
    fractional = np.array([[0.0, 0.8], [0.0, 0.7], [0.0, 0.5]])
    rounded = round_assignment(fractional, spec)
    assert rounded.X[3, 1] == 2
    expected = (0.8 * 0.5 + 0.7 * 0.25 + 0.5 * 0.125) / 2
    assert rounded.levels[3, 0] == pytest.approx(expected)


def test_rounding_claim_random(rng):
    checked = 0
    for spec in tiny_solver_specs():
        R, J = spec.shape
        for _ in range(5):
            Xf = random_fractional_point(rng, spec)
            rounded = round_assignment(Xf, spec)
            X = rounded.X
            ext = extended_spec(rounded, spec)
            # Column sums restored exactly.
            assert np.array_equal(
                X[:, 1:].sum(axis=0).astype(int), spec.col_counts
            )
            # Budget conserved exactly up to the floored unseen fractions
            # (the only mass the procedure may drop).
            unseen_frac = Xf[:, 0] - np.floor(Xf[:, 0] + 1e-9)
            dropped = spec.levels.T @ unseen_frac
            assert np.allclose(
                ext.budget_use(X) + dropped,
                spec.budget_use(Xf),
                atol=1e-12,
            )
            assert np.all(ext.budget_use(X) <= spec.budget_use(Xf) + 1e-12)
            # Base row sums sandwiched between floor and original.
            base = X[:R].sum(axis=1)
            frac_rows = Xf.sum(axis=1)
            assert np.all(base <= frac_rows + 1e-7)
            assert np.all(base >= frac_rows - J - 1e-7)
            # Probability term never decreases, per coordinate.
            for k in range(spec.dim):
                before = (Xf @ spec.freqs[:, k]) @ np.log(spec.levels[:, k])
                after = (X @ ext.freqs[:, k]) @ np.log(ext.levels[:, k])
                assert after >= before - 1e-9
            checked += 1
    assert checked >= 50


def test_rounded_is_feasible_extended_and_integral(rng):
    for spec in tiny_solver_specs()[:8]:
        Xf = random_fractional_point(rng, spec)
        rounded = round_assignment(Xf, spec)
        assert is_feasible(rounded.X, extended_spec(rounded, spec), tol=1e-9)
        assert np.all(np.abs(rounded.X - np.rint(rounded.X)) <= 1e-9)


def test_budget_exact_when_unseen_is_integral(rng):
    for spec in tiny_solver_specs()[:8]:
        Xf = random_fractional_point(rng, spec)
        Xf[:, 0] = np.floor(Xf[:, 0])
        rounded = round_assignment(Xf, spec)
        assert np.allclose(
            extended_spec(rounded, spec).budget_use(rounded.X), spec.budget_use(Xf), atol=1e-12
        )


def test_extended_stirling_sandwich(rng):
    for spec in tiny_solver_specs()[:8]:
        Xf = random_fractional_point(rng, spec)
        rounded = round_assignment(Xf, spec)
        X = rounded.X
        w = log_weight(X, extended_spec(rounded, spec))
        g = log_weight_relaxed(X, extended_spec(rounded, spec))
        rows = X.sum(axis=1)
        upper = (1.0 + 0.5 * np.log(rows[rows > 0] + 1)).sum()
        lower = (1.0 + 0.5 * np.log(X[X > 0] + 1)).sum()
        assert -lower - 1e-12 <= w - g <= upper + 1e-12


def test_appended_rows_use_only_their_own_column(rng):
    for spec in tiny_solver_specs():
        R, J = spec.shape
        rounded = round_assignment(random_fractional_point(rng, spec), spec)
        X = rounded.X
        assert X.shape == (R + J - 1, J) and rounded.levels.shape == (R + J - 1, spec.dim)
        assert np.all(X >= 0) and np.array_equal(X, np.rint(X))
        for j in range(J - 1):
            others = np.delete(X[R + j], j + 1)
            assert np.all(others == 0), (spec.shape, j)
            if X[R + j, j + 1] == 0:
                assert np.all(rounded.levels[R + j] == 1)  # the placeholder of an exact column


def test_log_weight_is_the_extended_problems(rng):
    # The closed form against the extended spec it no longer builds.
    checked = 0
    for spec in tiny_solver_specs():
        for _ in range(20):
            rounded = round_assignment(random_fractional_point(rng, spec), spec)
            oracle = log_weight(rounded.X, extended_spec(rounded, spec))
            assert abs(rounded.log_weight - oracle) <= 1e-9
            checked += 1
    assert checked >= 200


def test_infeasible_input_rejected():
    spec = AssignmentSpec(levels=[0.5], freqs=[0, 1], col_counts=[1])
    with pytest.raises(ValueError):
        round_assignment(np.array([[0.0, 2.0]]), spec)
