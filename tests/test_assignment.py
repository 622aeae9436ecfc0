import math

import numpy as np
import pytest

from pml import (
    AssignmentSpec,
    EnumerationCapError,
    Profile,
    count_feasible,
    grad_log_weight_relaxed,
    is_feasible,
    iter_feasible,
    levelset_profile_logprob,
    log_count_bound,
    log_weight,
    log_weight_relaxed,
    profile_logprob,
)
from pml import assignment
from pml.assignment import has_commensurable_levels, log_weight_total
from pml.pipeline import _log_num_assignments
from conftest import default_grid_spec, random_fractional_point, tiny_solver_specs


def single_level_spec(level=0.5, freq=1, count=2):
    return AssignmentSpec(levels=[level], freqs=[0, freq], col_counts=[count])


def test_is_feasible_examples():
    zero_spec = AssignmentSpec(levels=[0.5, 1.0], freqs=[0, 1], col_counts=[0])
    assert is_feasible(np.zeros((2, 2)), zero_spec)

    spec = single_level_spec()
    assert is_feasible(np.array([[0.0, 2.0]]), spec)  # budget exactly 1
    assert not is_feasible(np.array([[0.0, 3.0]]), spec)  # column sum violated

    with pytest.raises(ValueError):
        is_feasible(np.zeros((3, 3)), spec)


def test_is_feasible_budget_and_rows():
    spec = AssignmentSpec(levels=[0.5], freqs=[0, 1], col_counts=[1])
    assert not is_feasible(np.array([[2.0, 1.0]]), spec)  # mass 1.5 > 1
    pinned = AssignmentSpec(
        levels=[0.5], freqs=[0, 1], col_counts=[1], row_counts=[2]
    )
    assert is_feasible(np.array([[1.0, 1.0]]), pinned)
    assert not is_feasible(np.array([[0.0, 1.0]]), pinned)


def test_is_feasible_rejects_non_finite_entries():
    spec = AssignmentSpec(levels=[0.5, 1.0], freqs=[0, 1], col_counts=[1])
    assert not is_feasible(np.full((2, 2), np.nan), spec)
    assert not is_feasible(np.array([[np.inf, 1.0], [0.0, 0.0]]), spec)


def test_log_weight_examples():
    spec = single_level_spec()
    assert log_weight(np.array([[0.0, 2.0]]), spec) == pytest.approx(2 * math.log(0.5))
    zero_spec = AssignmentSpec(levels=[0.5, 1.0], freqs=[0, 1], col_counts=[0])
    assert log_weight(np.zeros((2, 2)), zero_spec) == pytest.approx(0.0)
    mixed = AssignmentSpec(levels=[0.5], freqs=[0, 1], col_counts=[1])
    assert log_weight(np.array([[1.0, 1.0]]), mixed) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        log_weight(np.array([[0.5, 0.5]]), mixed)


def test_log_weight_relaxed_examples():
    spec = single_level_spec()
    X = np.array([[0.0, 2.0]])
    # Multinomial coefficient 1, so the relaxed and integral forms agree.
    assert log_weight_relaxed(X, spec) == pytest.approx(log_weight(X, spec))
    zero_spec = AssignmentSpec(levels=[0.5, 1.0], freqs=[0, 1], col_counts=[0])
    assert log_weight_relaxed(np.zeros((2, 2)), zero_spec) == pytest.approx(0.0)

    two_cols = AssignmentSpec(levels=[0.5], freqs=[0, 1, 2], col_counts=[1, 1])
    half = np.array([[0.0, 0.5, 0.5]])
    expected = 0.5 * (1 + 2) * math.log(0.5) + math.log(2)
    assert log_weight_relaxed(half, two_cols) == pytest.approx(expected)
    with pytest.raises(ValueError):
        log_weight_relaxed(np.array([[-0.1, 1.1, 0.0]]), two_cols)


def test_grad_examples():
    spec = AssignmentSpec(levels=[0.25, 0.5], freqs=[0, 1, 3], col_counts=[1, 1])
    X = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    grad = grad_log_weight_relaxed(X, spec)
    # A single nonzero entry in its row: gradient is freq * log(level).
    assert grad[0, 1] == pytest.approx(1 * math.log(0.25))
    assert grad[1, 2] == pytest.approx(3 * math.log(0.5))
    # Equal entries in a row get equal gradient entries for equal frequencies.
    spec_sym = AssignmentSpec(levels=[0.5], freqs=[0, 2, 2], col_counts=[1, 1])
    grad_sym = grad_log_weight_relaxed(np.array([[0.0, 0.7, 0.7]]), spec_sym)
    assert grad_sym[0, 1] == pytest.approx(grad_sym[0, 2])


def test_grad_matches_finite_differences(rng):
    for spec in tiny_solver_specs()[:8]:
        X = random_fractional_point(rng, spec)
        X = np.maximum(X, 1e-3)  # keep the check away from the boundary
        grad = grad_log_weight_relaxed(X, spec)
        h = 1e-6
        for _ in range(5):
            i = int(rng.integers(0, spec.num_levels))
            j = int(rng.integers(0, spec.num_cols))
            upper = X.copy()
            upper[i, j] += h
            lower = X.copy()
            lower[i, j] -= h
            numeric = (log_weight_relaxed(upper, spec) - log_weight_relaxed(lower, spec)) / (2 * h)
            assert grad[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-7)


def test_enumeration_examples():
    # Single column with one element over two budget-tight levels: 2 matrices.
    spec = AssignmentSpec(levels=[0.6, 1.0], freqs=[0, 1], col_counts=[1])
    mats = list(iter_feasible(spec))
    assert len(mats) == 2
    # Empty observed columns and no room for unseen elements: just the zero matrix.
    empty = AssignmentSpec(levels=[0.6, 1.0], freqs=[0, 1], col_counts=[0])
    assert len(list(iter_feasible(empty))) == 1 + 2  # zero matrix or one unseen element
    tight = AssignmentSpec(levels=[1.0], freqs=[0, 1], col_counts=[0])
    assert [m.tolist() for m in iter_feasible(tight)] == [[[0, 0]], [[1, 0]]]
    # Budget-tight observed column: exactly one matrix.
    one = AssignmentSpec(levels=[0.5], freqs=[0, 1], col_counts=[2])
    assert [m.tolist() for m in iter_feasible(one)] == [[[0, 2]]]


def test_enumeration_cap():
    spec = AssignmentSpec(
        levels=[2**-k for k in range(8, 0, -1)], freqs=[0, 1], col_counts=[4]
    )
    with pytest.raises(EnumerationCapError):
        list(iter_feasible(spec, cap=10))


def test_count_matches_enumeration():
    for spec in tiny_solver_specs():
        count = count_feasible(spec)
        listed = sum(1 for _ in iter_feasible(spec, cap=1_000_000))
        assert count == listed
        assert math.log(count) <= log_count_bound(spec) + 1e-12


def test_reformulation_matches_oracle_examples():
    # q = {0.5: 2}, profile [(1, 2)]: single assignment, P = 1/2.
    profile = Profile(((1, 2),))
    assert levelset_profile_logprob([0.5], [2], profile) == pytest.approx(math.log(0.5))
    # q = point mass, profile [(n, 1)]: probability one.
    assert levelset_profile_logprob([1.0], [1], Profile(((4, 1),))) == pytest.approx(0.0)
    # q = {0.5: 1, 0.25: 2}, profile [(1, 1)]: three placements summing to mass 1.
    assert levelset_profile_logprob([0.5, 0.25], [1, 2], Profile(((1, 1),))) == pytest.approx(0.0)


def test_reformulation_matches_oracle_random(rng):
    # Random discrete pseudo-distributions with <= 3 levels vs the composition oracle.
    for _ in range(30):
        n_levels = int(rng.integers(1, 4))
        values = np.sort(rng.choice([0.5, 0.25, 0.125, 0.0625], size=n_levels, replace=False))[::-1]
        counts = rng.integers(1, 4, size=n_levels)
        if values @ counts > 1:
            continue
        n = int(rng.integers(1, 6))
        freqs = []
        remaining = n
        while remaining:
            f = int(rng.integers(1, remaining + 1))
            freqs.append(f)
            remaining -= f
        pairs = {}
        for f in freqs:
            pairs[f] = pairs.get(f, 0) + 1
        profile = Profile(tuple(pairs.items()))
        expected = profile_logprob(np.repeat(values, counts), profile)
        got = levelset_profile_logprob(values, counts, profile)
        assert got == pytest.approx(expected, abs=1e-9)


def test_relaxed_set_dominates_restricted(rng):
    # The budget-variant sum is at least the pinned-rows sum for any feasible rows.
    for spec in tiny_solver_specs()[:6]:
        X0 = None
        for X in iter_feasible(spec, cap=100_000):
            X0 = X
            break
        if X0 is None:
            continue
        pinned = AssignmentSpec(
            levels=spec.levels,
            freqs=spec.freqs,
            col_counts=spec.col_counts,
            row_counts=X0.sum(axis=1),
        )
        free = log_weight_total(iter_feasible(spec, cap=300_000), spec)
        assert free >= log_weight_total(iter_feasible(pinned, cap=300_000), pinned) - 1e-12


def test_stirling_sandwich_on_enumerated_sets():
    for spec in tiny_solver_specs()[:8]:
        for X in iter_feasible(spec, cap=100_000):
            Xf = X.astype(float)
            w = log_weight(Xf, spec)
            g = log_weight_relaxed(Xf, spec)
            rows = Xf.sum(axis=1)
            upper = (1.0 + 0.5 * np.log(rows[rows > 0] + 1)).sum()
            lower = (1.0 + 0.5 * np.log(Xf[Xf > 0] + 1)).sum()
            assert -lower - 1e-12 <= w - g <= upper + 1e-12


def test_midpoint_concavity(rng):
    for spec in tiny_solver_specs()[:6]:
        for _ in range(10):
            X = random_fractional_point(rng, spec)
            Y = random_fractional_point(rng, spec)
            mid = log_weight_relaxed((X + Y) / 2, spec)
            assert mid >= 0.5 * (log_weight_relaxed(X, spec) + log_weight_relaxed(Y, spec)) - 1e-9


@pytest.mark.parametrize("sequences", [["ab"], ["aab"], ["aa", "a"], ["ab", "a"]])
def test_count_without_enumeration_on_default_grids(sequences):
    # Default-grid levels are not commensurable, so count_feasible counts the
    # matrices iter_feasible yields; it must be refused exactly when the count
    # passes the cap.
    spec = default_grid_spec(sequences)
    assert not has_commensurable_levels(spec)
    count = count_feasible(spec)
    assert count == sum(1 for _ in iter_feasible(spec, cap=1_000_000))
    assert count_feasible(spec, cap=count) == count
    with pytest.raises(EnumerationCapError):
        count_feasible(spec, cap=count - 1)


@pytest.mark.parametrize(
    "sequences", [["ab"], ["aab"], ["aa", "a"], ["ab", "a"], ["ab", "ab"], ["aabbb"]]
)
def test_levels_that_are_not_commensurable_get_the_bound_at_once(sequences, monkeypatch):
    # The pipeline counts exactly only with the integer DP; on default-grid
    # levels it returns the per-cell bound without placing an observed column.
    def placed(*_):
        raise AssertionError("observed columns were placed")

    monkeypatch.setattr(assignment, "_observed_combos", placed)
    spec = default_grid_spec(sequences)
    assert _log_num_assignments(spec) == (log_count_bound(spec), "bound")


def zipf_sample(n: int) -> list[int]:
    """n draws from Zipf(1) over k = n/2 symbols, default_rng(0)."""
    p = 1.0 / np.arange(1, n // 2 + 1)
    return np.random.default_rng(0).choice(n // 2, size=n, p=p / p.sum()).tolist()


def test_count_is_refused_before_the_dp_table_exists(monkeypatch):
    def filled(*_):
        raise AssertionError("the DP table was filled")

    monkeypatch.setattr(np, "ndindex", filled)
    # Zipf n = 300 at eps = 1: 19 levels, too many observed placements.
    spec = default_grid_spec([zipf_sample(300)], eps=1.0)
    assert has_commensurable_levels(spec)
    with pytest.raises(EnumerationCapError):
        count_feasible(spec, cap=150_000)
    # A point mass at n = 1000: one placement per level, but the table
    # would have 2 * 1000^2 + 1 cells per level.
    spec = default_grid_spec([[0] * 1000], eps=1.0)
    assert has_commensurable_levels(spec)
    assert _log_num_assignments(spec) == (log_count_bound(spec), "bound")
