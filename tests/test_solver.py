import math
from collections import Counter

import numpy as np
import pytest

from pml import (
    AssignmentSpec,
    InfeasibleError,
    SolverConfig,
    default_delta,
    initial_point,
    is_feasible,
    iter_feasible,
    log_weight_relaxed,
    solve,
)
from pml import solver as solver_module
from pml.solver import _ReducedDual, _feasible, _nearest_rows, _repaired_dual_value
from conftest import (
    default_grid_spec,
    every_grid_column_spec,
    random_fractional_point,
    tiny_solver_specs,
)


def watch_mu_solves(monkeypatch):
    """Record every descent of solve (in mu at one budget, in (mu, lam) at
    two or three): its start and end points, the end point's lam and row
    weights a, and its value and derivative calls. Returns the list the
    records go to."""
    records = []
    descend = solver_module._descend

    def recording(value, derivatives, x, *args, **kwargs):
        dual = getattr(value, "__self__", None)
        if not isinstance(dual, _ReducedDual):  # a lam solve
            return descend(value, derivatives, x, *args, **kwargs)
        record = {"t": dual.t, "start": x.copy(), "values": 0, "derivatives": 0}

        def counted_value(x):
            record["values"] += 1
            return value(x)

        def counted_derivatives(x, state):
            record["derivatives"] += 1
            return derivatives(x, state)

        out = descend(counted_value, counted_derivatives, x, *args, **kwargs)
        lam, a = out[1][:2]
        record.update(x=out[0].copy(), lam=lam.copy(), a=a.copy(), steps=out[2])
        records.append(record)
        return out

    monkeypatch.setattr(solver_module, "_descend", recording)
    return records


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


def test_feasible_scales_the_unseen_column_onto_the_budget():
    spec = AssignmentSpec(levels=[0.125, 0.5, 1.0], freqs=[0, 1], col_counts=[1])
    X = np.array([[2.0, 0.0], [1.0, 0.5], [0.25, 0.5]])  # budget use 1.75
    Y = _feasible(X.copy(), spec)
    assert is_feasible(Y, spec)
    assert spec.budget_use(Y)[0] == 1.0
    assert np.array_equal(Y[:, 1], X[:, 1])
    assert np.array_equal(Y[:, 0], 0.25 * X[:, 0])  # one factor for every row

    # Count 2 on the level-1 row overshoots whatever the unseen column holds,
    # so the observed column is blended toward the cheapest level first, and
    # then no budget is left for the unseen column.
    crowded = AssignmentSpec(levels=[0.125, 0.5, 1.0], freqs=[0, 1], col_counts=[2])
    Z = _feasible(np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 1.0]]), crowded)
    assert Z is not None and is_feasible(Z, crowded)
    assert Z[:, 1].sum() == pytest.approx(2.0)
    assert np.array_equal(Z[:, 0], np.zeros(3))


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


@pytest.mark.parametrize("mu, lam", [(np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf)])
def test_repaired_dual_value_raises_instead_of_returning_a_non_bound(mu, lam):
    # One observed column, optimum log 2. Dropping a NaN or infinite mu of an
    # observed column would return 1e-15, and lam = inf makes the repaired
    # lam NaN; either is no bound, and the check must survive python -O.
    spec = AssignmentSpec(levels=[0.5, 1.0], freqs=[0, 1], col_counts=[1])
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError):
        _repaired_dual_value(spec, np.array([mu]), np.array([lam]))


def test_solve_certifies_joint_aa_pair():
    # The joint profile of ("aa", "aa") at eps = 1: d = 2, a 16 x 9 grid and a
    # single observed column. The optimum below is the dual optimum computed
    # independently (an LP in lam for each mu, minimized over mu at
    # mu = -5.4116); its active rows are (0.5, 0.5), (1, 0.5) and (1, 1).
    spec = every_grid_column_spec(["aa", "aa"], eps=1.0)
    delta = default_delta(spec)
    result = solve(spec)
    assert is_feasible(result.X, spec, tol=1e-9)
    assert result.certified
    assert result.certified_gap <= delta
    assert result.iterations < 300
    assert abs(result.objective - 0.0044543508) <= delta


@pytest.mark.parametrize(
    "spec",
    [spec for spec in tiny_solver_specs() if np.any(spec.col_counts == 0)]
    + [every_grid_column_spec(["cbcfhdhbbd", "cddbcbpccb"])],
)
def test_solve_ignores_empty_columns_exactly(spec):
    # Every feasible point is zero on an empty column, so the solve must not
    # depend on one. Solving with the empty columns differed in the last bits
    # on the fourth tiny spec and on the d = 2 spec (144 x 81, 6 observed).
    kept = np.r_[0, 1 + np.flatnonzero(spec.col_counts)]
    reduced = AssignmentSpec(spec.levels, spec.freqs[kept], spec.col_counts[kept[1:] - 1])
    full, alone = solve(spec), solve(reduced)
    assert np.array_equal(full.X[:, kept], alone.X)
    assert not np.delete(full.X, kept, axis=1).any()
    assert (full.objective, full.certified_gap, full.iterations) == (
        alone.objective, alone.certified_gap, alone.iterations)


@pytest.mark.parametrize("spec", [spec for spec in tiny_solver_specs() if np.all(spec.col_counts)])
def test_solve_builds_no_second_spec_when_every_column_is_observed(monkeypatch, spec):
    # A second spec is a second coefficient table, the size of the whole
    # problem; the pipeline only ever passes specs without empty columns.
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return AssignmentSpec(*args, **kwargs)

    monkeypatch.setattr(solver_module, "AssignmentSpec", counting)
    result = solve(spec)
    assert built == []
    assert result.X.shape == spec.shape and is_feasible(result.X, spec)
    empty = AssignmentSpec(spec.levels, np.vstack([spec.freqs, spec.freqs[-1:] + 1]),
                           np.r_[spec.col_counts, 0])
    solve(empty)  # the counter does see the rebuild that an empty column needs
    assert len(built) == 1


def test_column_seen_in_one_coordinate_starts_on_its_nearest_level(monkeypatch):
    # d = 2 at the default grids: "f" and "h" are seen in the first sample
    # only, "p" in the second only. Each such column starts the primal on the
    # first row whose level in its seen coordinate is nearest its rate there,
    # and its first mu is the Poissonized one, log f! - f log n' in that
    # coordinate (the other adds log 0! - 0 log n' = 0).
    spec = default_grid_spec(["cbcfhdhbbd", "cddbcbpccb"])
    records = watch_mu_solves(monkeypatch)
    solve(spec)
    mu = records[0]["start"]
    X = initial_point(spec)
    seen = spec.freqs[1:] > 0
    one_coordinate = np.flatnonzero(seen.sum(axis=1) == 1)
    assert one_coordinate.size == 3
    for j in one_coordinate:
        k = int(np.flatnonzero(seen[j])[0])
        f = spec.freqs[1 + j, k]
        rate = f / spec.disc_lengths[k]
        dist = np.abs(np.log(spec.levels[:, k]) - np.log(rate))
        row = int(np.flatnonzero(dist == dist.min())[0])
        assert np.argmax(X[:, 1 + j]) == row
        assert mu[j] == pytest.approx(math.lgamma(f + 1) - f * math.log(spec.disc_lengths[k]),
                                      rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("d, n", [(1, 1000), (2, 100)])
def test_start_is_a_feasible_dual_point(monkeypatch, d, n):
    # At lam = n', exp(C_ij - mu_j - lam . level_i) is the product of the
    # Poisson probabilities of column j's frequencies at means n'_k level_ik,
    # and the unseen column's term is that of zero counts. The tuples are
    # distinct, so the terms of a row sum to at most one: W_i <= lam . level_i
    # on every row before any Newton step, and the start's dual value is an
    # upper bound. At d = 2 the descent starts at (mu, lam): mu is its first
    # J coordinates.
    spec = default_grid_spec(zipf_sequences(d, n))
    records = watch_mu_solves(monkeypatch)
    result = solve(spec)
    mu = records[0]["start"][: spec.num_cols - 1]
    lam = np.maximum(spec.disc_lengths, 1.0)
    W = solver_module._row_terms(spec, mu)
    assert np.all(W <= spec.levels @ lam + 1e-9)
    bound, _ = _repaired_dual_value(spec, mu, lam)
    assert bound >= result.objective


def test_first_stage_starts_near_its_end(monkeypatch):
    # Zipf(1) n = 10 000 (k = 5 000, default_rng(0)). From the Poissonized
    # dual point the first stage takes 6 Newton steps; from each column's
    # nearest level, which leaves out the budget term lam . level_i (up to
    # 1 210 log units off in the most frequent column), it took 48.
    records = watch_mu_solves(monkeypatch)
    assert solve(default_grid_spec(zipf_sequences(1, 10_000))).certified
    assert records[0]["steps"] <= 10


@pytest.mark.parametrize(
    "sequences",
    [["cbcfhdhbbd", "cddbcbpccb"], ["sgdbochffb", "bbgcedfbbb", "cbfgbbbbbb"]],
)
def test_nearest_rows_match_a_loop_over_columns(sequences):
    # Reference: one column at a time, in the same arithmetic.
    spec = default_grid_spec(sequences)
    lengths = np.maximum(spec.disc_lengths, 1.0)
    expected = []
    for freqs in spec.freqs[1:]:
        seen = freqs > 0
        target = np.log(freqs[seen] / lengths[seen])
        expected.append(np.argmin(((np.log(spec.levels[:, seen]) - target) ** 2).sum(axis=1)))
    assert np.array_equal(_nearest_rows(spec), expected)


def test_solve_refuses_a_pinned_spec():
    # Dropping empty columns would silently drop the pinned row counts.
    pinned = AssignmentSpec(levels=[0.5, 1.0], freqs=[0, 1, 2], col_counts=[1, 0],
                            row_counts=[1, 0])
    with pytest.raises(ValueError, match="budget"):
        solve(pinned)


@pytest.mark.parametrize(
    "sequences",
    [["cbcfhdhbbd", "cddbcbpccb"], ["sgdbochffb", "bbgcedfbbb", "cbfgbbbbbb"]],
)
def test_solve_certifies_joint_profiles_at_default_eps(sequences):
    # d = 2 and d = 3 at n = 10 on the pipeline's default grids: 144 and 1331
    # levels against 80 and 728 frequency columns, few of them observed.
    spec = every_grid_column_spec(sequences)
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
    for delta in (math.nan, math.inf):  # inf certified any gap, nan none
        with pytest.raises(ValueError):
            SolverConfig(delta=delta)
    for max_iters in (0, math.nan, math.inf, 2.5):  # nan ran 0 steps, 2.5 ran 3
        with pytest.raises(ValueError):
            SolverConfig(delta=1e-6, max_iters=max_iters)
    for max_iters in (300, np.int64(300)):
        assert SolverConfig(delta=1e-6, max_iters=max_iters).max_iters == 300


def dense_derivatives(dual, x, state):
    """Gradient and Hessian of the smoothed dual from the textbook formula
    over every row, with nothing dropped or clipped: in mu with lam
    eliminated at one budget, in (mu, lam) at two or three."""
    W, _, _, lam, s = state
    J = dual.c.size
    P = np.exp(dual.C - x[:J] - W[:, None])
    a = np.exp(s) / dual.kappa
    q = a / (dual.kappa * dual.t)
    H = np.diag(P.T @ a) - (P.T * a) @ P + (P.T * q) @ P
    L = dual.levels
    K = (P.T * q) @ L
    M = (L.T * q) @ L
    grad = dual.c - P.T @ a
    if L.shape[1] == 1:
        return grad, H - K @ K.T / M, P, a
    return np.r_[grad, 1.0 - L.T @ a], np.block([[H, K], [K.T, M]]), P, a


def central_difference(f, x, h):
    """Fourth-order central differences of f (scalar or vector) along each coordinate."""
    return np.array([(-f(x + 2 * h * e) + 8 * f(x + h * e) - 8 * f(x - h * e) + f(x - 2 * h * e))
                     / (12 * h) for e in np.eye(x.size)])


@pytest.mark.parametrize(
    "sequences",
    [["a" * 60 + "b" * 20 + "cdde"], ["a" * 30 + "bcd", "a" * 25 + "bbce"]],
)
def test_derivatives_match_value_differences_and_dense_formula(monkeypatch, sequences):
    # The derivative part drops rows with a_i <= 1e-150 and zeroes entries of
    # P below it. Its gradient must match central differences of the value
    # part, its Hessian central differences of that gradient, and both the
    # dense unclipped formula, at the first stage and at the third (t a
    # hundred times smaller), where the floor drops rows and P entries. At
    # d = 1 lam is eliminated and the derivatives are in mu; at d = 2 they
    # are in (mu, lam), with both budgets active. Second differences of the
    # value itself cannot resolve 1e-8 there: |F| is 25 to 65 against
    # curvatures up to 1e3.
    spec = default_grid_spec(sequences)
    records = watch_mu_solves(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        assert solve(spec).certified
        for record in records[0:3:2]:
            dual = _ReducedDual(spec, record["t"])
            x = record["x"]
            state = dual.value(x)[1]
            grad, H, (lam, *_, rows, _) = dual.derivatives(x, state)
            assert np.sum(lam > 0) == spec.dim  # every budget is active
            ref_grad, ref_H, P, a = dense_derivatives(dual, x, state)
            if record is records[2]:
                assert np.any(a <= _ReducedDual.FLOOR)
                assert np.any(P[rows] < _ReducedDual.FLOOR)
            scale = float(dual.c.max())
            assert np.abs(grad - ref_grad).max() <= 1e-12 * scale
            assert np.abs(H - ref_H).max() <= 1e-12 * np.abs(ref_H).max()
            # A step of 0.003 max c / max |H| keeps both the fourth-order
            # truncation and the roundoff near 1e-9.
            h = 3e-3 * scale / np.abs(H).max()
            fd_grad = central_difference(lambda y: dual.value(y)[0], x, h)
            assert np.abs(fd_grad - grad).max() <= 1e-8 * scale
            fd_H = central_difference(lambda y: dual.derivatives(y, dual.value(y)[1])[0], x, h)
            assert np.abs(fd_H - H).max() <= 1e-8 * np.abs(H).max()
            # Points whose W is read off the anchor, the exact pass at the
            # stage's start: one accepted step from it, and mu 250 units
            # above and below its mu (lam then put on its minimiser at
            # d = 2). Their P is diag(r) P0 diag(v), never formed:
            # r = exp(W_e - W) and v = exp(mu_e - mu) are at most e^REACH,
            # so the Gram's weights (q - a) r^2 and its factor v v^T are at
            # most e^600 times their unscaled size. Here r reaches e^59 to
            # e^81 and v v^T e^500, with no overflow or invalid value
            # raised, and the derivatives match the dense formula as at x.
            dual = _ReducedDual(spec, record["t"])
            lower = None if spec.dim == 1 else np.r_[np.full(dual.c.size, -np.inf), 0.0, 0.0]
            start, evaluated = (record["start"], None) if spec.dim == 1 else dual.settle(record["start"])
            stepped, _, steps, _, _ = solver_module._descend(
                dual.value, dual.derivatives, start, 1, lower=lower, evaluated=evaluated)
            assert steps == 1
            mu_e, lam = dual.anchor[1], stepped[dual.c.size:]
            for y in (stepped, np.r_[mu_e + 250.0, lam], np.r_[mu_e - 250.0, lam]):
                y, (_, state) = (y, dual.value(y)) if spec.dim == 1 else dual.settle(y)
                with np.errstate(over="raise", invalid="raise"):
                    grad, H, _ = dual.derivatives(y, state)
                assert state[1] is None  # W read off the anchor
                ref_grad, ref_H, P, a = dense_derivatives(dual, y, state)
                # At one budget H is the Schur complement H - K K^T / M, whose
                # terms reach 4e7 times H at mu_e - 250: its roundoff is
                # relative to them.
                q = a / (dual.kappa * dual.t)
                K, M = (P.T * q) @ dual.levels, (dual.levels.T * q) @ dual.levels
                size = np.abs(ref_H).max() + (np.abs(K @ K.T / M).max() if spec.dim == 1 else 0.0)
                assert np.abs(grad - ref_grad).max() <= 1e-12 * np.abs(ref_grad).max()
                assert np.abs(H - ref_H).max() <= 1e-12 * size


def test_joint_descent_solves_lam_only_at_stage_starts(monkeypatch):
    # The joint Zipf d = 2, n = 100 draw. At two budgets the descent takes
    # its Newton steps in (mu, lam) together. lam gets a solve of its own
    # only at a stage's start and at its predicted start, at most twice per
    # stage (the nested solve ran one per mu value call, 138 in all); no
    # Schur complement is pseudo-inverted; and every stage ends with its
    # active budgets met to 1e-7 (to 3.1e-9 at most).
    spec = default_grid_spec(zipf_sequences(2, 100))
    solves, budget_multipliers = Counter(), solver_module._budget_multipliers

    def counted(W, levels, kappa, share_t, t, lam):
        solves[t] += 1
        return budget_multipliers(W, levels, kappa, share_t, t, lam)

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.pinv was called")

    monkeypatch.setattr(solver_module, "_budget_multipliers", counted)
    monkeypatch.setattr(np.linalg, "pinv", refused)
    records = watch_mu_solves(monkeypatch)
    assert solve(spec).certified
    assert set(solves) == {record["t"] for record in records}
    assert max(solves.values()) <= 2
    for record in records:
        residual = 1.0 - spec.levels.T @ record["a"]
        assert np.abs(residual[record["lam"] > 0]).max() <= 1e-7


def test_hessians_only_at_accepted_points(monkeypatch):
    # The Zipf(1) n = 1000 baseline profile (k = 500, default_rng(0)). Each
    # descent builds one Hessian at its start and one per accepted step, and
    # trial points get their value only. Before the value-first split every
    # one of the 176 evaluations built a Hessian. Each stage after the first
    # probes the last stage's end and its predicted start with one value call
    # each, and the descent starts from the probe's value, so no point is
    # evaluated twice at one t (before, each stage evaluated its start again:
    # 111 value calls). Started from the Poissonized dual point, not each
    # column's nearest level, the solve makes 50 value calls, not 81.
    p = 1.0 / np.arange(1, 501)
    sample = np.random.default_rng(0).choice(500, size=1000, p=p / p.sum())
    spec = default_grid_spec([[str(x) for x in sample]])
    records = watch_mu_solves(monkeypatch)
    points, value = [], _ReducedDual.value

    def recording_value(dual, mu):
        points.append((dual.t, mu.tobytes()))
        return value(dual, mu)

    monkeypatch.setattr(_ReducedDual, "value", recording_value)
    result = solve(spec)
    assert result.certified
    steps = sum(r["steps"] for r in records)
    assert steps == result.iterations
    assert sum(r["derivatives"] for r in records) == steps + len(records)
    probes = len(points) - sum(r["values"] for r in records)
    assert probes == 2 * (len(records) - 1)
    assert len(set(points)) == len(points)
    assert len(points) <= 55


def test_stages_start_from_the_damping_of_the_last(monkeypatch):
    # The Zipf(1) n = 1000 profile of test_hessians_only_at_accepted_points.
    # Each stage starts its damping where the previous stage's first step was
    # accepted. Restarting it at zero rejected 13, 15, 15 and 11 trials before
    # the first step of stages 2 to 5 (a tenfold rise per rejection, up to
    # the 1e0 to 1e6 the previous stage needed), 176 value calls in all.
    p = 1.0 / np.arange(1, 501)
    sample = np.random.default_rng(0).choice(500, size=1000, p=p / p.sum())
    spec = default_grid_spec([[str(x) for x in sample]])
    events = []
    descend, value, derivatives = solver_module._descend, _ReducedDual.value, _ReducedDual.derivatives

    def marked_descend(value, derivatives, x, *args, **kwargs):
        if isinstance(getattr(value, "__self__", None), _ReducedDual):
            events.append("|")  # a mu descent, not a lam solve
        return descend(value, derivatives, x, *args, **kwargs)

    def logged_value(dual, mu):
        events.append("v")
        return value(dual, mu)

    def logged_derivatives(dual, mu, state):
        events.append("d")
        return derivatives(dual, mu, state)

    monkeypatch.setattr(solver_module, "_descend", marked_descend)
    monkeypatch.setattr(_ReducedDual, "value", logged_value)
    monkeypatch.setattr(_ReducedDual, "derivatives", logged_derivatives)
    assert solve(spec).certified
    assert events.count("v") <= 140
    stages = "".join(events).split("|")[1:]
    assert len(stages) >= 2
    for stage in stages[1:]:
        # "d" at the start ("vd" if the start's probe value was not handed
        # to the descent), then the trials up to the first accepted one.
        start, trials, *rest = stage.split("d")
        assert start in ("", "v") and rest  # a step was accepted
        assert len(trials) - 1 <= 5


@pytest.mark.parametrize("d", [1, 2])
def test_predicted_start_is_the_central_path_tangent(d):
    # The Zipf n = 100 draw, joint at d = 2. The step that starts the next
    # stage is 0.9 t times the path's derivative -dx/dt, with x = mu at d = 1
    # and (mu, lam) at d = 2. Centered at t and at t (1 - 1e-4) to roundoff,
    # lam first put on its minimiser at two budgets, the finite difference of
    # the two centers matches it to 4e-5 of its size at d = 1 and 2e-5 at
    # d = 2.
    spec = default_grid_spec(zipf_sequences(d, 100))
    t = 0.01 * spec.disc_lengths.max()
    mu = np.zeros(spec.num_cols - 1)
    x, lower = (mu, None) if d == 1 else (np.r_[mu, spec.disc_lengths], np.r_[mu - np.inf, 0, 0])

    def center(t, x):
        dual = _ReducedDual(spec, t)
        x, evaluated = (x, None) if d == 1 else dual.settle(x)
        x, (lam, a, W, rows, P), _, _, H = solver_module._descend(
            dual.value, dual.derivatives, x, 500, lower=lower, rtol=1e-20, evaluated=evaluated)
        return x, dual.tangent(lam, a, W, rows, P, H)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, step = center(t, x)
        nearby, _ = center(t * (1 - 1e-4), x)
    slope = step / (-0.9 * t)
    assert np.max(np.abs(slope)) > 0.01
    np.testing.assert_allclose((nearby - x) / (-1e-4 * t), slope,
                               rtol=0, atol=1e-3 * np.max(np.abs(slope)))


def test_tangent_holds_a_lam_at_its_zero_bound():
    # The joint Zipf d = 2, n = 100 draw at a center, its second lam then set
    # to the bound (no solve of the sweeps or joint draws ends on one): the
    # step leaves that lam at zero and solves the rest of the system,
    # 0.9 H^-1 (P^T (a s), L^T (a s)), over the free coordinates.
    spec = default_grid_spec(zipf_sequences(2, 100))
    dual = _ReducedDual(spec, 0.01 * spec.disc_lengths.max())
    mu = np.zeros(spec.num_cols - 1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x, evaluated = dual.settle(np.r_[mu, spec.disc_lengths])
        _, (lam, a, W, rows, (P0, r, v)), _, _, H = solver_module._descend(
            dual.value, dual.derivatives, x, 500, lower=np.r_[mu - np.inf, 0, 0], rtol=1e-20,
            evaluated=evaluated)
        lam = np.r_[lam[0], 0.0]
        step = dual.tangent(lam, a, W, rows, (P0, r, v), H)
    P = r[:, None] * P0 * v
    s = (W - spec.levels @ lam) / (dual.kappa * dual.t)
    b = 0.9 * np.r_[P.T @ (a * s)[rows], spec.levels[:, 0] @ (a * s)]
    assert step[-1] == 0.0
    np.testing.assert_allclose(H[:-1, :-1] @ step[:-1], b, rtol=0, atol=1e-9 * np.abs(b).max())


def zipf_sequences(d, n):
    """d sequences of n draws from Zipf(1) over k = n/2 symbols, coordinate s
    rotated by s places, all from default_rng(0)."""
    p = 1.0 / np.arange(1, n // 2 + 1)
    rng = np.random.default_rng(0)
    return [rng.choice(n // 2, size=n, p=np.roll(p / p.sum(), s)).tolist() for s in range(d)]


@pytest.mark.parametrize("n, eps", [(300, 1.0), (1000, 1.0), (1000, 0.5)])
def test_start_keeps_each_column_mostly_on_its_nearest_level(n, eps):
    # Zipf(1) draws on coarse grids whose nearest-level placement overshoots
    # the budget. A start that moved most of a column onto the cheapest level
    # started that column's mu there, and these solves stalled or crawled.
    spec = default_grid_spec(zipf_sequences(1, n), eps)
    X = initial_point(spec)
    rates = spec.freqs[1:, 0] / spec.disc_lengths[0]
    nearest = np.argmin(np.abs(np.log(spec.levels[:, :1]) - np.log(rates)), axis=0)
    assert np.array_equal(np.argmax(X[:, 1:], axis=0), nearest)
    assert is_feasible(X, spec)
    assert spec.budget_use(X).max() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("d, n, kind, most", [(2, 100, "mu", 97), (3, 100, "mu", 95)])
def test_damping_keeps_a_tenth_after_a_raised_step(monkeypatch, d, n, kind, most):
    # A step that needed its damping raised keeps a tenth of it; a hundredfold
    # fall mostly rejected the next two trials (tau / 100 and tau / 10) before
    # accepting at tau again. Only the joint (mu, lam) descents, counted as
    # "mu" here, still gain from it: the joint d = 2, n = 100 draw makes 88
    # value calls (100 with a hundredfold fall) and d = 3, n = 100 89 (100).
    # The d = 1 descents and the stage-start lam solves make as many calls
    # either way, within two (Zipf n = 3000: 74 against 72).
    calls = {"mu": 0, "lam": 0}
    descend = solver_module._descend

    def counting(value, derivatives, x, *args, **kwargs):
        mu = isinstance(getattr(value, "__self__", None), _ReducedDual)

        def counted(y):
            calls["mu" if mu else "lam"] += 1
            return value(y)

        return descend(counted, derivatives, x, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_descend", counting)
    assert solve(default_grid_spec(zipf_sequences(d, n))).certified
    assert calls[kind] <= most


def test_value_and_row_terms_never_underflow(monkeypatch):
    # The Zipf(1) n = 3000 profile (k = 1500, default_rng(0)): its row terms
    # span thousands of log units, and numpy's exp is many times slower on
    # results that underflow. Every value call of the solve, each stage's end
    # point included, and every repaired row term run with underflow raised;
    # before the exponents were clipped, every one of its value calls raised.
    # Most value calls read W off the anchor, whose product P0 exp(mu_e - mu)
    # stays normal while mu is within REACH of the anchor's mu_e.
    p = 1.0 / np.arange(1, 1501)
    sample = np.random.default_rng(0).choice(1500, size=3000, p=p / p.sum())
    spec = default_grid_spec([[str(x) for x in sample]])
    calls = {"value": 0, "anchored": 0, "row_terms": 0}
    value, row_terms = _ReducedDual.value, solver_module._row_terms

    def strict_value(dual, mu):
        calls["value"] += 1
        with np.errstate(under="raise"):
            f, state = value(dual, mu)
        calls["anchored"] += state[1] is None  # W read off the anchor
        return f, state

    def strict_row_terms(spec, mu):
        calls["row_terms"] += 1
        with np.errstate(under="raise"):
            return row_terms(spec, mu)

    monkeypatch.setattr(_ReducedDual, "value", strict_value)
    monkeypatch.setattr(solver_module, "_row_terms", strict_row_terms)
    records = watch_mu_solves(monkeypatch)
    result = solve(spec)
    assert result.certified
    # Every accepted step and every stage's start had its value taken.
    assert calls["value"] >= result.iterations + len(records)
    assert calls["anchored"] > 0
    assert calls["row_terms"] >= 2


def test_anchored_row_terms_match_the_exact_pass(monkeypatch):
    # The Zipf n = 3000 draw, at each stage's end point x. Once x is accepted
    # (its derivatives taken), W and F_t at a nearby point and after the
    # tangent step are read off its P, and match a fresh dual's exact pass to
    # 1e-12 relative (W to 1e-12 absolute where it is below one: both round
    # log near one). A mu that ranges more than REACH from the anchor gets
    # the exact pass, bit for bit.
    spec = default_grid_spec(zipf_sequences(1, 3000))
    records = watch_mu_solves(monkeypatch)
    solve(spec)
    rng = np.random.default_rng(1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for record in records:
            dual = _ReducedDual(spec, record["t"])
            x = record["x"]
            _, state = dual.value(x)
            assert state[1] is not None  # no anchor yet: an exact pass
            grad, H, derived = dual.derivatives(x, state)
            step = dual.tangent(*derived, H)
            far = x.copy()
            far[0] += _ReducedDual.REACH + 1.0
            for y in (x + 1e-3 * rng.standard_normal(x.size), x + step, far):
                f, (W, E, *_) = dual.value(y)
                exact_f, (exact_W, *_) = _ReducedDual(spec, record["t"]).value(y)
                if y is far:
                    assert E is not None
                    assert f == exact_f and np.array_equal(W, exact_W)
                else:
                    assert E is None
                    assert f == pytest.approx(exact_f, rel=1e-12)
                    np.testing.assert_allclose(W, exact_W, rtol=1e-12, atol=1e-12)


def test_certificate_reads_no_anchored_row_term(monkeypatch):
    # The anchored W only steers the Newton steps. Undercounted by 1e-9 of
    # itself, the bound objective + certified_gap must still hold the best
    # feasible point of the tiny specs, as the repaired dual reads W afresh.
    anchored, calls = _ReducedDual.anchored_row_terms, []

    def undercounted(dual, mu):
        calls.append(1)
        W = anchored(dual, mu)
        return W - 1e-9 * np.abs(W)

    monkeypatch.setattr(_ReducedDual, "anchored_row_terms", undercounted)
    for spec in tiny_solver_specs():
        delta = 1e-6 * max(float(spec.disc_lengths.max()) * math.log(max(float(spec.disc_lengths.max()), 2.0)), 1.0)
        result = solve(spec, SolverConfig(delta=delta, max_iters=300))
        best = max(
            log_weight_relaxed(X.astype(float), spec)
            for X in iter_feasible(spec, cap=500_000)
        )
        assert result.objective + result.certified_gap >= best
    assert calls


def test_value_calls_read_the_anchor(monkeypatch):
    # The Zipf n = 10 000 draw. A value call reads W off the last exact
    # pass's P with one matrix-vector product. Only the repaired bounds, the
    # first start and each later stage's predicted start take the exp over
    # the level-by-column table: the value at the last stage's end point
    # reads the bound's W. That solve makes 12 such passes (17 while each
    # stage start made its own pass at that point); with every value call
    # exact it made 82 (76 value calls and 6 repaired bounds).
    passes, log1p_sum_exp = [], solver_module._log1p_sum_exp

    def counted(Z):
        passes.append(1)
        return log1p_sum_exp(Z)

    monkeypatch.setattr(solver_module, "_log1p_sum_exp", counted)
    assert solve(default_grid_spec(zipf_sequences(1, 10_000))).certified
    assert len(passes) <= 13

