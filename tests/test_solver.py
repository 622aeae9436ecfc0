import math

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
    """Record every mu descent of solve: its end point, and its value and
    derivative calls. Returns the list the records go to."""
    records = []
    descend = solver_module._descend

    def recording(value, derivatives, x, *args, **kwargs):
        dual = getattr(value, "__self__", None)
        if not isinstance(dual, _ReducedDual):  # a lam solve
            return descend(value, derivatives, x, *args, **kwargs)
        record = {"t": dual.t, "values": 0, "derivatives": 0}

        def counted_value(mu):
            record["values"] += 1
            return value(mu)

        def counted_derivatives(mu, state):
            record["derivatives"] += 1
            return derivatives(mu, state)

        out = descend(counted_value, counted_derivatives, x, *args, **kwargs)
        record.update(mu=out[0].copy(), lam=dual.lam.copy(), steps=out[2])
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
    # only, "p" in the second only. Each such column starts on the first row
    # whose level in its seen coordinate is nearest its rate there, both in
    # the start point and in the first mu of the solve.
    spec = default_grid_spec(["cbcfhdhbbd", "cddbcbpccb"])
    starts = []
    descend = solver_module._descend

    def first_mu(value, derivatives, x, *args, **kwargs):
        if isinstance(getattr(value, "__self__", None), _ReducedDual) and not starts:
            starts.append(x.copy())
        return descend(value, derivatives, x, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_descend", first_mu)
    solve(spec)
    X = initial_point(spec)
    seen = spec.freqs[1:] > 0
    one_coordinate = np.flatnonzero(seen.sum(axis=1) == 1)
    assert one_coordinate.size == 3
    for j in one_coordinate:
        k = int(np.flatnonzero(seen[j])[0])
        rate = spec.freqs[1 + j, k] / spec.disc_lengths[k]
        dist = np.abs(np.log(spec.levels[:, k]) - np.log(rate))
        row = int(np.flatnonzero(dist == dist.min())[0])
        assert np.argmax(X[:, 1 + j]) == row
        assert starts[0][j] == spec.lin_coeff[row, 1 + j] - np.log(spec.col_counts[j])


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


def dense_derivatives(dual, mu, state):
    """Gradient and Hessian of the reduced smoothed dual from the textbook
    formula over every row, with nothing dropped or clipped."""
    W, _, _, lam, s = state
    Z = dual.C - mu
    P = np.exp(Z - W[:, None])
    a = np.exp(s) / dual.kappa
    q = a / (dual.kappa * dual.t)
    H = np.diag(P.T @ a) - (P.T * a) @ P + (P.T * q) @ P
    L = dual.levels[:, lam > 0]
    K = (P.T * q) @ L
    H -= K @ np.linalg.pinv((L.T * q) @ L) @ K.T
    return dual.c - P.T @ a, H, P, a


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
    # d = 2 both budgets are active. Second differences of the value itself
    # cannot resolve 1e-8 there: |F| is 25 to 65 against curvatures up to 1e3.
    spec = default_grid_spec(sequences)
    records = watch_mu_solves(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        assert solve(spec).certified
        for record in records[0:3:2]:
            dual = _ReducedDual(spec, record["t"])
            dual.lam = record["lam"]
            mu = record["mu"]
            state = dual.value(mu)[1]
            grad, H, (lam, *_, rows, _) = dual.derivatives(mu, state)
            assert np.sum(lam > 0) == spec.dim  # every budget is active
            ref_grad, ref_H, P, a = dense_derivatives(dual, mu, state)
            if record is records[2]:
                assert np.any(a <= _ReducedDual.FLOOR)
                assert np.any(P[rows] < _ReducedDual.FLOOR)
            scale = float(dual.c.max())
            assert np.abs(grad - ref_grad).max() <= 1e-12 * scale
            assert np.abs(H - ref_H).max() <= 1e-12 * np.abs(ref_H).max()
            # A step of 0.003 max c / max |H| keeps both the fourth-order
            # truncation and the roundoff near 1e-9.
            h = 3e-3 * scale / np.abs(H).max()
            fd_grad = central_difference(lambda x: dual.value(x)[0], mu, h)
            assert np.abs(fd_grad - grad).max() <= 1e-8 * scale
            fd_H = central_difference(lambda x: dual.derivatives(x, dual.value(x)[1])[0], mu, h)
            assert np.abs(fd_H - H).max() <= 1e-8 * np.abs(H).max()


def test_hessians_only_at_accepted_points(monkeypatch):
    # The Zipf(1) n = 1000 baseline profile (k = 500, default_rng(0)). Each
    # descent builds one Hessian at its start and one per accepted step, and
    # trial points get their value only. Before the value-first split every
    # one of the 176 evaluations built a Hessian.
    p = 1.0 / np.arange(1, 501)
    sample = np.random.default_rng(0).choice(500, size=1000, p=p / p.sum())
    spec = default_grid_spec([[str(x) for x in sample]])
    records = watch_mu_solves(monkeypatch)
    result = solve(spec)
    assert result.certified
    steps = sum(r["steps"] for r in records)
    assert steps == result.iterations
    assert sum(r["derivatives"] for r in records) == steps + len(records)
    assert sum(r["values"] for r in records) <= 176


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
        # "vd" at the start, then the trials up to the first accepted one.
        start, trials, *rest = stage.split("d")
        assert start == "v" and rest  # a step was accepted
        assert len(trials) - 1 <= 5


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


@pytest.mark.parametrize(
    "d, n, kind, most",
    [(2, 100, "lam", 3500), (1, 3000, "mu", 220)],
)
def test_damping_keeps_a_tenth_after_a_raised_step(monkeypatch, d, n, kind, most):
    # A step that needed its damping raised keeps a tenth of it. Dividing it
    # by a hundred after every step mostly rejected the next two trials
    # (tau / 100 and tau / 10) before accepting at tau again: the joint
    # d = 2, n = 100 draw then made 4 625 lam value calls (2 783 now), and
    # Zipf n = 3000 242 mu value calls (193 now).
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
    p = 1.0 / np.arange(1, 1501)
    sample = np.random.default_rng(0).choice(1500, size=3000, p=p / p.sum())
    spec = default_grid_spec([[str(x) for x in sample]])
    calls = {"value": 0, "row_terms": 0}
    value, row_terms = _ReducedDual.value, solver_module._row_terms

    def strict_value(dual, mu):
        calls["value"] += 1
        with np.errstate(under="raise"):
            return value(dual, mu)

    def strict_row_terms(spec, mu):
        calls["row_terms"] += 1
        with np.errstate(under="raise"):
            return row_terms(spec, mu)

    monkeypatch.setattr(_ReducedDual, "value", strict_value)
    monkeypatch.setattr(solver_module, "_row_terms", strict_row_terms)
    assert solve(spec).certified
    assert calls["value"] > 100 and calls["row_terms"] >= 2
