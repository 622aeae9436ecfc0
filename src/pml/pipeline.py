"""End-to-end approximate-PML pipeline with explicit per-stage error accounting.

Stages: build grids, discretize the profile, maximize the relaxed assignment
score, round to an integral assignment, read off the level-set distribution,
and normalize. The diagnostics carry every stage's contribution to the total
approximation slack so downstream checks can use the bound directly instead
of re-deriving it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import assignment, rounding, solver
from .estimators import LevelSetDistribution, normalize, pseudo_from_assignment
from .multi import DProfile, build_d_grids, discretize_d_profile, log_d_profile_coefficient
from .profiles import Profile

# bench/spans.py patches these three names on this module and fails on a
# missing one. The pipeline builds grids through build_d_grids for every d.
from .grids import build_frequency_grid, build_probability_grid, discretize_profile  # noqa: F401,E402

__all__ = ["PipelineDiagnostics", "approximate_pml", "approximate_pml_d"]


@dataclass
class PipelineDiagnostics:
    """Sizes, solver certificates, and the additive slack budget (log units).

    ``slack_total`` bounds, in log units, how far the output's profile
    probability falls below the best grid-search distribution's. It is the
    sum of ``slack_prob_disc`` (probability-grid flooring), twice
    ``slack_freq_disc`` (frequency ceiling, on both sides of the chain),
    ``log_num_assignments`` (keeping one term of the grouped sum), the solver
    gap (floored at 0), ``slack_relax_upper`` (relaxed against integral score
    at the unknown optimum), and ``slack_round``.

    ``slack_round = max(0, solver_objective - log_weight_rounded)`` is the
    rounding loss as measured, and needs no a-priori bound: past the grid
    terms, the best distribution's log-probability is at most the profile
    coefficient's plus ``solver_objective`` and the three terms before it,
    and the output's is at least the coefficient's plus ``log_weight_rounded``,
    the exact log-weight of the rounded assignment it is read from (one term
    of its grouped sum).

    ``num_freqs`` counts the assignment problem's observed columns: the
    distinct discretized frequency tuples of the profile.

    ``assignment_count_method`` is ``"counted"`` when ``log_num_assignments``
    is the log of the exact feasible-set size. That happens only when the
    level values are commensurable (every one an integer multiple of the
    smallest, as on grids built with eps1 = 1) and the integer DP of
    :func:`pml.assignment.count_feasible` fits the pipeline's cap on observed
    placements and on rows times table cells. Otherwise it is ``"bound"``:
    ``log_num_assignments`` is :func:`pml.assignment.log_count_bound`.
    """

    d: int
    n: tuple[int, ...]
    n_disc: tuple[int, ...]
    eps1: tuple[float, ...]
    eps2: tuple[float, ...]
    delta: float
    num_levels: int
    num_freqs: int
    log_coeff_disc_profile: float
    solver_objective: float
    solver_gap: float
    solver_iterations: int
    certified: bool
    log_weight_rounded: float
    mass_before_normalize: tuple[float, ...]
    slack_prob_disc: float
    slack_freq_disc: float
    log_num_assignments: float
    assignment_count_method: str
    slack_relax_upper: float
    slack_round: float
    slack_total: float = field(init=False)

    def __post_init__(self):
        self.slack_total = (
            self.slack_prob_disc
            + 2.0 * self.slack_freq_disc
            + self.log_num_assignments
            + max(self.solver_gap, 0.0)
            + self.slack_relax_upper
            + self.slack_round
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _freq_disc_slack(d: int, n: np.ndarray, eps2: np.ndarray) -> float:
    """Worst-case log loss of ceiling frequencies onto the grid.

    One dimension uses the 7 eps n log n bound; higher dimensions use the
    per-coordinate bound plus the cross-term of the changed tuples.
    """
    if d == 1:
        return float(7.0 * eps2[0] * n[0] * math.log(max(n[0], 1)))
    per_coord = 5.0 * float((eps2 * n * np.log(np.maximum(n, 1))).sum())
    changed = float((eps2 * n).sum())
    cross = changed * math.log(changed) if changed > 1 else 0.0
    return per_coord + cross


def _log_num_assignments(spec: assignment.AssignmentSpec) -> tuple[float, str]:
    # Only commensurable levels have a cheap exact count (the integer DP);
    # count_feasible refuses that too when its work would pass the cap.
    # Every other spec gets the per-cell bound at once.
    if assignment.has_commensurable_levels(spec):
        try:
            count = assignment.count_feasible(spec, cap=150_000)
            return (math.log(count) if count > 0 else 0.0), "counted"
        except assignment.EnumerationCapError:
            pass
    return assignment.log_count_bound(spec), "bound"


def _stirling_upper_bound(spec: assignment.AssignmentSpec) -> float:
    """Bound on log_weight - log_weight_relaxed over all integral assignments.

    Row sums are capped by the unit budget, so each level contributes at most
    log(e sqrt(cap + 1)).
    """
    caps = spec.row_caps().astype(float)
    return float((1.0 + 0.5 * np.log(caps + 1.0)).sum())


def approximate_pml(
    profile: Profile,
    eps1: float | None = None,
    eps2: float | None = None,
    delta: float | None = None,
    max_iters: int = 300,
) -> tuple[LevelSetDistribution, PipelineDiagnostics]:
    """Compute an approximate PML distribution for an observed profile.

    Grid coarseness defaults to ``n**(-1/3)`` for both probability and
    frequency grids; ``delta`` is the solver's target additive gap. This is
    :func:`approximate_pml_d` at d = 1.
    """
    return approximate_pml_d(
        DProfile.from_profile(profile),
        None if eps1 is None else (eps1,),
        None if eps2 is None else (eps2,),
        delta,
        max_iters,
    )


def approximate_pml_d(
    dprofile: DProfile,
    eps1: tuple[float, ...] | None = None,
    eps2: tuple[float, ...] | None = None,
    delta: float | None = None,
    max_iters: int = 300,
) -> tuple[LevelSetDistribution, PipelineDiagnostics]:
    """Approximate PML over d sample sequences jointly (d <= 3).

    Per-coordinate grid coarseness defaults to ``n_k**(-1/(2d+1))``, which is
    ``n**(-1/3)`` at d = 1. The assignment problem has one column per
    observed discretized frequency tuple, in grid order, plus the unseen
    column; ``diag.num_freqs`` counts the observed ones.
    """
    d = dprofile.d
    n = dprofile.n
    if eps1 is None:
        eps1 = tuple(min(1.0, nk ** (-1.0 / (2 * d + 1))) for nk in n)
    if eps2 is None:
        eps2 = tuple(min(1.0, nk ** (-1.0 / (2 * d + 1))) for nk in n)
    grids = build_d_grids(n, eps1, eps2)
    counts, n_disc = discretize_d_profile(dprofile, grids)
    # Every feasible matrix is zero on an empty column, so dropping those
    # columns keeps the feasible set and its scores, and every slack bound
    # below holds with J = observed columns + 1.
    observed = counts > 0
    freqs, col_counts = grids.freq_values[observed], counts[observed]
    spec = assignment.AssignmentSpec(
        levels=grids.level_values,
        freqs=np.vstack([np.zeros((1, d)), freqs]),
        col_counts=col_counts,
    )
    disc_profile = DProfile(tuple(zip(map(tuple, freqs), col_counts)), n_disc)
    if delta is None:
        delta = solver.default_delta(spec)
    num_levels, num_freqs = spec.num_levels, spec.num_cols - 1
    log_count, count_method = _log_num_assignments(spec)
    slack_relax_upper = _stirling_upper_bound(spec)
    result = solver.solve(spec, solver.SolverConfig(delta=delta, max_iters=max_iters))
    rounded = rounding.round_assignment(result.X, spec)
    # Only the rounded assignment and its own table are read from here on, so
    # the fractional point and the spec's table (two level-by-column arrays)
    # are let go before the log-weight is taken.
    del result.X, spec

    pseudo = pseudo_from_assignment(rounded)
    mass = np.atleast_1d(pseudo.total_mass)
    dist = normalize(pseudo)

    log_w_round = float(assignment.log_weight(rounded.X, rounded.spec_ext))
    n_arr = np.array(n, dtype=float)
    diag = PipelineDiagnostics(
        d=d,
        n=n,
        n_disc=n_disc,
        eps1=tuple(float(e) for e in eps1),
        eps2=tuple(float(e) for e in eps2),
        delta=float(delta),
        num_levels=num_levels,
        num_freqs=num_freqs,
        log_coeff_disc_profile=log_d_profile_coefficient(disc_profile),
        solver_objective=result.objective,
        solver_gap=result.certified_gap,
        solver_iterations=result.iterations,
        certified=result.certified,
        log_weight_rounded=log_w_round,
        mass_before_normalize=tuple(float(m) for m in mass),
        slack_prob_disc=float((np.asarray(eps1, dtype=float) * n_arr).sum()),
        slack_freq_disc=_freq_disc_slack(d, n_arr, np.asarray(eps2, dtype=float)),
        log_num_assignments=float(log_count),
        assignment_count_method=count_method,
        slack_relax_upper=slack_relax_upper,
        slack_round=max(0.0, result.objective - log_w_round),
    )
    return dist, diag
