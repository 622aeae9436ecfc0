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
from .estimators import (
    LevelSetDistribution,
    PairedLevelSetDistribution,
    normalize,
    pseudo_from_assignment,
)
from .multi import DProfile, build_d_grids, discretize_d_profile, log_d_profile_coefficient
from .profiles import Profile

# bench/spans.py patches these three names on this module and fails on a
# missing one. The pipeline builds grids through build_d_grids for every d.
from .grids import build_frequency_grid, build_probability_grid, discretize_profile  # noqa: F401,E402

__all__ = ["PipelineDiagnostics", "approximate_pml", "approximate_pml_d"]


@dataclass
class PipelineDiagnostics:
    """Sizes, solver certificates, and the additive slack budget (log units).

    ``slack_total`` is the sum of every stage's worst-case log-space loss
    relative to the best grid-search distribution:
    probability-grid flooring, frequency ceiling (applied on both sides of the
    chain, hence counted twice), restriction to the single best assignment
    term (log of the feasible-set size), the solver's certified gap, the
    relaxation error bounds for the unknown optimum and for the rounded
    assignment, and the rounding count-term bound.

    ``num_freqs`` counts the assignment problem's observed columns: the
    distinct discretized frequency tuples of the profile.
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
    log_weight_relaxed_rounded: float
    log_weight_relaxed_fractional: float
    mass_before_normalize: tuple[float, ...]
    slack_prob_disc: float
    slack_freq_disc: float
    log_num_assignments: float
    assignment_count_method: str
    slack_relax_upper: float
    slack_relax_lower_rounded: float
    slack_round_count: float
    slack_round_exact: float
    slack_total: float = field(init=False)

    def __post_init__(self):
        self.slack_total = (
            self.slack_prob_disc
            + 2.0 * self.slack_freq_disc
            + self.log_num_assignments
            + max(self.solver_gap, 0.0)
            + self.slack_relax_upper
            + self.slack_relax_lower_rounded
            + self.slack_round_count
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
    # Exact counting is fast when the level values are commensurable (an
    # integer-lattice DP covers the unseen column); otherwise it degenerates
    # to raw enumeration, so only tiny sets are worth counting directly.
    cap = 150_000 if assignment.has_commensurable_levels(spec) else 4_000
    try:
        count = assignment.count_feasible(spec, cap=cap)
        return (math.log(count) if count > 0 else 0.0), "counted"
    except assignment.EnumerationCapError:
        return assignment.log_count_bound(spec), "bound"


def _stirling_upper_bound(spec: assignment.AssignmentSpec) -> float:
    """Bound on log_weight - log_weight_relaxed over all integral assignments.

    Row sums are capped by the unit budget, so each level contributes at most
    log(e sqrt(cap + 1)).
    """
    caps = spec.row_caps().astype(float)
    return float((1.0 + 0.5 * np.log(caps + 1.0)).sum())


def _stirling_lower(X: np.ndarray) -> float:
    """Per-entry bound on log_weight_relaxed - log_weight at this assignment."""
    positive = X[X > 0]
    return float((1.0 + 0.5 * np.log(positive + 1.0)).sum())


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
) -> tuple[LevelSetDistribution | PairedLevelSetDistribution, PipelineDiagnostics]:
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
    result = solver.solve(spec, solver.SolverConfig(delta=delta, max_iters=max_iters))
    rounded = rounding.round_assignment(result.X, spec)

    pseudo = pseudo_from_assignment(rounded)
    mass = np.atleast_1d(pseudo.total_mass)
    dist = normalize(pseudo)

    log_w_round = assignment.log_weight(rounded.X, rounded.spec_ext)
    log_g_round = assignment.log_weight_relaxed(rounded.X, rounded.spec_ext)
    n_arr = np.array(n, dtype=float)
    log_count, count_method = _log_num_assignments(spec)
    diag = PipelineDiagnostics(
        d=d,
        n=n,
        n_disc=n_disc,
        eps1=tuple(float(e) for e in eps1),
        eps2=tuple(float(e) for e in eps2),
        delta=float(delta),
        num_levels=spec.num_levels,
        num_freqs=spec.num_cols - 1,
        log_coeff_disc_profile=log_d_profile_coefficient(disc_profile),
        solver_objective=result.objective,
        solver_gap=result.certified_gap,
        solver_iterations=result.iterations,
        certified=result.certified,
        log_weight_rounded=float(log_w_round),
        log_weight_relaxed_rounded=float(log_g_round),
        log_weight_relaxed_fractional=result.objective,
        mass_before_normalize=tuple(float(m) for m in mass),
        slack_prob_disc=float((np.asarray(eps1, dtype=float) * n_arr).sum()),
        slack_freq_disc=_freq_disc_slack(d, n_arr, np.asarray(eps2, dtype=float)),
        log_num_assignments=float(log_count),
        assignment_count_method=count_method,
        slack_relax_upper=_stirling_upper_bound(spec),
        slack_relax_lower_rounded=_stirling_lower(rounded.X),
        slack_round_count=float(
            spec.num_levels * spec.num_cols * math.log(float(np.min(2.0 * n_arr**2)))
        ),
        slack_round_exact=max(0.0, result.objective - float(log_g_round)),
    )
    return dist, diag
