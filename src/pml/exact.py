"""Exact small-scale oracles: profile probabilities by enumeration and grid-search PML.

Everything here is ground truth for the rest of the package, at d = 1 and for
joint d-profiles alike; this module holds every oracle, and no estimate path
imports it. The main path enumerates types (compositions of the sample length
over the support); a second, fully independent path enumerates raw sequences
and exists only to cross-check the first at tiny sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from . import assignment
from ._special import logsumexp
from .combinatorics import composition_array, iter_partitions, num_compositions
from .estimators import merge_levels
from .multi import DProfile, log_d_profile_coefficient
from .profiles import Profile, log_profile_coefficient

__all__ = [
    "OracleSizeError",
    "GridSearchConfig",
    "sequence_logprob",
    "profile_logprob",
    "profile_logprob_by_sequences",
    "levelset_profile_logprob",
    "brute_force_pml",
    "exact_d_profile_logprob",
    "levelset_d_profile_logprob",
    "brute_force_pml_d",
]

MAX_ORACLE_LENGTH = 12
MAX_ORACLE_SUPPORT = 10
MAX_GRID_CANDIDATES = 20_000


class OracleSizeError(ValueError):
    """An enumeration guard was exceeded."""


@dataclass(frozen=True)
class GridSearchConfig:
    """Search space for brute-force PML: probabilities are multiples of
    1/resolution over at most support_cap elements."""

    support_cap: int
    resolution: int
    n: int

    def __post_init__(self):
        if self.support_cap < 1 or self.resolution < 1 or self.n < 1:
            raise ValueError("support_cap, resolution and n must be positive")
        if self.support_cap > 2 * self.n**2:
            raise ValueError("support_cap may not exceed 2 n^2")

    @classmethod
    def default_for(cls, profile: Profile, resolution: int = 10) -> "GridSearchConfig":
        n = profile.n
        return cls(support_cap=min(2 * n**2, 10), resolution=resolution, n=n)


def _as_prob_vector(probs) -> np.ndarray:
    """A pseudo-distribution: finite nonnegative entries of total at most one."""
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("empty probability vector")
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    # Entries of at most one cannot overflow the sum.
    if np.any(p > 1) or p.sum() > 1 + 1e-9:
        raise ValueError("probabilities must sum to at most one")
    return p


def sequence_logprob(probs, type_vector: Mapping[Hashable, int]) -> float:
    """Log-probability of observing any one sequence with the given type.

    ``probs`` is a dense (pseudo-)distribution indexed by integers; the type
    maps symbols to frequencies (a ``dict`` or a ``Counter``), and its symbols
    must be valid indices. Returns -inf when a required symbol has probability
    zero.
    """
    p = _as_prob_vector(probs)
    out = 0.0
    for sym, freq in type_vector.items():
        px = p[sym]
        if px == 0.0:
            return float("-inf")
        out += freq * np.log(px)
    return float(out)


def _matching_composition_mask(comps: np.ndarray, profile: Profile) -> np.ndarray:
    """Rows of `comps` whose nonzero multiset equals the profile."""
    support = comps.shape[1]
    target = np.zeros(support, dtype=np.int64)
    expanded = profile.expanded_frequencies()
    target[: expanded.size] = expanded
    ordered = -np.sort(-comps, axis=1)
    return np.all(ordered == target, axis=1)


def profile_logprob(
    probs,
    profile: Profile,
    *,
    max_length: int = MAX_ORACLE_LENGTH,
    max_support: int = MAX_ORACLE_SUPPORT,
) -> float:
    """Exact log-probability of a profile under a dense (pseudo-)distribution.

    Enumerates every type of the right length over the support of ``probs``
    and keeps those whose frequency multiset matches the profile. Guarded to
    tiny sizes; raises :class:`OracleSizeError` beyond them.
    """
    p = _as_prob_vector(probs)
    n = profile.n
    if n > max_length:
        raise OracleSizeError(f"profile length {n} exceeds oracle guard {max_length}")
    p_nz = p[p > 0]
    if p_nz.size > max_support:
        raise OracleSizeError(
            f"support {p_nz.size} exceeds oracle guard {max_support}"
        )
    if profile.num_observed > p_nz.size:
        return float("-inf")
    comps = composition_array(n, p_nz.size)
    mask = _matching_composition_mask(comps, profile)
    if not np.any(mask):
        return float("-inf")
    terms = comps[mask].astype(float) @ np.log(p_nz)
    return float(log_profile_coefficient(profile) + logsumexp(terms))


def profile_logprob_by_sequences(
    probs,
    profile: Profile,
    *,
    max_length: int = 5,
    max_support: int = 4,
) -> float:
    """Independent cross-check of :func:`profile_logprob` by raw sequence enumeration.

    Sums the probability of all |support|^n sequences whose profile matches.
    Exponentially slower than the type path; only for n <= 5.
    """
    p = _as_prob_vector(probs)
    n = profile.n
    if n > max_length or p.size > max_support:
        raise OracleSizeError("sequence enumeration limited to n <= 5, support <= 4")
    target = profile.pairs
    total_terms = []
    for seq in itertools.product(range(p.size), repeat=n):
        freq_counts: dict[int, int] = {}
        for sym in seq:
            freq_counts[sym] = freq_counts.get(sym, 0) + 1
        multiset: dict[int, int] = {}
        for f in freq_counts.values():
            multiset[f] = multiset.get(f, 0) + 1
        if tuple(sorted(multiset.items(), reverse=True)) != target:
            continue
        logp = 0.0
        for sym, f in freq_counts.items():
            if p[sym] == 0.0:
                logp = float("-inf")
                break
            logp += f * np.log(p[sym])
        total_terms.append(logp)
    if not total_terms:
        return float("-inf")
    return float(logsumexp(np.array(total_terms)))


def levelset_profile_logprob(values, counts, profile: Profile, *, cap: int = 2_000_000) -> float:
    """Exact log-probability of a profile under a level-set (pseudo-)distribution.

    Groups the type enumeration by probability level, so a distribution with
    many elements but few distinct values stays tractable. This is
    :func:`levelset_d_profile_logprob` at d = 1; equality with
    :func:`profile_logprob` on expanded supports is exercised by the tests.
    """
    values = np.asarray(values, dtype=float).ravel()
    counts = np.asarray(counts, dtype=np.int64).ravel()
    if values.shape != counts.shape:
        raise ValueError("values and counts must have matching shapes")
    if np.any(counts < 1) or np.any(values <= 0):
        raise ValueError("levels need positive values and counts")
    return levelset_d_profile_logprob(values, counts, DProfile.from_profile(profile), cap=cap)


def grid_partitions(resolution: int, support_cap: int, per_partition: int = 1) -> list:
    """The nonincreasing grid vectors a brute-force search tries, as partitions.

    Each partition of `resolution` into at most `support_cap` parts is tried
    `per_partition` times. Raises :class:`OracleSizeError` when that makes
    more than ``MAX_GRID_CANDIDATES`` candidates, after generating at most one
    partition more than the limit allows.
    """
    limit = MAX_GRID_CANDIDATES // per_partition
    parts = list(itertools.islice(iter_partitions(resolution, resolution, support_cap), limit + 1))
    if len(parts) > limit:
        raise OracleSizeError(
            f"resolution {resolution} with support cap {support_cap} gives more than "
            f"{MAX_GRID_CANDIDATES} candidate distributions"
        )
    return parts


def brute_force_pml(
    profile: Profile, config: GridSearchConfig | None = None
) -> tuple[np.ndarray, float]:
    """Best distribution on the search grid, with its exact profile log-probability.

    Enumerates nonincreasing probability vectors (multiples of 1/resolution,
    at most support_cap entries); the returned value is a certified lower
    bound on the true PML objective. Raises :class:`OracleSizeError` beyond
    the oracle's length and support guards or ``MAX_GRID_CANDIDATES``
    vectors.
    """
    if config is None:
        config = GridSearchConfig.default_for(profile)
    if config.support_cap > MAX_ORACLE_SUPPORT:
        raise OracleSizeError(
            f"support_cap {config.support_cap} exceeds oracle guard {MAX_ORACLE_SUPPORT}"
        )
    if profile.n > MAX_ORACLE_LENGTH:
        raise OracleSizeError(
            f"profile length {profile.n} exceeds oracle guard {MAX_ORACLE_LENGTH}"
        )
    best_logprob = float("-inf")
    best: np.ndarray | None = None
    for parts in grid_partitions(config.resolution, config.support_cap):
        candidate = np.array(parts, dtype=float) / config.resolution
        value = profile_logprob(candidate, profile)
        if best is None or value > best_logprob:
            best_logprob = value
            best = candidate
    assert best is not None
    return best, best_logprob


def exact_d_profile_logprob(
    prob_vectors: Sequence[np.ndarray],
    dprofile: DProfile,
    *,
    max_length: int = 6,
    max_support: int = 5,
) -> float:
    """Exact log-probability of a d-profile by nested type enumeration.

    Enumerates per-coordinate compositions jointly over a shared support and
    keeps type tuples whose tuple histogram matches. Guarded to tiny sizes.
    """
    d = dprofile.d
    if len(prob_vectors) != d:
        raise ValueError("need one probability vector per coordinate")
    probs = [_as_prob_vector(p) for p in prob_vectors]
    support = probs[0].size
    if any(p.size != support for p in probs):
        raise ValueError("coordinates must share one domain")
    if support > max_support or any(nk > max_length for nk in dprofile.n):
        raise OracleSizeError("d-dimensional oracle limited to tiny instances")

    comps = [composition_array(nk, support) for nk in dprofile.n]
    logs = []
    valid = []
    for p, comp in zip(probs, comps):
        safe = np.where(p > 0, p, 1.0)
        logs.append(comp.astype(float) @ np.log(safe))
        valid.append(comp[:, p <= 0].sum(axis=1) == 0)

    # Joint key per element: mixed-radix encoding of its frequency tuple.
    radix = np.array([nk + 1 for nk in dprofile.n], dtype=np.int64)
    weights = np.concatenate([[1], np.cumprod(radix[:-1])])
    freq_keys = dprofile.freq_array() @ weights
    reps = np.repeat(freq_keys, dprofile.count_array())
    if reps.size > support:
        return float("-inf")
    target = np.zeros(support, dtype=np.int64)
    target[: reps.size] = reps
    target = -np.sort(-target)

    shapes = [c.shape[0] for c in comps]
    keys = np.zeros(tuple(shapes) + (support,), dtype=np.int64)
    logp = np.zeros(tuple(shapes))
    ok = np.ones(tuple(shapes), dtype=bool)
    for k, comp in enumerate(comps):
        expand = [None] * d + [slice(None)]
        expand[k] = slice(None)
        keys = keys + comp[tuple(expand)] * weights[k]
        shape_k = [1] * d
        shape_k[k] = shapes[k]
        logp = logp + logs[k].reshape(shape_k)
        ok &= valid[k].reshape(shape_k)

    ordered = -np.sort(-keys, axis=-1)
    match = np.all(ordered == target, axis=-1) & ok
    if not match.any():
        return float("-inf")
    return float(log_d_profile_coefficient(dprofile) + logsumexp(logp[match]))


def levelset_d_profile_logprob(
    values: np.ndarray,
    counts: np.ndarray,
    dprofile: DProfile,
    *,
    cap: int = 2_000_000,
) -> float:
    """Exact d-profile log-probability of a paired level-set distribution.

    Groups the type enumeration by level tuple. Levels may have zero
    coordinates; columns observed in a coordinate the level lacks are blocked.
    Each coordinate must be a pseudo-distribution: finite values in [0, 1]
    whose mass ``sum counts * values`` is at most one.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    counts = np.asarray(counts, dtype=np.int64).ravel()
    if not np.all(np.isfinite(values)):
        raise ValueError("level values must be finite")
    if np.any((values < 0) | (values > 1)) or np.any(counts @ values > 1 + 1e-9):
        raise ValueError("level values must lie in [0, 1] with mass at most one")
    values, counts = merge_levels(values, counts)  # the grouped sum needs distinct rows
    freqs = dprofile.freq_array().astype(float)
    spec = assignment.AssignmentSpec(
        levels=np.where(values > 0, values, 1.0),
        freqs=np.vstack([np.zeros((1, dprofile.d)), freqs]),
        col_counts=dprofile.count_array(),
        row_counts=counts,
    )
    blocked = _blocked_cells(values, freqs)
    allowed = (
        X for X in assignment.iter_feasible(spec, cap=cap) if not np.any(X[:, 1:][blocked] > 0)
    )
    return float(log_d_profile_coefficient(dprofile) + assignment.log_weight_total(allowed, spec))


def _blocked_cells(values: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """(L, F) mask of observed cells requiring a coordinate the level lacks."""
    zero_level = values <= 0  # (L, d)
    needs = freqs > 0  # (F, d)
    return (zero_level[:, None, :] & needs[None, :, :]).any(axis=2)


def brute_force_pml_d(
    dprofile: DProfile,
    support_cap: int = 3,
    resolution: int = 6,
) -> tuple[np.ndarray, float]:
    """Grid search over d-distribution pairs sharing a support (d = 2 only).

    The first coordinate runs over nonincreasing grid distributions (labels
    are broken by sorting), the second over all grid compositions on the same
    support, zeros allowed. Returns a certified lower bound on the joint PML
    value. Raises :class:`OracleSizeError` beyond the size guards, or when
    the pairs would outnumber ``MAX_GRID_CANDIDATES``.
    """
    if dprofile.d != 2:
        raise ValueError("brute force implemented for d = 2")
    if support_cap > 4 or any(nk > 6 for nk in dprofile.n):
        raise OracleSizeError("d = 2 brute force limited to tiny instances")
    firsts = grid_partitions(resolution, support_cap, num_compositions(resolution, support_cap))
    best = float("-inf")
    best_pair: np.ndarray | None = None
    second = composition_array(resolution, support_cap).astype(float) / resolution
    for parts in firsts:
        first = np.zeros(support_cap)
        first[: len(parts)] = np.array(parts, dtype=float) / resolution
        for q in second:
            value = exact_d_profile_logprob([first, q], dprofile)
            if value > best:
                best = value
                best_pair = np.stack([first, q], axis=1)
    assert best_pair is not None
    return best_pair, best
