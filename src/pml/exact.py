"""Exact small-scale oracles: profile probabilities by enumeration and grid-search PML.

Everything here is ground truth for the rest of the package. The main path
enumerates types (compositions of the sample length over the support); a second,
fully independent path enumerates raw sequences and exists only to cross-check
the first at tiny sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._special import logsumexp
from .combinatorics import composition_array, iter_partitions
from .profiles import Profile, TypeVector, log_profile_coefficient

__all__ = [
    "OracleSizeError",
    "GridSearchConfig",
    "sequence_logprob",
    "profile_logprob",
    "profile_logprob_by_sequences",
    "levelset_profile_logprob",
    "brute_force_pml",
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


def sequence_logprob(probs, type_vector: TypeVector | dict) -> float:
    """Log-probability of observing any one sequence with the given type.

    ``probs`` is a dense (pseudo-)distribution indexed by integers; the type's
    symbols must be valid indices. Returns -inf when a required symbol has
    probability zero.
    """
    p = _as_prob_vector(probs)
    entries = type_vector.entries if isinstance(type_vector, TypeVector) else type_vector
    out = 0.0
    for sym, freq in entries.items():
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
    :func:`pml.multi.levelset_d_profile_logprob` at d = 1; equality with
    :func:`profile_logprob` on expanded supports is exercised by the tests.
    """
    from .multi import DProfile, levelset_d_profile_logprob  # multi imports this module

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
