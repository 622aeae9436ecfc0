"""Joint profiles over several sample sequences on a common domain (d <= 3).

A d-profile counts domain elements by their tuple of frequencies across the d
sequences. Grids become per-coordinate ladders combined into product grids,
and the assignment machinery is reused unchanged by treating level values and
frequencies as d-tuples. Frequency tuples may be zero in some coordinates (an
element seen in one sequence only), so each coordinate's frequency axis is
extended with 0; the all-zero tuple is the unseen column.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from . import assignment
from .estimators import merge_levels
from .exact import OracleSizeError
from .grids import FrequencyGrid, ProbabilityGrid, build_frequency_grid, build_probability_grid
from .profiles import Profile

__all__ = [
    "DProfile",
    "DGrids",
    "d_profile_of",
    "build_d_grids",
    "discretize_d_profile",
    "log_d_profile_coefficient",
    "exact_d_profile_logprob",
    "levelset_d_profile_logprob",
    "brute_force_pml_d",
]

MAX_DIM = 3


@dataclass(frozen=True)
class DProfile:
    """Counts of domain elements per d-tuple of frequencies.

    ``entries`` maps each observed frequency tuple (nonzero somewhere) to a
    positive count; ``n`` is the tuple of per-coordinate sample lengths.
    """

    entries: tuple[tuple[tuple[int, ...], int], ...]
    n: tuple[int, ...]

    def __post_init__(self):
        merged: Counter = Counter()
        d = len(self.n)
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"dimension must be between 1 and {MAX_DIM}")
        for freqs, count in self.entries:
            freqs = tuple(int(f) for f in freqs)
            if len(freqs) != d or any(f < 0 for f in freqs) or not any(freqs):
                raise ValueError(f"bad frequency tuple {freqs!r}")
            if count != int(count) or count < 1:
                raise ValueError("counts must be positive integers")
            merged[freqs] += int(count)
        if not merged:
            raise ValueError("empty d-profile")
        lengths = tuple(
            int(sum(f[k] * c for f, c in merged.items())) for k in range(d)
        )
        if lengths != tuple(int(v) for v in self.n):
            raise ValueError(f"lengths {lengths} do not match declared n {self.n}")
        object.__setattr__(self, "entries", tuple(sorted(merged.items(), reverse=True)))
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))

    @property
    def d(self) -> int:
        return len(self.n)

    @property
    def num_observed(self) -> int:
        return sum(c for _, c in self.entries)

    def freq_array(self) -> np.ndarray:
        return np.array([f for f, _ in self.entries], dtype=np.int64)

    def count_array(self) -> np.ndarray:
        return np.array([c for _, c in self.entries], dtype=np.int64)

    def to_profile(self) -> Profile:
        if self.d != 1:
            raise ValueError("only 1-dimensional profiles convert directly")
        return Profile(tuple((f[0], c) for f, c in self.entries))

    @classmethod
    def from_profile(cls, profile: Profile) -> "DProfile":
        return cls(tuple(((f,), c) for f, c in profile.pairs), (profile.n,))

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "entries": [[[int(v) for v in f], int(c)] for f, c in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data) -> "DProfile":
        try:
            d = int(data["d"])
            entries = tuple(
                (tuple(int(v) for v in f), int(c)) for f, c in data["entries"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed d-profile data: {exc}") from exc
        lengths = tuple(
            int(sum(f[k] * c for f, c in entries)) for k in range(d)
        )
        return cls(entries, lengths)

    @classmethod
    def from_json(cls, text: str) -> "DProfile":
        return cls.from_dict(json.loads(text))


def d_profile_of(sequences: Sequence[Iterable[Hashable]]) -> DProfile:
    """Joint frequency-tuple histogram of d sequences over a common domain."""
    if not 1 <= len(sequences) <= MAX_DIM:
        raise ValueError(f"need between 1 and {MAX_DIM} sequences")
    counters = [Counter(seq) for seq in sequences]
    for k, counter in enumerate(counters):
        if not counter:
            raise ValueError(f"sequence {k} is empty")
    symbols = set().union(*counters)
    tuples = Counter(
        tuple(counter[sym] for counter in counters) for sym in symbols
    )
    lengths = tuple(sum(c.values()) for c in counters)
    return DProfile(tuple(tuples.items()), lengths)


@dataclass(frozen=True, eq=False)
class DGrids:
    """Per-coordinate ladders and their cartesian products.

    ``level_values`` is (R, d) with R the product of per-coordinate ladder
    sizes; row 0 is the all-minimal tuple. ``freq_values`` holds every
    frequency tuple of the grid: the product of each coordinate's grid
    extended with 0, minus the all-zero tuple. A profile fills few of them;
    the pipeline keeps only those as assignment columns.
    """

    prob_grids: tuple[ProbabilityGrid, ...]
    freq_grids: tuple[FrequencyGrid, ...]

    def __post_init__(self):
        levels = _product_rows([g.values for g in self.prob_grids])
        axes = [np.concatenate([[0], g.values]).astype(float) for g in self.freq_grids]
        freqs = _product_rows(axes)[1:]  # drop the all-zero tuple (unseen column)
        object.__setattr__(self, "level_values", levels)
        object.__setattr__(self, "freq_values", freqs)

    level_values: np.ndarray = None
    freq_values: np.ndarray = None

    @property
    def d(self) -> int:
        return len(self.prob_grids)


def _product_rows(axes: list[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(float)


def build_d_grids(n: tuple[int, ...], eps: tuple[float, ...], gamma: tuple[float, ...]) -> DGrids:
    if not len(n) == len(eps) == len(gamma):
        raise ValueError("n, eps, gamma must have one entry per coordinate")
    prob = tuple(build_probability_grid(max(nk, 2), ek) for nk, ek in zip(n, eps))
    freq = tuple(build_frequency_grid(nk, gk) for nk, gk in zip(n, gamma))
    return DGrids(prob, freq)


def discretize_d_profile(dprofile: DProfile, grids: DGrids) -> tuple[np.ndarray, tuple[int, ...]]:
    """Ceil each coordinate of every frequency tuple onto its ladder (0 stays 0).

    Returns counts indexed like ``grids.freq_values`` plus the stretched
    per-coordinate lengths.
    """
    if grids.d != dprofile.d:
        raise ValueError("grid dimension does not match the profile")
    sizes = [len(g) + 1 for g in grids.freq_grids]  # axes include the 0 rung
    counts = np.zeros(int(np.prod(sizes)) - 1, dtype=np.int64)
    lengths = [0] * dprofile.d
    for freqs, count in dprofile.entries:
        idx = []
        for k, (grid, f) in enumerate(zip(grids.freq_grids, freqs)):
            if f == 0:
                idx.append(0)
            else:
                j = grid.ceil_index(int(f))
                idx.append(j + 1)
                lengths[k] += int(grid.values[j]) * count
        flat = int(np.ravel_multi_index(tuple(idx), sizes))
        counts[flat - 1] += count
    return counts, tuple(lengths)


def log_d_profile_coefficient(dprofile: DProfile) -> float:
    """Log of the per-coordinate product of sequence-count coefficients."""
    out = 0.0
    freqs = dprofile.freq_array()
    counts = dprofile.count_array()
    for k, nk in enumerate(dprofile.n):
        out += gammaln(nk + 1)
        out -= float((counts * gammaln(freqs[:, k] + 1)).sum())
    return float(out)


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
    from .combinatorics import composition_array

    d = dprofile.d
    if len(prob_vectors) != d:
        raise ValueError("need one probability vector per coordinate")
    probs = [np.asarray(p, dtype=float).ravel() for p in prob_vectors]
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
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    counts = np.asarray(counts, dtype=np.int64).ravel()
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
    value.
    """
    from .combinatorics import composition_array, iter_partitions

    if dprofile.d != 2:
        raise ValueError("brute force implemented for d = 2")
    if support_cap > 4 or any(nk > 6 for nk in dprofile.n):
        raise OracleSizeError("d = 2 brute force limited to tiny instances")
    best = float("-inf")
    best_pair: np.ndarray | None = None
    second = composition_array(resolution, support_cap).astype(float) / resolution
    for parts in iter_partitions(resolution, resolution, support_cap):
        first = np.zeros(support_cap)
        first[: len(parts)] = np.array(parts, dtype=float) / resolution
        for q in second:
            value = exact_d_profile_logprob([first, q], dprofile)
            if value > best:
                best = value
                best_pair = np.stack([first, q], axis=1)
    assert best_pair is not None
    return best_pair, best
