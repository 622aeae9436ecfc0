"""Joint profiles over several sample sequences on a common domain (d <= 3).

A d-profile counts domain elements by their tuple of frequencies across the d
sequences. Probability grids become per-coordinate ladders combined into a
product grid, and the assignment machinery is reused unchanged by treating
level values and frequencies as d-tuples. Each observed frequency tuple is
ceiled coordinate by coordinate onto per-coordinate frequency ladders; a
coordinate may be zero (an element seen in one sequence only) and stays zero,
and the all-zero tuple is the unseen column.

This module is on every estimate path and holds d-profiles and grids only;
the d-dimensional oracles that check them are in :mod:`pml.exact`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from ._special import log_factorial
from .grids import (
    FrequencyGrid,
    ProbabilityGrid,
    build_frequency_grid,
    build_probability_grid,
    check_level_count,
)
from .profiles import Profile, is_whole

__all__ = [
    "DProfile",
    "DGrids",
    "d_profile_of",
    "build_d_grids",
    "discretize_d_profile",
    "log_d_profile_coefficient",
]

MAX_DIM = 3


@dataclass(frozen=True)
class DProfile:
    """Counts of domain elements per d-tuple of frequencies.

    ``entries`` maps each observed frequency tuple (nonzero somewhere) to a
    positive count. The dimension ``d`` and the tuple ``n`` of per-coordinate
    sample lengths are read off the entries; every coordinate needs a sample.
    """

    entries: tuple[tuple[tuple[int, ...], int], ...]
    d: int = field(init=False, compare=False)
    n: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        merged: Counter = Counter()
        for freqs, count in self.entries:
            freqs = tuple(freqs)
            if not all(is_whole(f) and f >= 0 for f in freqs) or not any(freqs):
                raise ValueError(f"bad frequency tuple {freqs!r}")
            if not is_whole(count) or count < 1:
                raise ValueError(f"counts must be positive integers, got {count!r}")
            merged[tuple(int(f) for f in freqs)] += int(count)
        if not merged:
            raise ValueError("empty d-profile")
        dims = {len(f) for f in merged}
        d = dims.pop()
        if dims or not 1 <= d <= MAX_DIM:
            raise ValueError(f"frequency tuples must share one length between 1 and {MAX_DIM}")
        n = tuple(sum(f[k] * c for f, c in merged.items()) for k in range(d))
        if 0 in n:
            raise ValueError(f"coordinate {n.index(0)} has no sample")
        object.__setattr__(self, "entries", tuple(sorted(merged.items(), reverse=True)))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)

    @property
    def num_observed(self) -> int:
        return sum(c for _, c in self.entries)

    def freq_array(self) -> np.ndarray:
        return np.array([f for f, _ in self.entries], dtype=np.int64)

    def count_array(self) -> np.ndarray:
        return np.array([c for _, c in self.entries], dtype=np.int64)

    @classmethod
    def from_profile(cls, profile: Profile) -> "DProfile":
        return cls(tuple(((f,), c) for f, c in profile.pairs))

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
            d = data["d"]
            entries = tuple((tuple(f), c) for f, c in data["entries"])
        except (KeyError, TypeError, ValueError) as exc:
            shape = '{"d": d, "entries": [[[f_1, ..., f_d], count], ...]}'
            raise ValueError(f"malformed d-profile data: expected {shape}") from exc
        dprofile = cls(entries)
        if not is_whole(d) or d != dprofile.d:
            raise ValueError(f"d must equal the frequency tuples' length {dprofile.d}, got {d!r}")
        return dprofile

    @classmethod
    def from_json(cls, text: str) -> "DProfile":
        return cls.from_dict(json.loads(text))


def d_profile_of(sequences: Sequence[Iterable[Hashable]]) -> DProfile:
    """Joint frequency-tuple histogram of d sequences over a common domain."""
    if not 1 <= len(sequences) <= MAX_DIM:
        raise ValueError(f"need between 1 and {MAX_DIM} sequences")
    counters = [Counter(seq) for seq in sequences]
    symbols = set().union(*counters)
    tuples = Counter(
        tuple(counter[sym] for counter in counters) for sym in symbols
    )
    return DProfile(tuple(tuples.items()))


@dataclass(frozen=True, eq=False)
class DGrids:
    """Per-coordinate ladders and the product of the probability ladders.

    ``level_values`` is (R, d) with R the product of per-coordinate ladder
    sizes; row 0 is the all-minimal tuple. The frequency ladders are not
    combined: :func:`discretize_d_profile` ceils only the observed tuples,
    and the pipeline has one assignment column per distinct result, in
    ascending tuple order.
    """

    prob_grids: tuple[ProbabilityGrid, ...]
    freq_grids: tuple[FrequencyGrid, ...]

    def __post_init__(self):
        grids = np.meshgrid(*[g.values for g in self.prob_grids], indexing="ij")
        object.__setattr__(self, "level_values", np.stack([g.ravel() for g in grids], axis=1))

    level_values: np.ndarray = None

    @property
    def d(self) -> int:
        return len(self.prob_grids)


def build_d_grids(n: tuple[int, ...], eps: tuple[float, ...], gamma: tuple[float, ...]) -> DGrids:
    if not len(n) == len(eps) == len(gamma):
        raise ValueError("n, eps, gamma must have one entry per coordinate")
    # The level product is checked before DGrids builds it.
    prob = tuple(build_probability_grid(max(nk, 2), ek) for nk, ek in zip(n, eps))
    check_level_count(math.prod(len(g) for g in prob))
    freq = tuple(build_frequency_grid(nk, gk) for nk, gk in zip(n, gamma))
    return DGrids(prob, freq)


def discretize_d_profile(dprofile: DProfile, grids: DGrids) -> tuple[np.ndarray, np.ndarray]:
    """Ceil each coordinate of every frequency tuple onto its ladder (0 stays 0).

    Returns ``(counts, tuples)``: the distinct discretized tuples as a (J, d)
    int64 array in ascending tuple order, and the int64 count of each.
    """
    if grids.d != dprofile.d:
        raise ValueError("grid dimension does not match the profile")
    merged: Counter = Counter()
    for freqs, count in dprofile.entries:
        merged[tuple(grid.ceil_value(f) if f else 0
                     for grid, f in zip(grids.freq_grids, freqs))] += count
    tuples = sorted(merged)
    return (np.array([merged[t] for t in tuples], dtype=np.int64),
            np.array(tuples, dtype=np.int64))


def log_d_profile_coefficient(dprofile: DProfile) -> float:
    """Log of the per-coordinate product of sequence-count coefficients."""
    out = 0.0
    freqs = dprofile.freq_array()
    counts = dprofile.count_array()
    for k, nk in enumerate(dprofile.n):
        out += log_factorial(nk)
        out -= float((counts * log_factorial(freqs[:, k])).sum())
    return float(out)
