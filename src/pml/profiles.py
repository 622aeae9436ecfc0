"""Profiles: label-free summaries of sample data.

The *type* of a sequence is its histogram (symbol -> frequency); its
*profile* (also called a fingerprint) is the histogram of the type and
forgets the labels entirely. Profiles are the sufficient statistic for every
symmetric property handled by this package.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from ._special import log_factorial

__all__ = [
    "Profile",
    "profile_of_sequence",
    "log_profile_coefficient",
    "profile_coefficient_exact",
]


def is_whole(value) -> bool:
    """True for an integer or an integral float; False for bools, strings and the rest."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, numbers.Integral):
        return True
    return isinstance(value, (float, np.floating)) and float(value).is_integer()


@dataclass(frozen=True)
class Profile:
    """(frequency, count) pairs with strictly decreasing frequencies.

    ``Profile([(2, 2), (1, 1)])`` says two symbols were seen twice and one
    symbol once, e.g. the sequence "ababc". Input pairs are merged and sorted
    into this canonical order, so serialization is deterministic.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        merged: Counter = Counter()
        for freq, count in self.pairs:
            if not is_whole(freq) or freq < 1:
                raise ValueError(f"frequencies must be positive integers, got {freq!r}")
            if not is_whole(count) or count < 1:
                raise ValueError(f"counts must be positive integers, got {count!r}")
            merged[int(freq)] += int(count)
        if not merged:
            raise ValueError("profile must contain at least one pair")
        object.__setattr__(self, "pairs", tuple(sorted(merged.items(), reverse=True)))

    @property
    def n(self) -> int:
        """Sample length: sum of frequency * count."""
        return sum(f * c for f, c in self.pairs)

    @property
    def num_observed(self) -> int:
        """Number of distinct observed symbols."""
        return sum(c for _, c in self.pairs)

    def frequencies(self) -> np.ndarray:
        return np.array([f for f, _ in self.pairs], dtype=np.int64)

    def counts(self) -> np.ndarray:
        return np.array([c for _, c in self.pairs], dtype=np.int64)

    def expanded_frequencies(self) -> np.ndarray:
        """One frequency per observed symbol, descending."""
        return np.repeat(self.frequencies(), self.counts())

    def to_dict(self) -> dict:
        return {"pairs": [[f, c] for f, c in self.pairs]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Profile":
        try:
            pairs = [(f, c) for f, c in data["pairs"]]
        except (KeyError, TypeError, ValueError) as exc:
            shape = '{"pairs": [[frequency, count], ...]}'
            raise ValueError(f"malformed profile data: expected {shape}") from exc
        return cls(tuple(pairs))

    @classmethod
    def from_json(cls, text: str) -> "Profile":
        return cls.from_dict(json.loads(text))


def profile_of_sequence(symbols: Iterable[Hashable]) -> Profile:
    """Profile of a nonempty sequence: counts of symbols per frequency."""
    type_counts = Counter(symbols)
    if not type_counts:
        raise ValueError("cannot take the profile of an empty sequence")
    return Profile(tuple(Counter(type_counts.values()).items()))


def log_profile_coefficient(profile: Profile) -> float:
    """Log of the sequence-count coefficient shared by all types with this profile.

    Equals ``log(n! / prod_j (freq_j!)^count_j)``, computed with log-gamma so
    large lengths stay finite.
    """
    n = profile.n
    out = log_factorial(n)
    for freq, count in profile.pairs:
        out -= count * log_factorial(freq)
    return float(out)


def profile_coefficient_exact(profile: Profile) -> int:
    """Exact big-integer value of the profile coefficient; guarded to n <= 20."""
    n = profile.n
    if n > 20:
        raise ValueError(f"exact coefficient limited to n <= 20, got n = {n}")
    denom = 1
    for freq, count in profile.pairs:
        denom *= math.factorial(freq) ** count
    num = math.factorial(n)
    if num % denom != 0:
        raise AssertionError("profile coefficient must be integral")
    return num // denom
