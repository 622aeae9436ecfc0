"""Geometric discretization grids for probabilities and frequencies.

The probability grid is the ladder ``(1+eps)^(1-i)`` extended far enough that
its smallest value is at most ``1/(2 n^2)``; distributions are floored onto it
entrywise. The frequency grid keeps every integer up to ``ceil(1/eps)`` and
then climbs by factors of ``1 + eps/2``; observed frequencies are ceiled onto
it, stretching the sample length by at most ``1 + eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import Profile

__all__ = [
    "MAX_LENGTH",
    "MAX_LEVELS",
    "GridSizeError",
    "ProbabilityGrid",
    "FrequencyGrid",
    "DiscreteProfile",
    "build_probability_grid",
    "build_frequency_grid",
    "discretize_profile",
]

# Relative slack when snapping floats onto grid boundaries; keeps values that
# are grid members up to roundoff classified as exactly on the grid.
_BOUNDARY_SNAP = 1e-12

# Refusal limit on a probability grid's level count, per coordinate and for
# the product grid of a joint profile: about 10 times the largest grid in use
# (103 823 levels, d = 3 at n = 1000). Each level is a row of the assignment
# problem, so a grid this size is already far past what the solve can take.
# Each coordinate's frequency grid is held to the same limit.
MAX_LEVELS = 1_000_000


# Refusal limit on a sample length: frequency values and the discretized
# length, at most (1 + eps) n < 2^63, are int64.
MAX_LENGTH = 2**62 - 1


class GridSizeError(ValueError):
    """The requested probability or frequency grid has more values than
    :data:`MAX_LEVELS`, or a sample length above :data:`MAX_LENGTH`."""


def check_level_count(count: int) -> None:
    """Raise :class:`GridSizeError` when ``count`` levels exceed :data:`MAX_LEVELS`."""
    if count > MAX_LEVELS:
        raise GridSizeError(
            f"the probability grid would have {count:.3g} levels, more than the limit "
            f"of {MAX_LEVELS}; use a larger eps1")


def check_length(n: int) -> None:
    """Raise :class:`GridSizeError` when a sample length ``n`` exceeds :data:`MAX_LENGTH`."""
    if n > MAX_LENGTH:
        raise GridSizeError(
            f"the sample length {n:.3g} is above the limit of {MAX_LENGTH} that the grids hold")


def check_frequency_count(count: int) -> None:
    """Raise :class:`GridSizeError` when ``count`` frequencies exceed :data:`MAX_LEVELS`."""
    if count > MAX_LEVELS:
        raise GridSizeError(
            f"the frequency grid would have {count:.3g} values, more than the limit "
            f"of {MAX_LEVELS}; use a larger eps2")


@dataclass(frozen=True, eq=False)
class ProbabilityGrid:
    """Ascending ladder ``(1+eps)^(1-i)``, i = size..1, topping out at 1."""

    eps: float
    size: int

    def __post_init__(self):
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        if self.size < 1:
            raise ValueError("grid needs at least one value")
        exponents = np.arange(1 - self.size, 1, dtype=float)
        object.__setattr__(self, "values", (1.0 + self.eps) ** exponents)

    values: np.ndarray = None  # set in __post_init__

    def __len__(self) -> int:
        return self.size

    def floor_index(self, value: float) -> int:
        """Index of the largest grid value <= value; -1 when below the grid."""
        if value <= 0:
            return -1
        return int(np.searchsorted(self.values, value * (1 + _BOUNDARY_SNAP), side="right")) - 1

    def floor_value(self, value: float) -> float:
        idx = self.floor_index(value)
        return 0.0 if idx < 0 else float(self.values[idx])


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Sorted integer frequencies: {1..ceil(1/eps)}, the ceil-ladder of
    (1+eps/2)^k below n, and n itself."""

    eps: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.size == 0 or np.any(np.diff(values) <= 0) or values[0] < 1:
            raise ValueError("frequency grid must be strictly increasing positive ints")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def max_value(self) -> int:
        return int(self.values[-1])

    def ceil_index(self, freq: int) -> int:
        """Index of the smallest grid value >= freq."""
        if freq > self.max_value:
            raise ValueError(f"frequency {freq} above grid maximum {self.max_value}")
        if freq < 1:
            raise ValueError("frequencies are positive")
        return int(np.searchsorted(self.values, freq, side="left"))

    def ceil_value(self, freq: int) -> int:
        return int(self.values[self.ceil_index(freq)])


def build_probability_grid(n: int, eps: float) -> ProbabilityGrid:
    """Smallest ladder whose bottom value is at most 1/(2 n^2).

    Raises :class:`GridSizeError`, before allocating anything, when that
    ladder would be longer than :data:`MAX_LEVELS` or n exceeds
    :data:`MAX_LENGTH`.
    """
    if n < 2:
        raise ValueError("probability grid needs n >= 2")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    # log(2 n^2) with no float of n, which overflows past 1.8e308.
    steps = (math.log(2) + 2 * math.log(n)) / math.log1p(eps)
    # Checked first: the guards below never end once 1 + eps rounds to 1.
    check_level_count(steps + 1)
    check_length(n)  # so that 2 n^2 is a float
    floor_target = 1.0 / (2 * n * n)
    k = max(1, math.ceil(steps))
    # Guard against float error around the boundary: k must be minimal with
    # (1+eps)^(-k) <= floor_target.
    while (1.0 + eps) ** (-k) > floor_target:
        k += 1
    while k > 1 and (1.0 + eps) ** (-(k - 1)) <= floor_target:
        k -= 1
    return ProbabilityGrid(eps=eps, size=k + 1)


def build_frequency_grid(n: int, eps: float) -> FrequencyGrid:
    """Integer run up to ceil(1/eps), geometric ceil-ladder after, and n.

    Raises :class:`GridSizeError`, before building anything, when the run and
    the ladder's steps come to more than :data:`MAX_LEVELS` values or n
    exceeds :data:`MAX_LENGTH`.
    """
    if n < 1:
        raise ValueError("frequency grid needs n >= 1")
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    check_length(n)
    run = n if 1.0 / eps >= n else math.ceil(1.0 / eps)  # 1/eps may overflow
    ratio = 1.0 + eps / 2.0
    # The ladder and n follow the run only when 1/eps < n. Once the check has
    # held that run to MAX_LEVELS, ratio is far enough from 1 to climb.
    check_frequency_count(run + (math.log(n / run) / math.log1p(eps / 2) + 1 if run < n else 0))
    values = set(range(1, run + 1))
    if run < n:
        # One power below the first rung above the run: lower rungs are already
        # in it, and the margin absorbs the roundoff of the logarithms.
        k = max(1, int(math.log(run) / math.log(ratio)) - 1)
        while (rung := math.ceil(ratio**k)) < n:
            values.add(rung)
            k += 1
    values.add(n)
    return FrequencyGrid(eps=eps, values=np.array(sorted(values), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class DiscreteProfile:
    """Element counts per frequency-grid position (zero entries allowed)."""

    grid: FrequencyGrid
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (self.grid.values.size,):
            raise ValueError("counts must align with the frequency grid")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def n_prime(self) -> int:
        """Discretized sample length: sum of grid frequency * count."""
        return int(self.grid.values @ self.counts)

    @property
    def num_observed(self) -> int:
        return int(self.counts.sum())

    def to_profile(self) -> Profile:
        """View the nonzero entries as an ordinary profile of length n_prime."""
        pairs = [
            (int(f), int(c))
            for f, c in zip(self.grid.values, self.counts)
            if c > 0
        ]
        return Profile(tuple(pairs))


def discretize_profile(profile: Profile, grid: FrequencyGrid) -> DiscreteProfile:
    """Ceil every observed frequency onto the grid, keeping element counts."""
    counts = np.zeros(grid.values.size, dtype=np.int64)
    for freq, count in profile.pairs:
        counts[grid.ceil_index(freq)] += count
    return DiscreteProfile(grid=grid, counts=counts)
