"""Integer enumeration helpers shared by the oracles and feasible-set code."""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np


def num_compositions(total: int, parts: int) -> int:
    """Number of ways to write `total` as an ordered sum of `parts` nonnegative ints."""
    return comb(total + parts - 1, parts - 1)


@lru_cache(maxsize=256)
def composition_array(total: int, parts: int) -> np.ndarray:
    """All compositions of `total` into `parts` nonnegative ints as an (M, parts) array.

    Cached and returned read-only; M = C(total + parts - 1, parts - 1).
    """
    if parts == 1:
        arr = np.array([[total]], dtype=np.int64)
    else:
        bars = np.fromiter(
            itertools.chain.from_iterable(
                itertools.combinations(range(total + parts - 1), parts - 1)
            ),
            dtype=np.int64,
        ).reshape(-1, parts - 1)
        m = bars.shape[0]
        padded = np.concatenate(
            [
                np.full((m, 1), -1, dtype=np.int64),
                bars,
                np.full((m, 1), total + parts - 1, dtype=np.int64),
            ],
            axis=1,
        )
        arr = np.diff(padded, axis=1) - 1
    arr.setflags(write=False)
    return arr


def iter_partitions(total: int, max_part: int, max_parts: int):
    """Yield nonincreasing tuples of positive ints summing to `total`.

    At most `max_parts` parts, each at most `max_part`. The first part is
    enumerated in decreasing order, so a single-part partition comes first.
    """
    if total == 0:
        yield ()
        return
    if max_parts <= 0 or max_part <= 0:
        return
    # A first part below total / max_parts leaves the rest too much to hold,
    # so every first part tried here yields at least one partition.
    for first in range(min(total, max_part), (total - 1) // max_parts, -1):
        for rest in iter_partitions(total - first, first, max_parts - 1):
            yield (first,) + rest
