"""Level-set distributions and plug-in estimates of symmetric properties.

A level-set distribution stores (probability value, element count) pairs and
no labels, which is exactly the information a symmetric property needs. All
estimators are therefore permutation-invariant by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .rounding import RoundedSolution

__all__ = [
    "LevelSetDistribution",
    "PairedLevelSetDistribution",
    "merge_levels",
    "pseudo_from_assignment",
    "normalize",
    "entropy",
    "support_size",
    "support_coverage",
    "distance_to_uniformity",
    "kl_plugin",
]

_MASS_TOL = 1e-9


def merge_levels(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the counts of equal level rows of the (L, d) ``values``.

    Rows come back distinct, in descending lexicographic order; counts keep
    their dtype.
    """
    merged: dict[tuple[float, ...], float] = {}
    for row, count in zip(values, counts):
        key = tuple(float(v) for v in row)
        merged[key] = merged.get(key, 0) + count
    keys = sorted(merged, reverse=True)
    return (
        np.array(keys, dtype=float).reshape(len(keys), values.shape[1]),
        np.array([merged[k] for k in keys], dtype=counts.dtype),
    )


@dataclass(frozen=True, eq=False)
class LevelSetDistribution:
    """(value, count) levels with distinct positive values, sorted descending."""

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        counts = np.asarray(self.counts, dtype=float).ravel()
        if values.shape != counts.shape:
            raise ValueError("values and counts must align")
        if np.any(values <= 0) or np.any(values > 1 + 1e-12):
            raise ValueError("level values must lie in (0, 1]")
        if np.any(counts <= 0):
            raise ValueError("level counts must be positive")
        values, counts = merge_levels(values[:, None], counts)
        object.__setattr__(self, "values", values[:, 0])
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def total_mass(self) -> float:
        return float(self.values @ self.counts)

    def is_normalized(self, tol: float = _MASS_TOL) -> bool:
        return abs(self.total_mass - 1.0) <= tol

    def to_dense(self) -> np.ndarray:
        """One probability per element, descending (requires integral counts)."""
        reps = np.rint(self.counts).astype(np.int64)
        if np.any(np.abs(reps - self.counts) > 1e-9):
            raise ValueError("dense expansion needs integral counts")
        return np.repeat(self.values, reps)

    def as_pairs(self) -> tuple[tuple[float, float], ...]:
        return tuple((float(v), float(c)) for v, c in zip(self.values, self.counts))

    def to_dict(self) -> dict:
        return {"levels": [[float(v), float(c)] for v, c in self.as_pairs()],
                "mass": self.total_mass}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True, eq=False)
class PairedLevelSetDistribution:
    """Level sets of several coordinates jointly: values has shape (L, d).

    Individual coordinates of a level may be zero (an element can be unseen in
    one sample sequence), but no level is zero everywhere.
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        counts = np.asarray(self.counts, dtype=float).ravel()
        if values.ndim != 2 or values.shape[0] != counts.size:
            raise ValueError("values must be (L, d) with one count per level")
        if np.any(values < 0) or np.any(values > 1 + 1e-12):
            raise ValueError("level values must lie in [0, 1]")
        if np.any(values.max(axis=1) <= 0):
            raise ValueError("each level must be nonzero in some coordinate")
        if np.any(counts <= 0):
            raise ValueError("level counts must be positive")
        values, counts = merge_levels(values, counts)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    @property
    def total_mass(self) -> np.ndarray:
        """Per-coordinate mass."""
        return self.values.T @ self.counts

    def is_normalized(self, tol: float = _MASS_TOL) -> bool:
        return bool(np.all(np.abs(self.total_mass - 1.0) <= tol))

    def to_dict(self) -> dict:
        return {
            "levels": [
                [[float(v) for v in row], float(c)]
                for row, c in zip(self.values, self.counts)
            ],
            "mass": [float(m) for m in self.total_mass],
        }


def pseudo_from_assignment(
    rounded: RoundedSolution,
) -> LevelSetDistribution | PairedLevelSetDistribution:
    """Level-set view of a rounded assignment: one level per nonempty row."""
    row_sums = rounded.X.sum(axis=1)
    keep = row_sums > 0
    values = rounded.spec_ext.levels[keep]
    counts = row_sums[keep]
    if values.size == 0:
        raise ValueError("assignment has no elements")
    if values.shape[1] == 1:
        return LevelSetDistribution(values[:, 0], counts)
    return PairedLevelSetDistribution(values, counts)


def normalize(dist):
    """Scale level values so every coordinate's mass is exactly one."""
    mass = dist.total_mass
    if np.any(np.atleast_1d(mass) <= 0):
        raise ValueError("cannot normalize zero mass")
    if isinstance(dist, PairedLevelSetDistribution):
        return PairedLevelSetDistribution(dist.values / mass, dist.counts)
    return LevelSetDistribution(dist.values / mass, dist.counts)


def _require_normalized(dist) -> None:
    if not dist.is_normalized():
        raise ValueError("estimator requires a normalized distribution")


def entropy(dist: LevelSetDistribution) -> float:
    """Shannon entropy in nats: -sum count * value * log(value)."""
    _require_normalized(dist)
    return float(-(dist.counts * dist.values * np.log(dist.values)).sum())


def support_size(dist: LevelSetDistribution) -> int:
    _require_normalized(dist)
    total = dist.counts.sum()
    if abs(total - round(total)) > 1e-9:
        raise ValueError("support size needs integral counts")
    return int(round(total))


def support_coverage(dist: LevelSetDistribution, draws: int) -> float:
    """Expected number of distinct elements seen in `draws` samples."""
    _require_normalized(dist)
    if draws < 0:
        raise ValueError("draws must be nonnegative")
    return float((dist.counts * (1.0 - (1.0 - dist.values) ** draws)).sum())


def distance_to_uniformity(dist: LevelSetDistribution, k: int) -> float:
    """L1 distance to the uniform distribution over k elements.

    The caller fixes the comparison domain size k; elements beyond the support
    are padded with probability zero and each contributes 1/k.
    """
    _require_normalized(dist)
    support = support_size(dist)
    if k < support:
        raise ValueError(f"comparison domain {k} smaller than support {support}")
    inside = (dist.counts * np.abs(dist.values - 1.0 / k)).sum()
    return float(inside + (k - support) / k)


def kl_plugin(dist: PairedLevelSetDistribution) -> float:
    """KL divergence between the two coordinates of a paired distribution."""
    if dist.dim != 2:
        raise ValueError("KL divergence needs a two-coordinate distribution")
    _require_normalized(dist)
    first = dist.values[:, 0]
    second = dist.values[:, 1]
    active = first > 0
    if np.any(second[active] == 0):
        raise ValueError("infinite divergence: second coordinate vanishes on the support of the first")
    terms = np.zeros_like(first)
    terms[active] = first[active] * np.log(first[active] / second[active])
    return float((dist.counts * terms).sum())
