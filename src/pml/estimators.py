"""Level-set distributions and plug-in estimates of symmetric properties.

A level-set distribution stores (probability value, element count) pairs and
no labels, which is exactly the information a symmetric property needs. All
estimators are therefore permutation-invariant by construction. Over d
sequences jointly a value is a d-tuple; support size takes any d, KL
divergence needs d = 2, and the other estimators need d = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevelSetDistribution",
    "merge_levels",
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
    """(value, count) levels with distinct values, sorted descending.

    ``values`` is (L,) for one sequence and (L, d) for d sequences jointly.
    A joint level may be zero in some coordinates (an element can be unseen
    in one sample sequence), but no level is zero everywhere.
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        counts = np.asarray(self.counts, dtype=float).ravel()
        if values.ndim > 2:
            raise ValueError("values must be (L,) or (L, d)")
        if values.ndim < 2:
            values = values.reshape(-1, 1)
        if values.shape[0] != counts.size:
            raise ValueError("values and counts must align")
        if not np.all((values >= 0) & (values <= 1 + 1e-12)):
            raise ValueError("level values must lie in [0, 1]")
        if np.any(values.max(axis=1) <= 0):
            raise ValueError("each level must be nonzero in some coordinate")
        if not np.all(counts > 0):
            raise ValueError("level counts must be positive")
        values, counts = merge_levels(values, counts)
        object.__setattr__(self, "values", values[:, 0] if values.shape[1] == 1 else values)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return int(self.counts.size)

    @property
    def dim(self) -> int:
        return 1 if self.values.ndim == 1 else int(self.values.shape[1])

    @property
    def total_mass(self) -> float | np.ndarray:
        """The mass: a float for one sequence, per coordinate jointly."""
        mass = self.values.T @ self.counts
        return float(mass) if self.dim == 1 else mass

    def is_normalized(self, tol: float = _MASS_TOL) -> bool:
        return bool(np.all(np.abs(self.total_mass - 1.0) <= tol))

    def as_pairs(self) -> tuple[tuple, ...]:
        """(value, count) per level; a joint value is a list of d floats."""
        return tuple(zip(self.values.tolist(), self.counts.tolist()))

    def to_dict(self) -> dict:
        return {"levels": [list(pair) for pair in self.as_pairs()],
                "mass": np.asarray(self.total_mass).tolist()}


def normalize(dist: LevelSetDistribution) -> LevelSetDistribution:
    """Scale level values so every coordinate's mass is exactly one."""
    mass = dist.total_mass
    if np.any(np.atleast_1d(mass) <= 0):
        raise ValueError("cannot normalize zero mass")
    return LevelSetDistribution(dist.values / mass, dist.counts)


def _require(dist: LevelSetDistribution, what: str, dim: int | None = None) -> None:
    """Refuse a distribution of another dimension than ``dim``, or not normalized."""
    if dim is not None and dist.dim != dim:
        raise ValueError(f"{what} is defined at d = {dim} only, not d = {dist.dim}")
    if not dist.is_normalized():
        raise ValueError("estimator requires a normalized distribution")


def entropy(dist: LevelSetDistribution) -> float:
    """Shannon entropy in nats: -sum count * value * log(value)."""
    _require(dist, "entropy", dim=1)
    # Subtracted from 0.0, so a point mass has entropy +0.0 and not -0.0.
    return float(0.0 - (dist.counts * dist.values * np.log(dist.values)).sum())


def support_size(dist: LevelSetDistribution) -> int:
    """Number of elements, at any d."""
    _require(dist, "support size")
    total = dist.counts.sum()
    if abs(total - round(total)) > 1e-9:
        raise ValueError("support size needs integral counts")
    return int(round(total))


def support_coverage(dist: LevelSetDistribution, draws: int) -> float:
    """Expected number of distinct elements seen in `draws` samples."""
    _require(dist, "support coverage", dim=1)
    if draws < 0:
        raise ValueError("draws must be nonnegative")
    return float((dist.counts * (1.0 - (1.0 - dist.values) ** draws)).sum())


def distance_to_uniformity(dist: LevelSetDistribution, k: int) -> float:
    """L1 distance to the uniform distribution over k elements.

    The caller fixes the comparison domain size k; elements beyond the support
    are padded with probability zero and each contributes 1/k.
    """
    _require(dist, "distance to uniformity", dim=1)
    support = support_size(dist)
    if k < support:
        raise ValueError(f"comparison domain {k} smaller than support {support}")
    inside = (dist.counts * np.abs(dist.values - 1.0 / k)).sum()
    return float(inside + (k - support) / k)


def kl_plugin(dist: LevelSetDistribution) -> float:
    """KL divergence between the two coordinates of a joint distribution."""
    _require(dist, "KL divergence", dim=2)
    first = dist.values[:, 0]
    second = dist.values[:, 1]
    active = first > 0
    if np.any(second[active] == 0):
        raise ValueError("infinite divergence: second coordinate vanishes on the support of the first")
    terms = np.zeros_like(first)
    terms[active] = first[active] * np.log(first[active] / second[active])
    return float((dist.counts * terms).sum())
