import math

import numpy as np
import pytest

from pml import (
    AssignmentSpec,
    LevelSetDistribution,
    distance_to_uniformity,
    entropy,
    kl_plugin,
    normalize,
    pseudo_from_assignment,
    round_assignment,
    support_coverage,
    support_size,
)


def levelset(pairs):
    values, counts = zip(*pairs)
    return LevelSetDistribution(np.array(values), np.array(counts))


def test_pseudo_from_assignment_examples():
    spec = AssignmentSpec(levels=[0.5, 0.25], freqs=[0, 1], col_counts=[1])
    rounded = round_assignment(np.array([[0.0, 0.5], [0.0, 0.5]]), spec)
    dist = pseudo_from_assignment(rounded)
    assert dist.as_pairs() == ((0.375, 1.0),)

    spec2 = AssignmentSpec(levels=[0.5], freqs=[0, 1], col_counts=[2])
    rounded2 = round_assignment(np.array([[0.0, 2.0]]), spec2)
    dist2 = pseudo_from_assignment(rounded2)
    assert dist2.as_pairs() == ((0.5, 2.0),)
    assert dist2.total_mass == pytest.approx(1.0)


def test_normalize_examples():
    assert normalize(levelset([(0.5, 2)])).as_pairs() == ((0.5, 2.0),)
    assert normalize(levelset([(0.375, 1)])).as_pairs() == ((1.0, 1.0),)
    assert normalize(levelset([(0.25, 2)])).as_pairs() == ((0.5, 2.0),)


def test_entropy_examples():
    for k in (1, 4, 17):
        assert entropy(levelset([(1 / k, k)])) == pytest.approx(math.log(k), abs=1e-12)
    assert entropy(levelset([(1.0, 1)])) == pytest.approx(0.0)
    assert math.copysign(1.0, entropy(levelset([(1.0, 1)]))) == 1.0  # +0.0, not -0.0
    mixed = levelset([(0.5, 1), (0.25, 2)])
    assert entropy(mixed) == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(4))


def test_entropy_requires_normalized():
    with pytest.raises(ValueError):
        entropy(levelset([(0.25, 2)]))


def test_support_and_coverage():
    assert support_size(levelset([(0.25, 4)])) == 4
    assert support_coverage(levelset([(1.0, 1)]), 1) == pytest.approx(1.0)
    dist = levelset([(0.5, 2)])
    assert support_coverage(dist, 3) == pytest.approx(2 * (1 - 0.5**3))


def test_distance_to_uniformity():
    for k in (2, 5, 9):
        uniform = levelset([(1 / k, k)])
        assert distance_to_uniformity(uniform, k) == pytest.approx(0.0, abs=1e-12)
    dist = levelset([(0.5, 2)])
    assert distance_to_uniformity(dist, 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        distance_to_uniformity(dist, 1)


def test_kl_plugin_examples():
    same = LevelSetDistribution(np.array([[0.5, 0.5], [0.25, 0.25], [0.25, 0.25]]),
                                      np.array([1, 1, 1]))
    assert kl_plugin(same) == pytest.approx(0.0, abs=1e-12)

    mixed = LevelSetDistribution(np.array([[0.5, 0.25], [0.5, 0.75]]), np.array([1, 1]))
    assert kl_plugin(mixed) == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3))

    with_zero = LevelSetDistribution(np.array([[0.0, 0.5], [1.0, 0.5]]), np.array([1, 1]))
    assert kl_plugin(with_zero) == pytest.approx(1.0 * math.log(1 / 0.5))

    infinite = LevelSetDistribution(np.array([[0.5, 0.0], [0.5, 1.0]]), np.array([1, 1]))
    with pytest.raises(ValueError):
        kl_plugin(infinite)


def test_level_merging_and_ordering():
    dist = LevelSetDistribution(np.array([0.25, 0.5, 0.25]), np.array([1, 1, 1]))
    assert dist.as_pairs() == ((0.5, 1.0), (0.25, 2.0))
    paired = LevelSetDistribution(
        np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([1, 2])
    )
    assert len(paired) == 1
    assert paired.counts[0] == pytest.approx(3.0)


def test_normalize_paired_per_coordinate():
    paired = LevelSetDistribution(np.array([[0.25, 0.1], [0.25, 0.3]]), np.array([1, 1]))
    out = normalize(paired)
    assert np.allclose(out.total_mass, [1.0, 1.0])
    assert out.values[:, 0].tolist() == [0.5, 0.5]


def test_validation_errors():
    with pytest.raises(ValueError):
        LevelSetDistribution(np.array([0.0]), np.array([1]))
    with pytest.raises(ValueError):
        LevelSetDistribution(np.array([0.5]), np.array([0]))
    with pytest.raises(ValueError):
        LevelSetDistribution(np.array([[0.0, 0.0]]), np.array([1]))


def test_one_sequence_estimators_refuse_joint_distributions():
    joint = LevelSetDistribution(np.array([[0.5, 0.25], [0.25, 0.375]]), np.array([1, 2]))
    assert joint.dim == 2
    for estimate in (entropy, lambda d: support_coverage(d, 3),
                     lambda d: distance_to_uniformity(d, 5)):
        with pytest.raises(ValueError, match="d = 1"):
            estimate(joint)
    with pytest.raises(ValueError, match="d = 2"):
        kl_plugin(levelset([(0.5, 2)]))


def test_support_size_of_a_joint_distribution_counts_its_elements():
    joint = LevelSetDistribution(
        np.array([[0.5, 0.0], [0.0, 0.5], [0.25, 0.25]]), np.array([1, 1, 2])
    )
    assert support_size(joint) == 4


def test_validation_refuses_nan_values_and_counts():
    with pytest.raises(ValueError):
        LevelSetDistribution(np.array([np.nan]), np.array([1]))
    with pytest.raises(ValueError):
        LevelSetDistribution(np.array([0.5]), np.array([np.nan]))
    with pytest.raises(ValueError):
        LevelSetDistribution(np.array([[0.5, np.nan]]), np.array([1]))
