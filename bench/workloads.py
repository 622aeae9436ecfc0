"""Benchmark inputs: samples from known distributions, and their true properties.

A workload is a list of slots (a distribution family, d and a sample size).
Each slot's sample is the ROADMAP's baseline draw from ``default_rng(0)``,
relabelled and reordered by the seed: ``default_rng([seed, slot])`` permutes
the symbol labels (the same permutation in every coordinate) and the order of
each sequence. The program only sees the samples (or, for the CLI, the
profile files made from them), so every seed gives it other inputs, but they
have the same profile as the baseline draw, and the pipeline depends on a
sample only through its profile. That keeps two things fixed across seeds
that must be fixed: a solve's time, which depends on the draw as much as on
the code (at n = 1000, 2.5 s to 8 s across draws), and which instances the
checks refute, so that runs with other seeds agree on what failed. The
generating distributions, permuted the same way, stay here as the accuracy
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Slots: (family, d, n). Family "zipf" over k = n/2 symbols is the ROADMAP
# baseline; at d >= 2 coordinate s is Zipf(1) over k = max(3, n/2) symbols
# rotated by s places.
WORKLOADS = {
    # In process: the ROADMAP's d = 1 scale sweep, then the joint path on a
    # full frequency-product grid (d = 2, n = 4: 64 x 25 cells). Every slot
    # is above the polish cutoff, so the LP oracle and the dual refinement
    # carry the time. When this benchmark was written, the solver's claims on
    # the baseline draws at n = 1000, 3000 and 10000 were refuted, the last two
    # while flagged certified, and the d = 2 solve ran to its iteration cap.
    # Left out because they are too slow for a run: d = 2 at n >= 30 (112 s)
    # and d = 3 (7 s to 25 s at n = 3).
    "inproc-large-joint": (("zipf", 1, 300), ("zipf", 1, 1000), ("zipf", 1, 3000),
                           ("zipf", 1, 10000), ("zipf", 2, 4)),
    # Three profiles below the solver's SLSQP polish cutoff (R*J <= 260 cells)
    # and two above it, each in its own `pml estimate` call. One call over all
    # five gave only three timed calls in a run, too few for a steady median.
    "d1-small-cli": (("uniform", 1, 5), ("zipf", 1, 5), ("twostep", 1, 5),
                     ("uniform", 1, 24), ("twostep", 1, 40)),
}


def zipf(k: int, shift: int = 0) -> np.ndarray:
    p = 1.0 / np.arange(1, k + 1)
    return np.roll(p / p.sum(), shift)


def uniform(k: int) -> np.ndarray:
    return np.full(k, 1.0 / k)


def twostep(k: int) -> np.ndarray:
    """Half the symbols three times as likely as the other half."""
    p = np.where(np.arange(k) < k // 2, 3.0, 1.0)
    return p / p.sum()


FAMILIES = {"zipf": zipf, "uniform": uniform, "twostep": twostep}


@dataclass
class Instance:
    """One estimation problem: d sample sequences and their generating distributions."""

    slot: str
    id: str
    sequences: list[list[int]]
    truth: list[np.ndarray]

    @property
    def d(self) -> int:
        return len(self.sequences)

    @property
    def n(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.sequences)


def _instance(family: str, d: int, n: int, rng, slot: str, label: str) -> Instance:
    if d == 1:
        probs = [FAMILIES[family](max(2, n // 2))]
    else:
        k = max(3, n // 2)
        probs = [zipf(k, s) for s in range(d)]
    sequences = [rng.choice(p.size, size=n, p=p).tolist() for p in probs]
    return Instance(slot, label, sequences, probs)


def _relabel(inst: Instance, rng, label: str) -> Instance:
    """The same sample with symbol x renamed perm[x] and each sequence shuffled."""
    perm = rng.permutation(inst.truth[0].size)
    sequences = [perm[np.asarray(seq)][rng.permutation(len(seq))].tolist()
                 for seq in inst.sequences]
    truth = []
    for p in inst.truth:
        q = np.empty_like(p)
        q[perm] = p
        truth.append(q)
    return Instance(inst.slot, label, sequences, truth)


def make_inputs(workload: str, seed: int) -> list[Instance]:
    """One instance per slot of the workload: its baseline draw, relabelled by the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    out = []
    for s, (family, d, n) in enumerate(WORKLOADS[workload]):
        slot = f"{family}-d{d}-n{n}"
        base = _instance(family, d, n, np.random.default_rng(0), slot, slot)
        out.append(_relabel(base, np.random.default_rng([seed, s]), f"{slot}-seed{seed}"))
    return out


def warmup_instance() -> Instance:
    """Fixed small Zipf sample for the warm-up call before timing; it is the
    same for every seed so that set-up time does not depend on the seed."""
    return _instance("zipf", 1, 30, np.random.default_rng([0, 0]), "warmup", "warmup")


def entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def coverage(p: np.ndarray, draws: int) -> float:
    """Expected number of distinct symbols in ``draws`` samples."""
    return float((1.0 - (1.0 - p) ** draws).sum())


def kl(p: np.ndarray, q: np.ndarray) -> float:
    keep = p > 0
    return float((p[keep] * np.log(p[keep] / q[keep])).sum())


def empirical(sequence: list[int]) -> np.ndarray:
    """Plug-in distribution of a sample: observed relative frequencies."""
    counts = np.bincount(np.asarray(sequence))
    counts = counts[counts > 0]
    return counts / counts.sum()
