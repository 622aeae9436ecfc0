"""The package's log-space special functions, in numpy.

``logsumexp`` and ``log_factorial`` (``gammaln(x + 1)`` at integers) are the
only ones it needs. Keeping them here means importing ``pml``, and so every
``pml`` command's start-up, loads no scipy module.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = ["logsumexp", "log_factorial"]

_TABLE_SIZE = 1 << 16


def logsumexp(a, axis: int | None = None):
    """``log(sum(exp(a)))`` over ``axis`` (all entries when None), shifted by the max.

    A slice that is empty or all ``-inf`` gives ``-inf`` without a warning.
    Returns a float for a full reduction and an array otherwise.
    """
    a = np.asarray(a, dtype=float)
    top = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return float(out.reshape(())) if axis is None else np.squeeze(out, axis=axis)


@cache
def _log_factorial_table() -> np.ndarray:
    table = np.array([math.lgamma(k + 1.0) for k in range(_TABLE_SIZE)])
    table.setflags(write=False)
    return table


def log_factorial(x):
    """``log(x!)`` for nonnegative integers: a scalar, or an array of ints or integral floats.

    Arrays below 2**16 are looked up in a table of ``math.lgamma``; larger
    entries (unseen-column counts reach 1e11) call ``math.lgamma`` one by one.
    A scalar gives a float, an array an array of the same shape.
    """
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        if x < 0:
            raise ValueError("log_factorial needs nonnegative integers")
        return math.lgamma(float(x) + 1.0)
    x = np.rint(np.asarray(x, dtype=float))
    if x.size and x.min() < 0:
        raise ValueError("log_factorial needs nonnegative integers")
    large = x >= _TABLE_SIZE
    out = _log_factorial_table()[np.where(large, 0, x).astype(np.int64)]
    if np.any(large):
        out[large] = [math.lgamma(v + 1.0) for v in x[large]]
    return out
