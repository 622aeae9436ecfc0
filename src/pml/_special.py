"""The package's log-space special functions, in numpy.

``logsumexp`` and ``log_factorial`` (``gammaln(x + 1)`` at integers) are the
only ones it needs. Keeping them here means importing ``pml``, and so every
``pml`` command's start-up, loads no scipy module.

``clipped_exp`` raises every exponent to at least ``EXP_FLOOR`` = -700, where
``exp`` is still a normal double. numpy's ``exp`` (2.4, x86-64) is 4 to 40
times slower on arguments whose results underflow, to a subnormal number or
to zero, than on normal ones, and the solver's row terms span thousands of
log units. The clip can only raise a term, so a sum of clipped exponentials
never undercounts.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = ["EXP_FLOOR", "clipped_exp", "logsumexp", "log_factorial"]

_TABLE_SIZE = 1 << 16
EXP_FLOOR = -700.0  # exp(-708.4) is the smallest normal double


def clipped_exp(x):
    """``exp(max(x, EXP_FLOOR))``: never subnormal or zero, and never below ``exp(x)``."""
    return np.exp(np.maximum(x, EXP_FLOOR))


def logsumexp(a, axis: int | None = None):
    """``log(sum(exp(a)))`` over ``axis`` (all entries when None), shifted by the max.

    The shifted exponents are clipped from below at ``EXP_FLOOR``
    (:func:`clipped_exp`), so no ``exp`` underflows. The largest term is one,
    so the clip moves the result by at most ``n e^-700`` relative: it is
    lost in roundoff, and it only ever raises the sum. A slice that is
    empty or all ``-inf`` gives ``-inf`` without a warning, and one holding
    ``+inf`` gives ``+inf``. Returns a float for a full reduction and an
    array otherwise.
    """
    a = np.asarray(a, dtype=float)
    if axis is None and a.size:  # a finite max needs no masking: the common case, fast
        top = float(a.max())
        if math.isfinite(top):
            return float(np.log(clipped_exp(a - top).sum()) + top)
    top = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(clipped_exp(a - shift), axis=axis, keepdims=True)) + shift
    out = np.where(top == -np.inf, -np.inf, out)  # the clip would lift these to -699
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
