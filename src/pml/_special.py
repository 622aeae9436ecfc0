"""The package's log-space special functions, in numpy.

``logsumexp`` and ``log_factorial`` (``gammaln(x + 1)`` at integers) are the
only ones it needs. Keeping them here means importing ``pml``, and so every
``pml`` command's start-up, loads no scipy module.

``log_factorial`` looks array entries below 2**16 up in a table of
``math.lgamma`` that grows on demand: a call extends it to the next power of
two above its largest such entry, so a process builds only as far as its
calls reach. Every ``pml`` call is a fresh process, and building all 65 536
entries takes about 20 ms, more than a small profile's whole solve, which
asks for nothing past entry 40. The table is one float array, filled by
``np.fromiter`` with no Python list in between: a list of 65 280 floats
cost 2 MB of objects for a 0.5 MB table, and growing it to 2**16 entries
peaked at 3.2 MB under ``tracemalloc``, against 1.05 MB now (the old table
and the new one). A lookup of an array holds one array of its shape, the
result, which the rounded argument is overwritten with; its int64 indices
are made 16 384 at a time.

``clipped_exp`` raises every exponent to at least ``EXP_FLOOR`` = -700, where
``exp`` is still a normal double. numpy's ``exp`` (2.4, x86-64) is 4 to 40
times slower on arguments whose results underflow, to a subnormal number or
to zero, than on normal ones, and the solver's row terms span thousands of
log units. The clip can only raise a term, so a sum of clipped exponentials
never undercounts.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["EXP_FLOOR", "clipped_exp", "logsumexp", "log_factorial"]

_TABLE_SIZE = 1 << 16
_BLOCK = 1 << 14  # entries looked up per int64 index array (128 kB)
EXP_FLOOR = -700.0  # exp(-708.4) is the smallest normal double


def clipped_exp(x):
    """``exp(max(x, EXP_FLOOR))``: never subnormal or zero, and never below ``exp(x)``."""
    return np.exp(np.maximum(x, EXP_FLOOR))


def logsumexp(a) -> float:
    """``log(sum(exp(a)))`` over every entry, shifted by the max.

    The shifted exponents are clipped from below at ``EXP_FLOOR``
    (:func:`clipped_exp`), so no ``exp`` underflows. The largest term is one,
    so the clip moves the result by at most ``n e^-700`` relative: it is
    lost in roundoff, and it only ever raises the sum. A max that is not
    finite is the result, without a warning: ``-inf`` for an empty or
    all ``-inf`` input, ``+inf`` for one holding ``+inf``, NaN for one
    holding NaN.
    """
    a = np.asarray(a, dtype=float)
    top = float(a.max(initial=-np.inf))
    if not math.isfinite(top):
        return top
    return float(np.log(clipped_exp(a - top).sum()) + top)


_table = np.zeros(0)  # log(k!) for k below its size, grown by _log_factorial_table


def _log_factorial_table(top: int) -> np.ndarray:
    """The table of ``math.lgamma(k + 1.0)``, grown to cover ``k = top`` (below 2**16).

    It grows to the next power of two above ``top``, so growing to any size
    costs at most twice the entries it needs. Entries are appended, never
    recomputed, and each is the same ``math.lgamma`` value whenever it is
    built, so no result depends on the calls made before it.
    """
    global _table
    table = _table  # one read: another thread may swap in a smaller table
    if top >= table.size:
        size = min(_TABLE_SIZE, 1 << top.bit_length())
        grown = np.empty(size)
        grown[: table.size] = table
        grown[table.size:] = np.fromiter(
            (math.lgamma(k + 1.0) for k in range(table.size, size)), float, size - table.size)
        table = grown
        table.setflags(write=False)
        _table = table
    return table


def log_factorial(x):
    """``log(x!)`` for nonnegative integers: a scalar, or an array of ints or integral floats.

    Array entries below 2**16 are looked up in a table of ``math.lgamma``,
    grown only as far as the largest of them (see
    :func:`_log_factorial_table`); a scalar, and larger entries (unseen-column
    counts reach 1e11), call ``math.lgamma`` directly. So every value is
    ``math.lgamma(x + 1.0)`` bit for bit. A scalar gives a float, an array an
    array of the same shape.
    """
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        if x < 0:
            raise ValueError("log_factorial needs nonnegative integers")
        return math.lgamma(float(x) + 1.0)
    x = np.rint(x, dtype=float, order="C")  # a new array, which becomes the result
    if x.size and x.min() < 0:
        raise ValueError("log_factorial needs nonnegative integers")
    large = x >= _TABLE_SIZE
    big = x[large]
    x[large] = 0.0
    table = _log_factorial_table(int(x.max(initial=0.0)))
    flat = x.reshape(-1)  # a view: x is C-contiguous
    for start in range(0, flat.size, _BLOCK):  # int64 indices a block at a time
        block = flat[start:start + _BLOCK]
        # With an out array, mode="raise" buffers a copy of it; every index is in range.
        np.take(table, block.astype(np.int64), out=block, mode="clip")
    if big.size:
        x[large] = np.fromiter((math.lgamma(v + 1.0) for v in big), float, big.size)
    return x
