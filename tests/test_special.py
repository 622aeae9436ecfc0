"""The numpy replacements for scipy routines, checked against scipy itself."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

import pml
from pml._special import log_factorial, logsumexp


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, pml.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(Path(pml.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_logsumexp_matches_scipy(rng):
    a = 50.0 * rng.standard_normal((40, 7))
    a[3, 2] = -np.inf
    for axis in (None, 0, 1):
        np.testing.assert_allclose(logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis),
                                   rtol=1e-14)
    assert isinstance(logsumexp(a[0]), float)


def test_logsumexp_of_nothing_is_minus_inf():
    # The suite runs with RuntimeWarning as an error, so these also check
    # that no divide-by-zero warning escapes.
    rows = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
    assert logsumexp(rows, axis=1).tolist() == [-np.inf, 0.0]
    assert logsumexp([]) == -np.inf
    assert logsumexp(np.full(3, -np.inf)) == -np.inf
    assert logsumexp(np.zeros((0, 4)), axis=0).tolist() == [-np.inf] * 4
    assert logsumexp(np.zeros((4, 0)), axis=1).tolist() == [-np.inf] * 4


def test_logsumexp_of_a_wide_row_is_exact_without_underflow():
    # A row spanning [-20000, 0] with terms at e^-720, which are subnormal,
    # shifted by 0 and by 37.25. Every exp must stay normal (numpy's exp is
    # many times slower when it underflows), the result must match an exact
    # math.fsum reference to one ulp, and the clip may only raise it.
    row = np.concatenate([[0.0, -0.5, -3.0, -30.0, -700.0, -708.0], np.full(5, -720.0),
                          np.linspace(-20000.0, -750.0, 40)])
    exact = math.log(math.fsum(math.exp(x) for x in row))
    rows = np.stack([row, row + 37.25])
    with np.errstate(under="raise"):
        got = [logsumexp(row), *logsumexp(rows, axis=1)]
    for value, ref in zip(got, [exact, exact, exact + 37.25]):
        assert abs(value - ref) <= math.ulp(ref)
        assert value >= ref


def test_logsumexp_of_a_row_holding_plus_inf_is_plus_inf():
    rows = np.array([[0.0, np.inf, -np.inf], [np.inf, -5.0, 1.0]])
    assert logsumexp(rows, axis=1).tolist() == [np.inf, np.inf]
    assert logsumexp([1.0, np.inf]) == np.inf


@pytest.mark.parametrize("k", [0, 1, 2**16 - 1, 2**16, 2**16 + 1, 10**11])
def test_log_factorial_edges_within_one_ulp(k):
    ref = float(gammaln(k + 1.0))
    ulp = np.spacing(max(ref, np.finfo(float).tiny))
    assert abs(log_factorial(k) - ref) <= ulp
    assert abs(log_factorial(np.array([k]))[0] - ref) <= ulp
    assert abs(log_factorial(np.array([float(k)]))[0] - ref) <= ulp


def test_log_factorial_arrays_match_scipy():
    # Across the lookup table and past it, in one array; math.lgamma and
    # scipy's gammaln differ by a few ulp at most.
    k = np.concatenate([np.arange(0, 2**16 + 50), [1e6, 3e7, 1e9, 1e11]])
    out = log_factorial(k)
    assert out.shape == k.shape
    np.testing.assert_allclose(out, gammaln(k + 1.0), rtol=8 * np.finfo(float).eps, atol=0)
    stacked = k[:24].reshape(2, 3, 4)
    assert np.array_equal(log_factorial(stacked), out[:24].reshape(2, 3, 4))
    with pytest.raises(ValueError):
        log_factorial(np.array([3, -1]))
