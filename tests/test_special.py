"""The numpy replacements for scipy routines, checked against scipy itself."""

import math

import numpy as np
import pytest
from scipy.special import gammaln
from scipy.special import logsumexp as scipy_logsumexp

from pml import _special
from pml._special import log_factorial, logsumexp
from conftest import run_python


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, pml.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert run_python(code).strip() == "[]"


def test_a_small_estimate_builds_a_small_log_factorial_table(tmp_path):
    # n = 40: no call asks past entry 40, so the table stops at 64 entries,
    # not 2**16.
    path = tmp_path / "profile.json"
    path.write_text('{"pairs": [[6, 1], [5, 2], [3, 2], [2, 7], [1, 4]]}')
    code = (
        "import contextlib, io, pml.cli, pml._special\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    pml.cli.main(['estimate', {str(path)!r}], standalone_mode=False)\n"
        "print(pml._special._table.size)"
    )
    size = int(run_python(code))
    assert 0 < size <= 64


def test_growing_the_log_factorial_table_makes_no_python_floats():
    # From empty to all 2**16 entries in a fresh interpreter: the old table
    # and the new one (0.5 MB) are all it may hold. Built through a list of
    # 65 280 Python floats, the growth peaked at 3.2 MB.
    code = (
        "import tracemalloc\n"
        "import numpy as np\n"
        "from pml import _special\n"
        "assert _special._table.size == 0\n"
        "tracemalloc.start()\n"
        "_special.log_factorial(np.array([2**16 - 1]))\n"
        "assert _special._table.size == 2**16\n"
        "print(tracemalloc.get_traced_memory()[1])"
    )
    assert int(run_python(code)) < 1.5e6


@pytest.mark.parametrize("order", [1, -1], ids=["small-first", "large-first"])
def test_log_factorial_is_lgamma_bit_for_bit_in_any_order(monkeypatch, order):
    # The table grows on demand; each entry must be math.lgamma(k + 1.0)
    # exactly, whichever arguments built it.
    monkeypatch.setattr(_special, "_table", np.zeros(0))
    ks = [0, 63, 64, 65, 1023, 1024, 2**16 - 1, 2**16][::order]
    top = 0  # the largest tabled argument so far
    for k in ks:
        expected = math.lgamma(k + 1.0)
        assert log_factorial(np.array([k]))[0] == expected
        assert log_factorial(k) == expected
        if k < 2**16:
            top = max(top, k)
        assert _special._table.size == 2 ** top.bit_length()
    assert log_factorial(np.array(ks)).tolist() == [math.lgamma(k + 1.0) for k in ks]


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
