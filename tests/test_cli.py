import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import pml
from pml.cli import main
from pml.grids import GridSizeError
from pml.multi import build_d_grids


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_profile_command_examples(tmp_path, runner):
    samples = write(tmp_path, "s.txt", "a\nb\na\nb\nc\n")
    result = runner.invoke(main, ["profile", samples])
    assert result.exit_code == 0
    assert json.loads(result.output) == {"pairs": [[2, 2], [1, 1]]}

    single = write(tmp_path, "one.txt", "x\n")
    result = runner.invoke(main, ["profile", single])
    assert json.loads(result.output) == {"pairs": [[1, 1]]}

    constant = write(tmp_path, "c.txt", "q\nq\nq\nq\nq\n")
    result = runner.invoke(main, ["profile", constant])
    assert json.loads(result.output) == {"pairs": [[5, 1]]}


def test_profile_command_rejects_empty_line(tmp_path, runner):
    bad = write(tmp_path, "bad.txt", "a\n\nb\n")
    result = runner.invoke(main, ["profile", bad])
    assert result.exit_code == 1
    assert ":2:" in result.output


def test_profile_two_files_emits_joint_profile(tmp_path, runner):
    s1 = write(tmp_path, "s1.txt", "a\nb\n")
    s2 = write(tmp_path, "s2.txt", "a\na\n")
    result = runner.invoke(main, ["profile", s1, s2])
    assert json.loads(result.output) == {"d": 2, "entries": [[[1, 2], 1], [[1, 0], 1]]}


def test_profile_of_four_files_exits_cleanly(tmp_path, runner):
    samples = write(tmp_path, "s.txt", "a\nb\n")
    result = runner.invoke(main, ["profile", samples, samples, samples, samples])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.strip().splitlines() == ["Error: need between 1 and 3 sequences"]


def test_estimate_round_trip_and_fields(tmp_path, runner):
    samples = write(tmp_path, "s.txt", "a\nb\na\nb\nc\n")
    profile_json = runner.invoke(main, ["profile", samples]).output
    profile_path = write(tmp_path, "p.json", profile_json)
    result = runner.invoke(
        main,
        ["estimate", profile_path, "--eps1", "1.0", "--eps2", "1.0",
         "--property", "entropy", "--property", "support"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert float(data["mass"]) == pytest.approx(1.0, abs=1e-9)
    assert "entropy" in data["estimates"]
    assert data["certified"] is True
    assert data["diagnostics"]["d"] == 1


def test_estimate_point_mass_support(tmp_path, runner):
    profile_path = write(tmp_path, "p.json", '{"pairs": [[4, 1]]}')
    result = runner.invoke(
        main, ["estimate", profile_path, "--eps1", "1.0", "--eps2", "1.0",
               "--property", "support"]
    )
    data = json.loads(result.output)
    assert data["estimates"]["support"] == 1


def test_estimate_usage_errors(tmp_path, runner):
    profile_path = write(tmp_path, "p.json", '{"pairs": [[1, 2]]}')
    assert runner.invoke(main, ["estimate", profile_path, "--eps1", "2.0"]).exit_code == 1
    assert runner.invoke(main, ["estimate", profile_path, "--delta", "-1"]).exit_code == 1
    bad_json = write(tmp_path, "bad.json", "{nope")
    assert runner.invoke(main, ["estimate", bad_json]).exit_code == 1
    missing = write(tmp_path, "m.json", '{"other": 1}')
    assert runner.invoke(main, ["estimate", missing]).exit_code == 1


def test_estimate_output_is_byte_stable(tmp_path, runner):
    profile_path = write(tmp_path, "p.json", '{"pairs": [[2, 2], [1, 1]]}')
    args = ["estimate", profile_path, "--eps1", "1.0", "--eps2", "1.0"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second


def test_estimate_output_is_byte_stable_at_a_fixed_blas_thread_count(tmp_path):
    # n = 10 000 draws from Zipf(1) over k = 5 000 symbols (default_rng(0)).
    # Threaded BLAS products sum in another order, so the 17-digit output
    # may move in its last bits with the thread count (entropy
    # 6.2279621617719085 on one thread, 6.2279621618757286 on two), but not
    # from one run to the next.
    p = 1.0 / np.arange(1, 5001)
    sample = np.random.default_rng(0).choice(5000, size=10_000, p=p / p.sum())
    profile = pml.profile_of_sequence(sample.tolist())
    path = write(tmp_path, "zipf.json", json.dumps(profile.to_dict()))

    def estimate(threads: int) -> str:
        env = {**os.environ, "PYTHONPATH": str(Path(pml.__file__).resolve().parents[1]),
               **{var: str(threads) for var in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
        proc = subprocess.run([sys.executable, "-m", "pml.cli", "estimate", path,
                               "--property", "entropy"],
                              capture_output=True, text=True, env=env, check=True, timeout=120)
        return proc.stdout

    first, second, threaded = estimate(1), estimate(1), estimate(2)
    assert first == second
    one, two = json.loads(first), json.loads(threaded)
    assert one["certified"] and two["certified"]
    assert float(two["estimates"]["entropy"]) == pytest.approx(
        float(one["estimates"]["entropy"]), abs=1e-6)


def test_estimate_plain_format_and_output_file(tmp_path, runner):
    profile_path = write(tmp_path, "p.json", '{"pairs": [[2, 1]]}')
    out_path = tmp_path / "out.txt"
    result = runner.invoke(
        main,
        ["estimate", profile_path, "--eps1", "1.0", "--eps2", "1.0",
         "--format", "plain", "--output", str(out_path)],
    )
    assert result.exit_code == 0
    text = out_path.read_text()
    assert "mass = " in text


def test_exact_command(tmp_path, runner):
    profile_path = write(tmp_path, "p.json", '{"pairs": [[1, 2]]}')
    dist_path = write(tmp_path, "d.json", '{"probs": [0.5, 0.5]}')
    result = runner.invoke(main, ["exact", profile_path, dist_path])
    assert result.exit_code == 0
    assert float(result.output) == pytest.approx(math.log(0.5), abs=1e-12)

    point = write(tmp_path, "pm.json", '{"pairs": [[6, 1]]}')
    one = write(tmp_path, "one.json", '{"probs": [1.0]}')
    assert float(runner.invoke(main, ["exact", point, one]).output) == 0.0

    big = write(tmp_path, "big.json", '{"pairs": [[50, 1]]}')
    result = runner.invoke(main, ["exact", big, one])
    assert result.exit_code == 3


def test_bruteforce_command(tmp_path, runner):
    profile_path = write(tmp_path, "p.json", '{"pairs": [[1, 2]]}')
    result = runner.invoke(
        main, ["bruteforce", profile_path, "--support-cap", "5", "--resolution", "10"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert float(data["logprob"]) == pytest.approx(math.log(1 - 1 / 5))

    big = write(tmp_path, "big.json", '{"pairs": [[50, 1]]}')
    assert runner.invoke(main, ["bruteforce", big]).exit_code == 3
    # Far more candidate distributions than the search may score.
    fine = write(tmp_path, "fine.json", '{"pairs": [[1, 3]]}')
    result = runner.invoke(main, ["bruteforce", fine, "--resolution", "200"])
    assert result.exit_code == 3
    assert len(result.stderr.strip().splitlines()) == 1
    assert "candidate distributions" in result.stderr


def test_estimate_d_command(tmp_path, runner):
    # estimate reads the joint profile that profile writes for two files.
    s1 = write(tmp_path, "s1.txt", "a\na\n")
    s2 = write(tmp_path, "s2.txt", "a\na\n")
    joint = runner.invoke(main, ["profile", s1, s2]).output
    dp_path = write(tmp_path, "dp.json", joint)
    result = runner.invoke(
        main,
        ["estimate", dp_path, "--eps1", "1.0", "--eps2", "1.0", "--property", "kl"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert "kl" in data["estimates"]
    assert len(data["mass"]) == 2


def test_estimate_multiple_profiles(tmp_path, runner):
    first = write(tmp_path, "a.json", '{"pairs": [[2, 1]]}')
    second = write(tmp_path, "b.json", '{"pairs": [[1, 2]]}')
    result = runner.invoke(
        main, ["estimate", first, second, "--eps1", "1.0", "--eps2", "1.0"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert isinstance(data, list) and len(data) == 2


def test_one_estimate_call_takes_profiles_and_joint_profiles(tmp_path, runner):
    profile = write(tmp_path, "a.json", '{"pairs": [[2, 2], [1, 1]]}')
    joint = write(tmp_path, "joint.json", '{"d": 2, "entries": [[[1, 0], 2], [[0, 1], 2], [[1, 1], 1]]}')
    props = ["--property", "support"]
    result = runner.invoke(main, ["estimate", profile, joint, *props])
    assert result.exit_code == 0, result.output
    alone = [json.loads(runner.invoke(main, ["estimate", path, *props]).stdout)
             for path in (profile, joint)]
    assert json.loads(result.stdout) == alone
    assert [item["diagnostics"]["d"] for item in alone] == [1, 2]


@pytest.mark.parametrize("args", [
    ["estimate", "{path}", "--bogus"],
    ["estimate"],
    ["estimate", "{path}", "--eps1", "abc"],
    ["estimate", "{path}", "--format", "xml"],
    ["estimate", "{path}.missing"],
    ["nosuch"],
])
def test_usage_errors_exit_1(tmp_path, runner, args):
    # Exit 2 is kept for an uncertified result; click's usage errors default to it.
    path = write(tmp_path, "p.json", '{"pairs": [[2, 2], [1, 1]]}')
    args = [a.replace("{path}", path) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stderr.strip().splitlines()[-1].startswith("Error: ")
    with pytest.raises(click.UsageError) as raised:
        main.main(args, standalone_mode=False)
    assert raised.value.exit_code == 1


def test_an_uncertified_estimate_exits_2_and_still_emits(tmp_path, runner):
    # No solve reaches a gap of 1e-300; this one stops after 54 Newton steps
    # at a gap of 4.45e-11.
    path = write(tmp_path, "p.json", '{"pairs": [[2, 2], [1, 1]]}')
    result = runner.invoke(main, ["estimate", path, "--delta", "1e-300"])
    assert result.exit_code == 2, result.output
    assert json.loads(result.stdout)["certified"] is False


@pytest.mark.parametrize(
    "command, text, args, code",
    [
        ("estimate", '{"pairs": [[2, 2], [1, 1]]}', ["--property", "coverage:abc"], 1),
        ("estimate", '{"pairs": [[1, 0]]}', [], 1),
        ("estimate", '{"pairs": [[2, -1]]}', [], 1),
        ("estimate", '{"pairs": [[1, 5]]}', ["--property", "uniformity:3"], 1),
        ("estimate", '{"d": 2, "entries": [[[1, 0], 0]]}', [], 1),
        ("estimate", '{"d": 2, "entries": [[[0, 0], 1]]}', [], 1),
        # n = 100000 puts grid levels near 5e-11; the solve must still certify.
        ("estimate", '{"pairs": [[1, 100000]]}', [], 0),
        ("estimate", '{"d": 2, "entries": [[[1, 1], 1]]}', ["--delta", "0"], 1),
        ("estimate", '{"d": 2, "entries": [[[1, 1], 1]]}', ["--delta", "-1"], 1),
        ("estimate", '{"pairs": [[1, 2]]}', ["--delta", "nan"], 1),
        ("estimate", '{"pairs": [[1, 2]]}', ["--delta", "inf"], 1),
        # exact reads the profile and the distribution from the same file.
        ("exact", '{"pairs": [[1, 2]], "probs": [-0.5, 1.5]}', ["{path}"], 1),
        ("exact", '{"pairs": [[1, 2]], "probs": []}', ["{path}"], 1),
        ("exact", '{"pairs": [[1, 2]], "probs": "abc"}', ["{path}"], 1),
        # Non-integral numbers, strings and booleans are refused, not truncated.
        ("estimate", '{"pairs": [[1.5, 2]]}', [], 1),
        ("estimate", '{"pairs": [[2, 2.5]]}', [], 1),
        ("estimate", '{"pairs": [["2", 2]]}', [], 1),
        ("estimate", '{"pairs": [[2, "x"]]}', [], 1),
        ("estimate", '{"pairs": [[true, 2]]}', [], 1),
        ("estimate", '{"pairs": [[2, false]]}', [], 1),
        ("estimate", '{"d": 2, "entries": [[[1.5, 1], 1]]}', [], 1),
        ("estimate", '{"d": 2, "entries": [[[1, 1], true]]}', [], 1),
        ("estimate", '{"d": 2, "entries": [[[1], 1]]}', [], 1),
        # Non-finite entries and a total above one are not a pseudo-distribution.
        ("exact", '{"pairs": [[1, 2]], "probs": [NaN, 0.5, 0.5]}', ["{path}"], 1),
        ("exact", '{"pairs": [[1, 2]], "probs": [Infinity, 0.5]}', ["{path}"], 1),
        ("exact", '{"pairs": [[1, 2]], "probs": [1e308, 1e308]}', ["{path}"], 1),
        ("exact", '{"pairs": [[1, 2]], "probs": [0.5, 0.7]}', ["{path}"], 1),
        ("bruteforce", '{"pairs": [[1, 2]]}', ["--support-cap", "0"], 1),
        # A joint estimate takes support and kl.
        ("estimate", '{"d": 2, "entries": [[[1, 1], 1]]}',
         ["--property", "support", "--property", "kl"], 0),
        ("estimate", '{"d": 2, "entries": [[[1, 0], 2], [[0, 1], 2], [[1, 1], 1]]}',
         ["--property", "support", "--property", "kl"], 0),
        # A huge d is refused before anything d long is built.
        ("estimate", '{"d": 1000000000000, "entries": []}', [], 1),
        # A coordinate with no sample, and tuples of two lengths.
        ("estimate", '{"d": 2, "entries": [[[1, 0], 2]]}', [], 1),
        ("estimate", '{"d": 3, "entries": [[[0, 0, 1], 1]]}', [], 1),
        ("estimate", '{"d": 2, "entries": [[[1, 1], 1], [[1], 1]]}', [], 1),
        # A count of 1e300 makes n too large for a float; the grid is refused first.
        ("estimate", '{"pairs": [[1, 1e300]]}', [], 1),
        ("estimate", '{"d": 2, "entries": [[[1, 1], 1e300]]}', [], 1),
        # Coarse grids pass the level-count checks, but the length is too
        # large for a float (2 n^2) or for the int64 frequency values.
        ("estimate", '{"pairs": [[1, 1e300]]}', ["--eps1", "1", "--eps2", "1"], 1),
        ("estimate", '{"pairs": [[1, 1e150]]}', ["--eps1", "1", "--eps2", "1"], 1),
        ("estimate", '{"d": 2, "entries": [[[1, 1], 1e150]]}', ["--eps1", "1", "--eps2", "1"], 1),
        # A property with an argument it does not take, without one it needs,
        # and one that does not exist.
        ("estimate", '{"pairs": [[2, 2], [1, 1]]}', ["--property", "entropy:3"], 1),
        ("estimate", '{"pairs": [[2, 2], [1, 1]]}', ["--property", "coverage"], 1),
        ("estimate", '{"pairs": [[2, 2], [1, 1]]}', ["--property", "bogus"], 1),
        # A joint profile whose entries are not a list.
        ("estimate", '{"d": 2, "entries": 5}', [], 1),
    ],
)
def test_bad_and_extreme_inputs_exit_cleanly(tmp_path, runner, command, text, args, code):
    path = write(tmp_path, "p.json", text)
    result = runner.invoke(main, [command, path, *(a.replace("{path}", path) for a in args)])
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if code == 1:
        assert len(result.stderr.strip().splitlines()) == 1
    else:
        assert json.loads(result.stdout)["certified"] is True


def test_budgets_beyond_int64_keep_the_diagnostics_finite(tmp_path, runner):
    # n = 2e17 at eps = 1: the smallest level is about 1 / (2 n^2), so a
    # row's cap and the budget in units of that level pass int64. Cast to
    # int64 they were garbage, with three "invalid value encountered in
    # cast" warnings and three diagnostics reported as nan.
    path = write(tmp_path, "p.json", '{"pairs": [[2, 1e17]]}')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["estimate", path, "--eps1", "1", "--eps2", "1"])
    assert result.exit_code == 0, result.output
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    diagnostics = json.loads(result.stdout)["diagnostics"]
    assert diagnostics["assignment_count_method"] == "bound"
    for key in ("log_num_assignments", "slack_relax_upper", "slack_total"):
        assert math.isfinite(float(diagnostics[key])), key


JOINT_PAIRS = [
    '{"d": 2, "entries": [[[1, 1], 1]]}',
    '{"d": 2, "entries": [[[1, 0], 2], [[0, 1], 2], [[1, 1], 1]]}',
]


@pytest.mark.parametrize("text", JOINT_PAIRS)
@pytest.mark.parametrize("prop", ["entropy", "coverage:3", "uniformity:5"])
def test_joint_estimate_refuses_one_sequence_properties(tmp_path, runner, text, prop):
    path = write(tmp_path, "dp.json", text)
    result = runner.invoke(main, ["estimate", path, "--property", prop])
    assert result.exit_code == 1, result.output
    assert len(result.stderr.strip().splitlines()) == 1
    assert "defined at d = 1 only" in result.stderr


@pytest.mark.parametrize(
    "command, text, n, eps1",
    [
        # About 4e9 levels (29 GiB) on the one coordinate.
        ("estimate", '{"pairs": [[2, 2], [1, 1]]}', (5,), "1e-9"),
        # About 2e4 and 3.5e4 levels per coordinate, 7e8 in the product grid.
        ("estimate", '{"d": 2, "entries": [[[1, 2], 2]]}', (2, 4), "1e-4"),
    ],
)
def test_oversized_probability_grid_exits_cleanly(tmp_path, runner, command, text, n, eps1):
    # The grid build must refuse these before the CLI runs, so that no test
    # ever allocates them.
    with pytest.raises(GridSizeError):
        build_d_grids(n, (float(eps1),) * len(n), (1.0,) * len(n))
    path = write(tmp_path, "p.json", text)
    result = runner.invoke(main, [command, path, "--eps1", eps1])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert len(result.stderr.strip().splitlines()) == 1
    assert "levels" in result.stderr


def test_tiny_eps2_runs_and_an_oversized_frequency_grid_exits_cleanly(tmp_path, runner):
    # eps2 = 1e-12 leaves the n = 5 frequency grid at 1..5; a ladder climbed
    # one rung at a time from k = 1 would take days.
    small = write(tmp_path, "small.json", '{"pairs": [[2, 2], [1, 1]]}')
    result = runner.invoke(main, ["estimate", small, "--eps2", "1e-12"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["certified"] is True
    # n = 2e6 at eps2 = 1e-6: an integer run of 1e6 and a ladder of 1.4e6
    # steps, refused before either is built.
    big = write(tmp_path, "big.json", '{"pairs": [[2000000, 1]]}')
    result = runner.invoke(main, ["estimate", big, "--eps2", "1e-6"])
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert len(result.stderr.strip().splitlines()) == 1
    assert "frequency grid" in result.stderr
