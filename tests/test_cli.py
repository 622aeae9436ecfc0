import json
import math

import pytest
from click.testing import CliRunner

from pml.cli import main


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


def test_estimate_d_command(tmp_path, runner):
    s1 = write(tmp_path, "s1.txt", "a\na\n")
    s2 = write(tmp_path, "s2.txt", "a\na\n")
    joint = runner.invoke(main, ["profile", s1, s2]).output
    dp_path = write(tmp_path, "dp.json", joint)
    result = runner.invoke(
        main,
        ["estimate-d", dp_path, "--eps1", "1.0", "--eps2", "1.0", "--property", "kl"],
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert "kl" in data["estimates"]
    assert len(data["mass"]) == 2
    mismatched = runner.invoke(main, ["estimate-d", dp_path, "--d", "3"])
    assert mismatched.exit_code == 1


def test_estimate_multiple_profiles(tmp_path, runner):
    first = write(tmp_path, "a.json", '{"pairs": [[2, 1]]}')
    second = write(tmp_path, "b.json", '{"pairs": [[1, 2]]}')
    result = runner.invoke(
        main, ["estimate", first, second, "--eps1", "1.0", "--eps2", "1.0"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert isinstance(data, list) and len(data) == 2


@pytest.mark.parametrize(
    "command, text, args, code",
    [
        ("estimate", '{"pairs": [[2, 2], [1, 1]]}', ["--property", "coverage:abc"], 1),
        ("estimate", '{"pairs": [[1, 0]]}', [], 1),
        ("estimate", '{"pairs": [[2, -1]]}', [], 1),
        ("estimate", '{"pairs": [[1, 5]]}', ["--property", "uniformity:3"], 1),
        ("estimate-d", '{"d": 2, "entries": [[[1, 0], 0]]}', [], 1),
        ("estimate-d", '{"d": 2, "entries": [[[0, 0], 1]]}', [], 1),
        # n = 100000 puts grid levels near 5e-11; the solve must still certify.
        ("estimate", '{"pairs": [[1, 100000]]}', [], 0),
        ("estimate-d", '{"d": 2, "entries": [[[1, 1], 1]]}', ["--delta", "0"], 1),
        ("estimate-d", '{"d": 2, "entries": [[[1, 1], 1]]}', ["--delta", "-1"], 1),
        ("estimate", '{"pairs": [[1, 2]]}', ["--delta", "nan"], 1),
        ("estimate", '{"pairs": [[1, 2]]}', ["--delta", "inf"], 1),
        # exact reads the profile and the distribution from the same file.
        ("exact", '{"pairs": [[1, 2]], "probs": [-0.5, 1.5]}', ["{path}"], 1),
        ("exact", '{"pairs": [[1, 2]], "probs": []}', ["{path}"], 1),
        ("exact", '{"pairs": [[1, 2]], "probs": "abc"}', ["{path}"], 1),
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
