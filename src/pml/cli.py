"""File-based front door: profiles from samples, approximate PML, property estimates.

Exit codes: 0 success, 1 usage or parse error, 2 solver result not certified
(the result is still emitted), 3 oracle size guard exceeded.

Each command imports the layers it runs, so a call pays only for those: only
``estimate`` imports ``pipeline``, and only ``exact`` and ``bruteforce`` import
the oracles. Layers are called through their modules' attributes, so a patch
on a module reaches the commands.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import estimators
from .grids import GridSizeError
from .multi import DProfile, d_profile_of
from .profiles import Profile, profile_of_sequence

# Usage and parse errors exit 1 via ClickException (click's own via _Group).
EXIT_NOT_CERTIFIED = 2
EXIT_SIZE_GUARD = 3


def _fmt(value):
    """Fixed 17-significant-digit decimal strings keep output byte-stable."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _emit(data, output: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(_fmt(data), indent=2, sort_keys=True)
    else:
        lines = []

        def walk(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    walk(f"{prefix}{k}.", value[k])
            elif isinstance(value, (list, tuple)):
                for i, v in enumerate(value):
                    walk(f"{prefix}{i}.", v)
            else:
                out = _fmt(value)
                lines.append(f"{prefix[:-1]} = {out}")

        walk("", data)
        text = "\n".join(lines)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _read_tokens(path: str) -> list[str]:
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.rstrip("\n")
            if not token:
                raise click.ClickException(f"{path}:{lineno}: empty sample token")
            tokens.append(token)
    if not tokens:
        raise click.ClickException(f"{path}: no samples")
    return tokens


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc


def _validate_eps(_ctx, param, value):
    if value is not None and not 0 < value <= 1:
        raise click.ClickException(f"{param.name} must lie in (0, 1]")
    return value


def _validate_delta(_ctx, param, value):
    if value is not None and not (value > 0 and math.isfinite(value)):
        raise click.ClickException(f"{param.name} must be a positive finite number")
    return value


def _parse_properties(props: tuple[str, ...]) -> list[tuple[str, int | None]]:
    parsed = []
    for raw in props:
        name, _, arg = raw.partition(":")
        if name in ("entropy", "support", "kl"):
            if arg:
                raise click.ClickException(f"property {name} takes no argument")
            parsed.append((name, None))
        elif name in ("coverage", "uniformity"):
            if not arg:
                raise click.ClickException(f"property {name} needs an argument, e.g. {name}:10")
            try:
                parsed.append((name, int(arg)))
            except ValueError:
                raise click.ClickException(f"property {name} needs an integer: {raw!r}") from None
        else:
            raise click.ClickException(f"unknown property {raw!r}")
    return parsed


def _read_profile(path: str, joint: bool = False):
    """The Profile in a JSON file, or with ``joint`` a DProfile (read as one if
    the file has a ``d`` or ``entries`` key); malformed data exits 1."""
    data = _load_json(path)
    try:
        if joint and isinstance(data, dict) and ("d" in data or "entries" in data):
            return DProfile.from_dict(data)
        profile = Profile.from_dict(data)
        return DProfile.from_profile(profile) if joint else profile
    except ValueError as exc:
        raise click.ClickException(f"{path}: {exc}") from None


def _estimate_properties(dist, props) -> dict:
    out = {}
    for name, arg in props:
        try:
            if name == "entropy":
                out["entropy"] = estimators.entropy(dist)
            elif name == "support":
                out["support"] = estimators.support_size(dist)
            elif name == "coverage":
                out[f"coverage:{arg}"] = estimators.support_coverage(dist, arg)
            elif name == "uniformity":
                out[f"uniformity:{arg}"] = estimators.distance_to_uniformity(dist, arg)
            elif name == "kl":
                out["kl"] = estimators.kl_plugin(dist)
        except ValueError as exc:
            raise click.ClickException(f"property {name}: {exc}") from None
    return out


@contextmanager
def _usage_error_exits_1():
    try:
        yield
    except click.UsageError as err:
        err.exit_code = 1
        raise


class _Group(click.Group):
    """Click's usage errors keep their message but exit 1, like every other
    refusal, so that exit 2 means only an uncertified result."""

    def make_context(self, *args, **kwargs):
        with _usage_error_exits_1():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_error_exits_1():
            return super().invoke(ctx)


@click.group(cls=_Group)
def main():
    """Approximate profile-maximum-likelihood distributions and property estimates."""


@main.command("profile")
@click.argument("samples", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def cmd_profile(samples, output):
    """Compute the profile of one samples file, or the joint profile of several."""
    sequences = [_read_tokens(path) for path in samples]
    if len(sequences) == 1:
        data = profile_of_sequence(sequences[0]).to_dict()
    else:
        try:
            data = d_profile_of(sequences).to_dict()
        except ValueError as exc:
            raise click.ClickException(str(exc)) from None
    _emit(data, output, "json")


@main.command("estimate")
@click.argument("profiles", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--eps1", type=float, default=None, callback=_validate_eps,
              help="Probability-grid coarseness in (0, 1], per coordinate; default n_k^(-1/(2d+1)).")
@click.option("--eps2", type=float, default=None, callback=_validate_eps,
              help="Frequency-grid coarseness in (0, 1], per coordinate; default n_k^(-1/(2d+1)).")
@click.option("--delta", type=float, default=None, callback=_validate_delta,
              help="Solver target gap (log units), positive and finite.")
@click.option("--property", "properties", multiple=True,
              help="entropy | support | coverage:m | uniformity:k | kl (repeatable); "
                   "support takes any d, kl needs d = 2 and the others d = 1.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "plain"]), default="json")
def cmd_estimate(profiles, eps1, eps2, delta, properties, output, fmt):
    """Approximate PML for profile or joint-profile JSON files: one object, or a list for several."""
    props = _parse_properties(properties)
    parsed = [_read_profile(path, joint=True) for path in profiles]
    from . import pipeline

    results = []
    for dp in parsed:
        eps = [None if e is None else (e,) * dp.d for e in (eps1, eps2)]
        try:
            dist, diag = pipeline.approximate_pml_d(dp, *eps, delta)
        except GridSizeError as err:
            raise click.ClickException(str(err)) from None
        result = dist.to_dict()
        result["diagnostics"] = diag.to_dict()
        result["certified"] = diag.certified
        result["estimates"] = _estimate_properties(dist, props)
        results.append(result)
    _emit(results[0] if len(results) == 1 else results, output, fmt)
    if not all(r["certified"] for r in results):
        sys.exit(EXIT_NOT_CERTIFIED)


@main.command("exact")
@click.argument("profile_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("dist_path", type=click.Path(exists=True, dir_okay=False))
def cmd_exact(profile_path, dist_path):
    """Exact log-probability of a profile under a distribution JSON ({"probs": [...]})."""
    from . import exact
    from .assignment import EnumerationCapError

    profile = _read_profile(profile_path)
    data = _load_json(dist_path)
    if not isinstance(data, dict) or "probs" not in data:
        raise click.ClickException(f"{dist_path}: expected a 'probs' array")
    # Both size guards subclass ValueError, so they are caught first.
    try:
        value = exact.profile_logprob(np.asarray(data["probs"], dtype=float), profile)
    except (exact.OracleSizeError, EnumerationCapError) as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(EXIT_SIZE_GUARD)
    except (TypeError, ValueError) as err:
        raise click.ClickException(f"{dist_path}: {err}") from None
    click.echo(format(value, ".15g"))


@main.command("bruteforce")
@click.argument("profile_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--support-cap", type=int, default=None)
@click.option("--resolution", type=int, default=10)
def cmd_bruteforce(profile_path, support_cap, resolution):
    """Grid-search PML over tiny supports; prints the best grid distribution."""
    from . import exact

    profile = _read_profile(profile_path)
    try:
        if support_cap is None:
            config = exact.GridSearchConfig.default_for(profile, resolution)
        else:
            config = exact.GridSearchConfig(support_cap, resolution, profile.n)
        probs, logprob = exact.brute_force_pml(profile, config)
    except exact.OracleSizeError as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(EXIT_SIZE_GUARD)
    except ValueError as err:
        raise click.ClickException(str(err))
    _emit({"probs": list(probs), "logprob": logprob}, None, "json")


if __name__ == "__main__":
    main()
