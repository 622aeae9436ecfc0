"""File-based front door: profiles from samples, approximate PML, property estimates.

Exit codes: 0 success, 1 usage or parse error, 2 solver result not certified
(the result is still emitted), 3 oracle size guard exceeded.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import estimators, exact, pipeline
from .assignment import EnumerationCapError
from .multi import DProfile, d_profile_of
from .profiles import Profile, profile_of_sequence

# Usage and parse errors exit 1 via ClickException.
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


def _read_profile(path: str, cls):
    """Profile or DProfile from a JSON file; malformed data exits 1."""
    try:
        return cls.from_dict(_load_json(path))
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
                if not isinstance(dist, estimators.PairedLevelSetDistribution):
                    raise click.ClickException("kl needs a 2-dimensional estimate")
                out["kl"] = estimators.kl_plugin(dist)
        except ValueError as exc:
            raise click.ClickException(f"property {name}: {exc}") from None
    return out


@click.group()
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
        data = d_profile_of(sequences).to_dict()
    _emit(data, output, "json")


def _run_one(profile: Profile, eps1, eps2, delta, props):
    dist, diag = pipeline.approximate_pml(profile, eps1=eps1, eps2=eps2, delta=delta)
    result = dist.to_dict()
    result["diagnostics"] = diag.to_dict()
    result["certified"] = diag.certified
    result["estimates"] = _estimate_properties(dist, props)
    return result


@main.command("estimate")
@click.argument("profiles", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--eps1", type=float, default=None, callback=_validate_eps,
              help="Probability-grid coarseness in (0, 1]; default n^(-1/3).")
@click.option("--eps2", type=float, default=None, callback=_validate_eps,
              help="Frequency-grid coarseness in (0, 1]; default n^(-1/3).")
@click.option("--delta", type=float, default=None, callback=_validate_delta,
              help="Solver target gap (log units), positive and finite.")
@click.option("--property", "properties", multiple=True,
              help="entropy | support | coverage:m | uniformity:k (repeatable).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "plain"]), default="json")
def cmd_estimate(profiles, eps1, eps2, delta, properties, output, fmt):
    """Approximate PML for one or more profile JSON files."""
    props = _parse_properties(properties)
    parsed = [_read_profile(path, Profile) for path in profiles]
    results = [_run_one(p, eps1, eps2, delta, props) for p in parsed]
    _emit(results[0] if len(results) == 1 else results, output, fmt)
    if not all(r["certified"] for r in results):
        sys.exit(EXIT_NOT_CERTIFIED)


@main.command("estimate-d")
@click.argument("dprofile", type=click.Path(exists=True, dir_okay=False))
@click.option("--d", "dim", type=int, default=None, help="Expected dimension (checked).")
@click.option("--eps1", type=float, default=None, callback=_validate_eps)
@click.option("--eps2", type=float, default=None, callback=_validate_eps)
@click.option("--delta", type=float, default=None, callback=_validate_delta)
@click.option("--property", "properties", multiple=True,
              help="entropy | support | coverage:m | uniformity:k | kl (repeatable).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "plain"]), default="json")
def cmd_estimate_d(dprofile, dim, eps1, eps2, delta, properties, output, fmt):
    """Approximate PML for a joint profile over several sequences."""
    props = _parse_properties(properties)
    dp = _read_profile(dprofile, DProfile)
    if dim is not None and dim != dp.d:
        raise click.ClickException(f"profile has dimension {dp.d}, not {dim}")
    eps1_t = None if eps1 is None else (eps1,) * dp.d
    eps2_t = None if eps2 is None else (eps2,) * dp.d
    dist, diag = pipeline.approximate_pml_d(dp, eps1=eps1_t, eps2=eps2_t, delta=delta)
    result = dist.to_dict()
    result["diagnostics"] = diag.to_dict()
    result["certified"] = diag.certified
    result["estimates"] = _estimate_properties(dist, props)
    _emit(result, output, fmt)
    if not diag.certified:
        sys.exit(EXIT_NOT_CERTIFIED)


@main.command("exact")
@click.argument("profile_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("dist_path", type=click.Path(exists=True, dir_okay=False))
def cmd_exact(profile_path, dist_path):
    """Exact log-probability of a profile under a distribution JSON ({"probs": [...]})."""
    profile = _read_profile(profile_path, Profile)
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
    profile = _read_profile(profile_path, Profile)
    try:
        config = exact.GridSearchConfig(
            support_cap=support_cap or min(2 * profile.n**2, 10),
            resolution=resolution,
            n=profile.n,
        )
        probs, logprob = exact.brute_force_pml(profile, config)
    except exact.OracleSizeError as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(EXIT_SIZE_GUARD)
    except ValueError as err:
        raise click.ClickException(str(err))
    _emit({"probs": list(probs), "logprob": logprob}, None, "json")


if __name__ == "__main__":
    main()
