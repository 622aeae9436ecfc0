"""Approximate profile-maximum-likelihood distributions and plug-in property estimation.

The estimate path runs ``profiles`` (profiles of samples), ``grids`` and
``multi`` (ladders, product grids and d-profiles), ``assignment`` and
``solver`` (the relaxed score and its certified solve), ``estimators``
(level-set distributions and plug-in estimates), ``rounding`` and
``pipeline``, which chains them. ``exact`` holds the
enumeration and grid-search oracles that the tests compare against; no
estimate loads it.

``import pml`` loads none of these: each public name is found in ``_EXPORTS``
and its submodule is imported on first access (PEP 562), so a process pays
only for the layers it uses. The submodules are attributes of the package
too.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "assignment": (
            "AssignmentSpec", "EnumerationCapError", "count_feasible", "grad_log_weight_relaxed",
            "is_feasible", "iter_feasible", "log_count_bound", "log_weight", "log_weight_relaxed",
        ),
        "estimators": (
            "LevelSetDistribution", "distance_to_uniformity", "entropy", "kl_plugin", "normalize",
            "support_coverage", "support_size",
        ),
        "exact": (
            "brute_force_pml", "brute_force_pml_d", "exact_d_profile_logprob",
            "levelset_d_profile_logprob", "levelset_profile_logprob", "profile_logprob",
            "profile_logprob_by_sequences", "sequence_logprob",
        ),
        "grids": (
            "DiscreteProfile", "FrequencyGrid", "ProbabilityGrid", "build_frequency_grid",
            "build_probability_grid", "discretize_profile",
        ),
        "multi": (
            "DGrids", "DProfile", "build_d_grids", "d_profile_of", "discretize_d_profile",
            "log_d_profile_coefficient",
        ),
        "pipeline": ("PipelineDiagnostics", "approximate_pml", "approximate_pml_d"),
        "profiles": (
            "Profile", "log_profile_coefficient", "profile_coefficient_exact", "profile_of_sequence",
        ),
        "rounding": ("RoundedSolution", "pseudo_from_assignment", "round_assignment"),
        "solver": (
            "InfeasibleError", "SolveResult", "default_delta", "initial_point", "solve",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"_special", "combinatorics"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
