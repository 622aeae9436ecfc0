"""In-memory spans around the pipeline's layers, recorded from the benchmark.

The tracer replaces public functions with wrappers that record a span per
call: name, start, end, parent span and instance id. Spans stay in memory
and are written out once, when the run ends. Calls that are too frequent for a
span each (the objective and gradient evaluations) are only counted.

A layer's self time is its spans' durations minus the part covered by their
child spans, so the self times of one instance add up to its root span.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

clock = time.monotonic  # CLOCK_MONOTONIC is system-wide, so child processes share it


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.instance: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": clock(), "end": None,
                  "parent": parent, "instance": self.instance}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = clock()

    def add_external(self, spans: list[dict]) -> None:
        """Attach spans recorded in a child process under the current span."""
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for s in spans:
            local = s["parent"]
            self.spans.append({**s, "instance": self.instance,
                               "parent": parent if local is None else local + offset})

    def wrap(self, owner, attr: str, name: str, counted: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span (or a count)."""
        original = getattr(owner, attr)

        if counted:
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                with self.span(name):
                    return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[tuple[str | None, str], list[float]]:
        """Self time of every span, grouped by (instance, name), one entry per span."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[tuple[str | None, str], list[float]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            out[(s["instance"], s["name"])].append(s["end"] - s["start"] - child_time[i])
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install_pipeline_spans(tracer: Tracer, pml) -> None:
    """Wrap the layers the user path calls through; ``pml`` is the imported package.

    The pipeline and the CLI reach their layers through module attributes
    (``solver.solve``, ``rounding.round_assignment``, ``estimators.entropy``,
    ...) or through names they imported into their own namespace (the grid
    builders), so patching those attributes is enough and nothing under
    ``src/`` changes. A wrapped function that a path never calls costs nothing.
    """
    pipeline, solver, assignment = pml.pipeline, pml.solver, pml.assignment
    tracer.wrap(pipeline, "approximate_pml", "pipeline")
    tracer.wrap(pipeline, "approximate_pml_d", "pipeline")
    for attr in ("build_probability_grid", "build_frequency_grid", "discretize_profile"):
        tracer.wrap(pipeline, attr, "grids")
    for attr in ("build_d_grids", "discretize_d_profile"):
        tracer.wrap(pipeline, attr, "multi")
    tracer.wrap(solver, "solve", "solver")
    tracer.wrap(solver, "linprog", "solver.lp")
    tracer.wrap(solver, "minimize", "solver.nlp")
    tracer.wrap(solver, "log_weight_relaxed", "assignment.obj", counted=True)
    tracer.wrap(solver, "grad_log_weight_relaxed", "assignment.grad", counted=True)
    tracer.wrap(pml.rounding, "round_assignment", "rounding")
    tracer.wrap(assignment, "count_feasible", "assignment.count")
    tracer.wrap(assignment, "log_count_bound", "assignment.count")
    tracer.wrap(pml.profiles, "profile_of_sequence", "profiles")
    tracer.wrap(pml.multi, "d_profile_of", "profiles")
    for attr in ("entropy", "support_size", "support_coverage", "distance_to_uniformity",
                 "kl_plugin"):
        tracer.wrap(pml.estimators, attr, "estimators")
