"""pml benchmark: time to an estimate, honest certificates, and accuracy.

    python3 bench/run.py --workload inproc-large-joint --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --selftest

Runs the package from ``src/`` of the checkout it sits in; nothing needs to be
installed. One closed-loop client in this process issues the workload's
instances back to back (the CLI workload runs one ``pml estimate`` subprocess
at a time), with BLAS threads pinned to 1, ``PML_THREADS`` unset and a fixed
``PYTHONHASHSEED`` for the processes it starts.

Every instance runs the user's path: samples -> profile -> approximate_pml /
approximate_pml_d -> property estimates; the CLI workload starts from profile
files. The seed's input set runs in passes (``workloads.py`` says how the
seed makes it). Each output is checked (``check_output``), and after the
timed loop every d = 1 solver claim is checked against an independent
feasible point (``witness.py``). With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics from
spans recorded around the layers (``spans.py``), and the spans are written to
``bench/out/``. The lines before it are a readable report.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads; children inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("PML_THREADS", None)
# Every process gets the same string hashes, so repeated CLI calls do the same work.
os.environ["PYTHONHASHSEED"] = "0"
# One core for the benchmark and every process it starts: the client is
# single-threaded, and the reference samples must run where the work runs.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CLI_WORKLOADS = ("d1-small-cli",)
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# Times are reported in reference seconds: measured seconds scaled so that a
# run of reference.py (fixed work in a fresh interpreter, no pml) takes
# REFERENCE_S. On a shared 2-core machine the same work takes a quarter less
# time in some minutes than in others, and the machine can flip between its
# fast and slow states within seconds. So every timed piece of work, each
# set-up probe and each timed execution, is scaled by the reference samples
# taken right before and right after it: one sample before and after each
# probe, and after each execution samples for REFERENCE_SHARE of its time (at
# least one). The report keeps the measured seconds.
REFERENCE_S = 1.0
REFERENCE_SHARE = 0.25

SPAN_LAYERS = {  # per-layer metric -> span name whose self time it sums
    "solver.s": "solver", "solver.lp_s": "solver.lp", "solver.nlp_s": "solver.nlp",
    "multi.s": "multi", "assignment.count_s": "assignment.count", "profiles.s": "profiles",
    "grids.s": "grids", "rounding.s": "rounding", "estimators.s": "estimators",
    "pipeline.self_s": "pipeline", "cli.import_s": "cli.import", "cli.self_s": "cli",
    "bench.self_s": "instance",
}
COUNT_LAYERS = {
    "solver.lp_calls": "solver.lp", "solver.nlp_calls": "solver.nlp",
    "assignment.obj_evals": "assignment.obj", "assignment.grad_evals": "assignment.grad",
}


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, as
    BENCHMARK.json at the checkout's root declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def median_sum(per_slot: dict) -> float:
    """Sum over slots of the median over that slot's values (one per pass)."""
    return float(sum(statistics.median(v) for v in per_slot.values() if v))


# ---------------------------------------------------------------- outputs


class Outcome:
    """What one execution of one instance produced, in a form both paths share."""

    def __init__(self, inst, levels, diag: dict, estimates: dict):
        self.inst = inst
        self.levels = levels  # list of (values tuple, count)
        self.diag = diag
        self.estimates = estimates

    @property
    def claim(self) -> float:
        """The solver's claimed upper bound on the relaxed optimum."""
        return self.diag["solver_objective"] + self.diag["solver_gap"]


def check_output(out: Outcome, num_observed: int) -> list[str]:
    """Structural checks of one output; returns the reasons it failed."""
    problems = []
    d = len(out.levels[0][0]) if out.levels else 1
    mass = [sum(v[k] * c for v, c in out.levels) for k in range(d)]
    if not out.levels or any(abs(m - 1.0) > 1e-9 for m in mass):
        problems.append(f"not normalized (mass {mass})")
    if sum(c for _, c in out.levels) < num_observed:
        problems.append("fewer levels than observed symbols")
    if bool(out.diag["certified"]) != (out.diag["solver_gap"] <= out.diag["delta"]):
        problems.append("certified flag disagrees with solver_gap <= delta")
    return problems


def num_observed(pml, inst) -> int:
    if inst.d == 1:
        return pml.profile_of_sequence(inst.sequences[0]).num_observed
    return pml.d_profile_of(inst.sequences).num_observed


# ---------------------------------------------------------------- in-process path


def solve_in_process(pml, inst) -> Outcome:
    """The user path for one instance. Layers are reached through module
    attributes, so that installed spans see them."""
    est = pml.estimators
    if inst.d == 1:
        profile = pml.profiles.profile_of_sequence(inst.sequences[0])
        dist, diag = pml.pipeline.approximate_pml(profile)
        estimates = {"entropy": [est.entropy(dist)], "support": est.support_size(dist),
                     "coverage": [est.support_coverage(dist, 2 * inst.n[0])]}
        levels = [((float(v),), float(c)) for v, c in zip(dist.values, dist.counts)]
    else:
        dist, diag = pml.pipeline.approximate_pml_d(pml.multi.d_profile_of(inst.sequences))
        estimates = {"entropy": [], "coverage": []}
        for k in range(inst.d):  # each coordinate's marginal
            keep = dist.values[:, k] > 0
            marginal = est.LevelSetDistribution(dist.values[keep, k], dist.counts[keep])
            estimates["entropy"].append(est.entropy(marginal))
            estimates["coverage"].append(est.support_coverage(marginal, 2 * inst.n[k]))
        if inst.d == 2:
            estimates["kl"] = est.kl_plugin(dist)
        levels = [(tuple(float(x) for x in v), float(c)) for v, c in zip(dist.values, dist.counts)]
    return Outcome(inst, levels, diag.to_dict(), estimates)


# ---------------------------------------------------------------- CLI path


def cli_command(profile_paths, insts, shim_out=None) -> list[str]:
    props = ["--property", "entropy", "--property", "support"]
    for m in sorted({2 * inst.n[0] for inst in insts}):
        props += ["--property", f"coverage:{m}"]
    if shim_out is None:
        head = [sys.executable, "-m", "pml.cli"]
    else:
        head = [sys.executable, str(BENCH / "cli_shim.py"), str(shim_out)]
    return head + ["estimate", *map(str, profile_paths), *props]


def _number(value):
    """Undo the CLI's fixed-digit float strings (lists too); other values pass."""
    if isinstance(value, list):
        return [_number(v) for v in value]
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def parse_cli(stdout: str, insts) -> list[Outcome]:
    data = json.loads(stdout)
    if isinstance(data, dict):
        data = [data]
    if len(data) != len(insts):
        raise ValueError(f"{len(data)} results for {len(insts)} profiles")
    outs = []
    for inst, item in zip(insts, data):
        diag = {k: _number(v) for k, v in item["diagnostics"].items()}
        levels = [((float(v),), float(c)) for v, c in item["levels"]]
        e = item["estimates"]
        estimates = {"entropy": [float(e["entropy"])], "support": e["support"],
                     "coverage": [float(e[f"coverage:{2 * inst.n[0]}"])]}
        outs.append(Outcome(inst, levels, diag, estimates))
    return outs


def _expire(signum, frame):
    raise TimeoutError


def run_cli(cmd, extra_env=None) -> tuple[subprocess.CompletedProcess, float]:
    """Run one CLI call to its end. Returns its result and its own peak RSS in
    MB, read from its rusage when it is reaped, so no other process counts."""
    env = child_env()
    env.update(extra_env or {})
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise subprocess.TimeoutExpired(cmd, CHILD_TIMEOUT_S) from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        result = subprocess.CompletedProcess(cmd, proc.returncode, out.read().decode(),
                                             err.read().decode())
    return result, usage.ru_maxrss / 1024.0


def cli_outcomes(proc: subprocess.CompletedProcess, insts) -> list[Outcome]:
    """Outputs of one CLI call; raises ValueError unless it exited 0 or 2 with
    one well-formed result per profile."""
    if proc.returncode not in (0, 2):
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise ValueError(f"exit code {proc.returncode}: {tail[0]}")
    return parse_cli(proc.stdout, insts)


def write_profiles(pml, insts, workdir: Path) -> list[Path]:
    paths = []
    for inst in insts:
        path = workdir / f"{inst.id}.json"
        path.write_text(pml.profile_of_sequence(inst.sequences[0]).to_json(), encoding="utf-8")
        paths.append(path)
    return paths


CRASH_CASES = (  # (profile JSON, extra args, extra env): known inputs that should exit 1
    ('{"pairs": [[1, 100000]]}', [], {}),
    ('{"pairs": [[2, 2], [1, 1]]}', ["--property", "coverage:abc"], {}),
    ('{"pairs": [[2, 2], [1, 1]]}', [], {"PML_THREADS": "x"}),
    ('{"pairs": [[1, 0]]}', [], {}),
    ('{"pairs": [[2, -1]]}', [], {}),
    ('{"pairs": [[1, 5]]}', ["--property", "uniformity:3"], {}),
)


def cli_tracebacks(workdir: Path) -> int:
    """Run the known crash inputs once, untimed; count those ending in a traceback."""
    count = 0
    for i, (text, args, extra) in enumerate(CRASH_CASES):
        path = workdir / f"crash{i}.json"
        path.write_text(text, encoding="utf-8")
        proc, _ = run_cli([sys.executable, "-m", "pml.cli", "estimate", str(path), *args], extra)
        count += "Traceback (most recent call last)" in proc.stderr
    return count


# ---------------------------------------------------------------- set-up


def reference_samples(seconds: float) -> list[float]:
    """Run reference.py in fresh interpreters for about ``seconds``, at least
    once; returns the seconds each one reports."""
    times, start = [], time.monotonic()
    while not times or time.monotonic() - start < seconds:
        proc = subprocess.run([sys.executable, str(BENCH / "reference.py")], capture_output=True,
                              text=True, cwd=ROOT, env=child_env(), timeout=CHILD_TIMEOUT_S,
                              check=True)
        times.append(float(proc.stdout.strip()))
    return times


def setup_probe(workload: str, seed: int) -> None:
    """One full set-up, timed from a fresh interpreter: imports, inputs, warm-up."""
    from spans import clock

    start = clock()
    import pml
    import workloads

    insts = workloads.make_inputs(workload, seed)
    warm = workloads.warmup_instance()
    if workload in CLI_WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            write_profiles(pml, insts, workdir)
            proc, _ = run_cli(cli_command(write_profiles(pml, [warm], workdir), [warm]))
            cli_outcomes(proc, [warm])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        solve_in_process(pml, warm)
    print(json.dumps({"setup_s": clock() - start}))


def scale(references: list[float]) -> float:
    """Factor from measured to reference seconds, given the samples around some work."""
    return REFERENCE_S / statistics.mean(references)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, and the reference samples around
    them: one before the first, and one after each."""
    setups, references = [], reference_samples(0.0)
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-400:]}")
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        references += reference_samples(0.0)
    return setups, references


# ---------------------------------------------------------------- the run


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"  # the benchmark may run from a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "PML_THREADS": os.environ.get("PML_THREADS"),
    }


class Run:
    """One benchmark invocation: passes over the seed's inputs, their outputs and checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import pml
        import workloads
        from spans import Tracer, clock

        self.pml, self.workloads, self.clock = pml, workloads, clock
        self.workload, self.seconds, self.trace = workload, seconds, trace
        self.is_cli = workload in CLI_WORKLOADS
        self.tracer = Tracer()
        self.timed = workloads.make_inputs(workload, seed)
        self.observed = {i.id: num_observed(pml, i) for i in self.timed}
        # traced -> slot -> seconds of each execution, measured and scaled
        self.times = {False: defaultdict(list), True: defaultdict(list)}
        self.scaled = {False: defaultdict(list), True: defaultdict(list)}
        self.exec_scale: dict[int, float] = {}  # execution -> its scale factor
        self.reference_s: list[float] = []  # every reference.py sample of the loop
        self.before: list[float] = []  # the samples right before the next execution
        self.cli_peaks_mb: list[float] = []  # peak RSS of each untraced timed CLI call
        self.exec_counts: dict[str, list[Counter]] = defaultdict(list)
        self.outputs: list[tuple[int, Outcome]] = []  # (execution, output)
        self.first: dict[str, Outcome] = {}  # first output of each distinct instance
        self.attempted_ids: set[str] = set()
        self.failures: list[tuple[int, str, str, str]] = []  # (execution, instance, kind, reason)
        self.executions = 0
        self.passes = 0
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.paths = write_profiles(pml, self.timed, self.workdir) if self.is_cli else []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def warm_up(self) -> None:
        """One untimed call on the fixed warm-up instance, so that the first
        timed execution does not pay for first use."""
        warm = self.workloads.warmup_instance()
        if self.is_cli:
            run_cli(cli_command(write_profiles(self.pml, [warm], self.workdir), [warm]))
        else:
            solve_in_process(self.pml, warm)

    def record(self, execution: int, outs: list[Outcome]) -> None:
        for out in outs:
            self.outputs.append((execution, out))
            self.first.setdefault(out.inst.id, out)
            for reason in check_output(out, self.observed[out.inst.id]):
                self.failures.append((execution, out.inst.id, "malformed", reason))

    def fail(self, execution: int, insts, reason: str) -> None:
        self.failures += [(execution, inst.id, "error", reason) for inst in insts]

    def start_execution(self, insts, slot: str) -> int:
        execution, self.executions = self.executions, self.executions + 1
        self.attempted_ids.update(inst.id for inst in insts)
        self.tracer.instance = f"{slot}#{execution}"
        return execution

    def cli_call(self, inst, path: Path, traced: bool) -> tuple[float, float]:
        """One ``pml estimate`` call on the instance's profile file; returns its
        seconds and its peak RSS in MB."""
        insts = [inst]
        shim_out = self.workdir / "spans.json" if traced else None
        if traced:
            shim_out.unlink(missing_ok=True)
        cmd = cli_command([path], insts, shim_out)
        execution = self.start_execution(insts, inst.slot)
        proc, peak_mb = None, 0.0
        start = self.clock()
        with self.tracer.span("cli") if traced else nullcontext():
            try:
                proc, peak_mb = run_cli(cmd)
            except subprocess.SubprocessError as exc:
                self.fail(execution, insts, f"{type(exc).__name__}: {exc}")
            elapsed = self.clock() - start
            if traced and shim_out.exists():
                data = json.loads(shim_out.read_text(encoding="utf-8"))
                self.tracer.add_external(data["spans"])
                self.exec_counts[inst.slot].append(Counter(data["counts"]))
        if proc is not None:
            try:
                self.record(execution, cli_outcomes(proc, insts))
            except (ValueError, KeyError) as exc:
                self.fail(execution, insts, f"{type(exc).__name__}: {exc}")
        return elapsed, peak_mb

    def solve(self, inst, traced: bool) -> float:
        """The user path for one instance in this process; returns its seconds."""
        execution = self.start_execution([inst], inst.slot)
        before = Counter(self.tracer.counts)
        out = None
        start = self.clock()
        try:
            with self.tracer.span("instance") if traced else nullcontext():
                out = solve_in_process(self.pml, inst)
        except Exception as exc:  # an exception fails the instance, not the run
            self.fail(execution, [inst], f"{type(exc).__name__}: {exc}")
        elapsed = self.clock() - start
        if traced:
            self.exec_counts[inst.slot].append(Counter(self.tracer.counts) - before)
        if out is not None:
            self.record(execution, [out])
        return elapsed

    def run_pass(self, traced: bool, deadline: float | None) -> int:
        """Run the inputs once, each execution followed by reference samples;
        returns the number of executions started. With a deadline, no
        execution starts that is expected to end after it."""
        started = 0
        self._set_tracing(traced and not self.is_cli)
        for inst, path in zip(self.timed, self.paths or [None] * len(self.timed)):
            slot = inst.slot
            if deadline is not None and self.clock() + self._expected(slot) > deadline:
                break
            started += 1
            if self.is_cli:
                elapsed, peak_mb = self.cli_call(inst, path, traced)
                if not traced:
                    self.cli_peaks_mb.append(peak_mb)
            else:
                elapsed = self.solve(inst, traced)
            after = reference_samples(REFERENCE_SHARE * elapsed)
            factor = scale(self.before + after)
            self.before = after
            self.reference_s += after
            self.exec_scale[self.executions - 1] = factor
            self.times[traced][slot].append(elapsed)
            self.scaled[traced][slot].append(elapsed * factor)
        self._set_tracing(False)
        return started

    def _expected(self, slot: str) -> float:
        """Median time of the slot so far."""
        done = self.times[False][slot] + self.times[True][slot]
        return statistics.median(done) if done else 0.0

    def _set_tracing(self, on: bool) -> None:
        if on and not self.tracer._patched:
            from spans import install_pipeline_spans

            install_pipeline_spans(self.tracer, self.pml)
        elif not on and self.tracer._patched:
            self.tracer.restore()

    def timed_loop(self) -> None:
        """Passes back to back for ``seconds``; a traced run alternates untraced
        and traced passes. The first pass (and, when tracing, the first traced
        pass) always completes; after that no work starts that is expected to
        end past the deadline."""
        self.before = reference_samples(0.0)
        self.reference_s += self.before
        deadline = self.clock() + self.seconds
        pass_size = len(self.timed)
        while True:
            p = self.passes
            must_finish = p == 0 or (self.trace and p == 1)
            started = self.run_pass(traced=self.trace and p % 2 == 1,
                                    deadline=None if must_finish else deadline)
            self.passes += started > 0
            if started < pass_size:
                break

    def soundness(self) -> dict:
        """Check every d = 1 claim against one witness per distinct instance."""
        import numpy as np
        import witness

        start = self.clock()
        found, unverified, details = {}, 0, {}
        for inst_id, out in self.first.items():
            if out.inst.d != 1:
                unverified += 1
                continue
            profile = self.pml.profile_of_sequence(out.inst.sequences[0])
            spec = witness.relaxed_spec(profile, out.diag["eps1"][0], out.diag["eps2"][0])
            try:
                w = witness.lower_bound(spec)
            except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
                print(f"# witness failed on {inst_id}: {exc}")
                w = None
            if w is None or not w.found:
                unverified += 1
                continue
            found[inst_id] = w
            details[inst_id] = {"claim": out.claim, "witness_lower": w.lower,
                                "witness_upper": w.upper, "certified": bool(out.diag["certified"]),
                                "refuted": witness.refutes(w, out.claim)}
        for execution, out in self.outputs:
            w = found.get(out.inst.id)
            if w is not None and witness.refutes(w, out.claim):
                self.failures.append((execution, out.inst.id, "refuted",
                                      f"claimed bound {out.claim:.6f} < feasible value "
                                      f"{w.lower:.6f}"))
        return {"witness_s": self.clock() - start, "unverified": unverified, "details": details}

    @property
    def attempted(self) -> int:
        """Distinct instances run. An instance repeats in every pass, and how
        many passes fit in the run depends on the machine's speed; counted by
        instance, the number does not."""
        return len(self.attempted_ids)

    @property
    def failed(self) -> int:
        """Distinct instances with at least one failed execution."""
        return len({inst_id for _, inst_id, _, _ in self.failures})

    @property
    def timed_outputs(self) -> list[Outcome]:
        return [self.first[i.id] for i in self.timed if i.id in self.first]


# ---------------------------------------------------------------- metrics


def accuracy(run: Run) -> dict:
    """Errors of each distinct instance's estimates against the truth (median
    over instances and coordinates), and the empirical plug-in's, the floor to beat."""
    w = run.workloads
    ent, cov, kl, ent_plug, cov_plug = [], [], [], [], []
    for out in run.first.values():
        inst = out.inst
        for k, (p, seq) in enumerate(zip(inst.truth, inst.sequences)):
            m = 2 * inst.n[k]
            true_h, true_c = w.entropy(p), w.coverage(p, m)
            ent.append(abs(out.estimates["entropy"][k] - true_h))
            cov.append(abs(out.estimates["coverage"][k] - true_c) / true_c)
            emp = w.empirical(seq)
            ent_plug.append(abs(w.entropy(emp) - true_h))
            cov_plug.append(abs(w.coverage(emp, m) - true_c) / true_c)
        if "kl" in out.estimates:
            kl.append(abs(out.estimates["kl"] - w.kl(inst.truth[0], inst.truth[1])))
    med = statistics.median
    return {"estimators.entropy_err": med(ent), "estimators.coverage_err": med(cov),
            "estimators.kl_err": med(kl) if kl else 0.0,
            "plugin_entropy_err": med(ent_plug), "plugin_coverage_err": med(cov_plug)}


def iteration_cap(function) -> int:
    """The pipeline function's default iteration budget."""
    return inspect.signature(function).parameters["max_iters"].default


def solver_facts(run: Run) -> dict:
    """Counts read from the timed outputs' diagnostics and the public grid builders."""
    pml = run.pml
    caps = {1: iteration_cap(pml.approximate_pml), 2: iteration_cap(pml.approximate_pml_d)}

    def nonempty_cols(out):
        diag, inst = out.diag, out.inst
        if inst.d == 1:
            profile = pml.profile_of_sequence(inst.sequences[0])
            fgrid = pml.build_frequency_grid(profile.n, diag["eps2"][0])
            return int((pml.discretize_profile(profile, fgrid).counts > 0).sum()), 0
        dprofile = pml.d_profile_of(inst.sequences)
        grids = pml.build_d_grids(dprofile.n, tuple(diag["eps1"]), tuple(diag["eps2"]))
        counts, _ = pml.discretize_d_profile(dprofile, grids)
        return int((counts > 0).sum()), counts.size

    outs = run.timed_outputs
    used = [nonempty_cols(o) for o in outs]
    cells = sum(o.diag["num_levels"] * (o.diag["num_freqs"] + 1) for o in outs)
    cells_used = sum(o.diag["num_levels"] * u[0] for o, u in zip(outs, used))
    return {
        "solver.iters": sum(o.diag["solver_iterations"] for o in outs),
        "solver.cap_hits": sum(
            o.diag["solver_iterations"] >= caps[min(o.inst.d, 2)] for o in outs),
        "solver.cells": cells, "solver.cells_used": cells_used,
        "solver.cells_used_frac": cells_used / cells if cells else 0.0,
        "solver.certified_frac": sum(bool(o.diag["certified"]) for o in outs) / len(outs),
        "solver.gap_p50": statistics.median(o.diag["solver_gap"] for o in outs),
        "multi.cols": sum(u[1] for u in used),
        "multi.cols_used": sum(u[0] for o, u in zip(outs, used) if o.inst.d > 1),
        "assignment.counted_frac":
            sum(o.diag["assignment_count_method"] == "counted" for o in outs) / len(outs),
    }


def layer_metrics(run: Run, check: dict, tracebacks: int, speed: float) -> dict:
    """Per-layer metrics; seconds are in reference seconds, each execution's
    self times scaled by that execution's factor."""
    untraced, traced = median_sum(run.scaled[False]), median_sum(run.scaled[True])
    per_exec = defaultdict(lambda: defaultdict(float))  # "slot#execution" -> span -> self time
    for (instance, name), values in run.tracer.self_times().items():
        if instance is not None:
            factor = run.exec_scale[int(instance.split("#")[1])]
            per_exec[instance][name] += sum(values) * factor
    m = {}
    for metric, span_name in SPAN_LAYERS.items():
        by_slot = defaultdict(list)
        for instance, by_name in per_exec.items():
            by_slot[instance.split("#")[0]].append(by_name.get(span_name, 0.0))
        m[metric] = median_sum(by_slot)
    for metric, name in COUNT_LAYERS.items():
        m[metric] = median_sum({slot: [c[name] for c in execs]
                                for slot, execs in run.exec_counts.items()})
    m.update(solver_facts(run))
    m.update({k: v for k, v in accuracy(run).items() if k.startswith("estimators.")})
    m["cli.tracebacks"] = float(tracebacks)
    m["check.fail_frac"] = run.failed / run.attempted
    m["check.refuted"] = float(sum(d["refuted"] for d in check["details"].values()))
    m["check.refuted_certified"] = float(
        sum(d["refuted"] and d["certified"] for d in check["details"].values()))
    m["check.witness_s"] = check["witness_s"] * speed
    m["check.unverified"] = float(check["unverified"])
    m["trace.wall_s"] = traced
    m["trace.overhead_s"] = traced - untraced
    return m


def main_run(args) -> int:
    OUT.mkdir(exist_ok=True)
    env = environment()
    setups, setup_refs = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        run.warm_up()
        run.timed_loop()
        # The CLI's peak is that of its timed calls; in process it is this
        # process's own, read before anything else runs (ru_maxrss only grows).
        peak_mb = (max(run.cli_peaks_mb, default=0.0) if run.is_cli
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        check = run.soundness()
        tracebacks = cli_tracebacks(run.workdir) if args.trace else 0
    finally:
        run.close()
    if not run.first:
        print(f"bench: every execution failed: {run.failures[:3]}", file=sys.stderr)
        return 1

    acc = accuracy(run)
    references = setup_refs + run.reference_s
    speed = scale(references)  # for work not next to its own samples
    if args.trace:
        values, units = layer_metrics(run, check, tracebacks, speed), metric_units("per_layer")
        run.tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "wall_s": median_sum(run.scaled[False]),
            # each probe scaled by the samples right before and after it
            "setup_s": statistics.median(
                t * scale(setup_refs[i:i + 2]) for i, t in enumerate(setups)),
            "slack_total_p50": statistics.median(
                o.diag["slack_total"] for o in run.timed_outputs),
            "peak_rss_mb": peak_mb,
        }
        units = metric_units("end_to_end")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    failures = Counter((inst_id, kind, reason) for _, inst_id, kind, reason in run.failures)
    correct = not any(kind == "malformed" for _, kind, _ in failures)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "passes": run.passes,
        "instances": sorted(run.first), "setup_runs_s": setups,
        "setup_reference_runs_s": setup_refs, "loop_reference_runs_s": run.reference_s,
        "cli_peaks_mb": run.cli_peaks_mb,
        "measured_s": {("traced " if traced else "") + slot: seconds
                       for traced, by_slot in run.times.items() for slot, seconds in by_slot.items()},
        "scaled_s": {("traced " if traced else "") + slot: seconds
                     for traced, by_slot in run.scaled.items() for slot, seconds in by_slot.items()},
        "accuracy": acc, "soundness": check["details"],
        "failures": [[*key, count] for key, count in sorted(failures.items())],
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} passes={run.passes} "
          f"instances={len(run.first)} attempted={run.attempted} failed={run.failed}")
    for (inst_id, kind, reason), count in sorted(failures.items()):
        print(f"# failure {inst_id} ({count} executions) [{kind}] {reason}")
    print(f"# reference work took {statistics.mean(references):.4f} s (mean of "
          f"{len(references)}, {min(references):.4f} to {max(references):.4f}); times below "
          f"are in reference seconds")
    print(f"# accuracy: entropy_err={acc['estimators.entropy_err']:.4f} nat "
          f"(plug-in {acc['plugin_entropy_err']:.4f}), "
          f"coverage_err={acc['estimators.coverage_err']:.4f} "
          f"(plug-in {acc['plugin_coverage_err']:.4f})")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        selfs = sum(values[m] for m in SPAN_LAYERS)
        print(f"# accounting: layer self times sum to {selfs:.4f} s of traced wall "
              f"{values['trace.wall_s']:.4f} s; untraced wall "
              f"{values['trace.wall_s'] - values['trace.overhead_s']:.4f} s")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="inproc-large-joint")
    parser.add_argument("--seed", type=int, default=0, help="a whole number >= 0")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--selftest", action="store_true",
                        help="check the soundness checker itself and exit")
    args = parser.parse_args(argv)
    if not (SRC / "pml" / "__init__.py").is_file():
        print(f"bench: no pml package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    if args.selftest:
        import selftest

        return selftest.main()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.setup_probe:  # before anything else is imported, so the probe times the imports
        setup_probe(args.workload, args.seed)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
