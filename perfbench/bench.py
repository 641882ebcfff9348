"""Orchestration of one benchmark run: set-up and import probes, the timed
op loop, oracle checks, and the traced run.  Entry point: perfbench/run.py.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import cases
import checks
import ops
import stats
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: set-up and import probes per end-to-end run, one per round of ops
ROUNDS = 8
IMPORTTIME_REPS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import pertbvp.cli; "
                "print(time.perf_counter() - t)")
#: a traced run starts no further pass once this many spans are stored
TRACE_SPAN_BUDGET = 600_000
IMPORT_MODULES = {"pertbvp": "import.pertbvp_ms",
                  "scipy.integrate": "import.scipy_integrate_ms",
                  "scipy.fft": "import.scipy_fft_ms",
                  "scipy.linalg": "import.scipy_linalg_ms"}

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ops_per_s": "1/s", "import_ms": "ms", "peak_rss_mb": "MB",
              "ok_frac": "frac", "E_digits": "digits", "y_digits": "digits",
              "norm_digits": "digits", "fd_digits": "digits"}
LAYER_TIMES = ["expr.evaluate", "expr.parse", "funcspace.mul",
               "funcspace.from_function", "funcspace.cumulative_integral",
               "funcspace.definite_integral", "funcspace.derivative",
               "funcspace.eval", "problem.apply_perturbation", "problem.state",
               "engine.ghost", "engine.solve_order", "engine.order_rhs",
               "engine.normalization_coeffs", "engine.sum_series",
               "engine.series_io", "oracles.fd_eigenvalue", "cli.main"]
LAYER_CALLS = ["expr.evaluate", "funcspace.mul", "funcspace.from_function",
               "problem.apply_perturbation", "problem.v0_is_zero", "engine._vp",
               "oracles.solve_banded"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Outcomes:
    """Per-op bookkeeping.  The first result of each case is kept for the
    full oracle check; every later result must be bit-identical to it."""

    def __init__(self):
        self.cases = {}
        self.first = {}
        self.prints = {}
        self.ops = []  # (case key, "ok" | "changed" | "error")
        self.seconds = {}  # case key -> durations of its timed ops
        self.messages = []

    def record(self, case, result, timed=True):
        self.cases[case.key] = case
        fp = ops.fingerprint(result)
        status = "ok"
        if case.key not in self.first:
            self.first[case.key] = result
            self.prints[case.key] = fp
        elif fp != self.prints[case.key]:
            status = "changed"
            self.messages.append(f"{case.key}: output differs from its first run")
        if timed:
            self.ops.append((case.key, status))

    def error(self, case, timed=True):
        self.cases[case.key] = case
        self.messages.append(f"{case.key}: {traceback.format_exc()}")
        if timed:
            self.ops.append((case.key, "error"))

    def check(self, check_fn):
        """Check every first result; returns (failed op count, errors by kind,
        per-case report)."""
        bad = set()
        errors = {}
        report = {}
        for key, result in self.first.items():
            try:
                verdict = check_fn(self.cases[key], result)
            except Exception:  # unreadable output: the op's answer is wrong
                verdict = checks.Verdict([traceback.format_exc()])
            report[key] = {"failures": verdict.failures, "errors": verdict.errors}
            if verdict.failures:
                bad.add(key)
                self.messages += [f"{key}: {f}" for f in verdict.failures]
            for kind, err in verdict.errors.items():
                errors[kind] = max(errors.get(kind, 0.0), err)
        failed = sum(1 for key, status in self.ops
                     if status != "ok" or key in bad)
        return failed, errors, report


# ----------------------------------------------------------------------
# set-up and import probes (fresh processes)
# ----------------------------------------------------------------------

def setup_once(workload, seed, env, fixture, case_list) -> float:
    """Seconds for one set-up.  In-process workloads: a fresh probe process
    (start, import, first case, one warm-up op).  ``cli-roundtrip``: building
    the fixtures the CLI calls read."""
    t0 = time.perf_counter()
    if workload == "cli-roundtrip":
        fixture.build(case_list)
    else:
        subprocess.run([sys.executable, str(HERE / "probe.py"), "--workload",
                        workload, "--seed", str(seed)], env=env, cwd=ROOT,
                       stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def import_once(env) -> float:
    """Seconds ``import pertbvp.cli`` takes in a fresh interpreter, timed
    inside it, so interpreter start and exit are left out."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout)


def importtime_ms(env) -> dict:
    """Cumulative import time of selected modules from ``-X importtime``."""
    samples = {name: [] for name in IMPORT_MODULES.values()}
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import pertbvp.cli"], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e3
        for module, name in IMPORT_MODULES.items():
            samples[name].append(seen.get(module, 0.0))
    return {name: statistics.median(v) for name, v in samples.items()}


# ----------------------------------------------------------------------
# the op loop
# ----------------------------------------------------------------------

def op_loop(run_case, case_list, seconds, outcomes, position=0,
            whole_passes=False, more=lambda: True):
    """Run cases in pass order from ``position`` until ``seconds`` have
    passed.  Returns (op durations, loop wall seconds, next position).  With
    ``whole_passes`` the loop ends only at the end of a pass, and also when
    ``more()`` turns false there."""
    durations = []
    n = len(case_list)
    i = position
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        at_pass_end = i % n == 0 and i > position
        if time.perf_counter() >= deadline and (not whole_passes or at_pass_end):
            break
        if whole_passes and at_pass_end and not more():
            break
        case = case_list[i % n]
        i += 1
        try:
            elapsed, result = run_case(case)
        except Exception:  # a failed op is counted, not fatal
            outcomes.error(case)
            continue
        durations.append(elapsed)
        outcomes.record(case, result)
        outcomes.seconds.setdefault(case.key, []).append(elapsed)
    return durations, time.perf_counter() - t_start, i % n


def warm_up(run_case, case_list, outcomes):
    """One untimed pass: fills lazy caches and provides the first results."""
    for case in case_list:
        try:
            outcomes.record(case, run_case(case)[1], timed=False)
        except Exception:
            outcomes.error(case, timed=False)


def make_runners(workload, fixture):
    """(child-process runner or None, in-process runner) for the workload.
    Each takes a case and returns (seconds, result)."""
    if workload != "cli-roundtrip":
        def run_series(case):
            t0 = time.perf_counter()
            result = ops.series_op(case)
            return time.perf_counter() - t0, result
        return None, run_series

    def run_child(case):
        elapsed, rc, out, data = fixture.run_child(*fixture.argv(case))
        return elapsed, (rc, out, data)

    def run_inprocess(case):
        t0 = time.perf_counter()
        result = fixture.run_inprocess(*fixture.argv(case))
        return time.perf_counter() - t0, result

    return run_child, run_inprocess


def checker(workload, fixture):
    if workload != "cli-roundtrip":
        return checks.check_series
    return lambda case, result: checks.check_cli(
        case, *result, fixture.series[case.model])


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def end_to_end(args, case_list, fixture, env, outcomes, details):
    """Set-up and import probes interleaved with the timed ops, in ``ROUNDS``
    rounds, so that all metrics sample the same stretch of machine time."""
    run_child, run_inproc = make_runners(args.workload, fixture)
    if run_child is None:
        warm_up(run_inproc, case_list, outcomes)
    runner = run_inproc if run_child is None else run_child
    setup, imports, durations = [], [], []
    loop_wall = 0.0
    position = 0
    for _ in range(ROUNDS):
        setup.append(setup_once(args.workload, args.seed, env, fixture,
                                case_list))
        imports.append(import_once(env))
        part, wall, position = op_loop(runner, case_list, args.seconds / ROUNDS,
                                       outcomes, position)
        durations += part
        loop_wall += wall
    if run_child is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = fixture.peak_kib
    failed, errors, report = outcomes.check(checker(args.workload, fixture))
    tail_ms, tail_pct, count = stats.tail([1e3 * d for d in durations])
    attempted = len(outcomes.ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": 1e3 * statistics.median(durations),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(durations) / loop_wall,
        "import_ms": 1e3 * statistics.median(imports),
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    for kind in ("E", "y", "norm", "fd"):
        metrics[f"{kind}_digits"] = checks.digits(errors[kind])
    details.update(setup_samples_s=setup, tail_percentile=tail_pct,
                   tail_samples=count, loop_wall_s=loop_wall, cases=report,
                   case_p50_ms={k: 1e3 * statistics.median(v)
                                for k, v in outcomes.seconds.items()})
    print(f"op_tail_ms is p{tail_pct:.1f} of {count} samples")
    return metrics, END_TO_END, attempted, failed


def traced(args, case_list, fixture, env, outcomes, details, out_dir):
    if fixture is not None:
        fixture.build(case_list)
    _, run_inproc = make_runners(args.workload, fixture)
    warm_up(run_inproc, case_list, outcomes)
    half = args.seconds / 2.0
    plain, _, _ = op_loop(run_inproc, case_list, half, outcomes)

    tracer = tracing.Tracer()
    op_id = tracer.intern("op")
    roots, walls = [], []

    def run_traced(case):
        t0 = time.perf_counter()
        idx = tracer.open(op_id)
        try:
            result = run_inproc(case)[1]
        finally:
            tracer.close(idx)
        walls.append(time.perf_counter() - t0)
        roots.append(idx)
        return walls[-1], result

    uninstall = tracing.install(tracer)
    try:
        spans_on, _, _ = op_loop(run_traced, case_list, half, outcomes,
                              whole_passes=True,
                              more=lambda: len(tracer) < TRACE_SPAN_BUDGET)
    finally:
        uninstall()
    tracer.save(out_dir / "spans.npz")

    failed, _, report = outcomes.check(checker(args.workload, fixture))
    calls, seconds, per_root = tracing.layer_totals(tracer, roots)
    over = sum(1 for r, w in zip(roots, walls)
               if per_root[r] > w * (1 + 1e-9) + 1e-9)
    if over:
        outcomes.messages.append(f"self times exceed op wall time in {over} ops")
        failed += over
    n_ops = len(roots)
    metrics = {}
    units = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = calls.get(name, 0) / n_ops
        units[f"{name}.calls"] = "count"
    for name in LAYER_TIMES:
        metrics[f"{name}.self_ms"] = 1e3 * seconds.get(name, 0.0) / n_ops
        units[f"{name}.self_ms"] = "ms"
    metrics["funcspace.mul.coeff_work"] = (
        tracer.counters["funcspace.mul.coeff_work"] / n_ops)
    units["funcspace.mul.coeff_work"] = "count"
    for name in ("engine.ghost.wronskian_defect", "oracles.richardson_gap"):
        metrics[name] = tracer.maxima[name]
        units[name] = "1"
    for name, value in importtime_ms(env).items():
        metrics[name] = value
        units[name] = "ms"
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(spans_on)
                                          - statistics.median(plain))
    units["trace.overhead_ms"] = "ms"
    details.update(untraced_ops=len(plain), traced_ops=n_ops, spans=len(tracer),
                   untraced_p50_ms=1e3 * statistics.median(plain),
                   traced_p50_ms=1e3 * statistics.median(spans_on), cases=report)
    print(f"traced {n_ops} ops ({len(tracer)} spans) after {len(plain)} "
          f"untraced; outputs bit-identical: "
          f"{not any(s == 'changed' for _, s in outcomes.ops)}")
    return metrics, units, len(outcomes.ops), failed


def environment(args) -> dict:
    """Versions, machine and settings of this run.  Outside a git checkout
    the commit is unknown; the digest of the sources still identifies them."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pertbvp").glob("*.py")):
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": commit,
            "source_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "traced": bool(args.trace),
            "blas_threads": {k: v for k, v in os.environ.items()
                             if k.endswith("_NUM_THREADS")}}


def run(args) -> int:
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = child_env()
    case_list = cases.make_cases(args.workload, args.seed)
    fixture = None
    if args.workload == "cli-roundtrip":
        fixture = ops.CliFixture(out_dir / "work", env)

    outcomes = Outcomes()
    details = {"environment": environment(args),
               "inputs": [vars(c) for c in case_list]}
    if args.trace:
        metrics, units, attempted, failed = traced(
            args, case_list, fixture, env, outcomes, details, out_dir)
    else:
        metrics, units, attempted, failed = end_to_end(
            args, case_list, fixture, env, outcomes, details)

    for message in outcomes.messages[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    details.update(metrics=metrics, failures=outcomes.messages,
                   attempted=attempted, failed=failed)
    with open(out_dir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, default=str)
    print("environment: " + json.dumps(details["environment"]))
    for name, value in metrics.items():
        print(f"{name:>40} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0
