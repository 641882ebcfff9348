"""The ops the workloads time: in-process series and oracle runs, and CLI
calls (as child processes, or in-process through ``cli.main`` for the traced
run).  Layers are looked up as module attributes at call time, so the
tracer's wrappers take effect."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import time
from pathlib import Path

from pertbvp import cli, engine, oracles
from pertbvp import problem as pb

import checks

__all__ = ["series_op", "fingerprint", "CliFixture"]


def series_op(case):
    """From problem text to an answer: (series, E(lam), normalized y(lam),
    FD eigenvalue or None)."""
    problem = pb.load_problem(checks.problem_text(case.model))
    if case.model == "closed":
        state = pb.state_from_expr(problem, case.n)
    else:
        state = pb.analytic_sine_state(problem, case.n)
    series = engine.compute_series(problem, state, case.J)
    energy, y = engine.sum_series(series, case.lam, case.J, normalize=True)
    fd = None
    if case.M:
        fd = oracles.fd_eigenvalue(problem, case.lam, energy, case.M)
    return series, energy, y, fd


def fingerprint(result) -> str:
    """Digest of every number an op returned, for bit-identity checks."""
    h = hashlib.sha256()
    if isinstance(result[0], engine.PerturbationSeries):
        series, energy, y, fd = result
        h.update(repr((series.energies, series.norm_coeffs, energy, fd)).encode())
        for f in list(series.wavefuns) + [y]:
            h.update(f.coeffs.tobytes())
    else:
        rc, stdout, out_bytes = result
        h.update(repr((rc, stdout)).encode())
        h.update(out_bytes or b"")
    return h.hexdigest()


class CliFixture:
    """Problem files and series files for the CLI calls, in ``workdir``."""

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.cmd = [sys.executable, "-m", "pertbvp.cli"]
        self.series = {}  # model -> fixture series JSON bytes
        self.peak_kib = 0  # largest peak RSS of any CLI child so far
        workdir.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def build(self, cases):
        """Write the problem files and solve each problem once (set-up)."""
        for case in cases:
            if case.command != "solve":
                continue
            with open(self._path(f"{case.model}.prob"), "w",
                      encoding="utf-8") as fh:
                fh.write(checks.problem_text(case.model))
            fixture = self._path(f"{case.model}-fixture.json")
            argv = self._solve_argv(case, fixture)
            _, rc, _, out = self.run_child(argv, fixture)
            if rc != 0:
                raise RuntimeError(f"fixture solve failed for {case.model}")
            self.series[case.model] = out

    def _solve_argv(self, case, out):
        return ["solve", "--problem", self._path(f"{case.model}.prob"),
                "--n", str(case.n), "--order", str(case.J), "--out", out]

    def argv(self, case):
        """(argv, output file or None) of the case's CLI call."""
        fixture = self._path(f"{case.model}-fixture.json")
        prob = self._path(f"{case.model}.prob")
        if case.command in ("solve", "solve-again"):
            out = self._path(f"{case.model}-{case.command}.json")
            return self._solve_argv(case, out), out
        if case.command == "eval":
            return ["eval", fixture, "--lambda", repr(case.lam), "--order",
                    str(case.J)], None
        if case.command == "export":
            out = self._path(f"{case.model}-export.csv")
            return ["export", fixture, "--out", out, "--grid", "201",
                    "--order", str(case.J)], out
        if case.command == "oracle":
            if case.model == "model3":  # exact ground state at lam = 1
                return ["oracle", "--problem", prob, "--lambda", "1",
                        "--guess", repr(math.pi ** 2), "--grid",
                        str(case.M)], None
            return ["oracle", "--problem", prob, "--lambda", repr(case.lam),
                    "--series", fixture, "--grid", str(case.M)], None
        return ["validate", "--problem", prob, "--n", str(case.n)], None

    def run_child(self, argv, out):
        """Run one CLI call as a child process.  Returns (seconds from spawn
        to exit, exit code, stdout, output file bytes)."""
        _remove(out)
        log = self.workdir / "child.out"
        with open(log, "wb") as fh, open(self.workdir / "child.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.cmd + argv, stdout=fh, stderr=err,
                                    env=self.env, cwd=self.workdir)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        return (elapsed, proc.returncode, log.read_text(encoding="utf-8"),
                _read(out))

    def run_inprocess(self, argv, out):
        """Run one CLI call through ``cli.main``.  Returns (exit code,
        stdout, output file bytes)."""
        _remove(out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, buf.getvalue(), _read(out)


def _remove(path):
    if path is not None and os.path.exists(path):
        os.remove(path)


def _read(path):
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()
