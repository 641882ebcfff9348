"""Command-line front end.

Subcommands: solve, eval, oracle, export, validate.  Exit codes: 0 success,
1 usage or input error, 2 computational failure.  Output is deterministic:
floats go through Python's shortest round-trip repr (at most 17 significant
digits) so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import engine, oracles
from .expr import ExprError
from .funcspace import SpectralError, UnresolvedError
from .problem import (ProblemConfigError, StateError, analytic_sine_state,
                      load_problem, state_from_expr, state_verdict)

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


#: every flag of the CLI, keyed by its name on the command line
_FLAGS = {
    "--problem": dict(required=True, help="problem config file"),
    "series": dict(help="series JSON file"),
    "--n": dict(type=_int_at_least(1), default=1, help="quantum number"),
    "--order": dict(type=_int_at_least(0), default=None,
                    help="highest perturbation order J "
                         "(solve: 3; eval, export: the whole series)"),
    "--lambda": dict(dest="lam", type=float, help="coupling strength"),
    "--normalize": dict(action="store_true",
                        help="apply the normalization series"),
    "--out": dict(help="output file path"),
    "--grid": dict(type=_int_at_least(2),
                   help="sample count (eval, export) or FD interior points "
                        "(oracle)"),
    "--amplitude": dict(type=float, default=float(np.sqrt(2.0)),
                        help="requested unperturbed amplitude"),
    "--guess": dict(type=float,
                    help="eigenvalue guess (default: unperturbed E0)"),
    "--series": dict(dest="series_file",
                     help="series JSON to compare against"),
}

#: subcommand -> (help, the flags its cmd_* function reads)
_SUBCOMMANDS = {
    "solve": ("compute a perturbation series",
              ("--problem", "--n", "--order", "--out", "--amplitude")),
    "eval": ("partial sums from a series file",
             ("series", "--lambda", "--order", "--normalize", "--grid")),
    "oracle": ("finite-difference eigenvalue",
               ("--problem", "--n", "--lambda", "--grid", "--guess",
                "--series")),
    "export": ("sample wavefunctions to CSV",
               ("series", "--lambda", "--order", "--normalize", "--grid",
                "--out")),
    "validate": ("check an unperturbed state",
                 ("--problem", "--n", "--amplitude")),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="pertbvp",
                description="Perturbation expansions for two-point boundary "
                            "eigenproblems with derivative couplings.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
    sub.choices["solve"].set_defaults(order=3)
    return p


def _load_problem_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_problem(fh.read())


def _make_state(problem, args):
    if problem.y0_expr is not None:
        return state_from_expr(problem, n=args.n)
    return analytic_sine_state(problem, args.n, amplitude=args.amplitude)


def _load_series_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return engine.series_from_dict(data)


def _fmt(v: float) -> str:
    return repr(float(v))


def _upto(args, series) -> int:
    """Highest order to sum: ``--order`` capped by the series, else all."""
    return series.order if args.order is None else min(args.order, series.order)


def cmd_solve(args) -> int:
    problem = _load_problem_file(args.problem)
    state = _make_state(problem, args)
    series = engine.compute_series(problem, state, args.order)
    print(f"{'j':>3} {'E_j':>24} {'N_j':>24}")
    for j in range(series.order + 1):
        print(f"{j:>3} {series.energies[j]:>24.16e} "
              f"{series.norm_coeffs[j]:>24.16e}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(engine.series_to_dict(series), fh, indent=2)
            fh.write("\n")
    return 0


def cmd_eval(args) -> int:
    series = _load_series_file(args.series)
    lam = args.lam if args.lam is not None else 0.0
    upto = _upto(args, series)
    print(f"{'order':>5} {'E(lambda)':>24}")
    for j in range(upto + 1):
        energy, _ = engine.sum_series(series, lam, j)
        print(f"{j:>5} {energy:>24.16e}")
    if args.normalize:
        _, y = engine.sum_series(series, lam, upto, normalize=True)
        points = args.grid if args.grid is not None else 11
        xs = np.linspace(y.a, y.b, points)
        print("x,y")
        for x, v in zip(xs, y(xs)):
            print(f"{_fmt(x)},{_fmt(v)}")
    return 0


def cmd_oracle(args) -> int:
    problem = _load_problem_file(args.problem)
    lam = args.lam if args.lam is not None else 0.0
    M = args.grid if args.grid is not None else 512
    series = _load_series_file(args.series_file) if args.series_file else None
    if args.guess is not None:
        guess = args.guess
    elif series is not None:
        guess, _ = engine.sum_series(series, lam, series.order)
    else:
        length = problem.b - problem.a
        guess = (args.n * np.pi / length) ** 2
    value = oracles.fd_eigenvalue(problem, lam, guess, M)
    print(f"fd_eigenvalue = {value:.12e}")
    if series is not None:
        summed, _ = engine.sum_series(series, lam, series.order)
        print(f"series_sum    = {summed:.12e}")
        print(f"deviation     = {summed - value:.6e}")
    return 0


def cmd_export(args) -> int:
    series = _load_series_file(args.series)
    points = args.grid if args.grid is not None else 201
    y0 = series.wavefuns[0]
    xs = np.linspace(y0.a, y0.b, points)
    upto = _upto(args, series)
    if args.lam is not None:
        _, y = engine.sum_series(series, args.lam, upto,
                                 normalize=args.normalize)
        header = "x,y_sum"
        columns = [y(xs)]
    else:
        header = "x," + ",".join(f"y{j}" for j in range(upto + 1))
        columns = [series.wavefuns[j](xs) for j in range(upto + 1)]
    lines = [header]
    for i, x in enumerate(xs):
        row = [_fmt(x)] + [_fmt(col[i]) for col in columns]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_validate(args) -> int:
    problem = _load_problem_file(args.problem)
    state = _make_state(problem, args)
    ok, res, left, right = state_verdict(problem, state)
    print(f"ode_residual = {res:.6e}")
    print(f"|y0(a)|      = {left:.6e}")
    print(f"|y0(b)|      = {right:.6e}")
    print("state OK" if ok else "state INVALID")
    return 0 if ok else 2


_COMMANDS = {
    "solve": cmd_solve,
    "eval": cmd_eval,
    "oracle": cmd_oracle,
    "export": cmd_export,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, KeyError,
            ProblemConfigError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (engine.EngineError, StateError, UnresolvedError, SpectralError,
            oracles.OracleError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
