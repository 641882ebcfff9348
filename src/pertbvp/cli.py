"""Command-line front end.

Subcommands: solve, eval, oracle, export, validate.  Exit codes: 0 success,
1 usage or input error, 2 computational failure.  Output is deterministic:
floats go through Python's shortest round-trip repr (at most 17 significant
digits) so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import engine, oracles
from .expr import ExprError
from .funcspace import SpectralError, UnresolvedError
from .problem import (ProblemConfigError, StateError, analytic_sine_state,
                      load_problem, state_from_expr, state_verdict)

__all__ = ["main"]


class _InputError(Exception):
    """A usage error or a file that cannot be read: exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _InputError(message)


#: the highest ``--order``: ``solve`` on the model-3 demo takes ~2 s, ~86 MB
#: peak RSS at order 1000 (~0.3 s, ~32 MB at order 100; 2-core VM)
MAX_ORDER = 1000


def _int_in(low: int, high: int | None = None):
    """argparse type: an int no smaller than ``low`` (and with ``high`` no
    larger than it)."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _finite_float(nonzero: bool = False):
    """argparse type: a finite float, and with ``nonzero`` not zero."""
    def parse(text):
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        if nonzero and value == 0.0:
            raise argparse.ArgumentTypeError(f"must be nonzero, got {value}")
        return value
    parse.__name__ = "float"  # argparse names it in "invalid float value"
    return parse


#: every flag of the CLI, keyed by its name on the command line
_FLAGS = {
    "--problem": dict(required=True, help="problem config file"),
    "series": dict(help="series JSON file"),
    "--n": dict(type=_int_in(1), default=1,
                help="quantum number (oracle default: the --series' n, "
                     "else 1)"),
    "--order": dict(type=_int_in(0, MAX_ORDER), default=None,
                    help="highest perturbation order J "
                         "(solve: 3; eval, export: the whole series)"),
    "--lambda": dict(dest="lam", type=_finite_float(),
                     help="coupling strength"),
    "--normalize": dict(action="store_true",
                        help="apply the normalization series"),
    "--out": dict(help="output file path"),
    "--grid": dict(type=_int_in(2),
                   help="sample count (eval, export) or FD interior points "
                        "(oracle)"),
    "--amplitude": dict(type=_finite_float(nonzero=True),
                        help="requested amplitude of the sine state "
                             "(default: sqrt(2); not read when the problem "
                             "file gives y0)"),
    "--guess": dict(type=_finite_float(),
                    help="eigenvalue guess (default: the summed --series, "
                         "else the problem file's E0, else (n pi / L)^2 "
                         "when v0 is zero; required otherwise)"),
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
    sub.choices["oracle"].set_defaults(n=None)  # cmd_oracle: series' n, else 1
    return p


def _load_problem_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_problem(fh.read())


def _make_state(problem, args):
    if problem.y0_expr is not None:
        if args.amplitude is not None:
            raise _InputError("argument --amplitude: not read when the "
                              "problem file gives y0")
        return state_from_expr(problem, n=args.n)
    if args.amplitude is None:
        return analytic_sine_state(problem, args.n)
    return analytic_sine_state(problem, args.n, amplitude=args.amplitude)


def _load_series_file(path):
    """The series in a JSON file; any fault of its content (syntax, nesting,
    missing keys, wrong types or values) is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return engine.series_from_dict(json.loads(text))
    except (LookupError, TypeError, ValueError, ArithmeticError,
            RecursionError, engine.EngineError, SpectralError) as exc:
        raise _InputError(f"series file {path}: {exc}") from exc


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
    terms = []  # E_j lam^j; the sum() of engine.sum_series, so its bits
    for j in range(upto + 1):
        terms.append(series.energies[j] * lam ** j)
        print(f"{j:>5} {sum(terms):>24.16e}")
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
    if series is not None:
        if args.n not in (None, series.n):
            raise _InputError(f"argument --n: {args.n} differs from the "
                              f"series' n = {series.n}")
        summed, _ = engine.sum_series(series, lam, series.order)
    if args.guess is not None:
        guess = args.guess
    elif series is not None:
        guess = summed
    elif problem.e0_value is not None:
        guess = problem.e0_value
    else:
        try:
            v0_zero = problem.v0_is_zero()
        except UnresolvedError:  # a v0 with no Chebyshev fit is not zero
            v0_zero = False
        if not v0_zero:
            raise _InputError("oracle needs --guess, --series or the "
                              "problem file's E0 when v0 is not zero")
        n = 1 if args.n is None else args.n
        guess = (n * np.pi / (problem.b - problem.a)) ** 2
    value = oracles.fd_eigenvalue(problem, lam, guess, M)
    print(f"fd_eigenvalue = {value:.12e}")
    if series is not None:
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


#: the flags whose value may be a negative number such as ``-1e-3``
_FLOAT_FLAGS = ("--lambda", "--guess", "--amplitude")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_float_values(argv: list) -> list:
    """``argv`` with each ``FLAG VALUE`` of a float flag written as
    ``FLAG=VALUE`` when float() reads VALUE: argparse takes a token such as
    ``-1e-3`` for an option, because only plain decimals count as negative
    numbers there."""
    out = []
    for token in argv:
        if out and out[-1] in _FLOAT_FLAGS and _is_float(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_attach_float_values(argv))
        return _COMMANDS[args.command](args)
    except (_InputError, OSError, UnicodeDecodeError, ProblemConfigError,
            ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (engine.EngineError, StateError, UnresolvedError, SpectralError,
            oracles.OracleError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
