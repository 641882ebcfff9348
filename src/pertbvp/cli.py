"""Command-line front end.

Subcommands: solve, eval, oracle, export, validate.  Exit codes: 0 success,
1 usage or input error, 2 computational failure.  Output is deterministic:
floats go through Python's shortest round-trip repr (at most 17 significant
digits) so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import engine
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

#: ``--grid`` (floor, ceiling): samples on ``eval``/``export``, FD interior
#: points M on ``oracle`` (which also solves on 2M + 1).  At the ceilings an
#: order-1000 ``export`` (1001 columns) takes ~16 s, ~194 MB peak RSS, and
#: ``oracle`` on the model-3 demo ~1 s, ~43 MB; at M = 262144 its inverse
#: iteration no longer converges (2-core VM)
GRID_BOUNDS = {"eval": (2, 10001), "export": (2, 10001),
               "oracle": (16, 65536)}


def _number(convert, low=None, high=None, nonzero=False):
    """argparse type: ``convert(text)``, finite if a float, no smaller than
    ``low``, no larger than ``high`` and, with ``nonzero``, not zero."""
    def parse(text):
        value = convert(text)
        if convert is float and not math.isfinite(value):
            fault = "must be finite"
        elif low is not None and value < low:
            fault = f"must be >= {low}"
        elif high is not None and value > high:
            fault = f"must be <= {high}"
        elif nonzero and value == 0:
            fault = "must be nonzero"
        else:
            return value
        raise argparse.ArgumentTypeError(f"{fault}, got {value}")
    parse.__name__ = convert.__name__  # argparse: "invalid int value"
    return parse


#: every flag of the CLI, keyed by its name on the command line
_FLAGS = {
    "--problem": dict(required=True, help="problem config file"),
    "series": dict(help="series JSON file"),
    "--n": dict(type=_number(int, 1), default=1,
                help="quantum number (oracle default: the --series' n, "
                     "else 1)"),
    "--order": dict(type=_number(int, 0, MAX_ORDER), default=None,
                    help="highest perturbation order J "
                         "(solve: 3; eval, export: the whole series)"),
    "--lambda": dict(dest="lam", type=_number(float),
                     help="coupling strength"),
    "--normalize": dict(action="store_true",
                        help="apply the normalization series"),
    "--out": dict(help="output file path"),
    "--grid": dict(help="sample count (eval, export) or FD interior points "
                        "(oracle)"),
    "--amplitude": dict(type=_number(float, nonzero=True),
                        help="requested amplitude of the sine state "
                             "(default: sqrt(2); not read when the problem "
                             "file gives y0)"),
    "--guess": dict(type=_number(float),
                    help="eigenvalue guess (default: the summed --series, "
                         "else the problem file's E0, else (n pi / L)^2 "
                         "when v0 is zero; required otherwise)"),
    "--series": dict(dest="series_file",
                     help="series JSON to compare against"),
}

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
    import json  # loaded by the subcommands that read or write a series
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return engine.series_from_dict(json.loads(text))
    except (LookupError, TypeError, ValueError, ArithmeticError,
            RecursionError, engine.EngineError, SpectralError) as exc:
        raise _InputError(f"series file {path}: {exc}") from exc


def _write_csv(header, xs, columns, path=None):
    """``header``, then one line ``x,c1,c2,...`` per point, each float in its
    shortest round-trip repr, to the file ``path`` or else to stdout, a line
    at a time."""
    with (open(path, "w", encoding="utf-8") if path
          else nullcontext(sys.stdout)) as fh:
        fh.write(header + "\n")
        for row in np.column_stack([xs, *columns]):
            fh.write(",".join(map(repr, row.tolist())) + "\n")


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
        import json
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(engine.series_to_dict(series), fh, indent=2)
            fh.write("\n")
    return 0


def cmd_eval(args) -> int:
    if args.grid is not None and not args.normalize:
        raise _InputError("argument --grid: not read without --normalize")
    series = _load_series_file(args.series)
    upto = _upto(args, series)
    powers = engine.lambda_powers(args.lam, upto)
    print(f"{'order':>5} {'E(lambda)':>24}")
    total = 0  # E_j lam^j added in turn, as sum() adds (before Python 3.12)
    for j, p in enumerate(powers):
        total += series.energies[j] * p
        print(f"{j:>5} {total:>24.16e}")
    if args.normalize:
        _, y = engine.sum_series(series, args.lam, upto, normalize=True)
        xs = np.linspace(y.a, y.b, 11 if args.grid is None else args.grid)
        _write_csv("x,y", xs, [y(xs)])
    return 0


def cmd_oracle(args) -> int:
    from . import oracles  # no other subcommand loads the oracles
    problem = _load_problem_file(args.problem)
    series = _load_series_file(args.series_file) if args.series_file else None
    if series is not None:
        if args.n not in (None, series.n):
            raise _InputError(f"argument --n: {args.n} differs from the "
                              f"series' n = {series.n}")
        summed, _ = engine.sum_series(series, args.lam, series.order)
    n = None  # the state index, checked when the guess comes from it
    if args.guess is not None:
        guess = args.guess
    elif series is not None:
        guess, n = summed, series.n
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
    value = oracles.fd_eigenvalue(problem, args.lam, guess, args.grid, n=n)
    print(f"fd_eigenvalue = {value:.12e}")
    if series is not None:
        print(f"series_sum    = {summed:.12e}")
        print(f"deviation     = {summed - value:.6e}")
    return 0


def cmd_export(args) -> int:
    if args.normalize and args.lam is None:
        raise _InputError("argument --normalize: not read without --lambda")
    series = _load_series_file(args.series)
    y0 = series.wavefuns[0]
    xs = np.linspace(y0.a, y0.b, args.grid)
    upto = _upto(args, series)
    if args.lam is not None:
        _, y = engine.sum_series(series, args.lam, upto,
                                 normalize=args.normalize)
        header = "x,y_sum"
        columns = [y(xs)]
    else:
        header = "x," + ",".join(f"y{j}" for j in range(upto + 1))
        columns = [series.wavefuns[j](xs) for j in range(upto + 1)]
    _write_csv(header, xs, columns, args.out)
    return 0


def cmd_validate(args) -> int:
    problem = _load_problem_file(args.problem)
    try:
        state = _make_state(problem, args)
    except StateError as exc:
        if exc.state is None:  # no state to report on
            raise
        state = exc.state
    ok, res, left, right = state_verdict(problem, state)
    print(f"ode_residual = {res:.6e}")
    print(f"|y0(a)|      = {left:.6e}")
    print(f"|y0(b)|      = {right:.6e}")
    print("state OK" if ok else "state INVALID")
    return 0 if ok else 2


#: subcommand -> (its cmd_* function, help, the flags it reads, the
#: defaults it sets on top of _FLAGS)
_SUBCOMMANDS = {
    "solve": (cmd_solve, "compute a perturbation series",
              ("--problem", "--n", "--order", "--out", "--amplitude"),
              dict(order=3)),
    "eval": (cmd_eval, "partial sums from a series file",
             ("series", "--lambda", "--order", "--normalize", "--grid"),
             dict(lam=0.0)),  # grid: 11, read only with --normalize
    "oracle": (cmd_oracle, "finite-difference eigenvalue",
               ("--problem", "--n", "--lambda", "--grid", "--guess",
                "--series"),
               dict(lam=0.0, grid=512, n=None)),  # n: series' n, else 1
    "export": (cmd_export, "sample wavefunctions to CSV",
               ("series", "--lambda", "--order", "--normalize", "--grid",
                "--out"),
               dict(grid=201)),
    "validate": (cmd_validate, "check an unperturbed state",
                 ("--problem", "--n", "--amplitude"), {}),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="pertbvp",
                description="Perturbation expansions for two-point boundary "
                            "eigenproblems with derivative couplings.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, defaults) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            spec = _FLAGS[flag]
            if flag == "--grid":
                spec = dict(spec, type=_number(int, *GRID_BOUNDS[name]))
            sp.add_argument(flag, **spec)
        sp.set_defaults(**defaults)
    return p


#: the flags whose value may be a negative number such as ``-1e-3``
_FLOAT_FLAGS = [flag for flag, spec in _FLAGS.items()
                if getattr(spec.get("type"), "__name__", "") == "float"]


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
        return _SUBCOMMANDS[args.command][0](args)
    except (_InputError, OSError, UnicodeDecodeError, ProblemConfigError,
            ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (engine.EngineError, StateError, SpectralError,
            ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
