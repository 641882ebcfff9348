"""Perturbation expansions for two-point boundary eigenvalue problems with
derivative-coupling perturbations, validated against built-in exact oracles."""

from .engine import (GhostFunction, PerturbationSeries, compute_series, ghost,
                     normalization_coeffs, order_rhs, residual, series_from_dict,
                     series_to_dict, solvability_energy, solve_order, sum_series)
from .expr import differentiate, evaluate, parse, to_string
from .funcspace import SpectralFun
from .problem import (LinearOperator, PerturbationProblem, UnperturbedState,
                      analytic_sine_state, load_problem, state_from_expr,
                      state_verdict)

__version__ = "0.1.0"

__all__ = [
    "SpectralFun",
    "LinearOperator",
    "PerturbationProblem",
    "UnperturbedState",
    "GhostFunction",
    "PerturbationSeries",
    "parse",
    "evaluate",
    "differentiate",
    "to_string",
    "load_problem",
    "analytic_sine_state",
    "state_from_expr",
    "state_verdict",
    "ghost",
    "order_rhs",
    "solve_order",
    "solvability_energy",
    "compute_series",
    "normalization_coeffs",
    "sum_series",
    "residual",
    "series_to_dict",
    "series_from_dict",
]
