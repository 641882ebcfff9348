"""Span tracer that wraps pertbvp's layers from outside.

:func:`install` replaces module attributes and ``SpectralFun`` methods with
wrappers that record one span (name, start, end, parent) per call.  Spans
are kept in compact arrays in memory and written out when the run ends.  A
name that re-enters itself (recursive ``expr.evaluate``) records only its
outermost call.  Self time is a span's duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

__all__ = ["Tracer", "install", "self_times", "layer_totals"]


class Tracer:
    """In-memory span store.  ``counters`` and ``maxima`` hold values that
    hooks compute at call boundaries (work counts, defects, gaps)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._active = []  # per name id: 1 while an outermost call runs
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def __len__(self):
        return len(self.start)

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """Wrapper that records a span per outermost call of ``fn``.
        ``hook(tracer, args, result)`` runs after each recorded call."""
        nid = self.intern(name)
        active = self._active

        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            active[nid] = 1
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                active[nid] = 0
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def observe(self, fn, hook):
        """Wrapper that records no span, only ``hook(tracer, args, result)``."""

        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result

        observed.__wrapped__ = fn
        return observed

    def save(self, path):
        """Write the spans (and the name table) as compressed arrays."""
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end),
                            parent=np.frombuffer(self.parent, dtype=np.int32))


def self_times(start, end, parent) -> array:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span.  ``parent[i]`` is the index
    of span i's parent, or -1; spans are listed in order of start time, as
    the tracer records them."""
    covered = array("d", bytes(8 * len(start)))
    reach = array("d", start)  # end of the covered part of each span so far
    for i, p in enumerate(parent):
        if p >= 0:
            s, e = max(start[i], reach[p]), min(end[i], end[p])
            if e > s:
                covered[p] += e - s
                reach[p] = e
    return array("d", (e - s - c for s, e, c in zip(start, end, covered)))


def layer_totals(tracer: Tracer, roots) -> tuple:
    """Per-name outermost calls and self seconds over the subtrees of the
    ``roots`` spans, and the sum of self times under each root."""
    roots = set(roots)
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    root_of = array("i")
    calls = defaultdict(int)
    seconds = defaultdict(float)
    per_root = defaultdict(float)
    for i, (nid, p) in enumerate(zip(tracer.name_id, tracer.parent)):
        root = i if i in roots else (root_of[p] if p >= 0 else -1)
        root_of.append(root)
        if root < 0:
            continue
        name = tracer.names[nid]
        calls[name] += 1
        seconds[name] += selfs[i]
        per_root[root] += selfs[i]
    return calls, seconds, per_root


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------

def _mul_work(tracer, args, result):
    a, b = args
    nb = len(b.coeffs) if hasattr(b, "coeffs") else 1
    tracer.counters["funcspace.mul.coeff_work"] += len(a.coeffs) * nb


def _defect(tracer, args, result):
    key = "engine.ghost.wronskian_defect"
    tracer.maxima[key] = max(tracer.maxima[key], result)


def _richardson_hooks():
    """fd_eigenvalue extrapolates from fd_eigenvalue_raw on M (coarse) then
    2M (fine); record |fine - coarse| relative to the result."""
    raw = []

    def on_raw(tracer, args, result):
        raw.append(result)

    def on_fd(tracer, args, result):
        coarse, fine = raw[-2:]
        raw.clear()
        key = "oracles.richardson_gap"
        tracer.maxima[key] = max(tracer.maxima[key],
                                 abs(fine - coarse) / abs(result))

    return on_raw, on_fd


def _targets():
    """(owner, attribute, span name or None, hook) for every wrapped call."""
    from pertbvp import cli, engine, expr, funcspace, oracles, problem

    fun = funcspace.SpectralFun
    prob = problem.PerturbationProblem
    on_raw, on_fd = _richardson_hooks()
    return [
        (expr, "evaluate", "expr.evaluate", None),
        (expr, "parse", "expr.parse", None),
        (fun, "__mul__", "funcspace.mul", _mul_work),
        (fun, "__rmul__", "funcspace.mul", _mul_work),
        (fun, "from_function", "funcspace.from_function", None),
        (fun, "cumulative_integral", "funcspace.cumulative_integral", None),
        (fun, "definite_integral", "funcspace.definite_integral", None),
        (fun, "derivative", "funcspace.derivative", None),
        (fun, "__call__", "funcspace.eval", None),
        (prob, "apply_perturbation", "problem.apply_perturbation", None),
        (prob, "v0_is_zero", "problem.v0_is_zero", None),
        (problem, "analytic_sine_state", "problem.state", None),
        (problem, "state_from_expr", "problem.state", None),
        (cli, "analytic_sine_state", "problem.state", None),
        (cli, "state_from_expr", "problem.state", None),
        (engine, "ghost", "engine.ghost", None),
        (engine, "_wronskian_defect", None, _defect),
        (engine, "solve_order", "engine.solve_order", None),
        (engine, "_vp", "engine._vp", None),
        (engine, "order_rhs", "engine.order_rhs", None),
        (engine, "normalization_coeffs", "engine.normalization_coeffs", None),
        (engine, "sum_series", "engine.sum_series", None),
        (engine, "series_to_dict", "engine.series_io", None),
        (engine, "series_from_dict", "engine.series_io", None),
        (oracles, "fd_eigenvalue", "oracles.fd_eigenvalue", on_fd),
        (oracles, "fd_eigenvalue_raw", None, on_raw),
        (oracles, "solve_banded", "oracles.solve_banded", None),
        (cli, "main", "cli.main", None),
    ]


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    shared = {}  # one wrapper per (function, span name), e.g. __mul__/__rmul__
    for owner, attr, name, hook in _targets():
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        key = (id(fn), name)
        if key not in shared:
            if name is None:
                shared[key] = tracer.observe(fn, hook)
            else:
                shared[key] = tracer.wrap(name, fn, hook)
        wrapper = shared[key]
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        saved.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
