"""Tests of the benchmark itself: self-time arithmetic, the tail rule, seeded
inputs, and the oracle checks catching wrong answers.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import io
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import checks  # noqa: E402
import ops  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from pertbvp import cli  # noqa: E402


# ----------------------------------------------------------------------
# self times and the tail rule
# ----------------------------------------------------------------------

def _self(spans):
    start, end, parent = zip(*spans)
    return list(tracing.self_times(start, end, parent))


def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    spans = [(0, 10, -1), (1, 4, 0), (2, 3, 1), (5, 9, 0)]
    assert _self(spans) == [3, 2, 1, 4]
    assert sum(_self(spans)) == 10


def test_self_time_counts_overlap_once_and_clips_to_parent():
    # children [1,5] and [3,7] overlap: they cover [1,7]; [8,12] is clipped
    # to the parent's end at 10
    spans = [(0, 10, -1), (1, 5, 0), (3, 7, 0), (8, 12, 0)]
    assert _self(spans)[0] == 10 - 6 - 2


def test_layer_totals_sum_to_root_duration():
    tracer = tracing.Tracer()
    mod = types.SimpleNamespace()

    def leaf(x):
        return x + 1

    def branch(x):
        return mod.leaf(x) + mod.leaf(x)

    mod.leaf = tracer.wrap("leaf", leaf)
    mod.branch = tracer.wrap("branch", branch)
    root_id = tracer.intern("op")
    idx = tracer.open(root_id)
    mod.branch(1)
    tracer.close(idx)
    calls, seconds, per_root = tracing.layer_totals(tracer, [idx])
    assert dict(calls) == {"op": 1, "branch": 1, "leaf": 2}
    duration = tracer.end[idx] - tracer.start[idx]
    assert per_root[idx] == pytest.approx(duration, rel=1e-9, abs=1e-12)


def test_recursive_name_records_only_outermost_call():
    tracer = tracing.Tracer()
    mod = types.SimpleNamespace()

    def depth(k):
        return 0 if k == 0 else 1 + mod.depth(k - 1)

    mod.depth = tracer.wrap("depth", depth)
    assert mod.depth(5) == 5
    assert len(tracer) == 1


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct, count = stats.tail(list(range(1, 101)))
    assert (value, pct, count) == (90, 90.0, 100)
    value, pct, count = stats.tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    assert cases.make_cases(workload, 7) == cases.make_cases(workload, 7)
    assert cases.make_cases(workload, 7) != cases.make_cases(workload, 8)


def test_inputs_stay_inside_slot_ranges():
    for seed in range(20):
        for case in cases.make_cases("deep-series", seed):
            assert 1 <= case.n <= 10 and 20 <= case.J <= 40 and case.M == 0
        for case in cases.make_cases("excited-oracle", seed):
            assert case.J <= 10 and 2048 <= case.M <= 8192
            assert case.model == "closed" or 20 <= case.n <= 100


# ----------------------------------------------------------------------
# checks catch wrong answers
# ----------------------------------------------------------------------

SERIES_CASE = cases.Case("t", "model1", 2, 6, 0.3, 256)


@pytest.fixture(scope="module")
def series_result():
    return ops.series_op(SERIES_CASE)


def test_correct_series_passes(series_result):
    verdict = checks.check_series(SERIES_CASE, series_result)
    assert verdict.failures == []
    assert set(verdict.errors) == {"E", "y", "norm", "fd"}


def test_perturbed_energy_is_caught(series_result):
    series, energy, y, fd = series_result
    energies = list(series.energies)
    energies[2] *= 1 + 1e-7
    bad = dataclasses.replace(series, energies=energies)
    verdict = checks.check_series(SERIES_CASE, (bad, energy, y, fd))
    assert any("E_2" in f for f in verdict.failures)


def test_perturbed_wavefunction_is_caught(series_result):
    series, energy, y, fd = series_result
    wavefuns = list(series.wavefuns)
    wavefuns[3] = wavefuns[3] * (1 + 1e-6)
    bad = dataclasses.replace(series, wavefuns=wavefuns)
    verdict = checks.check_series(SERIES_CASE, (bad, energy, y, fd))
    assert any("y_3" in f for f in verdict.failures)


def test_perturbed_normalization_is_caught(series_result):
    series, energy, y, fd = series_result
    verdict = checks.check_series(SERIES_CASE, (series, energy, y * 1.001, fd))
    assert any("norm" in f for f in verdict.failures)


def test_perturbed_fd_value_is_caught(series_result):
    series, energy, y, fd = series_result
    verdict = checks.check_series(SERIES_CASE, (series, energy, y, fd * (1 + 1e-5)))
    assert any("fd" in f for f in verdict.failures)


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def test_cli_checks_catch_changed_outputs(tmp_path):
    prob = tmp_path / "model1.prob"
    prob.write_text(checks.problem_text("model1"))
    out = tmp_path / "s.json"
    case = cases.Case("t", "model1", 2, 6, 0.3, 256, "solve")
    rc, text = _cli(["solve", "--problem", str(prob), "--n", "2", "--order", "6",
                     "--out", str(out)])
    fixture = out.read_bytes()
    assert checks.check_cli(case, rc, text, fixture, fixture).failures == []
    changed = fixture.replace(b'"n": 2', b'"n": 2 ', 1)
    assert checks.check_cli(case, rc, text, changed, fixture).failures
    assert checks.check_cli(case, 2, text, fixture, fixture).failures

    case = dataclasses.replace(case, command="eval")
    rc, text = _cli(["eval", str(out), "--lambda", "0.3", "--order", "6"])
    assert checks.check_cli(case, rc, text, None, fixture).failures == []
    lines = text.splitlines()
    lines[-1] = lines[-1].replace(lines[-1].split()[1],
                                  repr(float(lines[-1].split()[1]) * (1 + 1e-12)))
    assert checks.check_cli(case, rc, "\n".join(lines), None, fixture).failures
