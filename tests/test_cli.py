import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pertbvp import cli, engine, oracles
from pertbvp.cli import (_SUBCOMMANDS, GRID_BOUNDS, MAX_ORDER, _build_parser,
                         main)
from pertbvp.oracles import model1_config, model3_config, model3_E_coeffs

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
PI2 = math.pi ** 2


@pytest.fixture
def model1_file(tmp_path):
    p = tmp_path / "model1.prob"
    p.write_text(model1_config())
    return str(p)


@pytest.fixture
def model3_file(tmp_path):
    p = tmp_path / "model3.prob"
    p.write_text(model3_config())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# solve
# ----------------------------------------------------------------------

def test_solve_model3_table_and_file(capsys, tmp_path, model3_file):
    out_file = tmp_path / "s.json"
    code, out, _ = run(capsys, "solve", "--problem", model3_file,
                       "--n", "1", "--order", "3", "--out", str(out_file))
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 5  # header + orders 0..3
    e1 = float(rows[2].split()[1])
    assert e1 == pytest.approx(-3.4739, abs=1e-4)
    data = json.loads(out_file.read_text())
    assert data["n"] == 1
    assert [o["j"] for o in data["orders"]] == [0, 1, 2, 3]
    assert data["orders"][0]["E"] == pytest.approx(PI2)
    assert len(data["norm"]) == 4


def test_solve_model1_excited(capsys, model1_file):
    code, out, _ = run(capsys, "solve", "--problem", model1_file,
                       "--n", "2", "--order", "4")
    assert code == 0
    rows = out.strip().splitlines()[1:]
    energies = [float(r.split()[1]) for r in rows]
    assert energies[2] == pytest.approx(0.25, abs=1e-9)
    for j in (1, 3, 4):
        assert abs(energies[j]) <= 1e-8


def test_solve_constant_p0_vanishing_orders(capsys, tmp_path):
    # y_1 = V(g_1) + E_1 phi_b cancels to rounding: the orders vanish
    # exactly, E = E0 + 3 lam, and are not taken for rounding noise
    prob = tmp_path / "shift.prob"
    prob.write_text("domain = 0 1\nv0 = 0\nperturbation.1.p2 = 0\n"
                    "perturbation.1.p1 = 0\nperturbation.1.p0 = 3\n")
    code, out, _ = run(capsys, "solve", "--problem", str(prob),
                       "--order", "2")
    assert code == 0
    energies = [float(r.split()[1]) for r in out.strip().splitlines()[1:]]
    assert energies[1] == pytest.approx(3.0, rel=1e-13)
    assert energies[2] == 0.0


def test_solve_negative_order_is_usage_error(capsys, model1_file):
    code, _, err = run(capsys, "solve", "--problem", model1_file,
                       "--order", "-1")
    assert code == 1
    assert "order" in err


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "--problem", "no_such.prob")
    assert code == 1
    assert err


def test_solve_bad_config(capsys, tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("domain = 0 1\nv0 = 2*\nperturbation.1.p2 = 0\n"
                   "perturbation.1.p1 = 1\nperturbation.1.p0 = 0\n")
    code, _, err = run(capsys, "solve", "--problem", str(bad))
    assert code == 1
    assert "v0" in err


def test_solve_output_is_deterministic(capsys, tmp_path, model3_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "solve", "--problem", model3_file, "--order", "2",
        "--out", str(a))
    run(capsys, "solve", "--problem", model3_file, "--order", "2",
        "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_solve_non_utf8_problem_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_bytes(model3_config().encode() + b"# \xff\xfe\n")
    code, _, err = run(capsys, "solve", "--problem", str(bad))
    assert code == 1
    assert err.startswith("error:") and "utf-8" in err


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

@pytest.fixture
def model3_series(capsys, tmp_path, model3_file):
    out_file = tmp_path / "series3.json"
    run(capsys, "solve", "--problem", model3_file, "--n", "1", "--order", "3",
        "--amplitude", "1", "--out", str(out_file))
    return str(out_file)


def test_eval_partial_sums(capsys, model3_series):
    code, out, _ = run(capsys, "eval", model3_series, "--lambda", "1")
    assert code == 0
    sums = [float(r.split()[1]) for r in out.strip().splitlines()[1:]]
    assert sums == pytest.approx([9.8696, 6.3957, 6.1334, 6.0543], abs=5e-4)


def test_eval_lambda_zero(capsys, model3_series):
    code, out, _ = run(capsys, "eval", model3_series, "--lambda", "0",
                       "--order", "0")
    assert code == 0
    sums = [float(r.split()[1]) for r in out.strip().splitlines()[1:]]
    assert sums == [pytest.approx(PI2)]


def test_eval_model1_terminated(capsys, tmp_path, model1_file):
    series = tmp_path / "s1.json"
    run(capsys, "solve", "--problem", model1_file, "--order", "3",
        "--out", str(series))
    code, out, _ = run(capsys, "eval", str(series), "--lambda", "0.8")
    sums = [float(r.split()[1]) for r in out.strip().splitlines()[1:]]
    assert sums[2] == pytest.approx(10.0296, abs=1e-4)
    assert sums[3] == pytest.approx(10.0296, abs=1e-4)


def test_eval_corrupt_series(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "eval", str(bad))
    assert code == 1
    assert err


def test_eval_non_utf8_series_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 1, "\xff": 0}')
    code, _, err = run(capsys, "eval", str(bad))
    assert code == 1
    assert err.startswith("error:") and "utf-8" in err


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def test_oracle_model3_with_series(capsys, model3_file, model3_series):
    code, out, _ = run(capsys, "oracle", "--problem", model3_file,
                       "--lambda", "1", "--n", "1", "--guess", "9",
                       "--series", model3_series)
    assert code == 0
    lines = dict(l.split("=") for l in out.strip().splitlines())
    assert float(lines["fd_eigenvalue "]) == pytest.approx(6.0, abs=1e-4)
    assert float(lines["deviation     "]) == pytest.approx(0.054, abs=2e-3)


def test_oracle_model1(capsys, model1_file):
    code, out, _ = run(capsys, "oracle", "--problem", model1_file,
                       "--lambda", "0.5", "--n", "1")
    assert code == 0
    value = float(out.strip().splitlines()[0].split("=")[1])
    assert value == pytest.approx(PI2 + 1.0 / 16.0, abs=1e-6)
    # without --series, --n defaults to 1
    assert run(capsys, "oracle", "--problem", model1_file,
               "--lambda", "0.5") == (code, out, "")


def test_oracle_on_two_states_is_a_computation_failure(capsys):
    # at M = 512 the coarse eigenvector nearest (100 pi)^2 has 101 sign
    # changes and the fine one 100: two states, which Richardson would mix
    demo = str(DEMOS / "model1.prob")
    code, out, err = run(capsys, "oracle", "--problem", demo, "--lambda", "0",
                         "--n", "100", "--grid", "512")
    assert (code, out) == (2, "")
    assert err.startswith("computation failed: ")
    assert "101 sign changes on M = 512 points and 100 on 1025" in err
    assert run(capsys, "oracle", "--problem", demo, "--lambda", "0", "--n",
               "100", "--grid", "2048") == (
        0, "fd_eigenvalue = 9.869600615435e+04\n", "")


def test_oracle_on_another_state_than_n_is_a_computation_failure(capsys):
    # at M = 255 both grids agree on the eigenvector nearest (50 pi)^2, but
    # it has 50 sign changes: the n = 51 level, not the n = 50 one asked for
    demo = str(DEMOS / "model1.prob")
    code, out, err = run(capsys, "oracle", "--problem", demo, "--lambda", "0",
                         "--n", "50", "--grid", "255")
    assert (code, out) == (2, "")
    assert err.startswith("computation failed: ")
    assert "50 sign changes on M = 255 points, where state n = 50 has 49" \
        in err
    assert run(capsys, "oracle", "--problem", demo, "--lambda", "0", "--n",
               "50", "--grid", "2048") == (
        0, "fd_eigenvalue = 2.467401041098e+04\n", "")


def test_oracle_checks_the_series_state(capsys, tmp_path):
    # a sum that lands nearer another level is refused, not answered
    demo = str(DEMOS / "model1.prob")
    series = tmp_path / "s.json"
    run(capsys, "solve", "--problem", demo, "--n", "3", "--order", "10",
        "--out", str(series))
    data = json.loads(series.read_text())
    data["orders"][0]["E"] = (4 * math.pi) ** 2
    series.write_text(json.dumps(data))
    code, out, err = run(capsys, "oracle", "--problem", demo, "--lambda",
                         "0.3", "--series", str(series), "--grid", "512")
    assert (code, out) == (2, "")
    assert "where state n = 3 has 2" in err


def test_oracle_series_deviation_is_the_fourth_order_fd_error(capsys,
                                                              tmp_path):
    # model 1 at n = 3, lam = 0.3: the order-10 sum is the exact level to
    # rounding, so the deviation is the FD error, ~7e-9 at M = 512 on the
    # exact half-step pair
    demo = str(DEMOS / "model1.prob")
    series = tmp_path / "s.json"
    run(capsys, "solve", "--problem", demo, "--n", "3", "--order", "10",
        "--out", str(series))
    code, out, _ = run(capsys, "oracle", "--problem", demo, "--lambda", "0.3",
                       "--series", str(series), "--grid", "512")
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("deviation ")
    assert abs(float(last.split("=")[1])) <= 1e-8


def test_oracle_model3_demo_keeps_its_rounding_floor(capsys):
    # at M = 16384 the extrapolated value is limited by rounding, which grows
    # like eps/h^2; a band form with one more rounded term per entry is ~3x
    # further off
    demo = str(DEMOS / "model3.prob")
    code, out, _ = run(capsys, "oracle", "--problem", demo, "--lambda", "1",
                       "--guess", "9", "--grid", "16384")
    assert code == 0
    value = float(out.split("=")[1])
    assert abs(value - 6.0) <= 6e-9 * 6.0


def test_oracle_default_guess_is_closed_form_e0(capsys, tmp_path):
    # (pi / L)^2 would land on the n = 1 level pi^2 + 60 of this v0 = 60 box
    prob = tmp_path / "shifted.prob"
    prob.write_text(f"domain = 0 1\nv0 = 60\ny0 = sin(2*pi*x)\n"
                    f"E0 = {4 * PI2 + 60!r}\nperturbation.1.p2 = 0\n"
                    "perturbation.1.p1 = 0\nperturbation.1.p0 = x\n")
    code, out, _ = run(capsys, "oracle", "--problem", str(prob), "--n", "2",
                       "--lambda", "0")
    assert code == 0
    value = float(out.strip().splitlines()[0].split("=")[1])
    assert value == pytest.approx(4 * PI2 + 60, abs=1e-3)


def _v0_file(tmp_path, v0):
    prob = tmp_path / "v0.prob"
    prob.write_text(f"domain = 0 1\nv0 = {v0}\nperturbation.1.p2 = 0\n"
                    "perturbation.1.p1 = 0\nperturbation.1.p0 = 3\n")
    return str(prob)


@pytest.mark.parametrize("v0", ["50*x", "50*sqrt((x-0.3)^2)"],
                         ids=["varying", "no-chebyshev-fit"])
def test_oracle_without_a_guess_on_a_nonzero_v0_is_an_input_error(
        capsys, tmp_path, v0):
    # no guess to take: (2 pi / L)^2 ignores v0 and can converge to
    # another level
    code, out, err = run(capsys, "oracle", "--problem", _v0_file(tmp_path, v0),
                         "--n", "2")
    assert code == 1 and not out
    assert err == ("error: oracle needs --guess, --series or the problem "
                   "file's E0 when v0 is not constant\n")


def test_oracle_without_a_guess_on_a_constant_v0_finds_the_level(
        capsys, tmp_path):
    # the guess (2 pi / L)^2 + 50; (2 pi / L)^2 alone converged to the
    # n = 1 level pi^2 + 50
    code, out, _ = run(capsys, "oracle", "--problem",
                       _v0_file(tmp_path, "50"), "--n", "2")
    assert code == 0
    assert out == "fd_eigenvalue = 8.947841760345e+01\n"
    assert float(out.split("=")[1]) == pytest.approx(4 * PI2 + 50,
                                                     rel=1e-10)


def test_oracle_with_a_guess_on_a_nonzero_v0_finds_the_level(
        capsys, tmp_path):
    code, out, _ = run(capsys, "oracle", "--problem", _v0_file(tmp_path, "50"),
                       "--n", "2", "--guess", "89")
    assert code == 0
    value = float(out.strip().splitlines()[0].split("=")[1])
    assert value == pytest.approx(4 * PI2 + 50, abs=1e-3)


def test_oracle_bad_guess_far_from_spectrum(capsys, model1_file):
    code, _, err = run(capsys, "oracle", "--problem", model1_file,
                       "--lambda", "0", "--guess", "1e7", "--grid", "32")
    assert code == 2
    assert err


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------

def test_export_columns_and_endpoints(capsys, tmp_path, model1_file):
    series = tmp_path / "s1.json"
    run(capsys, "solve", "--problem", model1_file, "--order", "1",
        "--out", str(series))
    csv_file = tmp_path / "y.csv"
    code, _, _ = run(capsys, "export", str(series), "--out", str(csv_file))
    assert code == 0
    rows = csv_file.read_text().strip().splitlines()
    assert rows[0] == "x,y0,y1"
    assert len(rows) == 202  # header + 201 points
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert first[0] == 0.0 and last[0] == 1.0
    for v in first[1:] + last[1:]:
        assert abs(v) <= 1e-9
    # y1 = (x/2) y0 pointwise
    for row in rows[1:]:
        x, y0, y1 = (float(v) for v in row.split(","))
        assert y1 == pytest.approx(0.5 * x * y0, abs=1e-9)


def test_export_model3_y1_matches_oracle(capsys, tmp_path, model3_file):
    from pertbvp.oracles import model3_y1_exact
    series = tmp_path / "s3.json"
    run(capsys, "solve", "--problem", model3_file, "--order", "1",
        "--out", str(series))
    csv_file = tmp_path / "y.csv"
    run(capsys, "export", str(series), "--out", str(csv_file))
    exact = model3_y1_exact(1)
    for row in csv_file.read_text().strip().splitlines()[1:]:
        x, _, y1 = (float(v) for v in row.split(","))
        assert y1 == pytest.approx(exact(x), abs=1e-8)


def test_export_summed(capsys, tmp_path, model3_series):
    csv_file = tmp_path / "sum.csv"
    code, _, _ = run(capsys, "export", model3_series, "--lambda", "0.5",
                     "--order", "3", "--out", str(csv_file))
    assert code == 0
    rows = csv_file.read_text().strip().splitlines()
    assert rows[0] == "x,y_sum"


def test_export_deterministic(capsys, tmp_path, model3_series):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "export", model3_series, "--out", str(a))
    run(capsys, "export", model3_series, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# validate and shipped samples
# ----------------------------------------------------------------------

def test_validate_ok(capsys, model1_file):
    code, out, _ = run(capsys, "validate", "--problem", model1_file,
                       "--n", "2")
    assert code == 0
    assert "state OK" in out


def test_validate_accepts_the_sine_state_on_a_short_interval(capsys,
                                                            tmp_path):
    # |y0(a)| = 7.6e-10 at L = 1e-11: rounding of sup |y0| = 4.5e5
    prob = tmp_path / "short.prob"
    prob.write_text("domain = 0 1e-11\nv0 = 0\nperturbation.1.p2 = 0\n"
                    "perturbation.1.p1 = 0\nperturbation.1.p0 = 3\n")
    code, out, _ = run(capsys, "validate", "--problem", str(prob))
    assert code == 0
    assert out.endswith("state OK\n")


def test_a_tiny_v0_is_not_dropped(capsys, tmp_path):
    # v0 = 1e-13 on a long interval is far above the free (pi / L)^2 =
    # 9.87e-18, and E0 counts it
    prob = tmp_path / "tiny.prob"
    prob.write_text("domain = 0 1e9\nv0 = 1e-13\nperturbation.1.p2 = 0\n"
                    "perturbation.1.p1 = 0\nperturbation.1.p0 = 3\n")
    code, out, err = run(capsys, "solve", "--problem", str(prob),
                         "--order", "1")
    assert code == 0 and err == ""
    e0 = (math.pi / 1e9) ** 2 + 1e-13
    assert out.splitlines()[1].split()[:2] == ["0", f"{e0:.16e}"]
    assert float(out.splitlines()[2].split()[1]) == pytest.approx(3.0)


def test_a_constant_v0_needs_no_closed_form(capsys, tmp_path, model3_file):
    # model 3 on v0 = 5 without y0 / E0: the sine state at E0 = pi^2 + 5,
    # and the E_j (j >= 1) of model 3 on v0 = 0
    prob = tmp_path / "shifted.prob"
    prob.write_text(model3_config().replace("v0 = 0", "v0 = 5"))
    code, out, err = run(capsys, "validate", "--problem", str(prob))
    assert code == 0 and err == "" and out.endswith("state OK\n")
    code, out, err = run(capsys, "solve", "--problem", str(prob),
                         "--order", "8")
    assert code == 0 and err == ""
    shifted = [float(row.split()[1]) for row in out.splitlines()[1:]]
    code, out, _ = run(capsys, "solve", "--problem", model3_file,
                       "--order", "8")
    assert code == 0
    free = [float(row.split()[1]) for row in out.splitlines()[1:]]
    assert shifted[0] == PI2 + 5.0
    assert shifted[1:] == free[1:]


def test_shipped_sample_problems(capsys):
    for name in ("model1.prob", "model3.prob"):
        path = DEMOS / name
        assert path.exists()
        code, _, _ = run(capsys, "validate", "--problem", str(path))
        assert code == 0


@pytest.mark.parametrize("script", ["run_model1.py", "run_model3.py"])
def test_demo_scripts_run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / script)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    # one printed claim of each: the summed model-1 energy reads as the
    # exact one, and the oracle finds model 3's exact ground state, 6
    if script == "run_model1.py":
        summed, exact = re.search(r"summed energy at coupling \S+: (\S+)\n"
                                  r"exact energy: +(\S+)\n",
                                  done.stdout).groups()
        assert summed == exact
    else:
        assert re.search(r"finite-difference oracle: +6\.000000 ",
                         done.stdout)


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err


# ----------------------------------------------------------------------
# flags: each subcommand takes only the flags it reads
# ----------------------------------------------------------------------

def test_eval_and_export_default_to_whole_series(capsys, tmp_path,
                                                 model3_file):
    series = tmp_path / "s8.json"
    run(capsys, "solve", "--problem", model3_file, "--order", "8",
        "--out", str(series))
    code, out, _ = run(capsys, "eval", str(series), "--lambda", "0.5")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 9  # header + orders 0..8
    csv_file = tmp_path / "y.csv"
    code, _, _ = run(capsys, "export", str(series), "--out", str(csv_file))
    assert code == 0
    header = csv_file.read_text().splitlines()[0]
    assert header == "x," + ",".join(f"y{j}" for j in range(9))


def test_solve_order_defaults_to_three(capsys, model3_file):
    code, out, _ = run(capsys, "solve", "--problem", model3_file)
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4


@pytest.mark.parametrize("argv", [
    ("validate", "--problem", "P", "--lambda", "1"),
    ("validate", "--problem", "P", "--grid", "64"),
    ("solve", "--problem", "P", "--normalize"),
    ("solve", "--problem", "P", "--lambda", "1"),
    ("oracle", "--problem", "P", "--order", "3"),
    ("eval", "S", "--n", "2"),
    ("export", "S", "--amplitude", "1"),
])
def test_unread_flag_is_usage_error(capsys, model3_file, model3_series,
                                    argv):
    # real files, so that an accepted flag would run and exit 0
    argv = [{"P": model3_file, "S": model3_series}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("argv, flag, needed", [
    (("eval", "S", "--grid", "5"), "--grid", "--normalize"),
    (("eval", "S", "--lambda", "0.5", "--grid", "11"), "--grid",
     "--normalize"),
    (("export", "S", "--normalize"), "--normalize", "--lambda"),
    (("export", "S", "--normalize", "--grid", "5", "--out", "O"),
     "--normalize", "--lambda"),
], ids=["eval-grid", "eval-default-grid", "export-normalize",
        "export-normalize-out"])
def test_flag_read_only_with_another_is_usage_error(
        capsys, tmp_path, model3_series, argv, flag, needed):
    # the flag parses, but its value would be ignored: exit 1 before the
    # series file is read or a file is written
    out_file = tmp_path / "y.csv"
    argv = [{"S": model3_series, "O": str(out_file)}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: argument {flag}: not read without {needed}\n"
    assert out == "" and not out_file.exists()


def test_eval_grid_defaults_to_eleven_points_under_normalize(
        capsys, model3_series):
    code, out, _ = run(capsys, "eval", model3_series, "--lambda", "0.5",
                       "--normalize")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) - rows.index("x,y") - 1 == 11


def test_readme_examples_parse():
    lines = [line.split()[1:]
             for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("pertbvp ")]
    assert {argv[0] for argv in lines} == {"solve", "eval", "oracle",
                                           "export", "validate"}
    parser = _build_parser()
    for argv in lines:
        parser.parse_args(argv)


def test_readme_flag_table_is_the_subcommand_table():
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    rows = {}
    for line in lines[start:start + len(_SUBCOMMANDS) + 1]:
        if not line.startswith("|"):
            break
        name, flags = (cell.strip().strip("`")
                       for cell in line.strip("|").split("|"))
        rows[name] = tuple(flags.split())
    assert rows == {name: row[2] for name, row in _SUBCOMMANDS.items()}


def test_readme_bounds_are_the_cli_constants():
    text = " ".join((ROOT / "README.md").read_text().split())
    assert int(re.search(r"`--order` is at most (\d+)", text)[1]) == MAX_ORDER
    grid = re.search(r"`--grid` takes (\d+) to (\d+) samples on `eval` and "
                     r"`export` and (\d+) to (\d+) interior points on "
                     r"`oracle`", text)
    low, high, fd_low, fd_high = map(int, grid.groups())
    assert GRID_BOUNDS == {"eval": (low, high), "export": (low, high),
                           "oracle": (fd_low, fd_high)}


@pytest.mark.parametrize("argv, explicit", [
    (("eval", "S"), ("--lambda", "0")),
    (("eval", "S", "--normalize"), ("--grid", "11")),
    (("export", "S"), ("--grid", "201")),
    (("oracle", "--problem", "P", "--guess", "9"),
     ("--lambda", "0", "--grid", "512")),
    (("solve", "--problem", "P"), ("--order", "3")),
    (("oracle", "--problem", "P", "--series", "S"), ("--n", "N")),
], ids=["eval", "eval-normalize", "export", "oracle", "solve",
        "oracle-series"])
def test_table_defaults_are_the_explicit_flags(capsys, model3_file,
                                               model3_series, argv, explicit):
    n = str(json.loads(Path(model3_series).read_text())["n"])
    names = {"P": model3_file, "S": model3_series, "N": n}
    runs = [run(capsys, *[names.get(a, a) for a in args])
            for args in (argv, argv + explicit)]
    assert runs[0][0] == 0
    assert runs[0] == runs[1]


def test_closed_form_state_off_the_boundary_fails_at_load(capsys, tmp_path):
    # |y0(a)| = 7.1e-10 after normalization: above the 1e-10 boundary bound;
    # solve fails on it, validate reports it
    prob = tmp_path / "off.prob"
    prob.write_text("domain = 0 1\nv0 = 5\ny0 = sin(pi*x) + 5e-10*(1-x)\n"
                    f"E0 = {PI2 + 5.0!r}\nperturbation.1.p2 = 0\n"
                    "perturbation.1.p1 = 1\nperturbation.1.p0 = 0\n")
    code, out, err = run(capsys, "solve", "--problem", str(prob))
    assert code == 2
    assert "closed-form state fails validation" in err
    assert out == ""
    code, out, err = run(capsys, "validate", "--problem", str(prob))
    assert code == 2
    assert out.splitlines()[1] == "|y0(a)|      = 7.071042e-10"
    assert out.endswith("state INVALID\n")
    assert err == ""


def test_validate_without_a_state_is_a_computation_failure(capsys,
                                                           tmp_path):
    # no state to report on: validate fails as solve does
    prob = tmp_path / "zero.prob"
    prob.write_text(_MODEL1.replace("v0 = 0", "v0 = 0\ny0 = 0\nE0 = 9"))
    for command in ("validate", "solve"):
        code, out, err = run(capsys, command, "--problem", str(prob))
        assert code == 2
        assert err == ("computation failed: unperturbed state is "
                       "identically zero\n")
        assert out == ""


def test_validate_reports_a_wrong_closed_form_energy(capsys, tmp_path):
    # E0 = 9 against the true pi^2: solve fails on the state, validate
    # prints its four lines and the verdict
    prob = tmp_path / "wrong.prob"
    prob.write_text(_MODEL1.replace("v0 = 0", "v0 = 0\ny0 = sin(pi*x)\n"
                                              "E0 = 9"))
    code, out, err = run(capsys, "solve", "--problem", str(prob))
    assert code == 2
    assert out == ""
    assert err == ("computation failed: closed-form state fails validation: "
                   "residual 1.230e+00, |y0(a)|=2.665e-15, "
                   "|y0(b)|=2.665e-15, 0 sign changes where state n = 1 "
                   "has 0\n")
    code, out, err = run(capsys, "validate", "--problem", str(prob))
    assert code == 2
    assert out == ("ode_residual = 1.229806e+00\n"
                   "|y0(a)|      = 2.664535e-15\n"
                   "|y0(b)|      = 2.664535e-15\n"
                   "sign_changes = 0 (state n = 1 has 0)\n"
                   "state INVALID\n")
    assert err == ""
    # sin(2 pi x) at E0 = 4 pi^2 is the n = 2 state: under --n 1 solve
    # refuses it, so no series file carries the wrong n
    prob.write_text(_MODEL1.replace(
        "v0 = 0", f"v0 = 0\ny0 = sin(2*pi*x)\nE0 = {4 * PI2!r}"))
    out_file = tmp_path / "s.json"
    code, out, err = run(capsys, "solve", "--problem", str(prob), "--n", "1",
                         "--out", str(out_file))
    assert code == 2 and out == "" and not out_file.exists()
    assert err.endswith(", 1 sign changes where state n = 1 has 0\n")
    for n, code_n, verdict in (("1", 2, "INVALID"), ("2", 0, "OK")):
        code, out, err = run(capsys, "validate", "--problem", str(prob),
                             "--n", n)
        assert code == code_n and err == ""
        assert out.splitlines()[-2:] == [
            f"sign_changes = 1 (state n = {n} has {int(n) - 1})",
            f"state {verdict}"]


# ----------------------------------------------------------------------
# paths the examples above do not reach
# ----------------------------------------------------------------------

def _series(path):
    return engine.series_from_dict(json.loads(Path(path).read_text()))


def test_eval_normalize_prints_the_normalized_sum(capsys, model3_series):
    code, out, _ = run(capsys, "eval", model3_series, "--lambda", "0.5",
                       "--normalize", "--grid", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[5] == "x,y"  # after the header and orders 0..3
    xs, ys = zip(*(map(float, line.split(",")) for line in lines[6:]))
    _, y = engine.sum_series(_series(model3_series), 0.5, 3, normalize=True)
    assert list(xs) == list(np.linspace(0.0, 1.0, 7))
    assert list(ys) == list(y(np.array(xs)))


def _boom(*args, **kwargs):
    raise AssertionError("not expected to run")


def test_eval_rows_add_one_term_each(capsys, monkeypatch, model3_series):
    # the rows are the partial sums of sum_series, bit for bit, without
    # summing y: sum_series runs only for --normalize
    series = _series(model3_series)
    sums = [engine.sum_series(series, 0.5, j)[0] for j in range(4)]
    monkeypatch.setattr(engine, "sum_series", _boom)
    code, out, _ = run(capsys, "eval", model3_series, "--lambda", "0.5")
    assert code == 0
    assert [float(r.split()[1]) for r in out.splitlines()[1:]] == sums


def test_oracle_without_guess_starts_from_the_series_sum(
        capsys, monkeypatch, model3_file, model3_series):
    guesses = []
    fd = oracles.fd_eigenvalue

    def recording(problem, lam, guess, M, n=None):
        guesses.append((guess, n))
        return fd(problem, lam, guess, M, n=n)

    monkeypatch.setattr(oracles, "fd_eigenvalue", recording)
    code, out, _ = run(capsys, "oracle", "--problem", model3_file,
                       "--lambda", "0.5", "--series", model3_series)
    assert code == 0
    summed, _ = engine.sum_series(_series(model3_series), 0.5, 3)
    assert guesses == [(summed, 1)]  # the series' state is checked
    assert f"series_sum    = {summed:.12e}" in out


def test_oracle_sums_the_series_once(capsys, monkeypatch, model3_file,
                                     model3_series):
    calls = []
    sum_series = engine.sum_series

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return sum_series(*args, **kwargs)

    monkeypatch.setattr(engine, "sum_series", counting)
    code, _, _ = run(capsys, "oracle", "--problem", model3_file,
                     "--lambda", "0.5", "--series", model3_series)
    assert code == 0
    assert calls == [(0.5, 3)]


def test_oracle_n_defaults_to_the_series_n(capsys, tmp_path, model1_file):
    series = str(tmp_path / "s3.json")
    run(capsys, "solve", "--problem", model1_file, "--n", "3", "--order", "4",
        "--out", series)
    argv = ("oracle", "--problem", model1_file, "--lambda", "0.3",
            "--series", series)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert run(capsys, *argv, "--n", "3") == (code, out, err)
    value = float(out.splitlines()[0].split("=")[1])
    assert value == pytest.approx(9 * PI2 + 0.3 ** 2 / 4, abs=1e-4)


def test_oracle_n_that_differs_from_the_series_is_an_input_error(
        capsys, tmp_path):
    # the guess came from the n = 1 series: the FD level printed was 9.16,
    # the n = 1 level, with exit 0
    series = str(tmp_path / "s1.json")
    run(capsys, "solve", "--problem", str(DEMOS / "model3.prob"), "--n", "1",
        "--order", "6", "--out", series)
    code, out, err = run(capsys, "oracle", "--problem",
                         str(DEMOS / "model3.prob"), "--n", "5",
                         "--lambda", "0.2", "--series", series)
    assert (code, out) == (1, "")
    assert err == "error: argument --n: 5 differs from the series' n = 1\n"


def test_export_without_out_writes_csv_to_stdout(capsys, tmp_path,
                                                 model3_series):
    csv_file = tmp_path / "y.csv"
    run(capsys, "export", model3_series, "--grid", "9", "--out",
        str(csv_file))
    code, out, _ = run(capsys, "export", model3_series, "--grid", "9")
    assert code == 0
    assert out == csv_file.read_text()


def test_broken_wronskian_is_a_computation_failure(capsys, monkeypatch,
                                                   model3_file):
    monkeypatch.setattr(engine, "_wronskian_defect", lambda *args: 2e-10)
    code, out, err = run(capsys, "solve", "--problem", model3_file)
    assert code == 2
    assert err == ("computation failed: Wronskian defect 2.000e-10 "
                   "exceeds 1e-10\n")
    assert out == ""


def test_overflowing_coupling_is_a_computation_failure(capsys, tmp_path):
    # products of the 1e300 coefficients overflow: the series must not
    # silently become zero
    prob = tmp_path / "big.prob"
    prob.write_text("domain = 0 1\nv0 = 0\nperturbation.1.p2 = 1e300*x\n"
                    "perturbation.1.p1 = 1e300\nperturbation.1.p0 = 0\n")
    with np.errstate(over="ignore"):
        code, out, err = run(capsys, "solve", "--problem", str(prob),
                             "--order", "4")
    assert code == 2
    assert err.startswith("computation failed:") and "not finite" in err
    assert "Traceback" not in err


def test_an_overflowing_state_prints_one_line_and_no_warning(tmp_path):
    # y0 ~ 1e75 and E0 ~ 1e301 on [0, 1e-150]: the overflow is reported
    # on the error path alone, with warnings shown as Python shows them
    prob = tmp_path / "tiny.prob"
    prob.write_text(model1_config().replace("domain = 0 1",
                                            "domain = 0 1e-150"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONWARNINGS="default")
    for argv in (["solve", "--out", str(tmp_path / "s.json")],
                 ["validate"]):
        done = subprocess.run(
            [sys.executable, "-m", "pertbvp.cli", *argv, "--problem",
             str(prob)], env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 2
        assert done.stderr == ("computation failed: series coefficients "
                               "not finite\n")
        assert done.stdout == ""


# ----------------------------------------------------------------------
# hostile input ends on the documented error path
# ----------------------------------------------------------------------

_MODEL1 = model1_config()


def _fails(capsys, code, prefix, *argv):
    got, out, err = run(capsys, *argv)
    assert got == code, err
    assert err.startswith(prefix), err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    _MODEL1.replace("p2 = 0", "p2 = 1e999"),
    _MODEL1.replace("domain = 0 1", "domain = 0 inf"),
    _MODEL1.replace("domain = 0 1", "domain = -1e308 1e308"),
    _MODEL1 + "y0 = sin(pi*x)\nE0 = nan\n",
    _MODEL1 + "perturbation.01.p1 = 5\n",
], ids=["literal", "domain", "length", "E0", "order"])
def test_bad_numbers_and_keys_are_input_errors(capsys, tmp_path, text):
    prob = tmp_path / "bad.prob"
    prob.write_text(text)
    _fails(capsys, 1, "error: ", "oracle", "--problem", str(prob),
           "--lambda", "0.5")


@pytest.mark.parametrize("v0", [
    "x" + "+x" * 2999, "(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"],
    ids=["sum", "parentheses", "minus"])
def test_too_deep_expressions_are_input_errors(capsys, tmp_path, v0):
    prob = tmp_path / "deep.prob"
    prob.write_text(_MODEL1.replace("v0 = 0", "v0 = " + v0))
    for command in ("oracle", "validate"):
        _fails(capsys, 1, "error: key 'v0': expression nested deeper",
               command, "--problem", str(prob))


@pytest.fixture
def model3_order8(capsys, tmp_path, model3_file):
    series = tmp_path / "s8.json"
    run(capsys, "solve", "--problem", model3_file, "--order", "8",
        "--out", str(series))
    return str(series)


@pytest.mark.parametrize("argv, power", [
    (("eval", "{series}", "--lambda", "1e200"), 2),
    (("export", "{series}", "--lambda", "1e50"), 7),
    (("oracle", "--problem", "{problem}", "--series", "{series}",
      "--lambda", "1e50"), 7),
], ids=["eval", "export", "oracle"])
def test_overflowing_lambda_is_a_computation_failure(capsys, model3_file,
                                                     model3_order8, argv,
                                                     power):
    # the overflowing power is named before anything reaches stdout
    argv = [a.format(series=model3_order8, problem=model3_file) for a in argv]
    assert run(capsys, *argv) == (
        2, "", f"computation failed: lambda^{power} overflows at "
               f"lambda = {float(argv[-1])!r}\n")


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "{problem}", "--amplitude", "nan"),
    ("solve", "--problem", "{problem}", "--amplitude", "0"),
    ("eval", "{series}", "--lambda", "nan"),
    ("export", "{series}", "--lambda", "nan"),
    ("oracle", "--problem", "{problem}", "--lambda", "nan"),
    ("oracle", "--problem", "{problem}", "--guess", "inf"),
    ("validate", "--problem", "{problem}", "--amplitude", "inf"),
], ids=["solve-nan", "solve-zero", "eval", "export", "oracle-lambda",
        "oracle-guess", "validate"])
def test_non_finite_float_flags_are_usage_errors(capsys, model3_file,
                                                 model3_order8, argv):
    argv = [a.format(series=model3_order8, problem=model3_file) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith(f"error: argument {argv[-2]}: must be "), err
    assert out == ""


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_amplitude_for_a_closed_form_state_is_usage_error(capsys, tmp_path,
                                                          command):
    prob = tmp_path / "closed.prob"
    prob.write_text(f"domain = 0 1\nv0 = 5\ny0 = sin(pi*x)\n"
                    f"E0 = {PI2 + 5.0!r}\nperturbation.1.p2 = 0\n"
                    "perturbation.1.p1 = 0\nperturbation.1.p0 = x\n")
    assert run(capsys, command, "--problem", str(prob))[0] == 0
    code, out, err = run(capsys, command, "--problem", str(prob),
                         "--amplitude", "7")
    assert code == 1
    assert err.startswith("error: argument --amplitude: not read")
    assert out == ""


def test_overflowing_fd_grid_is_a_computation_failure(capsys, tmp_path):
    prob = tmp_path / "wide.prob"
    prob.write_text(_MODEL1.replace("domain = 0 1", "domain = 0 1e308"))
    _fails(capsys, 2, "computation failed: ", "oracle", "--problem",
           str(prob), "--lambda", "0.1")


def _mangle(data, shape):
    if shape == "E":
        data["orders"][1]["E"] = "x"
    elif shape == "coeffs":
        data["orders"][1]["y"]["coeffs"] = "ab"
    elif shape == "list":
        data = [data]
    elif shape == "norm":
        data["norm"] = []
    elif shape == "reversed":
        data["orders"][1]["y"]["domain"] = [1.0, 0.0]
    elif shape == "domains":
        data["orders"][1]["y"]["domain"] = [0.0, 2.0]
    elif shape == "no orders":
        data["orders"] = []
    return data


@pytest.mark.parametrize("shape", ["E", "coeffs", "list", "norm", "reversed",
                                   "domains", "no orders"])
def test_malformed_series_files_are_input_errors(capsys, tmp_path,
                                                 model3_series, shape):
    bad = tmp_path / "bad.json"
    data = json.loads(Path(model3_series).read_text())
    bad.write_text(json.dumps(_mangle(data, shape)))
    _fails(capsys, 1, f"error: series file {bad}: ", "eval", str(bad),
           "--lambda", "0.5", "--normalize")


@pytest.mark.parametrize("p1", ["1e300", "1e308"], ids=["iteration", "bands"])
def test_overflowing_fd_oracle_is_a_computation_failure(capsys, tmp_path, p1):
    # 1e300 keeps the bands finite but not the inverse iteration; 1e308
    # overflows the bands themselves
    prob = tmp_path / "big.prob"
    prob.write_text(_MODEL1.replace("p1 = 1\n", f"p1 = {p1}\n"))
    _fails(capsys, 2, "computation failed: ", "oracle", "--problem",
           str(prob), "--lambda", "0.5")


def test_fd_oracle_names_the_power_that_overflows(capsys, tmp_path):
    # lam^2 of the second coupling overflows at 1e200, as in eval
    prob = tmp_path / "two.prob"
    prob.write_text(_MODEL1 + "perturbation.2.p2 = 0\n"
                    "perturbation.2.p1 = 0\nperturbation.2.p0 = x\n")
    assert run(capsys, "oracle", "--problem", str(prob), "--lambda", "1e200",
               "--guess", "9") == (
        2, "", "computation failed: lambda^2 overflows at lambda = 1e+200\n")


@pytest.mark.parametrize("p1", ["1e20", "1e100"])
def test_fd_oracle_past_the_cell_peclet_limit_is_a_computation_failure(
        capsys, tmp_path, p1):
    # central differences of a first-derivative coupling this large couple
    # neighbours with opposite signs: the eigenvalue they give is meaningless
    prob = tmp_path / "big.prob"
    prob.write_text(_MODEL1.replace("p1 = 1\n", f"p1 = {p1}\n"))
    _fails(capsys, 2, "computation failed: ", "oracle", "--problem",
           str(prob), "--lambda", "0.5")


@pytest.mark.parametrize("grid", ["128", "512", "2048"])
def test_fd_oracle_past_the_ellipticity_radius_is_a_computation_failure(
        capsys, model3_file, grid):
    # 1 - lam 3x^2/5 changes sign at x ~ 0.91 for lam = 2: the eigenvalue
    # central differences give there jumps with the grid
    _fails(capsys, 2, "computation failed: ", "oracle", "--problem",
           model3_file, "--lambda", "2", "--guess", "17.5", "--grid", grid)


def test_fd_oracle_inside_the_ellipticity_radius_answers(capsys, model3_file):
    # lam = 1.6 keeps 1 - lam 3x^2/5 >= 0.04 on [0, 1]
    code, out, err = run(capsys, "oracle", "--problem", model3_file,
                         "--lambda", "1.6", "--guess", "17.5", "--grid", "512")
    assert code == 0 and err == ""
    assert out.startswith("fd_eigenvalue = ")


def _spoil(data, shape):
    if shape == "E nan":
        data["orders"][1]["E"] = float("nan")
    elif shape == "E inf":
        data["orders"][2]["E"] = float("inf")
    elif shape == "E bool":
        data["orders"][1]["E"] = True
    elif shape == "norm zero":
        data["norm"][0] = 0
    elif shape == "norm nan":
        data["norm"][1] = float("nan")
    elif shape == "coeffs nan":
        data["orders"][1]["y"]["coeffs"][0] = float("nan")
    elif shape == "coeffs inf":
        data["orders"][2]["y"]["coeffs"][-1] = float("-inf")
    return data


@pytest.mark.parametrize("shape", ["E nan", "E inf", "E bool", "norm zero",
                                   "norm nan", "coeffs nan", "coeffs inf"])
def test_non_finite_series_values_are_input_errors(capsys, tmp_path,
                                                   model3_series, shape):
    bad = tmp_path / "bad.json"
    data = json.loads(Path(model3_series).read_text())
    bad.write_text(json.dumps(_spoil(data, shape)))
    _fails(capsys, 1, f"error: series file {bad}: ", "eval", str(bad),
           "--lambda", "0.5", "--normalize")


@pytest.mark.parametrize("field,value", [
    ("n", 1.5), ("n", True), ("n", "2"), ("n", 0), ("n", -3),
    ("j", 1.0), ("j", True), ("j", "1")])
def test_series_file_integers_are_input_errors(capsys, tmp_path,
                                               model3_series, field, value):
    bad = tmp_path / "bad.json"
    data = json.loads(Path(model3_series).read_text())
    if field == "n":
        data["n"] = value
    else:
        data["orders"][2]["j"] = value
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "eval", str(bad), "--lambda", "0.5")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: series file {bad}: series file ")
    assert ("n " if field == "n" else "order index j ") in err
    assert "Traceback" not in err


def test_oracle_names_a_series_n_below_one(capsys, tmp_path, model3_file,
                                           model3_series):
    # n = 0 used to load as 0 and surface as a clash with --n 1
    bad = tmp_path / "bad.json"
    data = json.loads(Path(model3_series).read_text())
    data["n"] = 0
    bad.write_text(json.dumps(data))
    assert run(capsys, "oracle", "--problem", model3_file, "--lambda", "0.2",
               "--series", str(bad), "--n", "1") == (
        1, "", f"error: series file {bad}: series file n must be >= 1, "
        "got 0\n")


# ----------------------------------------------------------------------
# negative floats, the --guess help and the order cap
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv,reference", [
    (("oracle", "--problem", "{m1}", "--lambda", "-1e-3"),
     ("oracle", "--problem", "{m1}", "--lambda", "-0.001")),
    (("oracle", "--problem", "{m1}", "--guess", "-1e1"),
     ("oracle", "--problem", "{m1}", "--guess", "-10.0")),
    (("validate", "--problem", "{m1}", "--amplitude", "-1.5e0"),
     ("validate", "--problem", "{m1}", "--amplitude", "-1.5")),
], ids=["lambda", "guess", "amplitude"])
def test_negative_exponent_form_floats_are_flag_values(capsys, model1_file,
                                                       argv, reference):
    code, out, err = run(capsys, *(a.format(m1=model1_file) for a in argv))
    assert (code, err) == (0, "")
    assert (code, out, err) == run(
        capsys, *(a.format(m1=model1_file) for a in reference))


def test_a_flag_is_not_taken_for_a_float_value(capsys, model1_file):
    code, out, err = run(capsys, "oracle", "--problem", model1_file,
                         "--lambda", "--guess", "3")
    assert code == 1
    assert err == "error: argument --lambda: expected one argument\n"
    assert out == ""


def test_guess_help_states_the_default_order(capsys):
    with pytest.raises(SystemExit) as done:
        main(["oracle", "--help"])
    assert done.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert ("--guess GUESS eigenvalue guess (default: the summed --series, "
            "else the problem file's E0, else (n pi / L)^2 + c when v0 is "
            "a constant c; required otherwise)") in text
    assert "unperturbed E0" not in text


def _cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "pertbvp.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)


def test_order_100_ends_cleanly_on_both_demos():
    done = _cli("solve", "--problem", str(DEMOS / "model1.prob"),
                "--order", "100")
    assert done.returncode == 2
    assert done.stderr.startswith("computation failed: order ")
    assert "Traceback" not in done.stderr and done.stdout == ""
    done = _cli("solve", "--problem", str(DEMOS / "model3.prob"),
                "--order", "100")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 1 + 101


_GRID_ARGV = {"eval": ("eval", "S", "--normalize"), "export": ("export", "S"),
              "oracle": ("oracle", "--problem", "P", "--guess", "9")}


@pytest.mark.parametrize("command, value, fault", [
    ("eval", "1", "must be >= 2"), ("eval", "10002", "must be <= 10001"),
    ("export", "-5", "must be >= 2"),
    ("export", "1000000000", "must be <= 10001"),
    ("oracle", "8", "must be >= 16"), ("oracle", "65537", "must be <= 65536"),
    ("oracle", "100000000", "must be <= 65536"),
])
def test_grid_outside_its_bounds_is_usage_error(capsys, monkeypatch,
                                                model3_file, model3_series,
                                                command, value, fault):
    # rejected by the parser: no file is read, no sample or FD grid is made
    def boom(*args, **kwargs):
        raise AssertionError("ran past the parser")

    for name in ("_load_problem_file", "_load_series_file"):
        monkeypatch.setattr(cli, name, boom)
    monkeypatch.setattr(np, "linspace", boom)
    monkeypatch.setattr(oracles, "fd_eigenvalue", boom)
    argv = [{"P": model3_file, "S": model3_series}.get(a, a)
            for a in _GRID_ARGV[command]]
    code, out, err = run(capsys, *argv, "--grid", value)
    assert code == 1
    assert err == f"error: argument --grid: {fault}, got {value}\n"
    assert out == ""


def test_grid_bounds_are_inclusive():
    # parsed only: nothing runs at a ceiling
    parser = _build_parser()
    for command, bounds in GRID_BOUNDS.items():
        for value in bounds:
            args = parser.parse_args([*_GRID_ARGV[command], "--grid",
                                      str(value)])
            assert args.grid == value
    assert GRID_BOUNDS["oracle"][0] == 16  # fd_eigenvalue_raw's own floor
    assert min(high for _, high in GRID_BOUNDS.values()) >= 8192


def test_order_above_the_cap_is_usage_error(capsys, model3_file):
    code, out, err = run(capsys, "solve", "--problem", model3_file,
                         "--order", "100000")
    assert code == 1
    assert err == "error: argument --order: must be <= 1000, got 100000\n"
    assert out == ""
