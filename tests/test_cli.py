import json
import math
from pathlib import Path

import numpy as np
import pytest

from pertbvp.cli import _build_parser, main
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


def test_shipped_sample_problems(capsys):
    for name in ("model1.prob", "model3.prob"):
        path = DEMOS / name
        assert path.exists()
        code, _, _ = run(capsys, "validate", "--problem", str(path))
        assert code == 0


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


def test_readme_examples_parse():
    lines = [line.split()[1:]
             for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("pertbvp ")]
    assert {argv[0] for argv in lines} == {"solve", "eval", "oracle",
                                           "export", "validate"}
    parser = _build_parser()
    for argv in lines:
        parser.parse_args(argv)


def test_closed_form_state_off_the_boundary_fails_at_load(capsys, tmp_path):
    # |y0(a)| = 7.1e-10 after normalization: above the 1e-10 boundary bound
    prob = tmp_path / "off.prob"
    prob.write_text("domain = 0 1\nv0 = 5\ny0 = sin(pi*x) + 5e-10*(1-x)\n"
                    f"E0 = {PI2 + 5.0!r}\nperturbation.1.p2 = 0\n"
                    "perturbation.1.p1 = 1\nperturbation.1.p0 = 0\n")
    for command in ("validate", "solve"):
        code, out, err = run(capsys, command, "--problem", str(prob))
        assert code == 2
        assert "closed-form state fails validation" in err
        assert out == ""
