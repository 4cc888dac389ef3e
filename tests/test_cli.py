import csv
import json
import math

import pytest

from fallfact.cli import main, parse_point
from fallfact.errors import InputFormatError


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture
def geometric_eq(tmp_path):
    return write_json(tmp_path / "geometric.json",
                      {"form": "delta", "coeffs": [["-1/2"], ["1"]]})


@pytest.fixture
def factorial_eq(tmp_path):
    return write_json(tmp_path / "factorial.json",
                      {"form": "delta", "coeffs": [["1", "-1"], ["1"]]})


@pytest.fixture
def order_half_eq(tmp_path):
    return write_json(tmp_path / "order_half.json",
                      {"form": "delta", "coeffs": [["1"], ["3"], ["6", "4"]]})


def solve_series(tmp_path, eq_path, frees, n_terms=120, name="series.json"):
    out = tmp_path / name
    argv = ["solve", "--equation", eq_path, "--n-terms", str(n_terms),
            "--out", str(out)]
    for f in frees:
        argv += ["--free", f]
    assert main(argv) == 0
    return str(out)


# ---------------------------------------------------------------------------
# point parsing
# ---------------------------------------------------------------------------

def test_parse_point_forms():
    assert parse_point("2.25") == complex(2.25)
    assert parse_point("1+2i") == complex(1, 2)
    assert parse_point("-0.5i") == complex(0, -0.5)
    assert parse_point("1+2j") == complex(1, 2)
    with pytest.raises(InputFormatError):
        parse_point("east of 3")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_prints_recurrence_and_writes_series(tmp_path, capsys, geometric_eq):
    out = tmp_path / "g.json"
    code = main(["solve", "--equation", geometric_eq, "--free", "0=1",
                 "--n-terms", "120", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "q[0](n) = -1/2" in text
    assert "q[1](n) = n+1" in text
    assert "classification right-half-plane" in text
    data = read_json(out)
    assert data["regime"] == "exact"
    assert data["coeffs"][0] == "1"
    assert data["coeffs"][2] == "1/8"  # (1/2)^2 / 2!
    assert data["recurrence"]["n_start"] == 0


def test_solve_shows_prefix_constraints(tmp_path, capsys, factorial_eq):
    solve_series(tmp_path, factorial_eq, ["0=1"])
    text = capsys.readouterr().out
    assert "1 prefix constraint(s)" in text
    assert "constraint: (1)*a0 + (1)*a1 = 0" in text


def test_solve_underdetermined_is_exit_3(tmp_path, capsys, order_half_eq):
    assert main(["solve", "--equation", order_half_eq, "--free", "0=1"]) == 3
    assert "under-determined" in capsys.readouterr().err


def test_solve_missing_file_is_exit_3(tmp_path, capsys):
    assert main(["solve", "--equation", str(tmp_path / "nope.json")]) == 3


def test_solve_duplicate_free_is_exit_3(tmp_path, capsys, geometric_eq):
    assert main(["solve", "--equation", geometric_eq,
                 "--free", "0=1", "--free", "0=2"]) == 3
    assert "twice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_writes_csv(tmp_path, capsys, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"])
    out = tmp_path / "vals.csv"
    code = main(["eval", "--series", series, "--at", "2.25", "--at", "1+1i",
                 "--out", str(out)])
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["z_re", "z_im", "val_re", "val_im", "terms", "converged"]
    assert len(rows) == 3
    got = float(rows[1][2])
    assert abs(got - 1.5 ** 2.25) < 1e-9
    assert rows[1][5] == "1"


def test_eval_grid_and_circle_points(tmp_path, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"])
    out = tmp_path / "grid.csv"
    assert main(["eval", "--series", series, "--rect", "0", "1", "0", "1",
                 "2", "2", "--out", str(out)]) == 0
    assert len(list(csv.reader(out.open()))) == 5
    assert main(["eval", "--series", series, "--circle", "1.5", "4",
                 "--out", str(out)]) == 0
    assert len(list(csv.reader(out.open()))) == 5


def test_eval_no_points_is_exit_3(tmp_path, capsys, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"])
    assert main(["eval", "--series", series]) == 3
    assert "no evaluation points" in capsys.readouterr().err


def test_eval_strict_nonconvergence_is_exit_4(tmp_path, capsys):
    ones = write_json(tmp_path / "ones.json",
                      {"regime": "exact", "coeffs": ["1"] * 80})
    out = tmp_path / "o.csv"
    code = main(["eval", "--series", ones, "--at", "0.5", "--n-max", "30",
                 "--strict", "--out", str(out)])
    assert code == 4
    assert "did not converge" in capsys.readouterr().err
    # same run without --strict still writes the CSV and exits 0
    assert main(["eval", "--series", ones, "--at", "0.5", "--n-max", "30",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert rows[1][5] == "0"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_reports_chi_and_classification(tmp_path, capsys, order_half_eq):
    series = solve_series(tmp_path, order_half_eq, ["0=1", "1=-1/2"],
                          n_terms=300)
    assert main(["analyze", "--series", series]) == 0
    text = capsys.readouterr().out
    assert "classification entire" in text
    chi = float(text.split("chi_estimate")[1].split()[0])
    assert 0.5 < chi < 0.55


def test_analyze_fit_profile(tmp_path, capsys, order_half_eq):
    series = solve_series(tmp_path, order_half_eq, ["0=1", "1=-1/2"],
                          n_terms=300)
    prof = tmp_path / "prof.csv"
    code = main(["analyze", "--series", series, "--fit",
                 "--radii", "4", "8", "16", "--samples", "8",
                 "--profile-out", str(prof)])
    assert code == 0
    text = capsys.readouterr().out
    assert "M(4)" in text and "M(16)" in text
    assert "rho_fit" in text and "tau_fit" in text
    rows = list(csv.reader(prof.open()))
    assert rows[0] == ["radius", "max_modulus", "valid"]
    assert len(rows) == 4


def test_analyze_short_series(tmp_path, capsys):
    short = write_json(tmp_path / "s.json",
                       {"regime": "exact", "coeffs": ["1", "1/2"]})
    assert main(["analyze", "--series", short]) == 0
    assert "not estimated" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# polygon
# ---------------------------------------------------------------------------

def test_polygon_output(tmp_path, capsys, order_half_eq):
    out = tmp_path / "pg.json"
    assert main(["polygon", "--equation", order_half_eq, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "slopes 1/2" in text
    assert "candidate_orders 1/2" in text
    data = read_json(out)
    assert data["slopes"] == ["1/2"]
    assert data["candidates"] == ["1/2"]


def test_polygon_no_candidates(tmp_path, capsys, geometric_eq):
    assert main(["polygon", "--equation", geometric_eq]) == 0
    text = capsys.readouterr().out
    assert "slopes 1" in text
    assert "candidate_orders -" in text


# ---------------------------------------------------------------------------
# riccati
# ---------------------------------------------------------------------------

def test_riccati_coefficient_pinned(tmp_path, capsys):
    out = tmp_path / "coeff.json"
    code = main(["riccati", "coefficient", "--a", "4", "--b", "6", "--c", "3",
                 "--out", str(out)])
    assert code == 0
    assert "A(z) = (16z+23)/(64z^2+80z+9)" in capsys.readouterr().out
    data = read_json(out)
    assert data["num"] == ["23", "16"]
    assert data["den"] == ["9", "80", "64"]


def test_riccati_coefficient_degenerate_is_exit_3(capsys):
    assert main(["riccati", "coefficient", "--a", "0", "--b", "1",
                 "--c", "2"]) == 3


def test_riccati_verify_passes(tmp_path, capsys):
    out = tmp_path / "resid.csv"
    code = main(["riccati", "verify", "--a", "4", "--b", "6", "--c", "3",
                 "--free", "0=1", "--free", "1=-1/2",
                 "--precision-bits", "256", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "max_residual" in text
    worst = float(text.split("max_residual")[1].split()[0])
    assert worst < 1e-8
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["z_re", "z_im", "residual"]
    assert len(rows) == 7  # six default points


def test_riccati_verify_fail_is_exit_4(capsys):
    code = main(["riccati", "verify", "--a", "4", "--b", "6", "--c", "3",
                 "--free", "0=1", "--free", "1=-1/2",
                 "--n-terms", "80", "--tol", "1e-60"])
    assert code == 4
    assert "FAIL" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# interp
# ---------------------------------------------------------------------------

def test_interp_inline_values(tmp_path, capsys):
    out = tmp_path / "interp.json"
    code = main(["interp", "--values", "1", "2", "4", "8", "16",
                 "--check", "--out", str(out)])
    assert code == 0
    assert "max_deviation 0.000e+00" in capsys.readouterr().out
    data = read_json(out)
    assert data["regime"] == "exact"
    assert data["coeffs"] == ["1", "1", "1/2", "1/6", "1/24"]


def test_interp_samples_file_mixed_types(tmp_path):
    samples = write_json(tmp_path / "samples.json", [1, 2.5, [0.5, 1.0]])
    out = tmp_path / "out.json"
    assert main(["interp", "--samples", samples, "--out", str(out)]) == 0
    data = read_json(out)
    assert data["regime"] == "approx"
    assert len(data["coeffs"]) == 3


def test_interp_bad_sample_is_exit_3(tmp_path, capsys):
    samples = write_json(tmp_path / "bad.json", [1, True])
    assert main(["interp", "--samples", samples]) == 3
    samples2 = write_json(tmp_path / "bad2.json", {"not": "a list"})
    assert main(["interp", "--samples", samples2]) == 3


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def test_convert_equation_forms(tmp_path, factorial_eq):
    out = tmp_path / "shift.json"
    assert main(["convert", "--equation", factorial_eq, "--to", "shift",
                 "--out", str(out)]) == 0
    data = read_json(out)
    assert data["form"] == "shift"
    assert data["coeffs"] == [["0", "-1"], ["1"]]  # y(z+1) = z y(z)
    back = tmp_path / "delta.json"
    assert main(["convert", "--equation", str(out), "--to", "delta",
                 "--out", str(back)]) == 0
    assert read_json(back)["coeffs"] == [["1", "-1"], ["1"]]


def test_convert_series_taylor_round_trip(tmp_path, capsys, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    capsys.readouterr()
    taylor = tmp_path / "taylor.json"
    assert main(["convert", "--series", series, "--to", "taylor",
                 "--out", str(taylor)]) == 0
    err = capsys.readouterr().err
    tdata = read_json(taylor)
    assert len(tdata["coeffs"]) == 21
    if tdata["chi_flagged"]:
        assert "formal" in err
    back = tmp_path / "back.json"
    assert main(["convert", "--taylor", str(taylor), "--to", "binomial",
                 "--n-terms", "20", "--out", str(back)]) == 0
    assert read_json(back)["coeffs"] == read_json(tmp_path / "series.json")["coeffs"]


def test_convert_source_validation(tmp_path, capsys, geometric_eq):
    assert main(["convert", "--to", "shift"]) == 3
    assert main(["convert", "--equation", geometric_eq, "--to", "taylor"]) == 3


def test_convert_rejects_evaluation_flags(tmp_path, capsys, geometric_eq):
    # convert evaluates nothing, so it takes no stopping tolerance or term cap
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    for flag in (["--eps", "0.5"], ["--n-max", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--series", series, "--to", "taylor", *flag])
        assert exc.value.code == 3
        assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# continue-eval
# ---------------------------------------------------------------------------

def test_continue_eval_left_half_plane(tmp_path, capsys, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"])
    capsys.readouterr()
    code = main(["continue-eval", "--equation", geometric_eq,
                 "--series", series, "--at", "-2"])
    assert code == 0
    text = capsys.readouterr().out
    assert "steps=" in text
    value = complex(text.split("=", 1)[1].split("steps")[0].strip().rstrip())
    assert abs(value - (1.5 ** -2)) < 1e-10


def test_continue_eval_pole_is_exit_2(tmp_path, capsys, factorial_eq):
    series = solve_series(tmp_path, factorial_eq, ["0=1"])
    capsys.readouterr()
    code = main(["continue-eval", "--equation", factorial_eq,
                 "--series", series, "--at", "0"])
    assert code == 2
    assert "pole" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seed-examples, environment, argparse behaviour
# ---------------------------------------------------------------------------

def test_seed_examples_writes_loadable_equations(tmp_path, capsys):
    target = tmp_path / "eqs"
    assert main(["seed-examples", "--dir", str(target)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 3
    names = sorted(p.name for p in target.iterdir())
    assert names == ["factorial.json", "geometric.json", "order-half.json"]
    for name in names:
        data = read_json(target / name)
        assert data["form"] == "delta"
        assert main(["polygon", "--equation", str(target / name)]) == 0


def test_env_precision_override(tmp_path, monkeypatch, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"])
    out = tmp_path / "v.csv"
    monkeypatch.setenv("FALLFACT_PRECISION_BITS", "256")
    assert main(["eval", "--series", series, "--at", "2.25",
                 "--out", str(out)]) == 0
    monkeypatch.setenv("FALLFACT_PRECISION_BITS", "40")
    assert main(["eval", "--series", series, "--at", "2.25",
                 "--out", str(out)]) == 3
    monkeypatch.setenv("FALLFACT_PRECISION_BITS", "plenty")
    assert main(["eval", "--series", series, "--at", "2.25",
                 "--out", str(out)]) == 3


def test_argparse_errors_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval"])  # missing required --series
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3
    with pytest.raises(SystemExit) as exc:
        main(["interp", "--values", "1", "--samples", "x.json"])
    assert exc.value.code == 3
