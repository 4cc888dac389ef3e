import csv
import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fallfact import cli
from fallfact.cli import _int_digits_cap, main, parse_point
from fallfact.errors import InputFormatError
from fallfact.exact import lift, magnitude
from fallfact.serialization import equation_from_json, series_from_json
from fallfact.series import evaluate, evaluate_accelerated, taylor_from_binomial
from fallfact.solver import continuation_eval, derive_recurrence, solve_recurrence


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


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
    rows = read_csv(out)
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
    assert len(read_csv(out)) == 5
    assert main(["eval", "--series", series, "--circle", "1.5", "4",
                 "--out", str(out)]) == 0
    assert len(read_csv(out)) == 5


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
    rows = read_csv(out)
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
    rows = read_csv(prof)
    assert rows[0] == ["radius", "max_modulus", "valid"]
    assert len(rows) == 4


def test_analyze_fit_drops_radius_zero(tmp_path, capsys, geometric_eq):
    # M(0) = |y(0)| = 2 > 1, but ln 0 has no place in the fit
    series = solve_series(tmp_path, geometric_eq, ["0=2"], n_terms=100)
    outputs = []
    for radii in (["0", "4", "16", "64"], ["4", "16", "64"]):
        capsys.readouterr()
        assert main(["analyze", "--series", series, "--fit", "--radii", *radii,
                     "--samples", "8"]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert "M(0) = 2" in outputs[0]
    assert outputs[0][-2:] == outputs[1][-2:] == ["rho_fit 0.995447364334",
                                                  "tau_fit 0.582416127004"]


def test_analyze_short_series(tmp_path, capsys):
    short = write_json(tmp_path / "s.json",
                       {"regime": "exact", "coeffs": ["1", "1/2"]})
    assert main(["analyze", "--series", short]) == 0
    assert "not estimated" in capsys.readouterr().out


def test_solve_and_analyze_classify_a_short_zero_series_alike(tmp_path, capsys, geometric_eq):
    # six zero coefficients: below the 16-coefficient floor, but the zero
    # sequence is entire at any length, for both commands
    series = solve_series(tmp_path, geometric_eq, ["0=0"], n_terms=5)
    assert read_json(Path(series))["coeffs"] == ["0"] * 6
    assert "classification entire" in capsys.readouterr().out.splitlines()
    assert main(["analyze", "--series", series]) == 0
    assert "classification entire" in capsys.readouterr().out.splitlines()


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
    rows = read_csv(out)
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


@pytest.mark.parametrize("samples, code", [
    ([1, [True, False]], 3),
    ([1, ["2.5", "1"]], 3),
    ([1, [math.inf, 1.0]], 3),
    ([1, 2.5, [1, 2]], 0),
])
def test_one_sample_decoder_refuses_bools_strings_and_infinities(tmp_path, capsys,
                                                                samples, code):
    # interp --samples, convert --taylor and the approx-series reader decode alike
    path = write_json(tmp_path / "samples.json", samples)
    out = str(tmp_path / "out.json")
    assert main(["interp", "--samples", path, "--out", out]) == code
    assert main(["convert", "--taylor", path, "--to", "binomial", "--out", out]) == code
    approx = {"regime": "approx", "coeffs": [v for v in samples if isinstance(v, list)]}
    if code:
        with pytest.raises(InputFormatError):
            series_from_json(approx)
    else:
        assert series_from_json(approx).coeffs == (1 + 2j,)


def test_interp_bad_sample_is_exit_3(tmp_path, capsys):
    samples = write_json(tmp_path / "bad.json", [1, True])
    assert main(["interp", "--samples", samples]) == 3
    samples2 = write_json(tmp_path / "bad2.json", {"not": "a list"})
    assert main(["interp", "--samples", samples2]) == 3


def test_interp_float_samples_beyond_the_float_range_is_exit_3(tmp_path, capsys):
    samples = write_json(tmp_path / "big.json", [1e308, -1e308, 1e308])
    out = tmp_path / "out.json"
    assert main(["interp", "--samples", samples, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "a1" in err and "exact samples" in err
    assert not out.exists()


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
    capsys.readouterr()
    # a negative cut once sliced from the end and exited 0
    for argv in (["--series", series, "--to", "taylor", "--m-max", "3", "--k-cut", "-18"],
                 ["--taylor", str(taylor), "--to", "binomial", "--k-cut", "-18"],
                 ["--taylor", str(taylor), "--to", "binomial", "--n-terms", "-18"]):
        assert main(["convert", *argv, "--out", str(tmp_path / "cut.json")]) == 3
        assert "must be nonnegative" in capsys.readouterr().err


def test_solve_and_convert_past_the_int_digit_limit(tmp_path, capsys, order_half_eq):
    # a_780 of the order-half solution already has a 4,306-digit denominator
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    series = solve_series(tmp_path, order_half_eq, ["0=1", "1=-1/2"], n_terms=1000)
    coeffs = read_json(Path(series))["coeffs"]
    assert max(len(c) for c in coeffs) > 4300
    taylor, back = str(tmp_path / "taylor.json"), str(tmp_path / "back.json")
    assert main(["convert", "--series", series, "--to", "taylor", "--m-max", "40",
                 "--k-cut", "40", "--out", taylor]) == 0
    assert main(["convert", "--taylor", taylor, "--to", "binomial", "--out", back]) == 0
    assert read_json(Path(back))["coeffs"] == coeffs[:41]
    if limit:  # each command restores the limit it found
        assert sys.get_int_max_str_digits() == limit
    with _int_digits_cap():
        rec = derive_recurrence(equation_from_json(read_json(Path(order_half_eq))))
        want = solve_recurrence(rec, {0: 1, 1: Fraction(-1, 2)}, 1000)
        assert series_from_json(read_json(Path(series))).coeffs == tuple(want)


def test_convert_flags_a_series_too_short_to_estimate_growth(tmp_path, capsys,
                                                             factorial_eq):
    short = solve_series(tmp_path, factorial_eq, ["0=1"], n_terms=9)
    assert "classification unknown" in capsys.readouterr().out
    taylor = tmp_path / "taylor.json"
    assert main(["convert", "--series", short, "--to", "taylor",
                 "--out", str(taylor)]) == 0
    assert capsys.readouterr().err == ("warning: growth not estimated (needs >= 16 "
                                       "coefficients); Taylor conversion is formal\n")
    data = read_json(taylor)
    assert data["chi_flagged"] is True and data["chi_value"] is None
    # from 16 coefficients on, the estimate is taken and printed as before
    longer = solve_series(tmp_path, factorial_eq, ["0=1"], n_terms=15, name="s16.json")
    capsys.readouterr()
    assert main(["convert", "--series", longer, "--to", "taylor",
                 "--out", str(taylor)]) == 0
    assert capsys.readouterr().err == \
        "warning: growth estimate >= 1; Taylor conversion is formal\n"
    data = read_json(taylor)
    assert data["chi_flagged"] is True and 1.5 < data["chi_value"] < 1.6


def test_convert_writes_null_for_an_undefined_growth_estimate(tmp_path, capsys):
    # every |a_n| = 2^n >= 1: chi is undefined (inf), which JSON cannot hold
    series = write_json(tmp_path / "big.json", {"regime": "exact", "origin": "t",
                                                "coeffs": [str(2 ** n) for n in range(20)]})
    taylor = tmp_path / "taylor.json"
    assert main(["convert", "--series", series, "--to", "taylor", "--m-max", "2",
                 "--out", str(taylor)]) == 0
    assert capsys.readouterr().err == \
        "warning: growth estimate >= 1; Taylor conversion is formal\n"

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    data = json.loads(taylor.read_text(encoding="utf-8"), parse_constant=refuse)
    assert data["chi_flagged"] is True and data["chi_value"] is None
    assert taylor_from_binomial(series_from_json(read_json(tmp_path / "big.json")),
                                2).chi_value == math.inf  # only the file says null


@pytest.mark.parametrize("command, flag, payload", [
    ("eval", "--series", {"regime": "exact", "coeffs": "123"}),
    ("polygon", "--equation", {"form": "delta", "coeffs": [["1"], "12"]}),
    ("convert", "--taylor", {"coeffs": "123"}),
    ("convert", "--taylor", {"coefficients": ["1"]}),
])
def test_malformed_json_is_exit_3(tmp_path, capsys, command, flag, payload):
    path = write_json(tmp_path / "bad.json", payload)
    extra = {"eval": ["--at", "0.5"], "polygon": [], "convert": ["--to", "binomial"]}
    assert main([command, flag, path, *extra[command]]) == 3
    assert "fallfact:" in capsys.readouterr().err


def test_convert_source_validation(tmp_path, capsys, geometric_eq):
    assert main(["convert", "--to", "shift"]) == 3
    assert main(["convert", "--equation", geometric_eq, "--to", "taylor"]) == 3


def test_convert_rejects_evaluation_flags(tmp_path, capsys, geometric_eq):
    # convert evaluates nothing, so it takes no precision, stopping tolerance
    # or term cap
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    for flag in (["--precision-bits", "256"], ["--eps", "0.5"], ["--n-max", "1"]):
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
# seed-examples, numeric flags, argparse behaviour
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


@pytest.mark.parametrize("flag", [["--precision-bits", "52"], ["--eps", "0"],
                                  ["--eps", "nan"], ["--eps", "inf"], ["--n-max", "3"]],
                         ids=["precision-bits-52", "eps-0", "eps-nan", "eps-inf", "n-max-3"])
@pytest.mark.parametrize("command", ["eval", "analyze", "analyze-fit",
                                     "riccati-verify", "continue-eval"])
def test_out_of_range_numeric_flag_is_exit_3_before_any_work(tmp_path, capsys,
                                                             geometric_eq, command, flag):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    out = tmp_path / "out.csv"
    argv = {
        "eval": ["eval", "--series", series, "--at", "2.25", "--out", str(out)],
        "analyze": ["analyze", "--series", series],
        "analyze-fit": ["analyze", "--series", series, "--fit", "--profile-out", str(out)],
        "riccati-verify": ["riccati", "verify", "--a", "4", "--b", "6", "--c", "3",
                           "--free", "0=1", "--free", "1=-1/2", "--n-terms", "20",
                           "--out", str(out)],
        "continue-eval": ["continue-eval", "--equation", geometric_eq,
                          "--series", series, "--at", "-2"],
    }[command]
    capsys.readouterr()
    assert main(argv + flag) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fallfact: ")
    assert not out.exists()


@pytest.mark.parametrize("point", ["-inf", "-1+2i", "-0.5i", "-1e3"])
@pytest.mark.parametrize("command", ["eval", "continue-eval", "riccati-verify"])
def test_negative_point_after_at_is_a_value(tmp_path, capsys, geometric_eq,
                                            command, point):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=40)
    argv = {
        "eval": ["eval", "--series", series],
        "continue-eval": ["continue-eval", "--equation", geometric_eq,
                          "--series", series],
        "riccati-verify": ["riccati", "verify", "--a", "4", "--b", "6", "--c", "3",
                           "--free", "0=1", "--free", "1=-1/2", "--n-terms", "40"],
    }[command] + ["--n-max", "200"]
    capsys.readouterr()
    runs = []
    for at in (["--at", point], [f"--at={point}"]):
        code = main(argv + at)
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    if point == "-inf":
        assert (code, err) == (3, "fallfact: cannot evaluate with a non-finite value\n")
    else:
        assert code == 0 and err == ""


def test_negative_radius_is_exit_3_before_any_output(tmp_path, capsys, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    capsys.readouterr()
    assert main(["analyze", "--series", series, "--fit", "--radii", "16", "-4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fallfact: radii must be finite and nonnegative, got -4\n"


def test_nan_point_is_exit_3_in_continue_eval(tmp_path, capsys, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    capsys.readouterr()
    assert main(["continue-eval", "--equation", geometric_eq, "--series", series,
                 "--at", "nan"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fallfact: cannot evaluate with a non-finite value\n"


@pytest.mark.parametrize("flag", [
    ["--rect", "0", "1", "0", "1", "inf", "2"],
    ["--rect", "0", "1", "0", "1", "2", "nan"],
    ["--rect", "0", "1", "0", "1", "2.5", "2"],
    ["--rect", "0", "1", "0", "1", "0", "2"],
    ["--circle", "3", "inf"],
    ["--circle", "3", "nan"],
    ["--circle", "3", "-inf"],
    ["--circle", "nan", "4"],
    ["--circle", "inf", "4"],
    ["--circle", "-1", "4"],
])
@pytest.mark.parametrize("command", ["eval", "continue-eval"])
def test_bad_point_counts_and_radii_are_exit_3(tmp_path, capsys, geometric_eq, command, flag):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    head = {"eval": ["eval", "--series", series],
            "continue-eval": ["continue-eval", "--equation", geometric_eq,
                              "--series", series]}[command]
    capsys.readouterr()
    assert main(head + flag) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"fallfact: {flag[0]} needs ")


@pytest.mark.parametrize("threshold, message", [
    ("nan", "fallfact: re_threshold must not be NaN\n"),
    ("inf", "fallfact: continuation would need inf steps (cap 10000)\n"),
], ids=["nan", "inf"])
def test_non_finite_continuation_threshold_is_exit_3(tmp_path, capsys, geometric_eq,
                                                     threshold, message):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    capsys.readouterr()
    assert main(["continue-eval", "--equation", geometric_eq, "--series", series,
                 "--threshold", threshold, "--at", "-3"]) == 3
    assert capsys.readouterr() == ("", message)


def test_analyze_bad_sample_count_is_exit_3_before_any_output(tmp_path, capsys,
                                                               geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    capsys.readouterr()
    assert main(["analyze", "--series", series, "--fit", "--samples", "0"]) == 3
    assert capsys.readouterr() == ("", "fallfact: --samples must be >= 1, got 0\n")


def test_non_finite_counts_and_thresholds_exit_3_without_a_traceback(tmp_path, order_half_eq):
    series = solve_series(tmp_path, order_half_eq, ["0=1", "1=-1/2"], n_terms=40)
    for argv in (["eval", "--series", series, "--rect", "0", "1", "0", "1", "inf", "2"],
                 ["eval", "--series", series, "--circle", "3", "inf"],
                 ["continue-eval", "--equation", order_half_eq, "--series", series,
                  "--threshold", "inf", "--at", "-3"]):
        proc = _fresh_python(tmp_path, "-m", "fallfact.cli", *argv)
        assert (proc.returncode, proc.stdout) == (3, ""), argv
        assert proc.stderr.startswith("fallfact: ") and "Traceback" not in proc.stderr, argv


@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "-inf"])
def test_eps_must_be_positive_and_finite(tmp_path, capsys, geometric_eq, eps):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    capsys.readouterr()
    assert main(["eval", "--series", series, "--at", "40.5", "--eps", eps]) == 3
    assert capsys.readouterr() == (
        "", f"fallfact: --eps must be positive and finite, got {float(eps):g}\n")


@pytest.mark.parametrize("flags", [
    ["--rect", "0", "1", "0", "1", "1e6", "1e6"],
    # one point more than MAX_POINTS, from the three flags together
    ["--circle", "1", "500000", "--rect", "0", "1", "0", "1", "500000", "1", "--at", "2"],
], ids=["rect", "all-three"])
@pytest.mark.parametrize("command", ["eval", "continue-eval"])
def test_too_many_points_are_exit_3(tmp_path, capsys, geometric_eq, command, flags):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    head = {"eval": ["eval", "--series", series],
            "continue-eval": ["continue-eval", "--equation", geometric_eq,
                              "--series", series]}[command]
    capsys.readouterr()
    assert main(head + flags) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fallfact: --at, --rect and --circle give ")
    assert captured.err.endswith(f"; at most {cli.MAX_POINTS} are allowed\n")


def test_point_cap_counts_every_flag(monkeypatch):
    monkeypatch.setattr(cli, "MAX_POINTS", 7)
    parse = cli.build_parser().parse_args
    head = ["eval", "--series", "unused.json", "--at", "1"]
    assert len(cli._collect_points(parse(head + ["--rect", "0", "1", "0", "1", "2", "2",
                                                 "--circle", "1", "2"]))) == 7
    with pytest.raises(InputFormatError, match="give 8 points; at most 7"):
        cli._collect_points(parse(head + ["--rect", "0", "1", "0", "1", "2", "2",
                                          "--circle", "1", "3"]))


def test_analyze_too_many_samples_is_exit_3_before_any_output(tmp_path, capsys,
                                                               geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=20)
    capsys.readouterr()
    assert main(["analyze", "--series", series, "--fit", "--samples", "500000"]) == 3
    assert capsys.readouterr() == (
        "", "fallfact: --samples times --radii give 2000000 points; "
            "at most 1000000 are allowed\n")


def test_too_many_points_exit_3_without_a_traceback(tmp_path, order_half_eq):
    series = solve_series(tmp_path, order_half_eq, ["0=1", "1=-1/2"], n_terms=40)
    for argv in (["eval", "--series", series, "--rect", "0", "1", "0", "1", "1e6", "1e6"],
                 ["eval", "--series", series, "--circle", "3", "1e12"],
                 ["continue-eval", "--equation", order_half_eq, "--series", series,
                  "--rect", "0", "1", "0", "1", "1e9", "1e9"],
                 ["analyze", "--series", series, "--fit", "--samples", "1000000000000"]):
        proc = _fresh_python(tmp_path, "-m", "fallfact.cli", *argv)
        assert (proc.returncode, proc.stdout) == (3, ""), argv
        assert proc.stderr.startswith("fallfact: ") and "Traceback" not in proc.stderr, argv
        assert proc.stderr.rstrip().endswith("are allowed"), argv


def test_precision_environment_variable_changes_nothing(tmp_path, monkeypatch, geometric_eq):
    series = solve_series(tmp_path, geometric_eq, ["0=1"])
    argv = ["eval", "--series", series, "--at", "2.25", "--at", "1+2i", "--out"]
    monkeypatch.delenv("FALLFACT_PRECISION_BITS", raising=False)
    assert main(argv + [str(tmp_path / "plain.csv")]) == 0
    # absent flags mean the series module's defaults
    assert main(argv + [str(tmp_path / "flags.csv"), "--precision-bits", "128",
                        "--eps", "1e-12", "--n-max", "10000"]) == 0
    assert (tmp_path / "flags.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    for bits in ("40", "256"):
        monkeypatch.setenv("FALLFACT_PRECISION_BITS", bits)
        assert main(argv + [str(tmp_path / f"env{bits}.csv")]) == 0
        assert (tmp_path / f"env{bits}.csv").read_bytes() == \
            (tmp_path / "plain.csv").read_bytes()


def test_precision_comes_from_the_evaluation_not_the_file(tmp_path, capsys, geometric_eq):
    series_path = solve_series(tmp_path, geometric_eq, ["0=1"], n_terms=60)
    data = read_json(Path(series_path))
    assert "precision_bits" not in data
    # files written before the key was dropped still read, and it is ignored
    old = write_json(tmp_path / "old.json", {**data, "precision_bits": 256})
    series = series_from_json(read_json(Path(old)))
    assert series == series_from_json(data)
    csvs = []
    for path in (series_path, old):
        out = tmp_path / "values.csv"
        assert main(["eval", "--series", path, "--at", "2.25", "--at", "1+2i",
                     "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    eq = equation_from_json(read_json(Path(geometric_eq)))
    z = Fraction(28, 3)  # right of the continuation threshold passed below
    for run in (lambda **kw: evaluate(series, z, 1e-100, **kw),
                lambda **kw: evaluate_accelerated(series, z, **kw),
                lambda **kw: continuation_eval(eq, series, z, 1e-100, 5.0, **kw)):
        reference = lift(run(precision_bits=512).value)
        for kw, bits in (({}, 128), ({"precision_bits": 256}, 256)):
            value = run(**kw).value
            assert value.context.prec == bits
            # rounded to bits bits: no coarser, and no finer
            error = magnitude(lift(value) - reference) / magnitude(reference)
            assert 2.0 ** -(bits + 40) < error <= 2.0 ** (4 - bits)


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


# ---------------------------------------------------------------------------
# start-up: mpmath loads on first numeric use, statistics on the fit only,
# no command loads dataclasses or inspect, and each command compiles only
# the fallfact modules it runs
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"

WATCHED = ("mpmath", "dataclasses", "inspect", "statistics")

# prefixed to a -c script: reports on stderr, at exit, every module loaded
_REPORT_MODULES = ("import atexit, sys\n"
                   "atexit.register(lambda: print('loaded:', *sys.modules, file=sys.stderr))\n")

# the -c script that runs `python -m fallfact.cli ARGS...`
_RUN_CLI = "import runpy\nrunpy.run_module('fallfact.cli', run_name='__main__', alter_sys=True)\n"


def _fresh_python(cwd, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def _reported(cwd, script, *argv) -> set[str]:
    proc = _fresh_python(cwd, "-c", _REPORT_MODULES + script, *argv)
    assert proc.returncode == 0, proc.stderr
    report = proc.stderr.strip().splitlines()[-1].split()
    assert report[:1] == ["loaded:"], proc.stderr
    return set(report[1:])


@functools.cache
def _host_modules() -> frozenset[str]:
    """What a bare interpreter has loaded under the same environment: a
    start-up hook of the host (a .pth file, sitecustomize) may load inspect,
    and that is no module's doing."""
    return frozenset(_reported(SRC, ""))


def _loaded(cwd, script, *argv) -> set[str]:
    """The modules `python -c script ARGS...` loads beyond the host's start-up."""
    return _reported(cwd, script, *argv) - _host_modules()


def _cli_loads(cwd, *argv) -> set[str]:
    return _loaded(cwd, _RUN_CLI, *argv) & set(WATCHED)


def test_import_and_exact_commands_leave_mpmath_unloaded(tmp_path):
    assert _loaded(tmp_path, "import fallfact") & set(WATCHED) == set()
    assert _cli_loads(tmp_path, "seed-examples", "--dir", "eqs") == set()
    assert _cli_loads(tmp_path, "solve", "--equation", "eqs/order-half.json",
                      "--free", "0=1", "--free", "1=-1/2", "--n-terms", "40",
                      "--out", "sol.json") == set()
    assert _cli_loads(tmp_path, "polygon", "--equation", "eqs/order-half.json") == set()
    # evaluation is numeric: it loads mpmath, and the report sees that
    assert _cli_loads(tmp_path, "eval", "--series", "sol.json", "--at", "2.25") == {"mpmath"}
    # the order/type fit is the one user of statistics
    assert _cli_loads(tmp_path, "analyze", "--series", "sol.json", "--fit",
                      "--radii", "4", "8", "16", "--samples", "8") == {"mpmath", "statistics"}


def test_each_command_loads_only_the_modules_it_runs(tmp_path, capsys):
    def package(script, *argv):
        return {m.removeprefix("fallfact.") for m in _loaded(tmp_path, script, *argv)
                if m.startswith("fallfact.")}

    eqs, sol = tmp_path / "eqs", tmp_path / "sol.json"
    assert main(["seed-examples", "--dir", str(eqs)]) == 0
    assert main(["solve", "--equation", str(eqs / "order-half.json"), "--free", "0=1",
                 "--free", "1=-1/2", "--n-terms", "40", "--out", str(sol)]) == 0
    capsys.readouterr()
    # every name resolves on first access, not at import
    assert package("import fallfact") == set()
    seed = package(_RUN_CLI, "seed-examples", "--dir", "more")
    assert seed.isdisjoint({"series", "solver", "analysis", "basis", "riccati", "interp"}), seed
    evaluated = package(_RUN_CLI, "eval", "--series", str(sol), "--at", "2.25")
    assert "series" in evaluated
    assert evaluated.isdisjoint({"solver", "riccati", "interp"}), evaluated
