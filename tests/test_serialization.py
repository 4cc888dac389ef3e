import csv
import io
import json
import random
from fractions import Fraction

import pytest

from fallfact.errors import InputFormatError
from fallfact.exact import ExactScalar
from fallfact.interp import newton_series
from fallfact.polynomial import Polynomial, poly
from fallfact.serialization import (EVAL_HEADER, dump_json, equation_from_json,
                                    equation_to_json, load_json,
                                    polygon_from_json, polygon_to_json,
                                    polynomial_from_json, polynomial_to_json,
                                    recurrence_from_json, recurrence_to_json,
                                    series_from_json, series_to_json,
                                    write_eval_csv, write_profile_csv,
                                    write_residual_csv)
from fallfact.series import approx_series, evaluate
from fallfact.analysis import ModulusProfile
from fallfact.solver import (DELTA_FORM, LinearDifferenceEquation,
                             derive_recurrence, newton_polygon)

ORDER_HALF = LinearDifferenceEquation(DELTA_FORM, (poly(1), poly(3), poly(6, 4)))


def rand_scalar(rng):
    return ExactScalar(Fraction(rng.randint(-30, 30), rng.randint(1, 7)),
                       Fraction(rng.randint(-30, 30), rng.randint(1, 7)))


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_polynomial_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        p = Polynomial(tuple(rand_scalar(rng) for _ in range(rng.randint(0, 6))))
        assert polynomial_from_json(polynomial_to_json(p)) == p


def test_exact_series_round_trip():
    s = newton_series([2 ** k for k in range(20)], origin="samples")
    data = series_to_json(s)
    assert data["regime"] == "exact"
    back = series_from_json(data)
    assert back.coeffs == s.coeffs
    assert back.origin == "samples"


def test_exact_series_keeps_precision_bits():
    s = newton_series([1, 2, 4], precision_bits=256)
    data = series_to_json(s)
    assert data["precision_bits"] == 256
    assert data["coeffs"] == ["1", "1", "1/2"]
    back = series_from_json(json.loads(json.dumps(data)))
    assert back.precision_bits == 256
    assert back.coeffs == s.coeffs
    del data["precision_bits"]  # files written before the field existed
    assert series_from_json(data).precision_bits == 128


def test_precision_below_53_bits_is_rejected_in_every_regime():
    # the constructor checks once, so no series waits for its first evaluation to fail
    for bits in (20, 52):
        with pytest.raises(ValueError, match="precision_bits"):
            newton_series([1, 2, 4], precision_bits=bits)
        with pytest.raises(ValueError, match="precision_bits"):
            approx_series([1.0, 0.5], precision_bits=bits)
        for regime, coeffs in (("exact", ["1"]), ("approx", [[1.0, 0.0]])):
            with pytest.raises(InputFormatError, match="precision_bits"):
                series_from_json({"regime": regime, "coeffs": coeffs,
                                  "precision_bits": bits})
    assert newton_series([1, 2, 4], precision_bits=53).precision_bits == 53


def test_gaussian_rational_coefficients_survive():
    rng = random.Random(9)
    s = Polynomial(tuple(rand_scalar(rng) for _ in range(8)))
    eq = LinearDifferenceEquation(DELTA_FORM, (s, poly(1)))
    assert equation_from_json(equation_to_json(eq)) == eq


def test_approx_series_round_trip():
    s = approx_series([complex(1.5, -0.25), complex(0, 1e-20)],
                      precision_bits=192)
    data = series_to_json(s)
    assert data["precision_bits"] == 192
    back = series_from_json(data)
    assert back.regime == "approx"
    assert back.precision_bits == 192
    assert back.coeffs == s.coeffs  # float pairs are lossless


def test_equation_and_recurrence_round_trip():
    eq = ORDER_HALF
    assert equation_from_json(equation_to_json(eq)) == eq
    rec = derive_recurrence(eq)
    back = recurrence_from_json(recurrence_to_json(rec))
    assert back == rec
    # a recurrence with prefix constraints
    rec2 = derive_recurrence(
        LinearDifferenceEquation(DELTA_FORM, (poly(1, -1), poly(1))))
    assert recurrence_from_json(recurrence_to_json(rec2)) == rec2


def test_polygon_round_trip_keeps_fraction_slopes():
    pg = newton_polygon(ORDER_HALF)
    data = polygon_to_json(pg)
    assert data["slopes"] == ["1/2"]
    assert data["candidates"] == ["1/2"]
    back = polygon_from_json(data)
    assert back == pg
    assert isinstance(back.slopes[0], Fraction)


def test_dump_and_load_json():
    buf = io.StringIO()
    dump_json({"a": [1, 2]}, buf)
    text = buf.getvalue()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1, 2]}
    assert load_json(io.StringIO(text)) == {"a": [1, 2]}


# ---------------------------------------------------------------------------
# malformed input
# ---------------------------------------------------------------------------

def test_load_json_rejects_garbage():
    with pytest.raises(InputFormatError):
        load_json(io.StringIO("{not json"))
    with pytest.raises(InputFormatError):
        load_json(io.StringIO('"just a string"'))


def test_bad_payloads_raise_input_format_error():
    with pytest.raises(InputFormatError):
        polynomial_from_json(["1", "2//3"])
    with pytest.raises(InputFormatError):
        series_from_json({"regime": "exact"})  # missing coeffs
    with pytest.raises(InputFormatError):
        series_from_json({"regime": "symbolic", "coeffs": []})
    with pytest.raises(InputFormatError):
        equation_from_json({"form": DELTA_FORM})
    with pytest.raises(InputFormatError):
        recurrence_from_json({"q": [["1"]], "n_start": "soon"})
    with pytest.raises(InputFormatError):
        polygon_from_json({"points": [[0, 0]], "hull": "no", "slopes": []})


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------

def test_eval_csv_round_trips_values():
    s = newton_series([2 ** k for k in range(30)])
    pts = [complex(1.5, 0), complex(2, 1)]
    rows = [(z, evaluate(s, z, 1e-12)) for z in pts]
    buf = io.StringIO(newline="")
    write_eval_csv(buf, rows)
    got = list(csv.reader(io.StringIO(buf.getvalue())))
    assert got[0] == EVAL_HEADER
    assert len(got) == 3
    for (z, res), row in zip(rows, got[1:]):
        assert complex(float(row[0]), float(row[1])) == z
        assert complex(float(row[2]), float(row[3])) == complex(res.value)
        assert int(row[4]) == res.terms_used
        assert row[5] == "1"


def test_profile_csv_handles_invalid_circles():
    prof = ModulusProfile((2.0, 4.0), (10.0, None), (True, False), 8)
    buf = io.StringIO(newline="")
    write_profile_csv(buf, prof)
    got = list(csv.reader(io.StringIO(buf.getvalue())))
    assert got[0] == ["radius", "max_modulus", "valid"]
    assert got[1] == ["2.0", "10.0", "1"]
    assert got[2] == ["4.0", "", "0"]


def test_residual_csv_layout():
    buf = io.StringIO(newline="")
    write_residual_csv(buf, [complex(1, 2)], [1.25e-30])
    got = list(csv.reader(io.StringIO(buf.getvalue())))
    assert got == [["z_re", "z_im", "residual"], ["1.0", "2.0", "1.25e-30"]]
