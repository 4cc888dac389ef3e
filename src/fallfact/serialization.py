"""JSON and CSV interchange.

Exact data travels as rational strings ("(-3/2)+(1/2)i" style comes back
through the same parser that accepts CLI input), little-endian for
polynomial coefficient arrays.  Approx series store their binary64
coefficients as [re, im] float pairs and read them back as Python complex
values, bit for bit; computations lift them exactly.  decode_sample reads
those pairs, and the samples and Taylor coefficients the CLI takes.  A
series file carries no precision: evaluations take theirs from the caller,
and the "precision_bits" key of older files is ignored.  CSV writers cover
evaluation grids, modulus profiles, and verification residual tables.
"""

from __future__ import annotations

import cmath
import csv
import json
from fractions import Fraction
from typing import IO, TYPE_CHECKING, Iterable, Sequence

from .errors import InputFormatError
from .exact import as_exact
from .polynomial import Polynomial

# A function that needs series or solver imports it when it runs, so that a
# command loads them only when it reads or writes their data.
if TYPE_CHECKING:
    from .analysis import ModulusProfile
    from .series import BinomialSeries, EvaluationResult
    from .solver import CoefficientRecurrence, LinearDifferenceEquation, NewtonPolygon

FORMAT_VERSION = 1


def _typed(data, kind: type, what: str):
    """data, when JSON read it as kind (list: an array, int: an integer), so that
    no string is iterated as an array nor 64.7 read as 64."""
    if type(data) is not kind:
        name = "array" if kind is list else "integer"
        raise InputFormatError(f"{what} must be a JSON {name}, got {data!r}")
    return data


def decode_sample(v):
    """A JSON sample: an integer or rational string exactly, a finite float as
    itself, an [re, im] pair of JSON numbers (no bools or strings) as a complex."""
    if type(v) in (int, str):
        return as_exact(v)
    value = v
    if type(v) is list and len(v) == 2 and all(type(x) in (int, float) for x in v):
        try:
            value = complex(*v)
        except OverflowError:  # an integer part beyond the float range
            value = None
    if type(value) in (float, complex) and cmath.isfinite(value):
        return value
    raise InputFormatError(f"cannot decode sample {v!r}")


def polynomial_to_json(p: Polynomial) -> list[str]:
    return [str(c) for c in p.coeffs]


def polynomial_from_json(data: list[str]) -> Polynomial:
    try:
        return Polynomial(tuple(as_exact(c) for c in _typed(data, list, "polynomial")))
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"bad polynomial coefficients: {exc}") from exc


def series_to_json(series: BinomialSeries) -> dict:
    from .series import APPROX, EXACT
    if series.regime == EXACT:
        return {"format_version": FORMAT_VERSION, "regime": EXACT,
                "origin": series.origin,
                "coeffs": [str(c) for c in series.coeffs]}
    pairs = []
    for c in series.coeffs:
        cc = complex(c)
        pairs.append([cc.real, cc.imag])
    return {"format_version": FORMAT_VERSION, "regime": APPROX,
            "origin": series.origin, "coeffs": pairs}


def series_from_json(data: dict) -> BinomialSeries:
    from .series import APPROX, BinomialSeries, EXACT
    try:
        regime = data["regime"]
        coeffs = _typed(data["coeffs"], list, "series coeffs")
        origin = data.get("origin", "")
        if regime == EXACT:
            return BinomialSeries(tuple(as_exact(c) for c in coeffs), EXACT, origin)
        if regime == APPROX:
            pairs = (_typed(c, list, "approx coefficient") for c in coeffs)
            return BinomialSeries(tuple(map(decode_sample, pairs)), APPROX, origin)
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad series payload: {exc}") from exc
    raise InputFormatError(f"unknown series regime {regime!r}")


def equation_to_json(eq: LinearDifferenceEquation) -> dict:
    return {"format_version": FORMAT_VERSION, "form": eq.form,
            "coeffs": [polynomial_to_json(p) for p in eq.coeffs]}


def equation_from_json(data: dict) -> LinearDifferenceEquation:
    from .solver import LinearDifferenceEquation
    try:
        form = data["form"]
        coeffs = tuple(polynomial_from_json(p)
                       for p in _typed(data["coeffs"], list, "equation coeffs"))
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad equation payload: {exc}") from exc
    return LinearDifferenceEquation(form, coeffs)


def recurrence_to_json(rec: CoefficientRecurrence) -> dict:
    return {"format_version": FORMAT_VERSION,
            "q": [polynomial_to_json(p) for p in rec.q],
            "n_start": rec.n_start,
            "prefix_constraints": [[str(c) for c in row]
                                   for row in rec.prefix_constraints]}


def recurrence_from_json(data: dict) -> CoefficientRecurrence:
    from .solver import CoefficientRecurrence
    try:
        q = tuple(polynomial_from_json(p) for p in _typed(data["q"], list, "recurrence q"))
        n_start = _typed(data["n_start"], int, "n_start")
        rows = tuple(tuple(as_exact(c) for c in _typed(row, list, "prefix constraint"))
                     for row in _typed(data.get("prefix_constraints", []), list,
                                       "prefix_constraints"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad recurrence payload: {exc}") from exc
    return CoefficientRecurrence(q, n_start, rows)


def polygon_to_json(polygon: NewtonPolygon) -> dict:
    from .solver import candidate_orders
    return {"format_version": FORMAT_VERSION,
            "points": [list(p) for p in polygon.points],
            "hull": [list(p) for p in polygon.hull],
            "slopes": [str(s) for s in polygon.slopes],
            "candidates": [str(s) for s in candidate_orders(polygon)]}


def polygon_from_json(data: dict) -> NewtonPolygon:
    from .solver import NewtonPolygon
    try:
        pts = tuple((int(x), int(y)) for x, y in data["points"])
        hull = tuple((int(x), int(y)) for x, y in data["hull"])
        slopes = tuple(Fraction(s) for s in data["slopes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad polygon payload: {exc}") from exc
    return NewtonPolygon(pts, hull, slopes)


def dump_json(obj: dict, fh: IO[str]) -> None:
    json.dump(obj, fh, indent=2, allow_nan=False)  # RFC 8259: no NaN or Infinity
    fh.write("\n")


def load_json(fh: IO[str]) -> dict:
    try:
        data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, (dict, list)):
        raise InputFormatError("top-level JSON must be an object or array")
    return data


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

EVAL_HEADER = ["z_re", "z_im", "val_re", "val_im", "terms", "converged"]


def write_eval_csv(fh: IO[str],
                   rows: Iterable[tuple[complex, EvaluationResult]]) -> None:
    w = csv.writer(fh)
    w.writerow(EVAL_HEADER)
    for z, res in rows:
        zz = complex(z)
        vv = complex(res.value)
        w.writerow([repr(zz.real), repr(zz.imag), repr(vv.real), repr(vv.imag),
                    res.terms_used, int(res.converged)])


def write_profile_csv(fh: IO[str], profile: ModulusProfile) -> None:
    w = csv.writer(fh)
    w.writerow(["radius", "max_modulus", "valid"])
    for r, m, ok in zip(profile.radii, profile.max_modulus, profile.valid):
        w.writerow([repr(float(r)), "" if m is None else repr(float(m)), int(ok)])


def write_residual_csv(fh: IO[str], points: Sequence,
                       residuals: Sequence[float]) -> None:
    w = csv.writer(fh)
    w.writerow(["z_re", "z_im", "residual"])
    for z, resid in zip(points, residuals):
        zz = complex(z)
        w.writerow([repr(zz.real), repr(zz.imag), repr(float(resid))])
