"""JSON and CSV interchange.

Exact data travels as rational strings ("(-3/2)+(1/2)i" style comes back
through the same parser that accepts CLI input), little-endian for
polynomial coefficient arrays.  Approx series store their binary64
coefficients as [re, im] float pairs and read them back as Python complex
values, bit for bit; computations lift them exactly.  Series of both
regimes store precision_bits, the precision evaluations cast to by
default; files written without it read as 128 bits.  CSV writers cover
evaluation grids, modulus profiles, and verification residual tables.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import IO, Iterable, Sequence

from .errors import InputFormatError
from .exact import ExactScalar, as_exact
from .polynomial import Polynomial
from .series import (APPROX, BinomialSeries, DEFAULT_PRECISION_BITS, EXACT,
                     EvaluationResult)
from .solver import (CoefficientRecurrence, LinearDifferenceEquation,
                     NewtonPolygon, candidate_orders)
from .analysis import ModulusProfile

FORMAT_VERSION = 1


def _scalar_str(c: ExactScalar) -> str:
    return str(c)


def polynomial_to_json(p: Polynomial) -> list[str]:
    return [_scalar_str(c) for c in p.coeffs]


def polynomial_from_json(data: Sequence[str]) -> Polynomial:
    try:
        return Polynomial(tuple(as_exact(c) for c in data))
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"bad polynomial coefficients: {exc}") from exc


def series_to_json(series: BinomialSeries) -> dict:
    if series.regime == EXACT:
        return {"format_version": FORMAT_VERSION, "regime": EXACT,
                "origin": series.origin, "precision_bits": series.precision_bits,
                "coeffs": [_scalar_str(c) for c in series.coeffs]}
    pairs = []
    for c in series.coeffs:
        cc = complex(c)
        pairs.append([cc.real, cc.imag])
    return {"format_version": FORMAT_VERSION, "regime": APPROX,
            "origin": series.origin, "precision_bits": series.precision_bits,
            "coeffs": pairs}


def series_from_json(data: dict) -> BinomialSeries:
    try:
        regime = data["regime"]
        coeffs = data["coeffs"]
        origin = data.get("origin", "")
        bits = int(data.get("precision_bits", DEFAULT_PRECISION_BITS))
        if regime == EXACT:
            return BinomialSeries(tuple(as_exact(c) for c in coeffs), EXACT, origin, bits)
        if regime == APPROX:
            vals = tuple(complex(re, im) for re, im in coeffs)
            return BinomialSeries(vals, APPROX, origin, bits)
    except InputFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad series payload: {exc}") from exc
    raise InputFormatError(f"unknown series regime {regime!r}")


def equation_to_json(eq: LinearDifferenceEquation) -> dict:
    return {"format_version": FORMAT_VERSION, "form": eq.form,
            "coeffs": [polynomial_to_json(p) for p in eq.coeffs]}


def equation_from_json(data: dict) -> LinearDifferenceEquation:
    try:
        form = data["form"]
        coeffs = tuple(polynomial_from_json(p) for p in data["coeffs"])
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"bad equation payload: {exc}") from exc
    return LinearDifferenceEquation(form, coeffs)


def recurrence_to_json(rec: CoefficientRecurrence) -> dict:
    return {"format_version": FORMAT_VERSION,
            "q": [polynomial_to_json(p) for p in rec.q],
            "n_start": rec.n_start,
            "prefix_constraints": [[_scalar_str(c) for c in row]
                                   for row in rec.prefix_constraints]}


def recurrence_from_json(data: dict) -> CoefficientRecurrence:
    try:
        q = tuple(polynomial_from_json(p) for p in data["q"])
        n_start = int(data["n_start"])
        rows = tuple(tuple(as_exact(c) for c in row)
                     for row in data.get("prefix_constraints", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad recurrence payload: {exc}") from exc
    return CoefficientRecurrence(q, n_start, rows)


def polygon_to_json(polygon: NewtonPolygon) -> dict:
    return {"format_version": FORMAT_VERSION,
            "points": [list(p) for p in polygon.points],
            "hull": [list(p) for p in polygon.hull],
            "slopes": [str(s) for s in polygon.slopes],
            "candidates": [str(s) for s in candidate_orders(polygon)]}


def polygon_from_json(data: dict) -> NewtonPolygon:
    try:
        pts = tuple((int(x), int(y)) for x, y in data["points"])
        hull = tuple((int(x), int(y)) for x, y in data["hull"])
        slopes = tuple(Fraction(s) for s in data["slopes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad polygon payload: {exc}") from exc
    return NewtonPolygon(pts, hull, slopes)


def dump_json(obj: dict, fh: IO[str]) -> None:
    json.dump(obj, fh, indent=2)
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
