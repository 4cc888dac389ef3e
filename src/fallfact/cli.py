"""Command-line interface.

Exit codes: 0 success, 2 mathematical obstruction (pole, singular
recurrence), 3 input error, 4 numerical failure.  argparse usage errors are
remapped from its default of 2 to 3 so that 2 stays meaningful.

The commands that evaluate (eval, analyze, riccati verify, continue-eval)
take --precision-bits, --eps and --n-max, defaulting to the series module's
defaults; those flags are the only numeric settings of a run.  Out-of-range
values (precision < 53, eps not in (0, inf), n_max < 16) exit 3 before any work.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from contextlib import contextmanager
from importlib import import_module
from typing import IO, TYPE_CHECKING, Iterator

from .errors import (InputFormatError, MathematicalObstruction,
                     NumericalFailure)
from .exact import as_exact
from .polynomial import format_poly
from .serialization import (decode_sample, dump_json, equation_from_json,
                            equation_to_json, load_json, polygon_to_json,
                            polynomial_to_json, recurrence_to_json,
                            series_from_json, series_to_json, write_eval_csv,
                            write_profile_csv, write_residual_csv)

if TYPE_CHECKING:
    from .series import BinomialSeries
    from .solver import LinearDifferenceEquation


def _deferred(module: str, name: str):
    """A stand-in for fallfact.<module>.<name> that imports the module when called."""
    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)
    return call


# Each command imports the modules it runs, and no others.  The names below
# are the exception: perfbench's tracer patches them on this module, so they
# stay module globals, bound to stand-ins that import their module when called.
# chi_estimate is not called here at all; it is kept only for that patch table.
# All of them go once the package counts its own calls for the tracer.
chi_estimate = _deferred("analysis", "chi_estimate")
classify = _deferred("analysis", "classify")
fit_order_type = _deferred("analysis", "fit_order_type")
modulus_profile = _deferred("analysis", "modulus_profile")
newton_series = _deferred("interp", "newton_series")
reconstruct_check = _deferred("interp", "reconstruct_check")
verify_riccati = _deferred("riccati", "verify_riccati")
evaluate = _deferred("series", "evaluate")
taylor_from_binomial = _deferred("series", "taylor_from_binomial")
continuation_eval = _deferred("solver", "continuation_eval")
derive_recurrence = _deferred("solver", "derive_recurrence")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # A minus before a digit, ".digit", inf or nan starts a value, not an
        # option. argparse's own matcher knows only plain negative decimals,
        # so it takes "-inf", "-1e3", "-0.5i" and "-1+2i" for options.
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> None:  # exit 3, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@contextmanager
def _out_stream(path: str | None) -> Iterator[IO[str]]:
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _load_payload(path: str) -> dict:
    if path == "-":
        return load_json(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return load_json(fh)


def _load_equation(path: str) -> LinearDifferenceEquation:
    return equation_from_json(_load_payload(path))


def _load_series(path: str) -> BinomialSeries:
    return series_from_json(_load_payload(path))


def parse_point(text: str) -> complex:
    """Accept "1.5", "2+3i", "-0.5i", "1+2j"."""
    t = text.strip().replace(" ", "")
    try:
        return complex(float(t))
    except ValueError:
        pass
    try:
        return complex(t.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise InputFormatError(f"cannot parse point {text!r}") from None


def _parse_free(pairs: list[str]) -> dict[int, object]:
    out: dict[int, object] = {}
    for item in pairs:
        idx_text, sep, val_text = item.partition("=")
        if not sep:
            raise InputFormatError(f"--free expects IDX=VALUE, got {item!r}")
        try:
            idx = int(idx_text)
            val = as_exact(val_text)
        except (ValueError, TypeError) as exc:
            raise InputFormatError(f"bad --free entry {item!r}: {exc}") from exc
        if idx in out:
            raise InputFormatError(f"--free index {idx} given twice")
        out[idx] = val
    return out


MAX_POINTS = 10 ** 6  # points one command may evaluate, counted before any is built


def _count(value: float, flag: str) -> int:
    """A sample count read as a float, refused unless a whole number >= 1."""
    if not (value >= 1 and value.is_integer()):  # NaN and inf too
        raise InputFormatError(f"{flag} needs whole sample counts >= 1, got {value:g}")
    return int(value)


def _collect_points(args) -> list[complex]:
    pts = [parse_point(t) for t in (args.at or [])]
    rect, circle = getattr(args, "rect", None), getattr(args, "circle", None)
    nre = nim = count = 0
    if rect:
        re0, re1, im0, im1, nre, nim = rect
        nre, nim = _count(nre, "--rect"), _count(nim, "--rect")
    if circle:
        radius, count = circle
        count = _count(count, "--circle")
        if not 0 <= radius < math.inf:  # NaN too
            raise InputFormatError(f"--circle needs a finite radius >= 0, got {radius:g}")
    _check_point_total(len(pts) + nre * nim + count, "--at, --rect and --circle")
    for i in range(nre):
        re = re0 + (re1 - re0) * (i / (nre - 1) if nre > 1 else 0.0)
        for j in range(nim):
            im = im0 + (im1 - im0) * (j / (nim - 1) if nim > 1 else 0.0)
            pts.append(complex(re, im))
    for k in range(count):
        theta = 2.0 * math.pi * k / count
        pts.append(complex(radius * math.cos(theta), radius * math.sin(theta)))
    if not pts:
        raise InputFormatError("no evaluation points given (use --at/--rect/--circle)")
    return pts


def _check_point_total(total: int, flags: str) -> None:
    """Refuse more than MAX_POINTS points; called before any point is built."""
    if total > MAX_POINTS:
        raise InputFormatError(f"{flags} give {total} points; at most {MAX_POINTS} are allowed")


def _check_numeric_flags(args) -> None:
    """Give the numeric flags left out the series module's defaults, then check all."""
    from .series import DEFAULT_EPS, DEFAULT_N_MAX, DEFAULT_PRECISION_BITS
    if args.precision_bits is None:
        args.precision_bits = DEFAULT_PRECISION_BITS
    if args.eps is None:
        args.eps = DEFAULT_EPS
    if args.n_max is None:
        args.n_max = DEFAULT_N_MAX
    if args.precision_bits < 53:
        raise InputFormatError("precision_bits must be >= 53")
    if not 0 < args.eps < math.inf:  # NaN too
        raise InputFormatError(f"--eps must be positive and finite, got {args.eps:g}")
    if args.n_max < 16:
        raise InputFormatError("n_max must be >= 16")


def _print_growth(series: BinomialSeries) -> None:
    from .analysis import MIN_GROWTH_COEFFS
    cls = classify(series.coeffs)
    if math.isnan(cls.chi):
        print(f"growth: not estimated (needs >= {MIN_GROWTH_COEFFS} coefficients)")
        return
    chi_txt = "undefined" if cls.chi_undefined else f"{cls.chi:.12g}"
    print(f"chi_estimate {chi_txt}")
    print(f"chi_window {cls.window[0]} {cls.window[1]}")
    print(f"classification {cls.kind}")
    if cls.k_bound is not None:
        print(f"k_bound {cls.k_bound:.12g}")
        print(f"k_index {cls.k_index}")


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    from .solver import formal_solve
    eq = _load_equation(args.equation)
    free = _parse_free(args.free or [])
    rec = derive_recurrence(eq)
    print(f"recurrence order {rec.order}, generic from n = {rec.n_start}, "
          f"{len(rec.prefix_constraints)} prefix constraint(s)")
    for i, q in enumerate(rec.q):
        print(f"q[{i}](n) = {format_poly(q, 'n')}")
    for row in rec.prefix_constraints:
        terms = " + ".join(f"({c})*a{j}" for j, c in enumerate(row) if not c.is_zero())
        print(f"constraint: {terms} = 0")
    series, cls = formal_solve(eq, free, args.n_terms)
    if not math.isnan(cls.chi):
        print(f"chi_estimate {cls.chi:.12g}")
    print(f"classification {cls.kind}")
    payload = series_to_json(series)
    payload["recurrence"] = recurrence_to_json(rec)
    with _out_stream(args.out) as fh:
        dump_json(payload, fh)
    return 0


def cmd_eval(args) -> int:
    series = _load_series(args.series)
    pts = _collect_points(args)
    rows = []
    bad = None
    for z in pts:
        res = evaluate(series, z, args.eps, args.n_max,
                       precision_bits=args.precision_bits)
        if not res.converged and bad is None:
            bad = z
        rows.append((z, res))
    with _out_stream(args.out) as fh:
        write_eval_csv(fh, rows)
    if bad is not None and args.strict:
        print(f"evaluation did not converge at {bad}", file=sys.stderr)
        return 4
    return 0


def cmd_analyze(args) -> int:
    from .analysis import _checked_radii
    series = _load_series(args.series)
    # both refused before anything is printed
    radii = _checked_radii(args.radii)
    if args.samples < 1:
        raise InputFormatError(f"--samples must be >= 1, got {args.samples}")
    _check_point_total(args.samples * len(radii), "--samples times --radii")
    _print_growth(series)
    if not args.fit:
        return 0

    def evaluator(z):
        return evaluate(series, z, args.eps, args.n_max,
                        precision_bits=args.precision_bits)

    profile = modulus_profile(evaluator, radii, args.samples)
    for r, m, ok in zip(profile.radii, profile.max_modulus, profile.valid):
        m_txt = "invalid" if not ok else f"{m:.12g}"
        print(f"M({r:g}) = {m_txt}")
    if args.profile_out:
        with _out_stream(args.profile_out) as fh:
            write_profile_csv(fh, profile)
    fit = fit_order_type(profile)
    print(f"rho_fit {fit.rho_fit:.12g}")
    print(f"tau_fit {fit.tau_fit:.12g}")
    return 0


def cmd_polygon(args) -> int:
    from .solver import candidate_orders, newton_polygon
    eq = _load_equation(args.equation)
    pg = newton_polygon(eq)
    print("points " + " ".join(f"({x},{y})" for x, y in pg.points))
    print("hull " + " ".join(f"({x},{y})" for x, y in pg.hull))
    print("slopes " + (" ".join(str(s) for s in pg.slopes) or "-"))
    cand = candidate_orders(pg)
    print("candidate_orders " + (" ".join(str(s) for s in cand) or "-"))
    if args.out:
        with _out_stream(args.out) as fh:
            dump_json(polygon_to_json(pg), fh)
    return 0


def cmd_riccati_coefficient(args) -> int:
    from .riccati import riccati_coefficient
    coeff = riccati_coefficient(args.a, args.b, args.c)
    print(f"A(z) = {coeff}")
    if args.out:
        with _out_stream(args.out) as fh:
            dump_json({"num": polynomial_to_json(coeff.num),
                       "den": polynomial_to_json(coeff.den)}, fh)
    return 0


def cmd_riccati_verify(args) -> int:
    from .riccati import riccati_instance
    from .solver import formal_solve
    inst = riccati_instance(args.a, args.b, args.c)
    free = _parse_free(args.free or [])
    series, _ = formal_solve(inst.equation, free, args.n_terms)
    pts = [parse_point(t) for t in (args.at or [])] or \
        [complex(1.5 + k) for k in range(6)]

    def evaluator(z):
        return evaluate(series, z, args.eps, args.n_max,
                        precision_bits=args.precision_bits).value

    report = verify_riccati(inst, evaluator, pts, args.tol, args.precision_bits)
    print(f"A(z) = {inst.coefficient}")
    for z, resid in zip(report.points, report.residuals):
        print(f"residual at {z:g}: {resid:.3e}")
    for z, why in report.skipped:
        print(f"skipped {z:g}: {why}")
    print(f"max_residual {report.max_residual:.3e}")
    if args.out:
        with _out_stream(args.out) as fh:
            write_residual_csv(fh, report.points, report.residuals)
    if report.passed is False:
        print(f"FAIL: max residual exceeds {args.tol:g}", file=sys.stderr)
        return 4
    if not report.points:
        print("FAIL: every point was skipped", file=sys.stderr)
        return 4
    return 0


def cmd_interp(args) -> int:
    if args.samples:
        raw = _load_payload(args.samples)
        if not isinstance(raw, list):
            raise InputFormatError("samples file must hold a JSON array")
        values = [decode_sample(v) for v in raw]
    else:
        values = [as_exact(t) for t in args.values]
    if not values:
        raise InputFormatError("no samples given")
    series = newton_series(values)
    if args.check:
        report = reconstruct_check(series, values)
        print(f"max_deviation {report.max_deviation:.3e}")
    with _out_stream(args.out) as fh:
        dump_json(series_to_json(series), fh)
    return 0


def cmd_convert(args) -> int:
    sources = [s for s in (args.equation, args.series, args.taylor) if s]
    if len(sources) != 1:
        raise InputFormatError("give exactly one of --equation/--series/--taylor")
    if args.equation:
        if args.to not in ("delta", "shift"):
            raise InputFormatError("--equation converts with --to delta|shift")
        from .solver import to_delta_form, to_shift_form
        eq = _load_equation(args.equation)
        out = to_delta_form(eq) if args.to == "delta" else to_shift_form(eq)
        with _out_stream(args.out) as fh:
            dump_json(equation_to_json(out), fh)
        return 0
    if args.series:
        if args.to != "taylor":
            raise InputFormatError("--series converts with --to taylor")
        from .analysis import MIN_GROWTH_COEFFS
        series = _load_series(args.series)
        m_max = args.m_max if args.m_max is not None else series.truncation_order
        tc = taylor_from_binomial(series, m_max, args.k_cut)
        coeffs = [str(c) for c in tc.coeffs]
        if tc.chi_flagged:
            why = ("growth estimate >= 1" if tc.chi_value is not None else
                   f"growth not estimated (needs >= {MIN_GROWTH_COEFFS} coefficients)")
            print(f"warning: {why}; Taylor conversion is formal", file=sys.stderr)
        with _out_stream(args.out) as fh:  # JSON has no Infinity: undefined chi is null
            dump_json({"coeffs": coeffs, "chi_flagged": tc.chi_flagged,
                       "chi_value": None if tc.chi_value == math.inf else tc.chi_value}, fh)
        return 0
    if args.to != "binomial":
        raise InputFormatError("--taylor converts with --to binomial")
    from .series import binomial_from_taylor
    payload = _load_payload(args.taylor)
    raw = payload.get("coeffs") if isinstance(payload, dict) else payload
    if not isinstance(raw, list):
        raise InputFormatError("Taylor coeffs must be a JSON array")
    coeffs = [decode_sample(v) for v in raw]
    series = binomial_from_taylor(coeffs, args.n_terms, args.k_cut)
    with _out_stream(args.out) as fh:
        dump_json(series_to_json(series), fh)
    return 0


def cmd_continue_eval(args) -> int:
    eq = _load_equation(args.equation)
    series = _load_series(args.series)
    pts = _collect_points(args)
    failed = False
    for z in pts:
        res = continuation_eval(eq, series, z, args.eps,
                                re_threshold=args.threshold,
                                n_max=args.n_max,
                                precision_bits=args.precision_bits)
        v = complex(res.value)
        flag = "ok" if res.converged else "non-converged"
        failed = failed or not res.converged
        print(f"y({z:g}) = {v!r}  steps={res.steps} {flag}")
    return 4 if failed else 0


_SEED_EQUATIONS = {
    # delta y = y/2: solution (1 + 1/2)^z, geometric coefficients
    "geometric.json": ("delta", [["-1/2"], ["1"]]),
    # delta y = (z-1) y: with --free 0=1, a_n = (-1)^n/n!, so y = sum (-1)^n C(z,n),
    # which is 0 on Re z > 0 and diverges on Re z < 0
    "factorial.json": ("delta", [["1", "-1"], ["1"]]),
    # (4z+6) delta^2 y + 3 delta y + y = 0: entire solution of order 1/2
    "order-half.json": ("delta", [["1"], ["3"], ["6", "4"]]),
}


def cmd_seed_examples(args) -> int:
    os.makedirs(args.dir, exist_ok=True)
    for name, (form, coeffs) in _SEED_EQUATIONS.items():
        path = os.path.join(args.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            dump_json({"format_version": 1, "form": form, "coeffs": coeffs}, fh)
        print(path)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_numeric_flags(p: argparse.ArgumentParser) -> None:
    # defaults are filled in by _check_numeric_flags, which loads series
    p.add_argument("--precision-bits", type=int, help="working precision (>= 53)")
    p.add_argument("--eps", type=float, help="stopping tolerance (> 0)")
    p.add_argument("--n-max", type=int, help="evaluation term cap (>= 16)")


def _add_point_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--at", action="append", metavar="POINT",
                   help="evaluation point, e.g. 2.25 or 1+2i (repeatable)")
    p.add_argument("--rect", nargs=6, type=float,
                   metavar=("RE0", "RE1", "IM0", "IM1", "NRE", "NIM"),
                   help="rectangular grid of points")
    p.add_argument("--circle", nargs=2, type=float, metavar=("R", "COUNT"),
                   help="equally spaced points on |z| = R")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fallfact",
                     description="Binomial (factorial) series toolkit for "
                                 "linear difference equations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="derive the coefficient recurrence and solve it")
    p.add_argument("--equation", required=True, help="equation JSON (or -)")
    p.add_argument("--free", action="append", metavar="IDX=VALUE",
                   help="free coefficient, exact value (repeatable)")
    p.add_argument("--n-terms", type=int, default=100,
                   help="truncation order of the output series")
    p.add_argument("--out", default=None, help="series JSON output (default stdout)")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a series on points, CSV out")
    p.add_argument("--series", required=True)
    _add_point_flags(p)
    _add_numeric_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when any point fails to converge")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("analyze", help="growth estimate and classification")
    p.add_argument("--series", required=True)
    p.add_argument("--fit", action="store_true",
                   help="also fit order and type from a modulus profile")
    p.add_argument("--radii", nargs="+", type=float, default=[16.0, 64.0, 256.0, 1024.0])
    p.add_argument("--samples", type=int, default=64, help="points per circle")
    p.add_argument("--profile-out", default=None, help="modulus profile CSV")
    _add_numeric_flags(p)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("polygon", help="Newton polygon and candidate orders")
    p.add_argument("--equation", required=True)
    p.add_argument("--out", default=None, help="polygon JSON output")
    p.set_defaults(handler=cmd_polygon)

    p = sub.add_parser("riccati", help="difference Riccati companion tools")
    rsub = p.add_subparsers(dest="riccati_command", required=True)
    rc = rsub.add_parser("coefficient", help="print A(z) in canonical form")
    rc.add_argument("--a", required=True)
    rc.add_argument("--b", required=True)
    rc.add_argument("--c", required=True)
    rc.add_argument("--out", default=None, help="JSON with num/den arrays")
    rc.set_defaults(handler=cmd_riccati_coefficient)
    rv = rsub.add_parser("verify", help="check the Riccati recursion against "
                                        "a solved series")
    rv.add_argument("--a", required=True)
    rv.add_argument("--b", required=True)
    rv.add_argument("--c", required=True)
    rv.add_argument("--free", action="append", metavar="IDX=VALUE")
    rv.add_argument("--n-terms", type=int, default=150)
    rv.add_argument("--at", action="append", metavar="POINT")
    rv.add_argument("--tol", type=float, default=1e-8,
                    help="max allowed residual")
    rv.add_argument("--out", default=None, help="residual CSV")
    _add_numeric_flags(rv)
    rv.set_defaults(handler=cmd_riccati_verify)

    p = sub.add_parser("interp", help="Newton series from samples at 0,1,2,...")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--samples", help="JSON array of sample values")
    src.add_argument("--values", nargs="+", help="exact sample values inline")
    p.add_argument("--check", action="store_true",
                   help="re-evaluate at the sample points and report deviation")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_interp)

    p = sub.add_parser("convert", help="convert equations or series between bases")
    p.add_argument("--equation", default=None)
    p.add_argument("--series", default=None)
    p.add_argument("--taylor", default=None, help="Taylor coefficient JSON")
    p.add_argument("--to", required=True,
                   choices=["delta", "shift", "taylor", "binomial"])
    p.add_argument("--m-max", type=int, default=None,
                   help="highest Taylor coefficient to produce")
    p.add_argument("--k-cut", type=int, default=None,
                   help="truncation of the inner conversion sums")
    p.add_argument("--n-terms", type=int, default=None,
                   help="truncation order for --to binomial")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("continue-eval",
                       help="evaluate left of the reliable half plane via the "
                            "equation's shift form")
    p.add_argument("--equation", required=True)
    p.add_argument("--series", required=True)
    _add_point_flags(p)
    p.add_argument("--threshold", type=float, default=None,
                   help="real part above which direct summation is trusted")
    _add_numeric_flags(p)
    p.set_defaults(handler=cmd_continue_eval)

    p = sub.add_parser("seed-examples", help="write the bundled example equations")
    p.add_argument("--dir", default="equations")
    p.set_defaults(handler=cmd_seed_examples)

    return parser


# Python refuses int <-> str conversions past 4,300 digits, a guard against
# quadratic-time parsing of hostile input (CVE-2020-10735).  Exact
# coefficients pass that soon: a_780 of the README equation has a 4,306-digit
# denominator.  Each command runs under this higher cap instead; at 100,000
# digits one integer takes about 0.1 s to parse and 0.2 s to print.
_INT_DIGITS_CAP = 100_000


@contextmanager
def _int_digits_cap() -> Iterator[None]:
    """Raise the int/str digit limit to _INT_DIGITS_CAP, then restore it.

    A limit already higher or off (0) is kept; Pythons before 3.10.7 have none.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    raise_it = 0 < limit < _INT_DIGITS_CAP
    if raise_it:
        sys.set_int_max_str_digits(_INT_DIGITS_CAP)
    try:
        yield
    finally:
        if raise_it:
            sys.set_int_max_str_digits(limit)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "precision_bits"):  # the commands that evaluate
            _check_numeric_flags(args)
        with _int_digits_cap():
            return args.handler(args)
    except MathematicalObstruction as exc:
        print(f"fallfact: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"fallfact: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError, OSError) as exc:  # InputFormatError is a ValueError
        print(f"fallfact: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
