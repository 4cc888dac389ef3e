"""Command-line interface.

Exit codes: 0 success, 2 mathematical obstruction (pole, singular
recurrence), 3 input error, 4 numerical failure.  argparse usage errors are
remapped from its default of 2 to 3 so that 2 stays meaningful.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from typing import IO, Iterator

from . import config
from .analysis import (chi_estimate, classify, fit_order_type, modulus_profile)
from .errors import (InputFormatError, MathematicalObstruction,
                     NumericalFailure)
from .exact import as_exact
from .interp import newton_series, reconstruct_check
from .polynomial import format_poly
from .riccati import riccati_coefficient, riccati_instance, verify_riccati
from .serialization import (dump_json, equation_from_json, equation_to_json,
                            load_json, polygon_to_json, polynomial_to_json,
                            recurrence_to_json, series_from_json,
                            series_to_json, write_eval_csv, write_profile_csv,
                            write_residual_csv)
from .series import (BinomialSeries, binomial_from_taylor, evaluate,
                     taylor_from_binomial)
from .solver import (LinearDifferenceEquation, candidate_orders,
                     continuation_eval, derive_recurrence, formal_solve,
                     newton_polygon, to_delta_form, to_shift_form)


class _Parser(argparse.ArgumentParser):
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


def _collect_points(args) -> list[complex]:
    pts = [parse_point(t) for t in (args.at or [])]
    if getattr(args, "rect", None):
        re0, re1, im0, im1, nre, nim = args.rect
        nre, nim = int(nre), int(nim)
        if nre < 1 or nim < 1:
            raise InputFormatError("--rect needs positive sample counts")
        for i in range(nre):
            re = re0 + (re1 - re0) * (i / (nre - 1) if nre > 1 else 0.0)
            for j in range(nim):
                im = im0 + (im1 - im0) * (j / (nim - 1) if nim > 1 else 0.0)
                pts.append(complex(re, im))
    if getattr(args, "circle", None):
        radius, count = args.circle
        count = int(count)
        if count < 1 or radius < 0:
            raise InputFormatError("--circle needs radius >= 0 and count >= 1")
        for k in range(count):
            theta = 2.0 * math.pi * k / count
            pts.append(complex(radius * math.cos(theta), radius * math.sin(theta)))
    if not pts:
        raise InputFormatError("no evaluation points given (use --at/--rect/--circle)")
    return pts


def _resolved(args) -> config.RunConfig:
    base = config.from_env()
    return config.resolve(base, getattr(args, "precision_bits", None),
                          getattr(args, "eps", None), getattr(args, "n_max", None))


def _print_growth(series: BinomialSeries, window_fraction: float) -> None:
    if len(series.coeffs) < 16:
        print("growth: not estimated (needs >= 16 coefficients)")
        return
    est = chi_estimate(series.coeffs, window_fraction)
    cls = classify(series.coeffs, window_fraction=window_fraction)
    chi_txt = "undefined" if est.undefined else f"{est.value:.12g}"
    print(f"chi_estimate {chi_txt}")
    print(f"chi_window {est.window[0]} {est.window[1]}")
    print(f"classification {cls.kind}")
    if cls.k_bound is not None:
        print(f"k_bound {cls.k_bound:.12g}")
        print(f"k_index {cls.k_index}")


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
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
    series, growth = formal_solve(eq, free, args.n_terms)
    if not math.isnan(growth.chi_estimate):
        print(f"chi_estimate {growth.chi_estimate:.12g}")
    print(f"classification {growth.classification.kind}")
    payload = series_to_json(series)
    payload["recurrence"] = recurrence_to_json(rec)
    with _out_stream(args.out) as fh:
        dump_json(payload, fh)
    return 0


def cmd_eval(args) -> int:
    series = _load_series(args.series)
    cfg = _resolved(args)
    pts = _collect_points(args)
    rows = []
    bad = None
    for z in pts:
        res = evaluate(series, z, cfg.eps, cfg.n_max,
                       precision_bits=cfg.precision_bits)
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
    series = _load_series(args.series)
    cfg = _resolved(args)
    _print_growth(series, args.window_fraction)
    if not args.fit:
        return 0
    radii = [float(r) for r in args.radii]

    def evaluator(z):
        return evaluate(series, z, cfg.eps, cfg.n_max,
                        precision_bits=cfg.precision_bits)

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
    coeff = riccati_coefficient(args.a, args.b, args.c)
    print(f"A(z) = {coeff}")
    if args.out:
        with _out_stream(args.out) as fh:
            dump_json({"num": polynomial_to_json(coeff.num),
                       "den": polynomial_to_json(coeff.den)}, fh)
    return 0


def cmd_riccati_verify(args) -> int:
    cfg = _resolved(args)
    inst = riccati_instance(args.a, args.b, args.c)
    free = _parse_free(args.free or [])
    series, _ = formal_solve(inst.equation, free, args.n_terms)
    pts = [parse_point(t) for t in (args.at or [])] or \
        [complex(1.5 + k) for k in range(6)]

    def evaluator(z):
        return evaluate(series, z, cfg.eps, cfg.n_max,
                        precision_bits=cfg.precision_bits).value

    report = verify_riccati(inst, evaluator, pts, args.tol, cfg.precision_bits)
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
        values = [_decode_sample(v) for v in raw]
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


def _decode_sample(v):
    if isinstance(v, bool):
        raise InputFormatError("bool is not a sample")
    if isinstance(v, (int, str)):
        return as_exact(v)
    if isinstance(v, float):
        return v
    if isinstance(v, list) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise InputFormatError(f"cannot decode sample {v!r}")


def cmd_convert(args) -> int:
    sources = [s for s in (args.equation, args.series, args.taylor) if s]
    if len(sources) != 1:
        raise InputFormatError("give exactly one of --equation/--series/--taylor")
    if args.equation:
        if args.to not in ("delta", "shift"):
            raise InputFormatError("--equation converts with --to delta|shift")
        eq = _load_equation(args.equation)
        out = to_delta_form(eq) if args.to == "delta" else to_shift_form(eq)
        with _out_stream(args.out) as fh:
            dump_json(equation_to_json(out), fh)
        return 0
    if args.series:
        if args.to != "taylor":
            raise InputFormatError("--series converts with --to taylor")
        series = _load_series(args.series)
        m_max = args.m_max if args.m_max is not None else series.truncation_order
        tc = taylor_from_binomial(series, m_max, args.k_cut)
        coeffs = [str(c) for c in tc.coeffs]
        if tc.chi_flagged:
            print("warning: growth estimate >= 1; Taylor conversion is formal",
                  file=sys.stderr)
        with _out_stream(args.out) as fh:
            dump_json({"coeffs": coeffs, "chi_flagged": tc.chi_flagged,
                       "chi_value": tc.chi_value}, fh)
        return 0
    if args.to != "binomial":
        raise InputFormatError("--taylor converts with --to binomial")
    payload = _load_payload(args.taylor)
    raw = payload["coeffs"] if isinstance(payload, dict) else payload
    coeffs = [_decode_sample(v) for v in raw]
    cfg = _resolved(args)
    series = binomial_from_taylor(coeffs, args.n_terms, args.k_cut,
                                  precision_bits=cfg.precision_bits,
                                  origin="taylor-conversion")
    with _out_stream(args.out) as fh:
        dump_json(series_to_json(series), fh)
    return 0


def cmd_continue_eval(args) -> int:
    eq = _load_equation(args.equation)
    series = _load_series(args.series)
    cfg = _resolved(args)
    pts = _collect_points(args)
    failed = False
    for z in pts:
        res = continuation_eval(eq, series, z, cfg.eps,
                                re_threshold=args.threshold,
                                n_max=cfg.n_max,
                                precision_bits=cfg.precision_bits)
        v = complex(res.value)
        flag = "ok" if res.converged else "non-converged"
        failed = failed or not res.converged
        print(f"y({z:g}) = {v!r}  steps={res.steps} {flag}")
    return 4 if failed else 0


_SEED_EQUATIONS = {
    # delta y = y/2: solution (1 + 1/2)^z, geometric coefficients
    "geometric.json": ("delta", [["-1/2"], ["1"]]),
    # delta y = (z-1) y: factorial-weight coefficients, order 1 growth
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

def _add_precision_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision-bits", type=int, default=None,
                   help="working precision (>= 53); FALLFACT_PRECISION_BITS "
                        "applies when the flag is absent")


def _add_numeric_flags(p: argparse.ArgumentParser) -> None:
    _add_precision_flag(p)
    p.add_argument("--eps", type=float, default=None, help="stopping tolerance")
    p.add_argument("--n-max", type=int, default=None, help="evaluation term cap")


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
    p.add_argument("--window-fraction", type=float, default=0.5)
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
    _add_precision_flag(p)  # the precision a --to binomial series is stored with
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except MathematicalObstruction as exc:
        print(f"fallfact: {exc}", file=sys.stderr)
        return 2
    except InputFormatError as exc:
        print(f"fallfact: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"fallfact: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"fallfact: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"fallfact: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
