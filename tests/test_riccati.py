from fractions import Fraction

import pytest

from fallfact.errors import InputFormatError, PoleError
from fallfact.exact import as_exact
from fallfact.polynomial import Polynomial, RationalFunction, poly
from fallfact.riccati import (g_step_check, riccati_coefficient,
                              riccati_equation, riccati_instance,
                              riccati_transform, verify_riccati)
from fallfact.series import evaluate, exact_series, make_context
from fallfact.solver import (DELTA_FORM, derive_recurrence, solve_recurrence)


def order_half_evaluator(n=150, precision_bits=256):
    """High-precision evaluator for the solution of (4z+6) d2y + 3 dy + y = 0."""
    eq = riccati_equation(4, 6, 3)
    rec = derive_recurrence(eq)
    a = solve_recurrence(rec, {0: 1, 1: Fraction(-1, 2)}, n)
    s = exact_series(a)

    def evaluator(w):
        return evaluate(s, w, 1e-40, precision_bits=precision_bits).value
    return evaluator


# ---------------------------------------------------------------------------
# canonical coefficient
# ---------------------------------------------------------------------------

def test_coefficient_pinned_values():
    got = riccati_coefficient(4, 6, 3)
    assert got == RationalFunction(Polynomial((23, 16)), Polynomial((9, 80, 64)))
    assert str(got) == "(16z+23)/(64z^2+80z+9)"
    # a=1, b=0, c=0 collapses to 1/z after cancellation
    simple = riccati_coefficient(1, 0, 0)
    assert simple == RationalFunction(poly(1), poly(0, 1))


def test_coefficient_rejects_degenerate_parameters():
    with pytest.raises(InputFormatError):
        riccati_coefficient(0, 1, 2)  # both denominator factors vanish
    with pytest.raises(InputFormatError):
        riccati_coefficient(0, 3, 6)
    # a = 0 with nondegenerate denominator is allowed (constant coefficient)
    assert riccati_coefficient(0, 1, 0) == RationalFunction(poly(1), poly(1))


def test_equation_and_instance_structure():
    eq = riccati_equation(4, 6, 3)
    assert eq.form == DELTA_FORM
    assert eq.coeffs == (poly(1), poly(3), poly(6, 4))
    inst = riccati_instance(4, 6, 3)
    assert (inst.a, inst.b, inst.c) == (as_exact(4), as_exact(6), as_exact(3))
    assert inst.normalizer() == poly(1, 8)       # 2a(z-1) + 2b - c
    assert inst.shifted_argument() == poly(6, 4)  # az + b
    assert inst.equation == eq
    assert inst.coefficient == riccati_coefficient(4, 6, 3)


# ---------------------------------------------------------------------------
# transform and verification against the solved linear equation
# ---------------------------------------------------------------------------

def test_verify_riccati_on_solved_equation():
    inst = riccati_instance(4, 6, 3)
    ev = order_half_evaluator()
    points = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
    rep = verify_riccati(inst, ev, points, eps=1e-8, precision_bits=256)
    assert rep.passed
    assert not rep.skipped
    assert len(rep.residuals) == 6
    assert rep.max_residual < 1e-20


def test_transform_satisfies_step_recursion():
    inst = riccati_instance(4, 6, 3)
    ev = order_half_evaluator()
    ctx = make_context(256)
    f0 = riccati_transform(inst, ev, 2.0, precision_bits=256)
    f1 = riccati_transform(inst, ev, 3.0, precision_bits=256)
    a = inst.coefficient
    a_val = a.num.cast(ctx)(ctx.mpc(2)) / a.den.cast(ctx)(ctx.mpc(2))
    assert abs((f0 + a_val) / (1 - f0) - f1) < ctx.mpf(1e-20)  # f(z+1) = (f + A)/(1 - f)


def test_g_step_check_on_solved_equation():
    inst = riccati_instance(4, 6, 3)
    ev = order_half_evaluator()
    rep = g_step_check(inst, ev, [1.0, 2.0, 3.25, 5.0], eps=1e-10,
                       precision_bits=256)
    assert rep.passed
    assert rep.max_residual < 1e-25


def test_transform_pole_at_normalizer_zero():
    inst = riccati_instance(4, 6, 3)
    ev = order_half_evaluator(n=80, precision_bits=128)
    with pytest.raises(PoleError):
        riccati_transform(inst, ev, -0.125, precision_bits=128)  # 8z + 1 = 0


def test_transform_pole_at_solution_zero():
    inst = riccati_instance(4, 6, 3)
    with pytest.raises(PoleError):
        riccati_transform(inst, lambda w: 0.0, 2.0)


# ---------------------------------------------------------------------------
# skip bookkeeping
# ---------------------------------------------------------------------------

def test_verify_skips_pole_of_coefficient():
    inst = riccati_instance(4, 6, 3)
    ev = order_half_evaluator(n=80, precision_bits=128)
    rep = verify_riccati(inst, ev, [-0.125, 2.0], precision_bits=128)
    assert len(rep.skipped) == 1
    assert rep.skipped[0][1] == "near pole of A"
    assert rep.points == (complex(2.0),)
    assert rep.passed is None  # no eps given


def test_verify_skips_transform_breakdown():
    inst = riccati_instance(1, 0, 0)

    def dies_at_five(w):
        return 0.0 if abs(complex(w) - 5) < 0.25 else 1.0

    rep = verify_riccati(inst, dies_at_five, [5.0])
    assert rep.skipped == ((complex(5.0), "transform breakdown"),)


def test_verify_skips_moebius_singularity():
    # y(z+1) tiny but nonzero drives f to 1, where the step is meaningless
    inst = riccati_instance(1, 0, 0)

    def near_zero_at_six(w):
        return 1e-10 if abs(complex(w) - 6) < 0.25 else 1.0

    rep = verify_riccati(inst, near_zero_at_six, [5.0])
    assert rep.skipped == ((complex(5.0), "f too close to 1"),)


def test_g_step_skips_zero_of_solution():
    # the same bookkeeping as verify_riccati: the point is skipped, the rest kept
    inst = riccati_instance(1, 0, 0)

    def dies_at_five(w):
        return 0.0 if abs(complex(w) - 5) < 0.25 else 1.0

    rep = g_step_check(inst, dies_at_five, [5.0, 2.0], eps=1.0)
    assert rep.skipped == ((complex(5.0), "zero of the solution"),)
    assert rep.points == (complex(2.0),)
    assert len(rep.residuals) == 1 and rep.passed is not None


# ---------------------------------------------------------------------------
# one loop, each shifted value evaluated once
# ---------------------------------------------------------------------------

README_POINTS = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]


@pytest.mark.parametrize("check, residual_hex", [
    (verify_riccati, ["0x1.f0aaeeb4cc020p-168", "0x1.a8cc77e15ae38p-166",
                      "0x1.e703b72336ac3p-169", "0x1.0d6f9503b7e6ep-168",
                      "0x1.a1c5ae46b303dp-168", "0x1.1bd890a6ba1cbp-168"]),
    (g_step_check, ["0x1.43fd0b648a8f3p-168", "0x1.0aa7ae11d0bbap-167",
                    "0x1.b8e8e41c20b0fp-168", "0x1.14e151c7d0efbp-166",
                    "0x1.a383b71dba54ap-165", "0x1.2437efb9b7f97p-164"]),
])
def test_each_shifted_point_is_evaluated_once(check, residual_hex):
    # y(z), y(z+1), y(z+2) at six points: 8 distinct values, not 24 calls
    inst = riccati_instance(4, 6, 3)
    ev = order_half_evaluator()
    calls = []

    def counting(w):
        calls.append(complex(w))
        return ev(w)

    rep = check(inst, counting, README_POINTS, eps=1e-8, precision_bits=256)
    assert sorted(calls, key=abs) == [complex(1.5 + k) for k in range(8)]
    assert [r.hex() for r in rep.residuals] == residual_hex  # frozen before the cache


@pytest.mark.parametrize("check", [verify_riccati, g_step_check])
def test_each_coefficient_is_cast_once_per_call(check, monkeypatch):
    import fallfact.polynomial as polynomial_mod
    from fallfact.exact import ExactScalar
    inst = riccati_instance(4, 6, 3)
    ev = order_half_evaluator()
    casts = []
    real_to_mpc = polynomial_mod.to_mpc

    def counting(x, ctx):
        if isinstance(x, ExactScalar):  # a coefficient, not the point
            casts.append(x)
        return real_to_mpc(x, ctx)

    monkeypatch.setattr(polynomial_mod, "to_mpc", counting)
    counts = []
    for points in (README_POINTS[:1], README_POINTS):
        del casts[:]
        check(inst, ev, points, eps=1e-8, precision_bits=256)
        counts.append(len(casts))
    assert counts[0] == counts[1] > 0


def test_skipped_point_evaluates_only_what_its_residual_read():
    inst = riccati_instance(1, 0, 0)
    calls = []

    def dies_at_five(w):
        calls.append(complex(w))
        return 0.0 if abs(complex(w) - 5) < 0.25 else 1.0

    verify_riccati(inst, dies_at_five, [5.0])
    assert calls == [5, 6]  # f(z) broke down: f(z+1) was never formed
    calls.clear()
    verify_riccati(riccati_instance(4, 6, 3), dies_at_five, [-0.125])
    assert calls == []  # near a pole of A: nothing evaluated


@pytest.mark.parametrize("check", [verify_riccati, g_step_check])
def test_no_verified_point_gives_no_verdict(check):
    rep = check(riccati_instance(1, 0, 0), lambda w: 0.0, [5.0, 7.0], eps=1e-8)
    assert rep.points == () and len(rep.skipped) == 2
    assert rep.passed is None
