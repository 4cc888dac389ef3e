from fractions import Fraction

import pytest

from fallfact.errors import InputFormatError, PoleError
from fallfact.exact import as_exact
from fallfact.polynomial import Polynomial, RationalFunction, poly
from fallfact.riccati import (g_step_check, moebius_step, riccati_coefficient,
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


def test_moebius_step_exact():
    assert moebius_step(Fraction(2), Fraction(3)) == Fraction(-5)
    assert moebius_step(Fraction(0), Fraction(7, 3)) == Fraction(7, 3)


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
    a_val = inst.coefficient.eval_numeric(ctx.mpc(2), ctx)
    assert abs(moebius_step(f0, a_val) - f1) < ctx.mpf(1e-20)


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
