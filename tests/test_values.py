"""Value semantics of the package's classes.

The five value types (ExactScalar, Polynomial, RationalFunction,
BinomialSeries, LinearDifferenceEquation) are immutable objects with field
equality; they are no tuples.  The result records are named tuples.  Both
keep the reprs the package has always printed.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from fallfact.analysis import Classification, classify
from fallfact.exact import ExactScalar
from fallfact.polynomial import Polynomial, RationalFunction, poly
from fallfact.riccati import riccati_coefficient, riccati_instance
from fallfact.series import BinomialSeries, approx_series, evaluate, exact_series
from fallfact.solver import LinearDifferenceEquation, newton_polygon


# one instance of each value type, next to its field values in order
VALUES = [
    (ExactScalar(Fraction(-1, 2), Fraction(3)), (Fraction(-1, 2), Fraction(3))),
    (poly(6, 4), ((ExactScalar(Fraction(6)), ExactScalar(Fraction(4))),)),
    (riccati_coefficient(4, 6, 3), (poly(23, 16), poly(9, 80, 64))),
    (exact_series([1, Fraction(-1, 2)], "x"),
     ((ExactScalar(Fraction(1)), ExactScalar(Fraction(-1, 2))), "exact", "x")),
    (LinearDifferenceEquation("delta", (poly(1), poly(3), poly(6, 4))),
     ("delta", (poly(1), poly(3), poly(6, 4)))),
]
IDS = [type(v).__name__ for v, _ in VALUES]
FIRST_FIELD = {ExactScalar: "re", Polynomial: "coeffs", RationalFunction: "num",
               BinomialSeries: "coeffs", LinearDifferenceEquation: "form"}


def test_reprs_are_pinned():
    assert repr(ExactScalar(Fraction(-1, 2), Fraction(3))) == "ExactScalar('-1/2+3i')"
    assert repr(poly(6, 4)) == \
        "Polynomial(coeffs=(ExactScalar('6'), ExactScalar('4')))"
    assert repr(riccati_coefficient(4, 6, 3)) == (
        "RationalFunction(num=Polynomial(coeffs=(ExactScalar('23'), ExactScalar('16'))), "
        "den=Polynomial(coeffs=(ExactScalar('9'), ExactScalar('80'), ExactScalar('64'))))")
    assert repr(approx_series([1.5, 2j])) == \
        "BinomialSeries(coeffs=(1.5, 2j), regime='approx', origin='')"
    assert repr(LinearDifferenceEquation("shift", (poly(0, -1), poly(1)))) == (
        "LinearDifferenceEquation(form='shift', coeffs=(Polynomial(coeffs="
        "(ExactScalar('0'), ExactScalar('-1'))), Polynomial(coeffs=(ExactScalar('1'),))))")


@pytest.mark.parametrize("value, fields", VALUES, ids=IDS)
def test_equality_is_by_class_and_fields(value, fields):
    assert not isinstance(value, tuple)
    twin = type(value)(*fields)
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert value != fields  # not even a plain tuple of the same fields
    others = [v for v, _ in VALUES if type(v) is not type(value)]
    assert all(value != other for other in others)


def test_unequal_values_of_one_class():
    assert ExactScalar(Fraction(1)) != ExactScalar(Fraction(1), Fraction(1))
    assert ExactScalar(Fraction(1)) != 1  # no coercion in ==
    assert poly(1, 2) != poly(1, 3)
    assert exact_series([1], "a") != exact_series([1], "b")
    assert len({poly(1, 2), poly(1, 2), poly(2)}) == 2


@pytest.mark.parametrize("value, fields", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, fields):
    name = FIRST_FIELD[type(value)]
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, name) is before


@pytest.mark.parametrize("value, fields", VALUES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(value, fields):
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_exact_scalar_has_no_instance_dict():
    x = ExactScalar(Fraction(1, 3))
    assert not hasattr(x, "__dict__")
    assert ExactScalar() == ExactScalar(0, 0) == ExactScalar(Fraction(0), Fraction(0))


def test_tuple_operators_do_not_leak_into_values():
    x = ExactScalar(Fraction(2))
    assert x + x == ExactScalar(Fraction(4))
    assert x * 3 == ExactScalar(Fraction(6))
    with pytest.raises(TypeError):
        len(x)
    with pytest.raises(TypeError):
        x + (Fraction(1), Fraction(0))


def test_series_memo_is_outside_equality_hash_repr_and_copies():
    s = exact_series([Fraction(1, n + 1) for n in range(20)])
    fresh = exact_series(s.coeffs)
    evaluate(s, 2.5)
    cls = s._memoized("classify", lambda: classify(s.coeffs))
    assert s._memo and not fresh._memo
    assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
    assert "_memo" not in repr(s)
    for clone in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert clone == s and clone._memo == {}
    assert s._memo["classify"] is cls


def test_records_are_named_tuples():
    cls = Classification("entire", 0.5, False, (8, 16))
    assert cls.k_bound is None and cls.k_index is None
    assert repr(cls) == ("Classification(kind='entire', chi=0.5, chi_undefined=False, "
                         "window=(8, 16), k_bound=None, k_index=None)")
    changed = cls._replace(kind="unknown")
    assert changed.kind == "unknown" and cls.kind == "entire"
    assert cls._asdict()["window"] == (8, 16)
    with pytest.raises(AttributeError):
        cls.kind = "unknown"

    pg = newton_polygon(LinearDifferenceEquation("delta", (poly(1), poly(3), poly(6, 4))))
    assert repr(pg) == ("NewtonPolygon(points=((0, -1), (1, -1), (2, 0)), "
                        "hull=((0, -1), (2, 0)), slopes=(Fraction(1, 2),))")
    points, hull, slopes = pg
    assert slopes == pg.slopes == (Fraction(1, 2),)

    inst = riccati_instance(4, 6, 3)
    assert inst.coefficient == riccati_coefficient(4, 6, 3)
    assert inst.normalizer() == poly(1, 8)
    assert pickle.loads(pickle.dumps(inst)) == inst

    res = evaluate(exact_series([1, 1]), 2)
    assert res._fields == ("value", "terms_used", "tail_bound", "converged", "reason",
                           "rounding_radius")
    assert complex(res) == 3
    assert res._replace(tail_bound=0.0).tail_bound == 0.0


def test_value_constructors_keep_their_validation():
    with pytest.raises(ValueError, match="unknown regime"):
        BinomialSeries((), "fuzzy")
    with pytest.raises(ZeroDivisionError):
        RationalFunction(poly(1), Polynomial())
    with pytest.raises(ValueError, match="unknown equation form"):
        LinearDifferenceEquation("sideways", (poly(1),))
    assert Polynomial([1, 0, 0]).coeffs == (ExactScalar(Fraction(1)),)
    assert RationalFunction(poly(2, 2), poly(4, 4)) == RationalFunction(poly(1), poly(2))
