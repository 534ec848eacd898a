"""The behaviour of curvemeet's immutable value types.

Each type compares equal only to an instance of its own class with equal
fields, never to a plain tuple of them or to another type with the same
fields; hashes as the tuple of its fields; prints the repr
`Name(field=value, ...)`; refuses assignment and deletion; checks its
fields in the constructor, which takes keywords too; and survives
pickle, `copy.copy` and `copy.deepcopy`.  `AlphaEnclosure` keeps a
private probe, defaulted to None, that equality, hash and repr ignore.
A `Frozen` subclass written here as its docstring says, checks plus
one `_store` call, gets all of this from the base.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F
from typing import Callable, NamedTuple

import pytest

from curvemeet import (
    AlphaEnclosure,
    Certificate,
    CrossingReport,
    DistanceEnclosure,
    ExtendedPath,
    Interval,
    Point,
    PointApproximation,
    RefinementRecord,
    Side,
    alpha_enclosure,
    diagonal_pair,
    extend,
    interval,
)
from curvemeet.exact_geom import Frozen
from curvemeet.segments import Line, SegKind, SegRelation, Segment

P = Point(F(1, 2), F(3, 4))
P_REPR = "Point(x=Fraction(1, 2), y=Fraction(3, 4))"
I_REPR = "Interval(lo=Fraction(-1, 1), hi=Fraction(2, 1))"
INNER, _ = diagonal_pair()


class Case(NamedTuple):
    """A type, keyword arguments that build one instance, the repr of it
    and keyword arguments that build an unequal one."""

    cls: type
    kwargs: dict
    repr: str
    other: dict


CASES = {
    "Point": Case(
        Point, dict(x=F(1, 2), y=F(3, 4)), P_REPR, dict(x=F(1, 2), y=F(1, 4))
    ),
    "DistanceEnclosure": Case(
        DistanceEnclosure,
        dict(lo=F(1, 4), hi=F(1, 2)),
        "DistanceEnclosure(lo=Fraction(1, 4), hi=Fraction(1, 2))",
        dict(lo=F(1, 4), hi=F(1, 4)),
    ),
    "Interval": Case(
        Interval,
        dict(lo=F(-1), hi=F(2)),
        I_REPR,
        dict(lo=F(0), hi=F(2)),
    ),
    "CrossingReport": Case(
        CrossingReport,
        dict(crossings=((F(1, 3), F(2, 3), P),), count=1, parity=1),
        "CrossingReport(crossings=((Fraction(1, 3), Fraction(2, 3), "
        + P_REPR
        + "),), count=1, parity=1)",
        dict(crossings=(), count=0, parity=0),
    ),
    "AlphaEnclosure": Case(
        AlphaEnclosure,
        dict(lo=F(13, 16), hi=F(19, 16), precision_used=5),
        "AlphaEnclosure(lo=Fraction(13, 16), hi=Fraction(19, 16), precision_used=5)",
        dict(lo=F(13, 16), hi=F(19, 16), precision_used=6),
    ),
    "ExtendedPath": Case(
        ExtendedPath,
        dict(inner=INNER, side=Side.LOWER),
        f"ExtendedPath(inner={INNER!r}, side=<Side.LOWER: 'lower'>)",
        dict(inner=INNER, side=Side.UPPER),
    ),
    "RefinementRecord": Case(
        RefinementRecord,
        dict(m=0, i=interval(-1, 2), j=interval(-1, 2)),
        f"RefinementRecord(m=0, i={I_REPR}, j={I_REPR})",
        dict(m=1, i=interval(-1, 2), j=interval(-1, 2)),
    ),
    "Certificate": Case(
        Certificate,
        dict(
            records=(RefinementRecord(0, interval(-1, 2), interval(-1, 2)),),
            s_phi=interval(0, 1),
            s_psi=interval(0, 1),
        ),
        f"Certificate(records=(RefinementRecord(m=0, i={I_REPR}, j={I_REPR}),), "
        "s_phi=Interval(lo=Fraction(0, 1), hi=Fraction(1, 1)), "
        "s_psi=Interval(lo=Fraction(0, 1), hi=Fraction(1, 1)))",
        dict(
            records=(RefinementRecord(0, interval(-1, 2), interval(-1, 2)),),
            s_phi=interval(0, 1),
            s_psi=interval(0, F(1, 2)),
        ),
    ),
    "PointApproximation": Case(
        PointApproximation,
        dict(center=P, radius=F(1, 8), level=3),
        f"PointApproximation(center={P_REPR}, radius=Fraction(1, 8), level=3)",
        dict(center=P, radius=F(1, 8), level=4),
    ),
    "Segment": Case(
        Segment,
        dict(a=P, b=Point(F(0), F(1))),
        f"Segment(a={P_REPR}, b=Point(x=Fraction(0, 1), y=Fraction(1, 1)))",
        dict(a=Point(F(0), F(1)), b=P),
    ),
    "Line": Case(Line, dict(A=1, B=-1, C=0), "Line(A=1, B=-1, C=0)", dict(A=1, B=1, C=1)),
    "SegRelation": Case(
        SegRelation,
        dict(kind=SegKind.PROPER_CROSSING, point=P),
        f"SegRelation(kind=<SegKind.PROPER_CROSSING: 'proper_crossing'>, point={P_REPR})",
        dict(kind=SegKind.TOUCHING),
    ),
}
NAMES = sorted(CASES)


def _build(name: str) -> tuple[object, tuple]:
    case = CASES[name]
    return case.cls(**case.kwargs), tuple(case.kwargs.values())


@pytest.mark.parametrize("name", NAMES)
def test_equality_only_with_its_own_type(name: str) -> None:
    # built from keywords, equal to the same type built by position
    case = CASES[name]
    value, fields = _build(name)
    assert value == case.cls(*fields)
    assert not value != case.cls(*fields)
    assert value != case.cls(**case.other)
    assert value != fields and fields != value
    assert value != list(fields)
    assert value != object()


def test_same_fields_in_another_type_are_unequal() -> None:
    lo, hi = F(1, 4), F(1, 2)
    assert Interval(lo, hi) != DistanceEnclosure(lo, hi)
    assert DistanceEnclosure(lo, hi) != Interval(lo, hi)
    assert Point(lo, hi) != Interval(lo, hi)
    assert AlphaEnclosure(lo, hi, 0) != CrossingReport((), 0, 0)


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_fields(name: str) -> None:
    value, fields = _build(name)
    assert hash(value) == hash(fields)
    assert hash(value) == hash(CASES[name].cls(*fields))
    assert len({value, CASES[name].cls(*fields)}) == 1


@pytest.mark.parametrize("name", NAMES)
def test_repr(name: str) -> None:
    value, _ = _build(name)
    assert repr(value) == CASES[name].repr


def test_str_of_point_and_interval() -> None:
    assert str(P) == "(1/2, 3/4)"
    assert str(interval(-1, F(5, 2))) == "[-1, 5/2]"


@pytest.mark.parametrize("name", NAMES)
def test_assignment_and_deletion_raise(name: str) -> None:
    value, fields = _build(name)
    for field in CASES[name].kwargs:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert tuple(getattr(value, f) for f in CASES[name].kwargs) == fields


ROUNDTRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("roundtrip", ROUNDTRIPS.values(), ids=ROUNDTRIPS)
def test_roundtrips(name: str, roundtrip: Callable) -> None:
    value, _ = _build(name)
    back = roundtrip(value)
    assert type(back) is type(value)
    if name == "ExtendedPath":
        # the inner curve compares by identity, which a deep copy breaks
        assert back.side is value.side
        assert type(back.inner) is type(value.inner)
        t = F(1, 3)
        assert back.eval_approx(t, 8) == value.eval_approx(t, 8)
        return
    assert back == value
    assert hash(back) == hash(value)
    assert repr(back) == repr(value)


def test_copy_of_an_extended_path_is_equal() -> None:
    value, _ = _build("ExtendedPath")
    assert copy.copy(value) == value
    assert value == extend(INNER, Side.LOWER)
    assert value != ExtendedPath(INNER, Side.UPPER)


def _probed() -> AlphaEnclosure:
    f, g = diagonal_pair()
    full = interval(-1, 2)
    return alpha_enclosure(extend(f, Side.LOWER), extend(g, Side.UPPER), full, full, 5)


def test_the_alpha_probe_is_ignored_by_equality_hash_and_repr() -> None:
    enc = _probed()
    assert enc._probe is not None and enc._probe.p == 5
    bare = AlphaEnclosure(enc.lo, enc.hi, enc.precision_used)
    assert bare._probe is None
    assert enc == bare
    assert hash(enc) == hash(bare) == hash((enc.lo, enc.hi, 5))
    assert repr(enc) == repr(bare) == CASES["AlphaEnclosure"].repr
    kept = AlphaEnclosure(lo=enc.lo, hi=enc.hi, precision_used=5, _probe=enc._probe)
    assert kept._probe is enc._probe


@pytest.mark.parametrize("roundtrip", ROUNDTRIPS.values(), ids=ROUNDTRIPS)
def test_the_alpha_probe_survives_roundtrips(roundtrip: Callable) -> None:
    enc = _probed()
    back = roundtrip(enc)
    assert back == enc
    assert back._probe.p == enc._probe.p
    assert back._probe.den == enc._probe.den
    assert back._probe.f == enc._probe.f


def _record(m: int, i: tuple, j: tuple) -> RefinementRecord:
    return RefinementRecord(m, interval(*i), interval(*j))


BASE = _record(0, (-1, 2), (-1, 2))
UNIT = interval(0, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: DistanceEnclosure(F(-1, 4), F(1, 2)),
        lambda: DistanceEnclosure(F(1, 2), F(1, 4)),
        lambda: Interval(F(1, 2), F(1, 4)),
        lambda: CrossingReport((), 1, 1),
        lambda: CrossingReport(((F(0), F(0), P),), 1, 0),
        lambda: AlphaEnclosure(F(-1, 4), F(1, 2), 5),
        lambda: AlphaEnclosure(F(1, 2), F(1, 4), 5),
        lambda: RefinementRecord(-1, UNIT, UNIT),
        lambda: Certificate((), UNIT, UNIT),
        lambda: Certificate((_record(1, (-1, 2), (-1, 2)),), UNIT, UNIT),
        lambda: Certificate((BASE, _record(1, (-1, 3), (0, 1))), UNIT, UNIT),
        lambda: Certificate((BASE, _record(1, (0, 1), (-2, 1))), UNIT, UNIT),
        lambda: Certificate((BASE,), interval(-1, 1), UNIT),
        lambda: Certificate((BASE,), UNIT, interval(0, 2)),
        lambda: PointApproximation(P, F(-1, 8), 3),
        lambda: Segment(P, Point(F(1, 2), F(3, 4))),
    ],
)
def test_constructor_checks_raise_value_error(build: Callable) -> None:
    with pytest.raises(ValueError):
        build()


def test_constructor_checks_accept_edge_values() -> None:
    assert DistanceEnclosure(F(0), F(0)).hi == 0
    assert Interval(F(1, 2), F(1, 2)).lo == F(1, 2)
    assert AlphaEnclosure(F(0), F(0), 0).precision_used == 0
    assert PointApproximation(P, F(0), 0).radius == 0
    nested = Certificate((BASE, _record(1, (0, 1), (0, 1))), UNIT, UNIT)
    assert nested.final.m == 1
    assert SegRelation(SegKind.DISJOINT).point is None


class _Pair(Frozen):
    """Two ordered integers, a value type written as `Frozen` asks."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a > b:
            raise ValueError("a exceeds b")
        self._store(a, b)


def test_a_subclass_gets_the_whole_contract_from_one_store_call() -> None:
    pair = _Pair(b=2, a=1)
    assert (pair.a, pair.b) == (1, 2)
    assert pair == _Pair(1, 2) and not pair != _Pair(1, 2)
    assert pair != _Pair(1, 3)
    assert pair != (1, 2) and (1, 2) != pair
    assert pair != Interval(F(1), F(2)) and Interval(F(1), F(2)) != pair
    assert hash(pair) == hash((1, 2))
    assert repr(pair) == "_Pair(a=1, b=2)"
    for field in ("a", "b", "unknown"):
        with pytest.raises(AttributeError):
            setattr(pair, field, 0)
        with pytest.raises(AttributeError):
            delattr(pair, field)
    assert (pair.a, pair.b) == (1, 2)
    for roundtrip in ROUNDTRIPS.values():
        back = roundtrip(pair)
        assert type(back) is _Pair
        assert back == pair and hash(back) == hash(pair) and repr(back) == repr(pair)
    with pytest.raises(ValueError):
        _Pair(2, 1)
