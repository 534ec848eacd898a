"""Exact rational scalars, points, intervals and distance enclosures.

Every operation here is decided by integer arithmetic on rational inputs;
there are no floating-point code paths.  Scalars are `fractions.Fraction`,
whose canonical form (positive denominator, reduced) gives exact equality
and hashing for free.  Distances are handled as *squared* values wherever
possible; `sqrt_enclosure` produces a rational interval around the root
when an actual length is unavoidable.

The pipeline decides geometry with the integer kernels of `_fastgeom`;
the `Fraction` segment kernel (orientation, lines, segment incidence and
distance) lives in `segments`, which the package loads only on first
use, as it loads `track`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Coerce ints and 'p/q' strings to Fraction."""
    return value if isinstance(value, Fraction) else Fraction(value)


def pow2(n: int) -> Fraction:
    """2^n for possibly negative n."""
    return Fraction(2**n) if n >= 0 else Fraction(1, 2**-n)


def ceil_log2(x: Fraction) -> int:
    """Smallest c with 2^c >= x, for x > 0."""
    if x <= 0:
        raise ValueError("ceil_log2 requires a positive argument")
    return ceil_log2_ratio(x.numerator, x.denominator)


def ceil_log2_ratio(p: int, q: int) -> int:
    """Smallest c with 2^c >= p/q, for positive integers p and q."""
    # bit lengths pin p/q into (2^(c-1), 2^(c+1)); one comparison of
    # shifted integers, 2^c < p/q, settles c
    c = p.bit_length() - q.bit_length()
    return c + (q << c < p if c >= 0 else q < p << -c)


def smallest_n_below(x: Fraction) -> int:
    """Smallest n >= 0 with 2^-n < x, for x > 0."""
    if x <= 0:
        raise ValueError("no dyadic power lies below a non-positive bound")
    return max(0, 1 - ceil_log2(x))


class Frozen:
    """Base of the immutable value types.

    A subclass is written in three parts: `__slots__` names its fields
    in the order its `__init__` takes them, public ones first, private
    ones (a leading underscore) after; `__init__` makes its checks; then
    it hands every field, in that order, to one `self._store(...)` call,
    which sets the slots.  The tuple of the public fields is its
    identity: an instance equals only an instance of its own class with
    an equal tuple (never a plain tuple), hashes as the tuple and prints
    its public fields by name.  Comparing a stored tuple keeps `==` and
    `hash` as fast as a dataclass's.  Assignment and deletion raise
    AttributeError; pickle and copy rebuild an instance through its
    `__init__` (`__reduce__`).
    """

    __slots__ = ("_key",)

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls.__slots__)
        cls._public = sum(not f.startswith("_") for f in cls.__slots__)

    def _store(self, *fields: object) -> None:
        """Set every slot from fields, given in `__slots__` order, and
        keep the tuple of the public ones as the key."""
        _set_key(self, fields[: self._public])
        for set_field, value in zip(self._setters, fields):
            set_field(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


_set_key = Frozen._key.__set__


class Point(Frozen):
    __slots__ = ("x", "y")

    def __init__(self, x: Fraction, y: Fraction):
        self._store(x, y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scale(self, k: Fraction) -> "Point":
        return Point(self.x * k, self.y * k)

    def sq_norm(self) -> Fraction:
        return self.x * self.x + self.y * self.y


def pt(x: RationalLike, y: RationalLike) -> Point:
    return Point(rat(x), rat(y))


class DistanceEnclosure(Frozen):
    """Rational interval [lo, hi] known to contain a distance."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if not (0 <= lo <= hi):
            raise ValueError("enclosure bounds out of order")
        self._store(lo, hi)


def sqrt_enclosure(q: Fraction, k: int) -> DistanceEnclosure:
    """Enclose sqrt(q) in a rational interval of width <= 2^-k.

    Deterministic: scales q to an integer and takes the integer square
    root, so lo = isqrt(floor(q*4^(k+1)))/2^(k+1).  Exact squares (and 0)
    collapse to a point interval.
    """
    if q < 0:
        raise ValueError("negative radicand")
    if k < 0:
        raise ValueError("negative precision")
    scale = 2 ** (k + 1)
    v = q * scale * scale
    floor_v = v.numerator // v.denominator
    m = math.isqrt(floor_v)
    if m * m == v:
        exact = Fraction(m, scale)
        return DistanceEnclosure(exact, exact)
    return DistanceEnclosure(Fraction(m, scale), Fraction(m + 1, scale))


class Interval(Frozen):
    """Closed rational parameter interval."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("interval bounds out of order")
        self._store(lo, hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, t: Fraction) -> bool:
        return self.lo <= t <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def clip(self, other: "Interval") -> "Interval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("intervals do not overlap")
        return Interval(lo, hi)


def interval(lo: RationalLike, hi: RationalLike) -> Interval:
    return Interval(rat(lo), rat(hi))
