"""Exact rationals with infinities and cuts in ordered abelian groups.

All arithmetic is exact: finite values are arbitrary-precision reduced
fractions, and the two infinities compare correctly against everything.
Cuts are represented by a rational-or-infinite bound together with an
``attained`` flag; ``attained=True`` means the lower set is ``{q <= bound}``
and ``attained=False`` means ``{q < bound}``.  Comparison of cuts is by
inclusion of lower sets, which makes the order total.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union


RatLike = Union[int, Fraction, "ExtRat"]


class InfinityArithmeticError(ArithmeticError):
    """Raised on undefined expressions such as (+inf) + (-inf)."""


class ExtRat:
    """An exact rational number or one of the symbols -inf / +inf.

    ``sign`` is 0 for finite values (stored in ``num``), +1 for +inf and
    -1 for -inf.  Finite arithmetic never rounds; mixing the two
    infinities raises :class:`InfinityArithmeticError`.  Values are never
    mutated after ``__init__``.
    """

    __slots__ = ("num", "sign")

    def __init__(self, num: Optional[Fraction], sign: int = 0):
        if sign == 0:
            if not isinstance(num, Fraction):
                raise TypeError("finite ExtRat requires a Fraction")
        elif sign not in (-1, 1) or num is not None:
            raise ValueError("infinite ExtRat carries no fraction")
        self.num = num
        self.sign = sign

    @staticmethod
    def of(x: RatLike) -> "ExtRat":
        if isinstance(x, ExtRat):
            return x
        if isinstance(x, bool):
            raise TypeError("bool is not a rational")
        if isinstance(x, int):
            return ExtRat(Fraction(x))
        if isinstance(x, Fraction):
            return ExtRat(x)
        raise TypeError(f"cannot build ExtRat from {type(x)!r}")

    @property
    def is_finite(self) -> bool:
        return self.sign == 0

    @property
    def fraction(self) -> Fraction:
        if self.sign != 0:
            raise InfinityArithmeticError("infinite value has no fraction")
        assert self.num is not None
        return self.num

    def __neg__(self) -> "ExtRat":
        if self.sign != 0:
            return MINUS_INF if self.sign > 0 else PLUS_INF
        return ExtRat(-self.num)

    def __add__(self, other: RatLike) -> "ExtRat":
        other = ExtRat.of(other)
        if self.sign != 0 and other.sign != 0:
            if self.sign != other.sign:
                raise InfinityArithmeticError("inf - inf is undefined")
            return self
        if self.sign != 0:
            return self
        if other.sign != 0:
            return other
        return ExtRat(self.num + other.num)

    __radd__ = __add__

    def __sub__(self, other: RatLike) -> "ExtRat":
        return self + (-ExtRat.of(other))

    def __rsub__(self, other: RatLike) -> "ExtRat":
        return ExtRat.of(other) + (-self)

    def __mul__(self, other: RatLike) -> "ExtRat":
        other = ExtRat.of(other)
        if self.sign == 0 and other.sign == 0:
            return ExtRat(self.num * other.num)
        a, b = self, other
        if a.sign == 0:
            a, b = b, a
        # a is infinite
        if b.sign == 0:
            if b.num == 0:
                raise InfinityArithmeticError("0 * inf is undefined")
            return a if b.num > 0 else -a
        return a if b.sign > 0 else -a

    __rmul__ = __mul__

    def _key(self):
        # an infinity's key compares on its sign alone; its 0 hashes as
        # Fraction(0) does
        if self.sign:
            return (self.sign, 0)
        return (0, self.num)

    def __lt__(self, other: RatLike) -> bool:
        return self._key() < ExtRat.of(other)._key()

    def __le__(self, other: RatLike) -> bool:
        return self._key() <= ExtRat.of(other)._key()

    def __gt__(self, other: RatLike) -> bool:
        return self._key() > ExtRat.of(other)._key()

    def __ge__(self, other: RatLike) -> bool:
        return self._key() >= ExtRat.of(other)._key()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExtRat.of(other)
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __str__(self) -> str:
        if self.sign > 0:
            return "+inf"
        if self.sign < 0:
            return "-inf"
        return f"{self.num.numerator}/{self.num.denominator}"

    def __repr__(self) -> str:
        return f"ExtRat({self})"


PLUS_INF = ExtRat(None, 1)
MINUS_INF = ExtRat(None, -1)


class Cut:
    """A cut in the divisible hull of a rank-1 value group.

    ``attained=True``: lower set {q <= bound}; ``attained=False``:
    lower set {q < bound}.  Infinite bounds force ``attained=False`` (the
    lower set is then everything or nothing).
    """

    __slots__ = ("bound", "attained")

    def __init__(self, bound: RatLike, attained: bool):
        bound = ExtRat.of(bound)
        if bound.sign and attained:
            raise ValueError("infinite cut bounds are never attained")
        self.bound = bound
        self.attained = attained

    def _key(self):
        return (self.bound._key(), self.attained)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Cut:
            return NotImplemented
        return self.bound == other.bound and self.attained == other.attained

    def __hash__(self):
        return hash((self.bound, self.attained))

    def __lt__(self, other: "Cut") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Cut") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Cut") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Cut") -> bool:
        return self._key() >= other._key()

    def __str__(self) -> str:
        mark = "+" if self.attained else "-"
        return f"{self.bound}{mark}"


def segment_affine(s: Cut, n: int, alpha: RatLike) -> Cut:
    """Image of an initial segment under T -> nT + alpha.

    The lower set {q (<|<=) b} maps to {q (<|<=) n*b + alpha}; the
    attained flag is preserved.  ``alpha`` must be finite and ``n``
    a positive integer.
    """
    if not isinstance(n, int) or n <= 0:
        raise ValueError("n must be a positive integer")
    alpha = ExtRat.of(alpha)
    if not alpha.is_finite:
        raise InfinityArithmeticError("affine shift must be finite")
    return Cut(alpha + self_mul(s.bound, n), s.attained)


def self_mul(x: ExtRat, n: int) -> ExtRat:
    if not x.is_finite:
        return x
    return ExtRat(x.fraction * n)


def cut_of_sample(values: Iterable[RatLike]) -> Cut:
    """The least upper cut ``S^+`` of a sample: (max(S), attained).  The
    sample must be nonempty and finite."""
    vals = [ExtRat.of(v) for v in values]
    if not vals:
        raise ValueError("empty sample has no cut")
    if any(not v.is_finite for v in vals):
        raise ValueError("sample values must be finite")
    return Cut(max(vals), True)


class CutEnclosure:
    """Certified bracket [lo, hi] around a cut that may not be computed
    exactly within budget."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Cut, hi: Cut):
        if lo > hi:
            raise ValueError("enclosure requires lo <= hi")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other) -> bool:
        if other.__class__ is not CutEnclosure:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi
