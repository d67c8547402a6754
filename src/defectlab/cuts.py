"""Exact rationals, the bound +inf, and cuts in ordered abelian groups.

All arithmetic is exact: values are arbitrary-precision reduced
fractions.  +inf is a bound, never a value: an exact series' precision,
the upper cut ``+inf-`` where no support argument bounds v(a - K), an
Artin-Schreier root's floor when it has no residual.  It compares above
every value, and the one sum it enters is ``+inf + x = +inf``.  Cuts are
represented by a rational-or-+inf bound together with an ``attained``
flag; ``attained=True`` means the lower set is ``{q <= bound}`` and
``attained=False`` means ``{q < bound}``.  Comparison of cuts is by
inclusion of lower sets, which makes the order total.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union


RatLike = Union[int, Fraction, "ExtRat"]


class InfinityArithmeticError(ArithmeticError):
    """Raised when +inf enters arithmetic other than ``+inf + x``: it has
    no fraction, so -(+inf), +inf * n and x - (+inf) are refused."""


class ExtRat:
    """An exact rational number or the bound +inf.

    ``sign`` is 0 for finite values (stored in ``num``) and +1 for +inf.
    Finite arithmetic never rounds; arithmetic reads ``fraction``, which
    raises :class:`InfinityArithmeticError` on +inf, except that
    ``+inf + x`` is +inf.  Values are never mutated after ``__init__``.
    """

    __slots__ = ("num", "sign")

    def __init__(self, num: Optional[Fraction], sign: int = 0):
        if sign == 0:
            if not isinstance(num, Fraction):
                raise TypeError("finite ExtRat requires a Fraction")
        elif sign != 1 or num is not None:
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
        if self.sign:
            raise InfinityArithmeticError("+inf has no fraction")
        return self.num

    def __neg__(self) -> "ExtRat":
        return ExtRat(-self.fraction)

    def __add__(self, other: RatLike) -> "ExtRat":
        if self.sign:
            return self
        return ExtRat(self.num + ExtRat.of(other).fraction)

    __radd__ = __add__

    def __sub__(self, other: RatLike) -> "ExtRat":
        return self + (-ExtRat.of(other))

    def __rsub__(self, other: RatLike) -> "ExtRat":
        return ExtRat.of(other) + (-self)

    def __mul__(self, other: RatLike) -> "ExtRat":
        return ExtRat(self.fraction * ExtRat.of(other).fraction)

    __rmul__ = __mul__

    def _key(self):
        # +inf's key compares on its sign alone; its 0 hashes as Fraction(0)
        # does
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
        if self.sign:
            return "+inf"
        return f"{self.num.numerator}/{self.num.denominator}"

    def __repr__(self) -> str:
        return f"ExtRat({self})"


PLUS_INF = ExtRat(None, 1)


class Cut:
    """A cut in the divisible hull of a rank-1 value group.

    ``attained=True``: lower set {q <= bound}; ``attained=False``:
    lower set {q < bound}.  The bound +inf forces ``attained=False`` (the
    lower set is then everything).
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
    attained flag is preserved.  The bound and ``alpha`` must be finite
    and ``n`` a positive integer.
    """
    if not isinstance(n, int) or n <= 0:
        raise ValueError("n must be a positive integer")
    return Cut(s.bound * n + alpha, s.attained)


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

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi
