"""Truncated generalized power series with exact, certified arithmetic.

Two ambient modes share one term representation (finite map from rational
exponents to finite-field coefficient codes, plus a precision horizon):

* ``equal``: coefficients in F_q, characteristic p; addition is
  coefficient-wise (no carries) and ``(a+b)^p = a^p + b^p`` holds on the
  nose.  The monomial symbol is written ``t``; ``v(t) = 1``.

* ``mixed``: a p-adic ambient with rational exponents of p.  A term with
  coefficient code c at exponent e stands for ``tau(c) * p^e`` where
  ``tau`` is the multiplicative (Teichmueller) lift of the residue digit.
  Sums are normalized per exponent class mod 1: the class is summed
  into one p-adic integer and its digits are read off, so carries move
  from e to e+1 (the normalization fixes v(p) = 1).

Every operation computes the exact precision of its result; nothing is
ever rounded, and comparisons are only meaningful up to the common
precision of their operands.  Exponent denominators are capped by a
session bound D so that all supports stay finite; operations that would
need finer exponents fail loudly rather than silently truncate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cuts import ExtRat, PLUS_INF
from .ffield import FiniteField, finite_field


class PrecisionError(ArithmeticError):
    """An operation would need terms beyond the certified horizon."""


class DenominatorBoundError(ValueError):
    """An exponent denominator exceeded the session bound D."""


class ConvergenceError(RuntimeError):
    """Root refinement failed to make certified progress."""


EQUAL = "equal"
MIXED = "mixed"


@dataclass(frozen=True)
class SeriesContext:
    """Immutable session parameters: mode, residue field F_{p^m}, and the
    exponent denominator bound D."""

    mode: str
    p: int
    m: int
    D: int
    field: FiniteField

    def __post_init__(self):
        if self.mode not in (EQUAL, MIXED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.D < 1:
            raise ValueError("D must be positive")

    @property
    def q(self) -> int:
        return self.p ** self.m

    def on_grid(self, e: Fraction) -> bool:
        """Whether e lies on the exponent grid (1/D)Z."""
        return self.D % e.denominator == 0

    def check_exponent(self, e: Fraction) -> Fraction:
        if not self.on_grid(e):
            raise DenominatorBoundError(
                f"exponent {e} needs denominator {e.denominator}, bound is D={self.D}"
            )
        return e

    def to_json(self) -> dict:
        return {"mode": self.mode, "p": self.p, "m": self.m, "D": self.D}


def make_context(mode: str, p: int, m: int = 1, D: Optional[int] = None) -> SeriesContext:
    if D is None:
        D = p ** 8
        if mode == MIXED and p > 2:
            # room for the exponent 1/(p-1) of p-th roots of unity
            D *= p - 1
    return SeriesContext(mode, p, m, D, finite_field(p, m))


def make_equal_context(p: int, m: int = 1, D: Optional[int] = None) -> SeriesContext:
    return make_context(EQUAL, p, m, D)


def make_mixed_context(p: int, m: int = 1, D: Optional[int] = None) -> SeriesContext:
    return make_context(MIXED, p, m, D)


# --------------------------------------------------------------------------
# Teichmueller digit machinery for the mixed ambient.
#
# For the prime field the lift of a digit c is the (p-1)-th root of unity
# congruent to c, computed modulo p^(K+1) as c^(p^K).  For F_{p^m} the same
# iteration runs in the unramified ring (Z/p^N)[y]/(G) where G is the
# integer lift of the field modulus.


@lru_cache(maxsize=None)
def _tau_int(p: int, c: int, k: int) -> int:
    if c == 0:
        return 0
    return pow(c, p ** k, p ** (k + 1))


_EXACT_LIFTS = {2: {0: 0, 1: 1}, 3: {0: 0, 1: 1, 2: -1}}


def _o_mul(a: Tuple[int, ...], b: Tuple[int, ...], g: Tuple[int, ...], pk: int) -> Tuple[int, ...]:
    m = len(g) - 1
    prod = [0] * (2 * m - 1) if m > 1 else [0]
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % pk
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c == 0:
            continue
        prod[i] = 0
        for j in range(m):
            prod[i - m + j] = (prod[i - m + j] - c * g[j]) % pk
    return tuple(prod[:m])


@lru_cache(maxsize=None)
def _tau_poly(p: int, m: int, modulus: Tuple[int, ...], code: int, k: int) -> Tuple[int, ...]:
    """Teichmueller lift of a digit of F_{p^m}, modulo p^(k+1), as a
    coefficient tuple in the unramified ring."""
    if code == 0:
        return (0,) * m
    pk1 = p ** (k + 1)
    g = tuple(int(c) for c in modulus)
    x = tuple(code // (p ** i) % p for i in range(m))
    acc = x
    for _ in range(k * m):
        # raise to the p-th power
        r = acc
        out = (1,) + (0,) * (m - 1)
        e = p
        base = r
        while e:
            if e & 1:
                out = _o_mul(out, base, g, pk1)
            base = _o_mul(base, base, g, pk1)
            e >>= 1
        acc = out
    return acc


def _teichmueller_digits(ctx: SeriesContext, u, e0: Fraction, n: Optional[int]) -> Dict[Fraction, int]:
    """The canonical Teichmueller digits of the p-adic integer ``u``, the
    i-th at exponent e0 + i.

    With a digit count ``n``, ``u`` need only be right modulo p^n: an int,
    or for m > 1 a coefficient list in the unramified ring.  The remainder
    is kept reduced, so the walk stops once the remaining digits are zero.
    With ``n`` None the expansion is exact (an int, p in {2, 3}, lifts
    ``_EXACT_LIFTS``): the balanced lifts for p = 3 shrink |u| to 0, and
    for p = 2 a negative u never reaches 0 and is refused.
    """
    p = ctx.p
    out: Dict[Fraction, int] = {}
    i = 0
    if isinstance(u, int):
        if n is None and p == 2 and u < 0:
            raise PrecisionError(
                "negative values have non-terminating 2-adic expansions; "
                "pass a finite precision"
            )
        while u:
            d = u % p
            if d:
                out[e0 + i] = d
                u -= _EXACT_LIFTS[p][d] if n is None else _tau_int(p, d, n - 1)
            i += 1
            u //= p
            if n is not None:
                u %= p ** (n - i)
        return out
    fld = ctx.field
    while any(u):
        d = fld.parse_code(u)
        if d:
            out[e0 + i] = d
            u = [x - y for x, y in zip(u, _tau_poly(p, ctx.m, fld.modulus, d, n - 1))]
        i += 1
        mod = p ** (n - i)
        u = [x // p % mod for x in u]
    return out


def _combine_mixed(
    ctx: SeriesContext,
    parts: Iterable[Tuple[Fraction, int, int]],
    precision: ExtRat,
) -> Dict[Fraction, int]:
    """Normalize signed Teichmueller contributions into canonical digits.

    ``parts`` yields (exponent, digit code, sign).  Signs other than +1
    are folded into the code for odd p (where -tau(c) = tau(-c) exactly);
    for p = 2 they stay on the integer lifts.  Only exponents in one class
    mod 1 carry into each other: per class, ``sum sign * tau(code) *
    p^(e - e0)`` (e0 the least exponent) is one ring element, whose digits
    ``_teichmueller_digits`` reads off once, up to ``precision``.  With
    infinite precision that sum must be exact, which needs m = 1 and p in
    {2, 3}; otherwise terms are merged only where no carry arises.
    """
    fld = ctx.field
    p = ctx.p
    exact = not precision.is_finite
    merge_only = exact and not (ctx.m == 1 and p in _EXACT_LIFTS)
    out: Dict[Fraction, int] = {}
    # class of e = num/den mod 1 -> [(floor(e), code, sign)]
    classes: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for e, code, sign in parts:
        if code == 0:
            continue
        if p != 2 and sign < 0:
            code, sign = fld.neg(code), 1
        if merge_only:
            if sign < 0 or e in out:
                raise PrecisionError(
                    "exact (infinite-precision) digit carries are only "
                    "available for prime fields with p in {2, 3}; pass a "
                    "finite precision"
                )
            out[e] = code
        else:
            fl, r = divmod(e.numerator, e.denominator)
            classes.setdefault((r, e.denominator), []).append((fl, code, sign))

    for (r, den), group in classes.items():
        fl0 = min(fl for fl, _, _ in group)
        e0 = Fraction(r, den) + fl0
        if exact:
            n = None
            total = sum(sign * _EXACT_LIFTS[p][code] * p ** (fl - fl0) for fl, code, sign in group)
        else:
            n = math.ceil(precision.fraction - e0)
            if n <= 0:
                continue
            terms = [(sign * p ** (fl - fl0), code) for fl, code, sign in group if fl - fl0 < n]
            if ctx.m == 1:
                total = sum(s * _tau_int(p, code, n - 1) for s, code in terms)
            else:
                total = [0] * ctx.m
                for s, code in terms:
                    tau = _tau_poly(p, ctx.m, fld.modulus, code, n - 1)
                    total = [x + s * y for x, y in zip(total, tau)]
        out.update(_teichmueller_digits(ctx, total, e0, n))
    return out


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Series:
    """A truncated generalized power series (immutable value).

    ``terms`` is sorted by exponent; all stored coefficients are nonzero
    and all exponents lie strictly below ``precision``.
    """

    ctx: SeriesContext
    terms: Tuple[Tuple[Fraction, int], ...]
    precision: ExtRat

    # --- constructors ---

    @staticmethod
    def make(ctx: SeriesContext, mapping: Dict[Fraction, int], precision: ExtRat = PLUS_INF) -> "Series":
        precision = ExtRat.of(precision)
        items = []
        for e, c in mapping.items():
            e = Fraction(e)
            if c == 0:
                continue
            if precision.is_finite and e >= precision.fraction:
                continue
            ctx.check_exponent(e)
            items.append((e, c))
        items.sort()
        return Series(ctx, tuple(items), precision)

    @staticmethod
    def zero(ctx: SeriesContext, precision: ExtRat = PLUS_INF) -> "Series":
        return Series(ctx, (), ExtRat.of(precision))

    @staticmethod
    def monomial(ctx: SeriesContext, exp, code: int = 1, precision: ExtRat = PLUS_INF) -> "Series":
        return Series.make(ctx, {Fraction(exp): code}, precision)

    @staticmethod
    def one(ctx: SeriesContext, precision: ExtRat = PLUS_INF) -> "Series":
        return Series.monomial(ctx, 0, 1, precision)

    @staticmethod
    def from_int(ctx: SeriesContext, n: int, precision: ExtRat = PLUS_INF) -> "Series":
        return Series.from_rational(ctx, Fraction(n), precision)

    @staticmethod
    def from_rational(ctx: SeriesContext, r: Fraction, precision: ExtRat = PLUS_INF) -> "Series":
        """The image of a rational number in the ambient field.

        In equal characteristic only the residue image of the prime field
        makes sense, so r must have p-free denominator and the result is
        a constant.  In mixed characteristic this is the digit expansion
        of r, exact when it terminates.
        """
        r = Fraction(r)
        precision = ExtRat.of(precision)
        if ctx.mode == EQUAL:
            if r.denominator % ctx.p == 0:
                raise ZeroDivisionError("denominator divisible by p has no residue")
            num = r.numerator % ctx.p
            den_inv = pow(r.denominator % ctx.p, -1, ctx.p) if r.denominator % ctx.p != 1 else 1
            code = ctx.field.from_int(num * den_inv)
            return Series.make(ctx, {Fraction(0): code}, precision)
        if r == 0:
            return Series.zero(ctx, precision)
        p = ctx.p
        v = 0
        num, den = r.numerator, r.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        if not precision.is_finite:
            # integer lifts are exact for p in {2, 3}; the digits land in
            # the prime subfield, so any m is fine
            if den != 1 or ctx.p not in _EXACT_LIFTS or (p == 2 and num < 0):
                raise PrecisionError(
                    f"{r} has a non-terminating digit expansion; pass a finite precision"
                )
            return Series.make(ctx, _teichmueller_digits(ctx, num, Fraction(v), None), precision)
        n = math.ceil(precision.fraction - v)
        if n <= 0:
            return Series.zero(ctx, precision)
        u = num * pow(den, -1, p ** n)
        return Series.make(ctx, _teichmueller_digits(ctx, u, Fraction(v), n), precision)

    # --- inspection ---

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def vlow(self) -> ExtRat:
        """Certified lower bound for the valuation: the least certified
        exponent, or the precision horizon for a term-free series."""
        if self.terms:
            return ExtRat(self.terms[0][0])
        return self.precision

    def valuation(self) -> ExtRat:
        if self.terms:
            return ExtRat(self.terms[0][0])
        if not self.precision.is_finite:
            return PLUS_INF
        raise PrecisionError(
            f"series is zero to precision {self.precision}; valuation not certified"
        )

    def leading_coeff(self) -> int:
        return self.terms[0][1] if self.terms else 0

    def coeff_at(self, e) -> int:
        e = Fraction(e)
        for ee, c in self.terms:
            if ee == e:
                return c
            if ee > e:
                break
        return 0

    def support(self) -> Tuple[Fraction, ...]:
        return tuple(e for e, _ in self.terms)

    # --- arithmetic ---

    def _require_same_mode(self, other: "Series"):
        if self.ctx != other.ctx:
            raise ValueError("series from different sessions cannot be combined")

    def diff_valuation(self, other: "Series") -> Optional[ExtRat]:
        """v(self - other), read off the first differing term.

        Walks the two sorted term tuples together and returns the first
        exponent below the common precision where the coefficients differ;
        ``PLUS_INF`` when the terms agree and both precisions are infinite;
        ``None`` when they agree only up to a finite precision (the
        difference is zero to that precision, its valuation uncertified).

        In equal characteristic this is the valuation of ``self - other``
        term by term.  In mixed characteristic it is too: the terms below
        the first differing exponent e cancel exactly, every carry only
        moves upward, and two Teichmueller digits that differ mod p differ
        by a unit, so ``tau(a_e) - tau(c_e)`` has valuation 0 and
        v(self - other) = e whenever e lies below the precision.
        """
        if self.ctx is not other.ctx:
            self._require_same_mode(other)
        prec = min(self.precision, other.precision)
        ta, tc = self.terms, other.terms
        for x, y in zip(ta, tc):
            if x != y:
                e = min(x[0], y[0])
                break
        else:
            if len(ta) == len(tc):
                return None if prec.is_finite else PLUS_INF
            # one term tuple is a prefix of the other; the longer one's
            # next term is the first difference
            e = (ta[len(tc):] or tc[len(ta):])[0][0]
        if prec.is_finite and e >= prec.fraction:
            return None
        return ExtRat(e)

    def __add__(self, other: "Series") -> "Series":
        self._require_same_mode(other)
        prec = min(self.precision, other.precision)
        if self.ctx.mode == EQUAL:
            fld = self.ctx.field
            acc = dict(self.terms)
            for e, c in other.terms:
                r = fld.add(acc.get(e, 0), c)
                if r:
                    acc[e] = r
                elif e in acc:
                    del acc[e]
            return Series.make(self.ctx, acc, prec)
        parts = [(e, c, 1) for e, c in self.terms] + [(e, c, 1) for e, c in other.terms]
        return Series(self.ctx, _sorted_terms(_combine_mixed(self.ctx, parts, prec)), prec)

    def __sub__(self, other: "Series") -> "Series":
        self._require_same_mode(other)
        prec = min(self.precision, other.precision)
        if self.ctx.mode == EQUAL:
            return self + other.neg()
        parts = [(e, c, 1) for e, c in self.terms] + [(e, c, -1) for e, c in other.terms]
        return Series(self.ctx, _sorted_terms(_combine_mixed(self.ctx, parts, prec)), prec)

    def neg(self) -> "Series":
        if self.ctx.mode == EQUAL or self.ctx.p != 2:
            fld = self.ctx.field
            return Series(self.ctx, tuple((e, fld.neg(c)) for e, c in self.terms), self.precision)
        return Series.zero(self.ctx, self.precision) - self

    def __neg__(self) -> "Series":
        return self.neg()

    def __mul__(self, other: "Series") -> "Series":
        self._require_same_mode(other)
        prec = _product_precision(self, other)
        fld = self.ctx.field
        if self.ctx.mode == EQUAL:
            acc: Dict[Fraction, int] = {}
            for e1, c1 in self.terms:
                for e2, c2 in other.terms:
                    e = e1 + e2
                    if prec.is_finite and e >= prec.fraction:
                        continue
                    r = fld.add(acc.get(e, 0), fld.mul(c1, c2))
                    if r:
                        acc[e] = r
                    elif e in acc:
                        del acc[e]
            return Series.make(self.ctx, acc, prec)
        parts = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                parts.append((e1 + e2, fld.mul(c1, c2), 1))
        return Series(self.ctx, _sorted_terms(_combine_mixed(self.ctx, parts, prec)), prec)

    def scale(self, code: int) -> "Series":
        """Multiply by a single coefficient (a Teichmueller digit in mixed
        mode); exact, no carries."""
        if code == 0:
            return Series.zero(self.ctx, self.precision)
        fld = self.ctx.field
        return Series(self.ctx, tuple((e, fld.mul(c, code)) for e, c in self.terms), self.precision)

    def shift(self, delta) -> "Series":
        """Multiply by the exponent-delta monomial."""
        delta = Fraction(delta)
        self.ctx.check_exponent(delta)
        terms = tuple((self.ctx.check_exponent(e + delta), c) for e, c in self.terms)
        prec = self.precision if not self.precision.is_finite else ExtRat(self.precision.fraction + delta)
        return Series(self.ctx, terms, prec)

    def pow_int(self, n: int) -> "Series":
        if n < 0:
            raise ValueError("use invert for negative powers")
        result = Series.one(self.ctx, PLUS_INF)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def truncate(self, new_precision) -> "Series":
        prec = min(self.precision, ExtRat.of(new_precision))
        if not prec.is_finite:
            return self
        terms = tuple((e, c) for e, c in self.terms if e < prec.fraction)
        return Series(self.ctx, terms, prec)

    # --- mode-specific ---

    def frobenius(self) -> "Series":
        """x -> x^p, exact in equal characteristic (exponents scale by p,
        coefficients pass through the field Frobenius)."""
        if self.ctx.mode != EQUAL:
            raise ValueError("frobenius shortcut is an equal-characteristic identity")
        fld = self.ctx.field
        p = self.ctx.p
        terms = tuple((self.ctx.check_exponent(e * p), fld.frob(c)) for e, c in self.terms)
        prec = self.precision if not self.precision.is_finite else ExtRat(self.precision.fraction * p)
        return Series(self.ctx, terms, prec)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.ctx, self.terms, self.precision) == (other.ctx, other.terms, other.precision)

    def __hash__(self):
        return hash((self.ctx, self.terms, self.precision))

    def __str__(self):
        sym = "t" if self.ctx.mode == EQUAL else "p"
        if not self.terms:
            body = "0"
        else:
            pieces = []
            for e, c in self.terms:
                coeff = self.ctx.field.repr_code(c)
                if e == 0:
                    pieces.append(f"{coeff}")
                elif c == 1:
                    pieces.append(f"{sym}^{e}")
                else:
                    pieces.append(f"{coeff}*{sym}^{e}")
            body = " + ".join(pieces)
        return f"{body} [prec {self.precision}]"


def _sorted_terms(mapping: Dict[Fraction, int]) -> Tuple[Tuple[Fraction, int], ...]:
    return tuple(sorted(mapping.items()))


def _product_precision(a: Series, b: Series) -> ExtRat:
    pa, pb = a.precision, b.precision
    if not pa.is_finite and not pb.is_finite:
        return PLUS_INF
    cands = []
    if pb.is_finite:
        cands.append(a.vlow() + pb)
    if pa.is_finite:
        cands.append(b.vlow() + pa)
    if pa.is_finite and pb.is_finite:
        cands.append(pa + pb)
    return min(cands)


def valuation_residue(a: Series) -> Tuple[ExtRat, int]:
    """(min exponent of support, coefficient there); (+inf, 0) for the
    exact zero series."""
    if a.is_zero:
        return a.valuation(), 0
    return a.valuation(), a.leading_coeff()


def pth_root(a: Series) -> Series:
    """The unique p-th root in equal characteristic: exponents divide by
    p and coefficients pass through the inverse Frobenius."""
    if a.ctx.mode != EQUAL:
        raise ValueError("p-th roots in mixed characteristic go through newton_root")
    ctx = a.ctx
    fld = ctx.field
    terms = tuple((ctx.check_exponent(e / ctx.p), fld.ifrob(c)) for e, c in a.terms)
    prec = a.precision if not a.precision.is_finite else ExtRat(a.precision.fraction / ctx.p)
    return Series(ctx, terms, prec)


def invert(a: Series, target_precision: ExtRat) -> Series:
    """Multiplicative inverse by geometric expansion.

    Returns s with v(a*s - 1) >= target_precision - v(a); the certified
    precision of s is recorded on the result.
    """
    if a.is_zero:
        raise ZeroDivisionError("zero series has no inverse")
    target_precision = ExtRat.of(target_precision)
    if not target_precision.is_finite:
        raise PrecisionError("inversion needs a finite target precision")
    ctx = a.ctx
    va = a.valuation().fraction
    rel = target_precision.fraction - va
    if a.precision.is_finite:
        # cannot certify beyond what is known of a
        rel = min(rel, a.precision.fraction - va)
    if rel <= 0:
        raise PrecisionError("target precision is below the leading term of the input")
    lc_inv = ctx.field.inv(a.leading_coeff())
    w = a.shift(-va).scale(lc_inv).truncate(ExtRat(rel))
    y = w - Series.one(ctx, ExtRat(rel))
    if y.is_zero:
        return Series.monomial(ctx, -va, lc_inv, ExtRat(rel - va))
    vy = y.valuation().fraction
    if vy <= 0:
        raise PrecisionError("inversion requires a dominant leading term")
    s = Series.one(ctx, ExtRat(rel))
    power = Series.one(ctx, ExtRat(rel))
    k = 1
    while k * vy < rel:
        power = power * y.neg()
        s = s + power
        k += 1
    return s.scale(lc_inv).shift(-va)


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with Series coefficients (degree <= p
    throughout this toolkit)."""

    coeffs: Tuple[Series, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")

    @staticmethod
    def make(coeffs: Sequence[Series]) -> "Polynomial":
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1].is_zero and not cs[-1].precision.is_finite:
            cs.pop()
        return Polynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def ctx(self) -> SeriesContext:
        return self.coeffs[0].ctx

    def evaluate(self, x: Series) -> Series:
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        ctx = self.ctx
        if self.degree == 0:
            return Polynomial((Series.zero(ctx),))
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(int_scale(self.coeffs[i], i))
        return Polynomial(tuple(out))

    def shifted(self, a: Series) -> Tuple[Series, ...]:
        """Coefficients of f(a + X), by exact binomial expansion."""
        n = self.degree
        out: List[Series] = [Series.zero(self.ctx, PLUS_INF) for _ in range(n + 1)]
        for j, cj in enumerate(self.coeffs):
            if cj.is_zero and not cj.precision.is_finite:
                continue
            apow = Series.one(self.ctx, PLUS_INF)
            # binomial(j, i) * c_j * a^(j-i) contributes to X^i; walk i downward
            for i in range(j, -1, -1):
                b = math.comb(j, i)
                term = int_scale(cj, b) * apow if b != 1 else cj * apow
                out[i] = out[i] + term
                if i > 0:
                    apow = apow * a
        return tuple(out)

    def to_strs(self) -> List[str]:
        return [str(c) for c in self.coeffs]


def int_scale(a: Series, n: int) -> Series:
    """n*a for an ordinary nonnegative integer n."""
    if n < 0:
        raise ValueError("int_scale takes nonnegative n")
    ctx = a.ctx
    if ctx.mode == EQUAL:
        return a.scale(ctx.field.from_int(n))
    if n == 0:
        return Series.zero(ctx, a.precision)
    if n == 1:
        return a
    return Series.from_int(ctx, n) * a


def newton_root(
    f: Polynomial,
    start: Series,
    target_precision: ExtRat,
    max_steps: int = 200,
) -> Series:
    """Refine a root of f from ``start`` until v(f(x)) >= target_precision.

    When the classical Hensel condition v(f(x)) > 2 v(f'(x)) holds the
    iteration is the quadratic Newton step.  Otherwise the leading branch
    is peeled off with a Newton-polygon step: the next correction is a
    monomial whose exponent is the steepest initial slope of f(x + X) and
    whose coefficient solves the associated residue equation in F_q.  The
    reported precision of the result accounts for the derivative's
    valuation (a root is only determined modulo target - v(f'(root))).
    """
    target_precision = ExtRat.of(target_precision)
    if not target_precision.is_finite:
        raise PrecisionError("newton_root needs a finite target precision")
    ctx = f.ctx
    x = start
    fprime = f.derivative()
    last_vf: Optional[Fraction] = None
    for _ in range(max_steps):
        fx = f.evaluate(x)
        if fx.vlow() >= target_precision:
            fpx = fprime.evaluate(x)
            loss = fpx.vlow()
            cap = target_precision - loss if loss.is_finite else target_precision
            return x.truncate(min(x.precision, cap))
        if fx.is_zero:
            raise ConvergenceError(
                f"residual is zero only to precision {fx.precision}, below the "
                f"target {target_precision}; supply more input precision"
            )
        vf = fx.valuation().fraction
        if last_vf is not None and vf <= last_vf:
            raise ConvergenceError("no certified progress in root refinement")
        last_vf = vf
        fpx = fprime.evaluate(x)
        if fpx.is_zero:
            raise ConvergenceError("derivative vanishes to precision at the iterate")
        vfp = fpx.valuation().fraction
        # The iterate is only a candidate digit string: its terms are an
        # exact finite series, and only the final residual certifies how
        # well it approximates the root.  Working at a fixed horizon W
        # keeps precision bookkeeping from eroding along the orbit.
        work = ExtRat(target_precision.fraction + 2 * abs(vfp) + 4)
        if vf > 2 * vfp:
            step = fx * invert(fpx, work)
            x = _declare(x - step, work)
        else:
            shifted = f.shifted(x)
            c0 = shifted[0]
            v0 = c0.valuation().fraction
            slope: Optional[Fraction] = None
            for i in range(1, len(shifted)):
                ci = shifted[i]
                if ci.is_zero:
                    continue
                s = (v0 - ci.valuation().fraction) / i
                if slope is None or s > slope:
                    slope = s
            if slope is None:
                raise ConvergenceError("degenerate polygon: no higher coefficients")
            ctx.check_exponent(slope)
            # residue equation along the initial segment
            res_coeffs = [0] * (len(shifted))
            for i, ci in enumerate(shifted):
                if ci.is_zero:
                    continue
                vi = ci.valuation().fraction
                if vi + i * slope == v0:
                    res_coeffs[i] = ci.leading_coeff()
            roots = [r for r in ctx.field.roots_of(res_coeffs) if r != 0]
            if not roots:
                raise ConvergenceError("residue equation has no root in F_q")
            x = _declare(x + Series.monomial(ctx, slope, roots[0], work), work)
    raise ConvergenceError("iteration budget exhausted")


def _declare(s: Series, precision: ExtRat) -> Series:
    """Re-declare the horizon of a candidate whose stored terms are exact.

    Used by root refinement only: the orbit is self-correcting, so the
    candidate is treated as the exact finite sum of its terms and the
    returned claim is established by the residual check alone.
    """
    terms = tuple((e, c) for e, c in s.terms if e < precision.fraction)
    return Series(s.ctx, terms, precision)


def zeta_p(ctx: SeriesContext, target_precision: ExtRat) -> Series:
    """A primitive p-th root of unity to the requested precision.

    For p = 2 this is the digit expansion of -1 (every digit 1).  For odd
    p the expansion starts at 1 + tau(c) p^(1/(p-1)) where c solves
    c^(p-1) = -1 in the residue field, and is refined by Newton iteration
    on 1 + X + ... + X^(p-1).  The residue field must contain such a c
    (for p = 3 that means q = 9), and exponent denominators p-1 must be
    admitted by the session bound D.
    """
    if ctx.mode != MIXED:
        raise ValueError("p-th roots of unity live in the mixed ambient")
    target_precision = ExtRat.of(target_precision)
    if not target_precision.is_finite:
        raise PrecisionError("zeta_p needs a finite target precision")
    p = ctx.p
    if p == 2:
        n = math.ceil(target_precision.fraction)
        return Series.make(ctx, {Fraction(k): 1 for k in range(max(n, 1))}, target_precision)
    fld = ctx.field
    minus_one = fld.neg(1)
    c = next((a for a in range(1, fld.q) if fld.pow_(a, p - 1) == minus_one), None)
    if c is None:
        raise ValueError(
            f"residue field F_{fld.q} has no solution of c^{p-1} = -1; "
            f"use the quadratic extension (q = {p * p})"
        )
    e0 = Fraction(1, p - 1)
    ctx.check_exponent(e0)
    work = ExtRat(target_precision.fraction + 2)
    x0 = Series.make(ctx, {Fraction(0): 1, e0: c}, work)
    one = Series.one(ctx)
    f = Polynomial.make(tuple(one for _ in range(p)))
    target_f = ExtRat(target_precision.fraction + Fraction(p - 2, p - 1))
    return newton_root(f, x0, target_f)
