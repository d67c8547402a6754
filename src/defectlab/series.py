"""Truncated generalized power series with exact, certified arithmetic.

Two ambient modes share one term representation: a sorted tuple of
(k, code) pairs, the exponent k/D on the grid (1/D)Z of the session bound
D and the code a nonzero finite-field element, plus a precision horizon,
itself a grid index (or ``math.inf`` for an exact series).  Exponents and
precisions leave this layer as reduced fractions (``terms``,
``precision``, ``valuation``, ``str``).

* ``equal``: coefficients in F_q, characteristic p; addition is
  coefficient-wise (no carries) and ``(a+b)^p = a^p + b^p`` holds on the
  nose.  The monomial symbol is written ``t``; ``v(t) = 1``.

* ``mixed``: a p-adic ambient with rational exponents of p.  A term with
  coefficient code c at exponent e stands for ``tau(c) * p^e`` where
  ``tau`` is the multiplicative (Teichmueller) lift of the residue digit.
  Carries move from e to e+1 (the normalization fixes v(p) = 1), so
  they stay inside one exponent class mod 1, and digits at distinct
  exponents already form the unique Teichmueller expansion.  A sum
  therefore normalizes (``teichmueller``) only the classes both operands
  hold, summing each into one p-adic integer and reading its digits off;
  every other term passes through.  tau is multiplicative and F_q has no
  zero divisors, so a product by a one-term factor is the digit-wise
  product and carries nothing.

Every operation computes the exact precision of its result; nothing is
ever rounded, and comparisons are only meaningful up to the common
precision of their operands.  Exponent and precision denominators are
capped by the session bound D so that all supports stay finite;
operations that would need finer exponents or precisions fail loudly
rather than silently truncate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Optional, Tuple

from . import teichmueller
from .cuts import ExtRat, PLUS_INF, RatLike
from .ffield import FiniteField, finite_field


class PrecisionError(ArithmeticError):
    """An operation would need terms beyond the certified horizon."""


class DenominatorBoundError(ValueError):
    """An exponent denominator exceeded the session bound D."""


class ConvergenceError(RuntimeError):
    """Root refinement failed to make certified progress."""


EQUAL = "equal"
MIXED = "mixed"


class SeriesContext:
    """Immutable session parameters: mode, residue field F_{p^m}, and the
    exponent denominator bound D.  Compared and hashed by (mode, p, m, D)."""

    __slots__ = ("mode", "p", "m", "D", "field")

    def __init__(self, mode: str, p: int, m: int, D: int, field: FiniteField):
        if mode not in (EQUAL, MIXED):
            raise ValueError(f"unknown mode {mode!r}")
        if D < 1:
            raise ValueError("D must be positive")
        self.mode = mode
        self.p = p
        self.m = m
        self.D = D
        self.field = field

    def _key(self):
        return (self.mode, self.p, self.m, self.D)

    def __eq__(self, other) -> bool:
        if other.__class__ is not SeriesContext:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def q(self) -> int:
        return self.p ** self.m

    def grid_k(self, x, what: str = "exponent"):
        """The grid index k of a value x = k/D (an int, ``Fraction`` or
        ``ExtRat``), ``math.inf`` for +inf.  A value off the grid (1/D)Z is
        refused, never rounded: rounding a precision up would claim
        unknown terms.  ``what`` names the value in the refusal."""
        if x.__class__ is ExtRat:
            if x.sign:
                return math.inf
            x = x.num
        elif x.__class__ is not Fraction:
            x = Fraction(x)
        q, r = divmod(self.D, x.denominator)
        if r:
            raise DenominatorBoundError(
                f"{what} {x} needs denominator {x.denominator}, bound is D={self.D}"
            )
        return x.numerator * q

    def kcap(self, x: ExtRat):
        """ceil(x*D), so that k/D < x exactly when k < kcap(x);
        ``math.inf`` for +inf."""
        if x.sign:
            return math.inf
        f = x.num
        return -(-f.numerator * self.D // f.denominator)

    def kout(self, c) -> int:
        """The least grid index k with k/D outside the lower set of the cut
        ``c``: ``kcap`` of the bound b of {q < b}, floor(b*D) + 1 for {q <= b}."""
        if c.attained:
            return c.bound.num.numerator * self.D // c.bound.num.denominator + 1
        return self.kcap(c.bound)

    def value_of(self, k) -> ExtRat:
        """The value k/D of a grid index; ``PLUS_INF`` for ``math.inf``."""
        return PLUS_INF if k == math.inf else ExtRat(Fraction(k, self.D))


def grid_bound(mode: str, p: int, depth: int) -> int:
    """The bound D of a session that refines exponents to 1/p^depth: p^depth,
    times p - 1 in mixed mode for p > 2, for the exponent 1/(p-1) of the
    p-th roots of unity."""
    D = p ** depth
    if mode == MIXED and p > 2:
        D *= p - 1
    return D


def make_context(mode: str, p: int, m: int = 1, D: Optional[int] = None) -> SeriesContext:
    """The session context, with ``D = grid_bound(mode, p, 8)`` by default;
    one object per grid (mode, p, m, D) however the arguments are spelled,
    so that series built for the same field in separate calls pass the
    identity check of ``_require_same_mode``."""
    return _context(mode, p, m, grid_bound(mode, p, 8) if D is None else D)


@lru_cache(maxsize=None)
def _context(mode: str, p: int, m: int, D: int) -> SeriesContext:
    return SeriesContext(mode, p, m, D, finite_field(p, m))


# --------------------------------------------------------------------------


class Series:
    """A truncated generalized power series (immutable value).

    ``kterms`` holds (k, code) pairs for the terms code * t^(k/D): sorted
    by k, codes nonzero, k below ``kprec``.  ``kprec`` is the precision
    horizon kprec/D as a grid index, ``math.inf`` for an exact series;
    ``precision`` reads it as an ``ExtRat``.  The value-level constructors
    take a precision value (an int, ``Fraction`` or ``ExtRat``) and refuse
    one off the grid.
    """

    __slots__ = ("ctx", "kterms", "kprec")

    def __init__(self, ctx: SeriesContext, kterms: Tuple[Tuple[int, int], ...], kprec):
        self.ctx = ctx
        self.kterms = kterms
        self.kprec = kprec

    # --- constructors ---

    @staticmethod
    def make(ctx: SeriesContext, mapping: Dict[Fraction, int], precision: RatLike = PLUS_INF) -> "Series":
        """From exponent (an int or ``Fraction``) -> code; every exponent
        must lie on the grid (1/D)Z, as must ``precision``, and zero codes
        and exponents at or beyond ``precision`` are dropped."""
        D = ctx.D
        kcap = ctx.grid_k(precision, "precision")
        items = []
        for e, c in mapping.items():
            if c == 0:
                continue
            q, r = divmod(D, e.denominator)
            # grid_k refuses an exponent off the grid
            k = ctx.grid_k(e) if r else e.numerator * q
            if k < kcap:
                items.append((k, c))
        items.sort()
        return Series(ctx, tuple(items), kcap)

    @staticmethod
    def zero(ctx: SeriesContext, precision: RatLike = PLUS_INF) -> "Series":
        return Series(ctx, (), ctx.grid_k(precision, "precision"))

    @staticmethod
    def monomial(ctx: SeriesContext, exp, code: int = 1, precision: RatLike = PLUS_INF) -> "Series":
        return Series.make(ctx, {exp: code}, precision)

    @staticmethod
    def one(ctx: SeriesContext, precision: RatLike = PLUS_INF) -> "Series":
        return Series.monomial(ctx, 0, 1, precision)

    @staticmethod
    def from_int(ctx: SeriesContext, n: int, precision: RatLike = PLUS_INF) -> "Series":
        return Series.from_rational(ctx, Fraction(n), precision)

    @staticmethod
    def from_rational(ctx: SeriesContext, r: Fraction, precision: RatLike = PLUS_INF) -> "Series":
        """The image of a rational number in the mixed ambient: the digit
        expansion of r, exact when it terminates."""
        if ctx.mode == EQUAL:
            raise ValueError("rational numbers embed in the mixed-characteristic ambient")
        r = Fraction(r)
        kprec = ctx.grid_k(precision, "precision")
        if r == 0:
            return Series(ctx, (), kprec)
        p = ctx.p
        v = 0
        num, den = r.numerator, r.denominator
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        if kprec == math.inf:
            # integer lifts are exact for p in {2, 3}; the digits land in
            # the prime subfield, so any m is fine
            if den != 1 or ctx.p not in teichmueller.EXACT_LIFTS or (p == 2 and num < 0):
                raise PrecisionError(
                    f"{r} has a non-terminating digit expansion; pass a finite precision"
                )
            return Series(ctx, tuple(teichmueller.digits(ctx, num, v * ctx.D, None)), kprec)
        n = -(-kprec // ctx.D) - v
        if n <= 0:
            return Series(ctx, (), kprec)
        u = num * pow(den, -1, p ** n)
        return Series(ctx, tuple(teichmueller.digits(ctx, u, v * ctx.D, n)), kprec)

    # --- inspection ---

    @property
    def precision(self) -> ExtRat:
        """``kprec`` as a value."""
        return self.ctx.value_of(self.kprec)

    @property
    def terms(self) -> Tuple[Tuple[Fraction, int], ...]:
        """``kterms`` with the exponents as reduced fractions."""
        D = self.ctx.D
        return tuple((Fraction(k, D), c) for k, c in self.kterms)

    @property
    def is_zero(self) -> bool:
        return not self.kterms

    def vlow_k(self):
        """The grid index of ``vlow``: the least stored exponent, or
        ``kprec`` for a term-free series."""
        return self.kterms[0][0] if self.kterms else self.kprec

    def vlow(self) -> ExtRat:
        """Certified lower bound for the valuation: the least certified
        exponent, or the precision horizon for a term-free series."""
        return self.ctx.value_of(self.vlow_k())

    def valuation_k(self) -> int:
        """The grid index of the valuation, which a zero has not: +inf is
        a bound, never a value."""
        if self.kterms:
            return self.kterms[0][0]
        if self.kprec == math.inf:
            raise PrecisionError("an exact zero has valuation +inf, which is not a value")
        raise PrecisionError(f"series is zero to precision {self.precision}; valuation not certified")

    def valuation(self) -> ExtRat:
        return ExtRat(Fraction(self.valuation_k(), self.ctx.D))

    def leading_coeff(self) -> int:
        return self.kterms[0][1] if self.kterms else 0

    # --- arithmetic ---

    def _require_same_mode(self, other: "Series"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("series from different sessions cannot be combined")

    def diff_k(self, other: "Series"):
        """v(self - other) on the grid, read off the first differing term.

        Walks the two sorted term tuples together and returns the grid
        index k of the first exponent k/D below both precisions where the
        coefficients differ; ``None`` when no such exponent exists: the
        terms agree (an exact zero, or a zero up to a finite precision),
        or first differ at or beyond a precision.  The samples hold finite
        values only, so an exact zero realizes nothing either.

        In equal characteristic this is the valuation of ``self - other``
        term by term.  In mixed characteristic it is too: the terms below
        the first differing exponent e cancel exactly, every carry only
        moves upward, and two Teichmueller digits that differ mod p differ
        by a unit, so ``tau(a_e) - tau(c_e)`` has valuation 0 and
        v(self - other) = e whenever e lies below the precision.
        """
        self._require_same_mode(other)
        ta, tc = self.kterms, other.kterms
        for x, y in zip(ta, tc):
            if x != y:
                k = min(x[0], y[0])
                break
        else:
            if len(ta) == len(tc):
                return None
            # one term tuple is a prefix of the other; the longer one's
            # next term is the first difference
            k = (ta[len(tc):] or tc[len(ta):])[0][0]
        if k >= self.kprec or k >= other.kprec:
            return None
        return k

    def __add__(self, other: "Series") -> "Series":
        self._require_same_mode(other)
        ctx = self.ctx
        prec = min(self.kprec, other.kprec)
        if ctx.mode == EQUAL:
            # one merge of the sorted term tuples, cut below kcap
            add = ctx.field.add
            out = []
            ia, ib = iter(self.kterms), iter(other.kterms)
            x, y = next(ia, None), next(ib, None)
            while x and y:
                if x[0] < y[0]:
                    out.append(x)
                    x = next(ia, None)
                elif y[0] < x[0]:
                    out.append(y)
                    y = next(ib, None)
                else:
                    r = add(x[1], y[1])
                    if r:
                        out.append((x[0], r))
                    x, y = next(ia, None), next(ib, None)
            if x or y:
                out.append(x or y)
                out.extend(ia if x else ib)
            return Series(ctx, _below(out, prec), prec)
        # carries stay inside a class k mod D, and digits at distinct
        # exponents are already canonical: only the classes both operands
        # hold are normalized
        ta, tb, D = self.kterms, other.kterms, ctx.D
        shared = {k % D for k, _ in ta}.intersection([k % D for k, _ in tb])
        if not shared:
            return Series(ctx, _below(sorted(ta + tb), prec), prec)
        parts, out = [], []
        for k, c in ta + tb:
            if k % D in shared:
                parts.append((k, c, 1))
            elif k < prec:
                out.append((k, c))
        out.extend(teichmueller.normalize(ctx, parts, prec))
        out.sort()
        return Series(ctx, tuple(out), prec)

    def __sub__(self, other: "Series") -> "Series":
        self._require_same_mode(other)
        prec = min(self.kprec, other.kprec)
        if self.ctx.mode == EQUAL:
            return self + other.neg()
        parts = [(k, c, 1) for k, c in self.kterms] + [(k, c, -1) for k, c in other.kterms]
        return Series(self.ctx, teichmueller.normalize(self.ctx, parts, prec), prec)

    def neg(self) -> "Series":
        if self.ctx.mode == EQUAL or self.ctx.p != 2:
            neg = self.ctx.field.neg
            return Series(self.ctx, tuple((k, neg(c)) for k, c in self.kterms), self.kprec)
        return Series(self.ctx, (), self.kprec) - self

    def __mul__(self, other: "Series") -> "Series":
        self._require_same_mode(other)
        ctx = self.ctx
        prec = kcap = _product_precision(self, other)
        ta, tb = self.kterms, other.kterms
        if len(ta) == 1:
            return _digit_product(other, *ta[0], prec)
        if len(tb) == 1:
            return _digit_product(self, *tb[0], prec)
        mul = ctx.field.mul
        if ctx.mode == EQUAL:
            add = ctx.field.add
            acc: Dict[int, int] = {}
            for k1, c1 in ta:
                for k2, c2 in tb:
                    k = k1 + k2
                    if k >= kcap:
                        break
                    r = add(acc.get(k, 0), mul(c1, c2))
                    if r:
                        acc[k] = r
                    elif k in acc:
                        del acc[k]
            return Series(ctx, tuple(sorted(acc.items())), prec)
        parts = []
        for k1, c1 in ta:
            for k2, c2 in tb:
                k = k1 + k2
                if k >= kcap:
                    break
                parts.append((k, mul(c1, c2), 1))
        return Series(ctx, teichmueller.normalize(ctx, parts, prec), prec)

    def scale(self, code: int) -> "Series":
        """Multiply by a single coefficient (a Teichmueller digit in mixed
        mode); exact, no carries."""
        if code == 0:
            return Series(self.ctx, (), self.kprec)
        return _digit_product(self, 0, code, self.kprec)

    def shift(self, delta) -> "Series":
        """Multiply by the exponent-delta monomial."""
        dk = self.ctx.grid_k(delta)
        return _digit_product(self, dk, 1, self.kprec + dk)

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
        return _declare(self, min(self.kprec, self.ctx.grid_k(new_precision, "precision")))

    # --- mode-specific ---

    def frobenius(self) -> "Series":
        """x -> x^p, exact in equal characteristic (exponents scale by p,
        coefficients pass through the field Frobenius)."""
        if self.ctx.mode != EQUAL:
            raise ValueError("frobenius shortcut is an equal-characteristic identity")
        frob = self.ctx.field.frob
        p = self.ctx.p
        return Series(self.ctx, tuple((k * p, frob(c)) for k, c in self.kterms), self.kprec * p)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.kterms == other.kterms
            and self.kprec == other.kprec
            and (self.ctx is other.ctx or self.ctx == other.ctx)
        )

    def __hash__(self):
        return hash((self.kterms, self.kprec))

    def __str__(self):
        sym = "t" if self.ctx.mode == EQUAL else "p"
        if not self.kterms:
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


def _below(kterms, kcap) -> Tuple[Tuple[int, int], ...]:
    """The sorted terms whose numerator lies below ``kcap``."""
    return tuple(kterms[:bisect_left(kterms, (kcap,))])


def _digit_product(s: Series, k0: int, c0: int, kprec) -> Series:
    """s times the one-digit series c0 * t^(k0/D), cut below ``kprec``: tau
    is multiplicative and F_q has no zero divisors, so each product is one
    digit and none carry."""
    mul = s.ctx.field.mul
    out = []
    for k, c in s.kterms:
        k += k0
        if k >= kprec:
            break
        out.append((k, mul(c, c0)))
    return Series(s.ctx, tuple(out), kprec)


def _product_precision(a: Series, b: Series):
    # vlow(a) + prec(b) and vlow(b) + prec(a) on the grid; prec(a) + prec(b)
    # is never the least, since vlow(a) <= prec(a)
    pa, pb = a.kprec, b.kprec
    return min((a.kterms[0][0] if a.kterms else pa) + pb, (b.kterms[0][0] if b.kterms else pb) + pa)


def pth_root(a: Series) -> Series:
    """The unique p-th root in equal characteristic: exponents divide by
    p and coefficients pass through the inverse Frobenius."""
    if a.ctx.mode != EQUAL:
        raise ValueError("p-th roots in mixed characteristic go through newton_root")
    ctx = a.ctx
    p, ifrob = ctx.p, ctx.field.ifrob
    terms = []
    for k, c in a.kterms:
        if k % p:
            ctx.grid_k(Fraction(k, ctx.D * p))
        terms.append((k // p, ifrob(c)))
    prec = a.kprec
    if prec != math.inf:
        if prec % p:
            ctx.grid_k(Fraction(prec, ctx.D * p), "precision")  # off the grid: refused
        prec //= p
    return Series(ctx, tuple(terms), prec)


def invert(a: Series, target_precision: RatLike) -> Series:
    """Multiplicative inverse of a = lc * t^va * (1 + y), v(y) > 0.

    Returns s with v(a*s - 1) >= target_precision - v(a); the certified
    precision of s is recorded on the result.  In equal characteristic
    1/(1 + y) comes from the power-series recurrence s_0 = 1,
    s_n = -sum_{i>=1} y_i s_{n-i} on the gcd step of y's exponents; in
    mixed characteristic, whose sums carry, from the product
    (1 - y)(1 + y^2)(1 + y^4)..., one squaring per doubling of the number
    of terms of the geometric series sum (-y)^k.  Both give every term of
    1/(1 + y) below the relative precision.  When a has no second term
    below the relative precision, y = 0 and 1/a is one term.
    """
    if a.is_zero:
        raise ZeroDivisionError("zero series has no inverse")
    target_precision = ExtRat.of(target_precision)
    if not target_precision.is_finite:
        raise PrecisionError("inversion needs a finite target precision")
    ctx = a.ctx
    kva = a.kterms[0][0]
    va = Fraction(kva, ctx.D)
    # the relative precision rel/D, capped by what is known of a
    kt = ctx.kcap(target_precision)
    rel = min(kt, a.kprec) - kva
    if rel <= 0:
        raise PrecisionError("target precision is below the leading term of the input")
    if kt <= a.kprec:  # an off-grid relative precision: refused
        ctx.grid_k(target_precision.fraction - va, "precision")
    lc_inv = ctx.field.inv(a.leading_coeff())
    if len(a.kterms) == 1 or a.kterms[1][0] - kva >= rel:  # y = 0 below rel
        return Series(ctx, ((-kva, lc_inv),), rel - kva)
    w = _declare(a.shift(-va).scale(lc_inv), rel)
    y = w - Series(ctx, ((0, 1),), rel)
    vy = y.kterms[0][0]
    if ctx.mode == EQUAL:
        add, mul, neg = ctx.field.add, ctx.field.mul, ctx.field.neg
        g = math.gcd(*(k for k, _ in y.kterms))
        ys = [(k // g, c) for k, c in y.kterms]
        coeffs = [1]
        for n in range(1, -(-rel // g)):
            acc = 0
            for i, c in ys:
                if i > n:
                    break
                acc = add(acc, mul(c, coeffs[n - i]))
            coeffs.append(neg(acc))
        kterms = tuple((n * g, c) for n, c in enumerate(coeffs) if c)
        return Series(ctx, kterms, rel).scale(lc_inv).shift(-va)
    # s is the sum of (-y)^i over i < 2e and w is (-y)^e; e doubles until
    # (-y)^(2e) lies at or above rel
    w = y.neg()
    s = Series(ctx, ((0, 1),), rel) + w
    e = 1
    while 2 * e * vy < rel:
        w = w * w
        s = s + s * w
        e *= 2
    return s.scale(lc_inv).shift(-va)


# --------------------------------------------------------------------------


def _taylor_shift(f: Tuple[Series, ...], a: Series) -> Tuple[Series, ...]:
    """Coefficients of f(a + X) for a coefficient tuple f, constant term
    first: pass i of repeated Horner division by X - a leaves the i-th in
    place, so coefficient 0 is Horner's f(a)."""
    c = list(f)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] = c[j + 1] * a + c[j]
    return tuple(c)


NEWTON_MAX_STEPS = 200


def newton_root(f: Tuple[Series, ...], start: Series, target_precision: RatLike) -> Series:
    """Refine a root of f, a coefficient tuple with its constant term
    first, from ``start`` until v(f(x)) >= target_precision.

    Each step reads one Taylor shift f(x + X) (``_taylor_shift``);
    its coefficients 0 and 1 are f(x) and f'(x), and all of them give the
    Newton polygon.  When the classical Hensel condition
    v(f(x)) > 2 v(f'(x)) holds the iteration is the quadratic Newton step.
    Otherwise the leading branch is peeled off with a Newton-polygon step:
    the next correction is a monomial m whose exponent is the steepest
    initial slope of f(x + X) and whose coefficient solves the associated
    residue equation in F_q.  The reported precision of the result
    accounts for the derivative's valuation (a root is only determined
    modulo target - v(f'(root))).

    After a polygon step the next shift f(x + m + X) is the previous one
    moved by m, whose constant term is the small residual f(x), rather
    than f shifted by x + m from scratch.  The move is taken only when it
    keeps the precision bookkeeping of the full shift, that is when all
    three hold: (a) x already sat at the working horizon, and x + m sits
    there too; (b) v(x + m) = v(x); (c) re-declaring x + m at the horizon
    dropped no term.  Only (a) and (b) are tested: (c) follows from (a),
    since a sum at precision ``work`` has no term at or beyond it.  The
    first step and every step after a Hensel step shift f in full.

    The iteration takes at most ``NEWTON_MAX_STEPS`` steps; running out
    raises ``ConvergenceError`` (inconclusive), never a hang.
    """
    if len(f) < 2:
        raise ValueError("newton_root needs a polynomial of degree at least 1")
    ctx = f[0].ctx
    target = ctx.grid_k(target_precision, "precision")
    if target == math.inf:
        raise PrecisionError("newton_root needs a finite target precision")
    D = ctx.D
    x = start
    last_vf: Optional[int] = None
    move: Optional[Series] = None
    for _ in range(NEWTON_MAX_STEPS):
        shifted = _taylor_shift(f, x) if move is None else _taylor_shift(shifted, move)
        fx, fpx = shifted[0], shifted[1]
        if (fx.kterms[0][0] if fx.kterms else fx.kprec) >= target:
            # a term-free f'(x) at finite precision has no certified
            # valuation, so the loss is unknown; an exact zero loses nothing
            if fpx.is_zero and fpx.kprec != math.inf:
                raise ConvergenceError("derivative vanishes to precision at the root")
            loss = fpx.kterms[0][0] if fpx.kterms else 0
            return _declare(x, min(x.kprec, target - loss))
        if fx.is_zero:
            raise ConvergenceError(
                f"residual is zero only to precision {fx.precision}, below the "
                f"target {ctx.value_of(target)}; supply more input precision"
            )
        vf = fx.kterms[0][0]
        if last_vf is not None and vf <= last_vf:
            raise ConvergenceError("no certified progress in root refinement")
        last_vf = vf
        if fpx.is_zero:
            raise ConvergenceError("derivative vanishes to precision at the iterate")
        vfp = fpx.kterms[0][0]
        # The iterate is only a candidate digit string: its terms are an
        # exact finite series, and only the final residual certifies how
        # well it approximates the root.  Working at a fixed horizon W
        # keeps precision bookkeeping from eroding along the orbit.
        work = target + 2 * abs(vfp) + 4 * D
        if vf > 2 * vfp:
            step = fx * invert(fpx, ctx.value_of(work))
            x = _declare(x - step, work)
            move = None
        else:
            # slopes in grid units: the exponent of the correction is slope/D
            slope: Optional[Fraction] = None
            for i in range(1, len(shifted)):
                ci = shifted[i]
                if ci.is_zero:
                    continue
                s = Fraction(vf - ci.kterms[0][0], i)
                if slope is None or s > slope:
                    slope = s
            if slope is None:
                raise ConvergenceError("degenerate polygon: no higher coefficients")
            if slope.denominator != 1:
                ctx.grid_k(slope / D)
            ks = slope.numerator
            # residue equation along the initial segment
            res_coeffs = [0] * (len(shifted))
            for i, ci in enumerate(shifted):
                if ci.is_zero:
                    continue
                if ci.kterms[0][0] + i * ks == vf:
                    res_coeffs[i] = ci.leading_coeff()
            roots = [r for r in ctx.field.roots_of(res_coeffs) if r != 0]
            if not roots:
                raise ConvergenceError("residue equation has no root in F_q")
            mono = Series(ctx, ((ks, roots[0]),) if ks < work else (), work)
            nxt = _declare(x + mono, work)
            move = mono if x.kprec == work and nxt.vlow() == x.vlow() else None
            x = nxt
    raise ConvergenceError(f"iteration budget exhausted: NEWTON_MAX_STEPS = {NEWTON_MAX_STEPS} steps")


def _declare(s: Series, kprec) -> Series:
    """Re-declare the horizon of a candidate whose stored terms are exact.

    Used by root refinement: the orbit is self-correcting, so the
    candidate is treated as the exact finite sum of its terms and the
    returned claim is established by the residual check alone.  Also the
    cut below a horizon that ``truncate`` and ``invert`` take.
    """
    return Series(s.ctx, _below(s.kterms, kprec), kprec)


def zeta_p(ctx: SeriesContext, target_precision: RatLike) -> Series:
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
        return Series.make(ctx, {k: 1 for k in range(max(n, 1))}, target_precision)
    fld = ctx.field
    minus_one = fld.neg(1)
    c = next((a for a in range(1, fld.q) if fld.pow_(a, p - 1) == minus_one), None)
    if c is None:
        raise ValueError(
            f"residue field F_{fld.q} has no solution of c^{p-1} = -1; "
            f"use the quadratic extension (q = {p * p})"
        )
    e0 = Fraction(1, p - 1)
    ctx.grid_k(e0)
    work = target_precision.fraction + 2
    x0 = Series.make(ctx, {0: 1, e0: c}, work)
    target_f = target_precision.fraction + Fraction(p - 2, p - 1)
    return newton_root((Series.one(ctx),) * p, x0, target_f)
