"""The five laboratory base fields inside the ambient series field.

A base field K is a preset of the closed table ``PRESETS``: rational
functions F_q(t), truncated Laurent series F_q((t)), the directed union
F_q(t)(t^(1/p^i) : i >= 1), the p-adic base field, and the p-adic analogue
of the directed union.  A preset's value group is Z, or Z[1/p] for the
two towers, and is also its support lattice (every element's expansion
is supported there), so ``FieldDesc.grid_step`` decides membership.  The
table's flags serve one-sided certificates: ``leveled`` means each single
element lives at some finite denominator level even though the union is
deep, ``perfect`` and ``complete`` record facts provable from the shape.

Elements are enumerated deterministically and monotonically in a height
parameter; witnesses found this way are stored in certificates and can be
re-checked without repeating the search.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .cuts import ExtRat
from .series import EQUAL, MIXED, Series, SeriesContext, invert, make_context

RATIONAL_FUNCTION = "rational_function"
LAURENT = "laurent"
DIRECTED_UNION = "directed_union"
PADIC_BASE = "padic_base"
PADIC_TOWER = "padic_tower"

# name -> (kind, mode, tower, perfect, complete).  A tower is leveled and
# has value group Z[1/p]; the other presets have value group Z.
PRESETS = {
    "fp_t": (RATIONAL_FUNCTION, EQUAL, False, False, False),
    "laurent": (LAURENT, EQUAL, False, False, True),
    "pdiv_tower": (DIRECTED_UNION, EQUAL, True, True, False),
    "qp": (PADIC_BASE, MIXED, False, False, True),
    "qp_pdiv_tower": (PADIC_TOWER, MIXED, True, False, False),
}
PRESET_NAMES = tuple(PRESETS)


class BudgetTooSmall(RuntimeError):
    """The enumeration at this budget lists too few elements of the kind
    a construction needs; a larger budget may succeed."""


class FieldDesc:
    """A preset by name, in a session context; the rest is its table row.

    ``grid_step`` is the step s with k/D in the value group exactly when
    ``k % s == 0``: D for Z, and D without its factors p for Z[1/p]."""

    __slots__ = ("name", "ctx", "grid_step")

    def __init__(self, name: str, ctx: SeriesContext):
        self.name = name
        self.ctx = ctx
        s = ctx.D
        while self.leveled and s % ctx.p == 0:
            s //= ctx.p
        self.grid_step = s

    kind = property(lambda self: PRESETS[self.name][0])
    leveled = property(lambda self: PRESETS[self.name][2])
    perfect = property(lambda self: PRESETS[self.name][3])
    complete = property(lambda self: PRESETS[self.name][4])

    def __eq__(self, other) -> bool:
        if other.__class__ is not FieldDesc:
            return NotImplemented
        return self.name == other.name and self.ctx == other.ctx

    def __hash__(self):
        return hash((self.name, self.ctx))


def preset_field(name: str, p: int, m: int = 1, D: Optional[int] = None) -> FieldDesc:
    """One of the built-in laboratory fields, by preset name."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return FieldDesc(name, make_context(PRESETS[name][1], p, m, D))


# --------------------------------------------------------------------------
# enumeration


def _poly_series(ctx: SeriesContext, code: int, height: int, kstep: int) -> Series:
    """Decode a base-q integer into sum coeff_i * t^(i*kstep/D)."""
    q = ctx.q
    terms = []
    for i in range(height + 1):
        d = code % q
        code //= q
        if d:
            terms.append((i * kstep, d))
    return Series(ctx, tuple(terms), math.inf)


def _ratfunc_elements(ctx: SeriesContext, height: int, scale: Fraction, precision: ExtRat) -> Iterator[Series]:
    """num / den over the polynomials of degree up to ``height`` in
    t^scale, den-major in base-q code order; den = 1 lists num exactly.

    num * den_inv runs by Horner over num's base-q digits,
    x(code) = d0 * den_inv + t^scale * x(code // q), with the digit
    multiples of den_inv computed once per den.  Since num is exact, x
    carries the product precision v(num) + prec(den_inv), and each step
    keeps the terms of the product below it."""
    q = ctx.q
    n_polys = q ** (height + 1)
    kstep = ctx.grid_k(scale)
    for den_code in range(1, n_polys):
        den = _poly_series(ctx, den_code, height, kstep)
        if den.kterms == ((0, 1),):
            for num_code in range(n_polys):
                yield _poly_series(ctx, num_code, height, kstep)
            continue
        vden = den.valuation().fraction
        den_inv = invert(den, ExtRat.of(precision.fraction + 2 * vden + 1))
        digit_inv = [den_inv.scale(d) for d in range(q)]
        # precs[j]: the precision of x(code) when num's lowest term is t^(j*scale)
        precs = [den_inv.kprec + j * kstep for j in range(height + 1)]
        xs = [Series.zero(ctx)]
        lows = [0]
        yield xs[0]
        for code in range(1, n_polys):
            d0, rest = code % q, code // q
            if not rest:
                x, low = digit_inv[d0], 0
            else:
                r, low = xs[rest], lows[rest] + 1
                x = Series(ctx, tuple([(k + kstep, c) for k, c in r.kterms]), precs[low])
                if d0:
                    x, low = digit_inv[d0] + x, 0
            xs.append(x)
            lows.append(low)
            yield x


def enumerate_elements(K: FieldDesc, height: int) -> List[Series]:
    """Deterministic, monotone-in-height element enumeration: the
    elements of ``element_stream(K, height)``, each listed once, at its
    first occurrence.

    Each call builds a new list.  The cached listing is
    ``listing_index(K, height).elements``, which calls this on a miss.
    """
    return list(dict.fromkeys(element_stream(K, height)))


class ListingIndex(NamedTuple):
    """The listing ``enumerate_elements(K, height)`` indexed by leading
    term, so that a value-set search finds the first element at each
    value without reading the rest.

    Every listed element keeps the ``Series`` invariant (codes nonzero,
    grid indices strictly increasing and below ``kcap(precision)``), so
    for an element c whose leading term differs from a's, v(a - c) is
    the lesser of the two leading exponents.

    ``by_lead`` maps each leading term (k0, code) to its listing indices
    in order; ``lead_ks`` holds the distinct leading exponents, sorted,
    and ``first_at`` the first listing index at each; ``termless`` lists
    the elements without terms.
    """

    elements: List[Series]
    by_lead: Dict[Tuple[int, int], List[int]]
    lead_ks: List[int]
    first_at: List[int]
    termless: List[int]


@functools.lru_cache(maxsize=16)
def listing_index(K: FieldDesc, height: int) -> ListingIndex:
    """The ``ListingIndex`` of ``enumerate_elements(K, height)``: the one
    cache of listings (the 16 most recent (K, height) pairs).  A repeated
    call returns the same index object, whose lists callers must not
    mutate."""
    elements = enumerate_elements(K, height)
    by_lead: Dict[Tuple[int, int], List[int]] = {}
    termless: List[int] = []
    for i, c in enumerate(elements):
        if c.kterms:
            by_lead.setdefault(c.kterms[0], []).append(i)
        else:
            termless.append(i)
    # by_lead is in order of first index, so an exponent's first lead
    # holds its first index
    first: Dict[int, int] = {}
    for (k0, _), at in by_lead.items():
        first.setdefault(k0, at[0])
    lead_ks = sorted(first)
    return ListingIndex(elements, by_lead, lead_ks, [first[k0] for k0 in lead_ks], termless)


def element_stream(K: FieldDesc, height: int) -> Iterator[Series]:
    """The elements of K at ``height``, lazily and with repeats.

    Rational-function shapes list ratios of polynomials of degree up to
    ``height`` (in the deepest generator available at that height);
    Laurent shapes list Laurent polynomials with exponents in
    [-height, height]; p-adic shapes list small rationals and digit
    monomials per tower level.  Zero is always included.

    Infinite expansions (inverted denominators, p-adic digits of
    rationals) are computed to the working precision ``height + 4``.
    A search that stops at its first hit reads this stream, not the
    cached list, so it builds only the prefix it reads.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    ctx = K.ctx
    precision = ExtRat.of(Fraction(height + 4))
    if K.kind == RATIONAL_FUNCTION:
        yield from _ratfunc_elements(ctx, height, Fraction(1), precision)
    elif K.kind == LAURENT:
        q = ctx.q
        width = 2 * height + 1
        # digit positions ordered 0, 1, -1, 2, -2, ... so that small
        # polynomial elements come first in the enumeration
        exps = [0]
        for k in range(1, height + 1):
            exps.append(k)
            exps.append(-k)
        for code in range(q ** width):
            terms = {}
            c = code
            for i in range(width):
                d = c % q
                c //= q
                if d:
                    terms[exps[i]] = d
            yield Series.make(ctx, terms)
    elif K.kind == DIRECTED_UNION:
        for lvl in range(height + 1):
            yield from _ratfunc_elements(ctx, height, Fraction(1, ctx.p ** lvl), precision)
    elif K.kind == PADIC_BASE:
        yield from _padic_rationals(ctx, height, precision)
    elif K.kind == PADIC_TOWER:
        yield from _padic_rationals(ctx, height, precision)
        for lvl in range(height + 1):
            scale = Fraction(1, ctx.p ** lvl)
            ctx.check_exponent(scale)
            for j in range(-height, height + 1):
                if j == 0:
                    continue
                for c in range(1, ctx.q):
                    yield Series.monomial(ctx, j * scale, c)
    else:
        raise ValueError(f"unknown field kind {K.kind!r}")


def _padic_rationals(ctx: SeriesContext, height: int, precision: ExtRat) -> Iterator[Series]:
    bound = height + 1
    for den in range(1, bound + 1):
        for num in range(-bound, bound + 1):
            yield Series.from_rational(ctx, Fraction(num, den), precision)


def member_witness(K: FieldDesc, s: Series) -> bool:
    """Sound membership certificate for a finite truncated series.

    True means the finite sum of the stored terms is literally an element
    of K: its support must lie in the support lattice, at a single finite
    level for leveled unions.  (For all preset shapes every finite
    lattice-supported sum is a member: Laurent polynomials lie in F_q(t),
    level-n root polynomials lie in the level-n tower field, and finite
    digit sums are rationals.)  False only means this certificate does
    not apply.  The test runs on the grid: k/D is in the lattice exactly
    when k is a multiple of ``K.grid_step``.
    """
    step = K.grid_step
    return all(k % step == 0 for k, _ in s.kterms)
