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
from typing import Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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


class _Row:
    """The elements x(code) = num / den of one denominator, num the
    polynomial of degree up to ``height`` in t^scale with base-q code
    ``code``.

    x(code) runs by Horner over num's base-q digits,
    x(code) = d0 * den_inv + t^scale * x(code // q), with the digit
    multiples of den_inv computed once; for den = 1, den_inv is the exact
    1 and x(code) is num exactly.  Since num is exact, x carries the
    product precision v(num) + prec(den_inv), and each step keeps the
    terms of the product below it.  ``x`` keeps each element it builds,
    with the number of trailing zero digits of its code in ``lows``."""

    __slots__ = ("ctx", "kstep", "digit_inv", "precs", "xs", "lows")

    def __init__(self, ctx: SeriesContext, den_code: int, height: int, kstep: int, precision: Fraction):
        den = _poly_series(ctx, den_code, height, kstep)
        if den_code == 1:
            den_inv = den
        else:
            den_inv = invert(den, precision + 2 * den.valuation().fraction + 1)
        self.ctx, self.kstep = ctx, kstep
        self.digit_inv = [den_inv.scale(d) for d in range(ctx.q)]
        # precs[j]: the precision of x(code) when num's lowest term is t^(j*scale)
        self.precs = [den_inv.kprec + j * kstep for j in range(height + 1)]
        self.xs: Dict[int, Series] = {0: Series.zero(ctx)}
        self.lows: Dict[int, int] = {0: 0}

    def x(self, code: int) -> Series:
        x = self.xs.get(code)
        if x is None:
            d0, rest = code % self.ctx.q, code // self.ctx.q
            if not rest:
                x, low = self.digit_inv[d0], 0
            else:
                r, low = self.x(rest), self.lows[rest] + 1
                x = Series(self.ctx, tuple([(k + self.kstep, c) for k, c in r.kterms]), self.precs[low])
                if d0:
                    x, low = self.digit_inv[d0] + x, 0
            self.xs[code] = x
            self.lows[code] = low
        return x


def _ratfunc_elements(ctx: SeriesContext, height: int, scale: Fraction, precision: Fraction) -> Iterator[Series]:
    """num / den over the polynomials of degree up to ``height`` in
    t^scale, den-major in base-q code order, one ``_Row`` per den."""
    n_polys = ctx.q ** (height + 1)
    kstep = ctx.grid_k(scale)
    for den_code in range(1, n_polys):
        row = _Row(ctx, den_code, height, kstep, precision)
        for code in range(n_polys):
            yield row.x(code)


def _laurent_exps(height: int) -> List[int]:
    # digit positions ordered 0, 1, -1, 2, -2, ... so that small
    # polynomial elements come first in the enumeration
    exps = [0]
    for k in range(1, height + 1):
        exps += [k, -k]
    return exps


def _laurent_element(ctx: SeriesContext, exps: List[int], code: int) -> Series:
    """The Laurent polynomial whose coefficient at t^exps[i] is base-q
    digit i of ``code``."""
    terms = {}
    for e in exps:
        code, d = divmod(code, ctx.q)
        if d:
            terms[e] = d
    return Series.make(ctx, terms)


def enumerate_elements(K: FieldDesc, height: int) -> List[Series]:
    """Deterministic, monotone-in-height element enumeration: the
    elements of ``element_stream(K, height)``, each listed once, at its
    first occurrence.

    Each call builds a new list; ``listing_index`` indexes it for the
    p-adic presets, and the benchmark's tracer counts it by this name.
    """
    return list(dict.fromkeys(element_stream(K, height)))


class ListingIndex(NamedTuple):
    """The listing ``enumerate_elements(K, height)`` indexed by leading
    term, so that a value-set search finds the first element at each
    value without reading the rest.

    A key names an element, and ``element(key)`` returns it, built once.
    For ``fp_t``, ``pdiv_tower`` and ``laurent`` the keys are the digit
    codes the stream decodes, and leading terms are read off the codes,
    so only the elements asked for are built; the p-adic presets key
    their listing by position.  Every element keeps the ``Series``
    invariant (codes nonzero, grid indices strictly increasing and below
    ``kcap(precision)``), so for an element c whose leading term differs
    from a's, v(a - c) is the lesser of the two leading exponents.

    ``lead_ks`` holds the distinct leading exponents, sorted, and
    ``first_at`` the key of the first element listed at each;
    ``led_by(lead)`` gives the keys of the elements led by the term
    (k0, code) in stream order, where a repeat never precedes its first
    occurrence; ``termless`` holds the keys of the elements without terms.
    """

    lead_ks: List[int]
    first_at: List[Hashable]
    termless: List[Hashable]
    element: Callable[[Hashable], Series]
    led_by: Callable[[Tuple[int, int]], Sequence[Hashable]]


@functools.lru_cache(maxsize=16)
def listing_index(K: FieldDesc, height: int) -> ListingIndex:
    """The ``ListingIndex`` of ``enumerate_elements(K, height)``: the one
    cache of indexes (the 16 most recent (K, height) pairs), which keep
    the elements they built.  A repeated call returns the same index
    object, whose lists callers must not mutate."""
    if height < 0:
        raise ValueError("height must be >= 0")
    ctx = K.ctx
    if K.kind == RATIONAL_FUNCTION:
        return _ratfunc_index(ctx, height, [ctx.D])
    if K.kind == DIRECTED_UNION:
        ksteps = [ctx.grid_k(Fraction(1, ctx.p ** lvl)) for lvl in range(height + 1)]
        return _ratfunc_index(ctx, height, ksteps)
    if K.kind == LAURENT:
        return _laurent_index(ctx, height)
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
    return ListingIndex(lead_ks, [first[k0] for k0 in lead_ks], termless,
                        elements.__getitem__, lambda lead: by_lead.get(lead, ()))


def _ratfunc_index(ctx: SeriesContext, height: int, ksteps: List[int]) -> ListingIndex:
    """The index of the rational-function listing at ``height`` whose
    level lvl lists num / den in t^scale of grid step ksteps[lvl]; the
    key (lvl, den code, num code) names num / den.

    num / den leads with (d_num / d_den) * t^((j_num - j_den) * scale),
    (j, d) the lowest nonzero base-q digit of each code, so those led by
    (m * kstep, c) have j_num = j_den + m and d_num = c * d_den: per den,
    the nums d_num * q^j_num + q^(j_num + 1) * r.  The first element at
    m * kstep on a level is t^m, num t^max(0, m) over den t^max(0, -m)."""
    q, mul = ctx.q, ctx.field.mul
    n_polys = q ** (height + 1)
    precision = Fraction(height + 4)
    rows: Dict[Tuple[int, int], _Row] = {}

    def element(key):
        lvl, den_code, num_code = key
        row = rows.get((lvl, den_code))
        if row is None:
            row = rows[lvl, den_code] = _Row(ctx, den_code, height, ksteps[lvl], precision)
        return row.x(num_code)

    def led_by(lead):
        keys = []
        for lvl, kstep in enumerate(ksteps):
            m, off = divmod(lead[0], kstep)
            if off:
                continue
            for den_code in range(1, n_polys):
                j, d_den = m, den_code  # j = j_den + m
                while not d_den % q:
                    d_den //= q
                    j += 1
                if 0 <= j <= height:
                    low = mul(lead[1], d_den % q) * q ** j
                    keys += [(lvl, den_code, low + high) for high in range(0, n_polys, q ** (j + 1))]
        return keys

    first: Dict[int, Tuple[int, int, int]] = {}
    for lvl, kstep in enumerate(ksteps):
        for m in range(-height, height + 1):
            first.setdefault(m * kstep, (lvl, q ** max(0, -m), q ** max(0, m)))
    lead_ks = sorted(first)
    return ListingIndex(lead_ks, [first[k] for k in lead_ks], [(0, 1, 0)], element, led_by)


def _laurent_index(ctx: SeriesContext, height: int) -> ListingIndex:
    """The index of the Laurent listing at ``height``, keyed by code.  A
    code leads with its lowest exponent e holding a nonzero digit, so the
    codes led by (e, c) hold c at e, zeros below e and any digits above;
    the first is q^i, for i the position of e."""
    q, exps = ctx.q, _laurent_exps(height)
    built: Dict[int, Series] = {}

    def element(code):
        x = built.get(code)
        if x is None:
            x = built[code] = _laurent_element(ctx, exps, code)
        return x

    def led_by(lead):
        e, off = divmod(lead[0], ctx.D)
        if off or e not in exps:
            return []
        keys = [lead[1] * q ** exps.index(e)]
        # the digits above e, lowest position first, so keys stay ascending
        for i, x in enumerate(exps):
            if x > e:
                keys = [k + d * q ** i for d in range(q) for k in keys]
        return keys

    order = sorted(range(len(exps)), key=exps.__getitem__)
    return ListingIndex([exps[i] * ctx.D for i in order], [q ** i for i in order], [0], element, led_by)


def element_stream(K: FieldDesc, height: int) -> Iterator[Series]:
    """The elements of K at ``height``, lazily and with repeats.

    Rational-function shapes list ratios of polynomials of degree up to
    ``height`` (in the deepest generator available at that height);
    Laurent shapes list Laurent polynomials with exponents in
    [-height, height]; p-adic shapes list small rationals and digit
    monomials per tower level.  Zero is always included.

    Infinite expansions (inverted denominators, p-adic digits of
    rationals) are computed to the working precision ``height + 4``.
    ``field`` reads its first six distinct elements at height 1, and so
    builds only the prefix it reads.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    ctx = K.ctx
    precision = Fraction(height + 4)
    if K.kind == RATIONAL_FUNCTION:
        yield from _ratfunc_elements(ctx, height, Fraction(1), precision)
    elif K.kind == LAURENT:
        exps = _laurent_exps(height)
        for code in range(ctx.q ** len(exps)):
            yield _laurent_element(ctx, exps, code)
    elif K.kind == DIRECTED_UNION:
        for lvl in range(height + 1):
            yield from _ratfunc_elements(ctx, height, Fraction(1, ctx.p ** lvl), precision)
    elif K.kind == PADIC_BASE:
        yield from _padic_rationals(ctx, height, precision)
    elif K.kind == PADIC_TOWER:
        yield from _padic_rationals(ctx, height, precision)
        for lvl in range(height + 1):
            scale = Fraction(1, ctx.p ** lvl)
            ctx.grid_k(scale)
            for j in range(-height, height + 1):
                if j == 0:
                    continue
                for c in range(1, ctx.q):
                    yield Series.monomial(ctx, j * scale, c)
    else:
        raise ValueError(f"unknown field kind {K.kind!r}")


def _padic_rationals(ctx: SeriesContext, height: int, precision: Fraction) -> Iterator[Series]:
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
