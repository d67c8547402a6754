"""Finitely described base fields inside the ambient series field.

A FieldDesc pins down a base field K by shape: rational functions F_q(t),
truncated Laurent series F_q((t)), the directed union
F_q(t)(t^(1/p^i) : i >= 1), the p-adic base field, or the p-adic analogue
of the directed union.  The description carries the value group, a
certified support lattice (every element's expansion is supported
there), and structural flags used by one-sided certificates:
``leveled`` means each single element lives at some finite denominator
level even though the union is deep, ``perfect`` and ``complete`` record
facts provable from the shape.

Elements are enumerated deterministically and monotonically in a height
parameter; witnesses found this way are stored in certificates and can be
re-checked without repeating the search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional

from .cuts import ExtRat, PLUS_INF, ValueGroupDesc
from .series import (
    EQUAL,
    Series,
    SeriesContext,
    invert,
    make_equal_context,
    make_mixed_context,
)

RATIONAL_FUNCTION = "rational_function"
LAURENT = "laurent"
DIRECTED_UNION = "directed_union"
PADIC_BASE = "padic_base"
PADIC_TOWER = "padic_tower"

PRESET_NAMES = ("fp_t", "laurent", "pdiv_tower", "qp", "qp_pdiv_tower")


class BudgetTooSmall(RuntimeError):
    """The enumeration at this budget lists too few elements of the kind
    a construction needs; a larger budget may succeed."""


@dataclass(frozen=True)
class FieldDesc:
    kind: str
    name: str
    ctx: SeriesContext
    value_group: ValueGroupDesc
    support_lattice: Optional[ValueGroupDesc]
    leveled: bool
    perfect: bool
    complete: bool

    @property
    def residue_q(self) -> int:
        return self.ctx.q

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "ctx": self.ctx.to_json(),
            "value_group": self.value_group.to_json(),
            "support_lattice": self.support_lattice.to_json() if self.support_lattice else None,
            "leveled": self.leveled,
            "perfect": self.perfect,
            "complete": self.complete,
            "level": 0,  # schema v1 field, always 0 for the preset shapes
        }


def preset_field(name: str, p: int, m: int = 1, D: Optional[int] = None) -> FieldDesc:
    """One of the built-in laboratory fields, by preset name."""
    if name == "fp_t":
        ctx = make_equal_context(p, m, D)
        z = ValueGroupDesc((Fraction(1),))
        return FieldDesc(RATIONAL_FUNCTION, name, ctx, z, z, False, False, False)
    if name == "laurent":
        ctx = make_equal_context(p, m, D)
        z = ValueGroupDesc((Fraction(1),))
        return FieldDesc(LAURENT, name, ctx, z, z, False, False, True)
    if name == "pdiv_tower":
        ctx = make_equal_context(p, m, D)
        g = ValueGroupDesc((Fraction(1),), True, p)
        return FieldDesc(DIRECTED_UNION, name, ctx, g, g, True, True, False)
    if name == "qp":
        ctx = make_mixed_context(p, m, D)
        z = ValueGroupDesc((Fraction(1),))
        return FieldDesc(PADIC_BASE, name, ctx, z, z, False, False, True)
    if name == "qp_pdiv_tower":
        ctx = make_mixed_context(p, m, D)
        g = ValueGroupDesc((Fraction(1),), True, p)
        return FieldDesc(PADIC_TOWER, name, ctx, g, g, True, False, False)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def field_from_json(obj: dict) -> FieldDesc:
    ctx_obj = obj["ctx"]
    if ctx_obj["mode"] == EQUAL:
        ctx = make_equal_context(ctx_obj["p"], ctx_obj["m"], ctx_obj["D"])
    else:
        ctx = make_mixed_context(ctx_obj["p"], ctx_obj["m"], ctx_obj["D"])
    return FieldDesc(
        obj["kind"],
        obj["name"],
        ctx,
        ValueGroupDesc.from_json(obj["value_group"]),
        ValueGroupDesc.from_json(obj["support_lattice"]) if obj["support_lattice"] else None,
        bool(obj["leveled"]),
        bool(obj["perfect"]),
        bool(obj["complete"]),
    )


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
    return Series(ctx, tuple(terms), PLUS_INF)


def _ratfunc_elements(ctx: SeriesContext, height: int, scale: Fraction, precision: ExtRat) -> Iterator[Series]:
    q = ctx.q
    n_polys = q ** (height + 1)
    kstep = ctx.grid_k(scale)
    for den_code in range(1, n_polys):
        den = _poly_series(ctx, den_code, height, kstep)
        if den.is_zero:
            continue
        is_one = den.kterms == ((0, 1),)
        den_inv = None
        if not is_one:
            vden = den.valuation().fraction
            den_inv = invert(den, ExtRat.of(precision.fraction + 2 * vden + 1))
        for num_code in range(n_polys):
            num = _poly_series(ctx, num_code, height, kstep)
            if num.is_zero or is_one:
                yield num
                continue
            yield num * den_inv


@functools.lru_cache(maxsize=16)
def enumerate_elements(K: FieldDesc, height: int) -> List[Series]:
    """Deterministic, monotone-in-height element enumeration.

    Rational-function shapes list ratios of polynomials of degree up to
    ``height`` (in the deepest generator available at that height);
    Laurent shapes list Laurent polynomials with exponents in
    [-height, height]; p-adic shapes list small rationals and digit
    monomials per tower level.  Zero is always included, and each
    element is listed once, at its first occurrence in that order.

    Infinite expansions (inverted denominators, p-adic digits of
    rationals) are computed to the working precision ``height + 4``.
    Results are cached (the 16 most recent (K, height) pairs); a
    repeated call returns the same list object, which callers must not
    mutate.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    ctx = K.ctx
    precision = ExtRat.of(Fraction(height + 4))
    out: List[Series] = []
    if K.kind == RATIONAL_FUNCTION:
        out.extend(_ratfunc_elements(ctx, height, Fraction(1), precision))
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
            out.append(Series.make(ctx, terms))
    elif K.kind == DIRECTED_UNION:
        for lvl in range(height + 1):
            out.extend(_ratfunc_elements(ctx, height, Fraction(1, ctx.p ** lvl), precision))
    elif K.kind == PADIC_BASE:
        out.extend(_padic_rationals(ctx, height, precision))
    elif K.kind == PADIC_TOWER:
        out.extend(_padic_rationals(ctx, height, precision))
        for lvl in range(height + 1):
            scale = Fraction(1, ctx.p ** lvl)
            ctx.check_exponent(scale)
            for j in range(-height, height + 1):
                if j == 0:
                    continue
                for c in range(1, ctx.q):
                    out.append(Series.monomial(ctx, j * scale, c))
    else:
        raise ValueError(f"unknown field kind {K.kind!r}")
    return list(dict.fromkeys(out))


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
    when k is a multiple of its ``grid_step(D)``.
    """
    if K.support_lattice is None:
        return False
    step = K.support_lattice.grid_step(s.ctx.D)
    return all(k % step == 0 for k, _ in s.kterms)
