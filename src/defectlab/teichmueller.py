"""Teichmueller digits of the mixed (p-adic) ambient.

A digit code c at exponent e stands for tau(c) * p^e, tau the
multiplicative (Teichmueller) lift.  For the prime field the lift of c is
the (p-1)-th root of unity congruent to c, computed modulo p^(k+1) as
c^(p^k).  For F_{p^m} the same iteration runs in the unramified ring
(Z/p^N)[y]/(G), G the integer lift of the field modulus.  Exponents are
grid numerators k (exponent k/D) of a ``series.SeriesContext``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from .cuts import ExtRat
from .ffield import _poly_mul_mod

if TYPE_CHECKING:
    from .series import SeriesContext


def _precision_error(msg: str) -> ArithmeticError:
    # series imports this module, so its error class is looked up on use
    from .series import PrecisionError

    return PrecisionError(msg)


@lru_cache(maxsize=None)
def tau_int(p: int, c: int, k: int) -> int:
    return pow(c, p ** k, p ** (k + 1))


EXACT_LIFTS = {2: {0: 0, 1: 1}, 3: {0: 0, 1: 1, 2: -1}}


@lru_cache(maxsize=None)
def tau_poly(p: int, m: int, modulus: Tuple[int, ...], code: int, k: int) -> Tuple[int, ...]:
    """Teichmueller lift of a digit of F_{p^m}, modulo p^(k+1), as a
    coefficient tuple in the unramified ring."""
    pk1 = p ** (k + 1)
    x = tuple(code // (p ** i) % p for i in range(m))
    acc = x
    for _ in range(k * m):
        # raise to the p-th power
        out = (1,) + (0,) * (m - 1)
        e = p
        base = acc
        while e:
            if e & 1:
                out = _poly_mul_mod(out, base, modulus, pk1)
            base = _poly_mul_mod(base, base, modulus, pk1)
            e >>= 1
        acc = out
    return acc


def digits(ctx: SeriesContext, u, k0: int, n: Optional[int]) -> List[Tuple[int, int]]:
    """The canonical Teichmueller digits of the p-adic integer ``u``, the
    i-th at k0 + i*D (exponent k0/D + i), as sorted (k, code) pairs.

    With a digit count ``n``, ``u`` need only be right modulo p^n: an int,
    or for m > 1 a coefficient list in the unramified ring.  The remainder
    is kept reduced, so the walk stops once the remaining digits are zero.
    With ``n`` None the expansion is exact (an int, p in {2, 3}, lifts
    ``EXACT_LIFTS``): the balanced lifts for p = 3 shrink |u| to 0, and
    for p = 2 a negative u never reaches 0 and is refused.
    """
    p, D = ctx.p, ctx.D
    out: List[Tuple[int, int]] = []
    i = 0
    if isinstance(u, int):
        if n is None and p == 2 and u < 0:
            raise _precision_error(
                "negative values have non-terminating 2-adic expansions; "
                "pass a finite precision"
            )
        while u:
            d = u % p
            if d:
                out.append((k0 + i * D, d))
                u -= EXACT_LIFTS[p][d] if n is None else tau_int(p, d, n - 1)
            i += 1
            u //= p
            if n is not None:
                u %= p ** (n - i)
        return out
    fld = ctx.field
    while any(u):
        d = fld.parse_code(u)
        if d:
            out.append((k0 + i * D, d))
            u = [x - y for x, y in zip(u, tau_poly(p, ctx.m, fld.modulus, d, n - 1))]
        i += 1
        mod = p ** (n - i)
        u = [x // p % mod for x in u]
    return out


def normalize(
    ctx: SeriesContext,
    parts: Iterable[Tuple[int, int, int]],
    precision: ExtRat,
) -> Tuple[Tuple[int, int], ...]:
    """Normalize signed Teichmueller contributions into canonical digits,
    as sorted (k, code) terms.

    ``parts`` yields (k, digit code, sign).  Signs other than +1 are folded
    into the code for odd p (where -tau(c) = tau(-c) exactly); for p = 2
    they stay on the integer lifts.  Only exponents in one class mod 1
    (k mod D) carry into each other: per class, ``sum sign * tau(code) *
    p^((k - k0)/D)`` (k0 the least numerator) is one ring element, whose
    ``digits`` are read off once, up to ``precision``.  With infinite
    precision that sum must be exact, which needs m = 1 and p in {2, 3};
    otherwise terms are merged only where no carry arises.
    """
    fld = ctx.field
    p, D = ctx.p, ctx.D
    exact = not precision.is_finite
    merge_only = exact and not (ctx.m == 1 and p in EXACT_LIFTS)
    kcap = ctx.kcap(precision)
    merged: Dict[int, int] = {}
    # k mod D -> [(k // D, code, sign)]
    classes: Dict[int, List[Tuple[int, int, int]]] = {}
    for k, code, sign in parts:
        if code == 0 or k >= kcap:
            continue
        if p != 2 and sign < 0:
            code, sign = fld.neg(code), 1
        if merge_only:
            if sign < 0 or k in merged:
                raise _precision_error(
                    "exact (infinite-precision) digit carries are only "
                    "available for prime fields with p in {2, 3}; pass a "
                    "finite precision"
                )
            merged[k] = code
        else:
            fl, r = divmod(k, D)
            classes.setdefault(r, []).append((fl, code, sign))

    out = list(merged.items())
    for r, group in classes.items():
        if len(group) == 1 and group[0][2] > 0:
            # a lone Teichmueller digit is already canonical
            fl, code, _ = group[0]
            out.append((r + fl * D, code))
            continue
        fl0 = min(fl for fl, _, _ in group)
        k0 = r + fl0 * D
        if exact:
            n = None
            total = sum(sign * EXACT_LIFTS[p][code] * p ** (fl - fl0) for fl, code, sign in group)
        else:
            # digits k0 + i*D below kcap, i.e. i < ceil((kcap - k0) / D)
            n = -((k0 - kcap) // D)
            if ctx.m == 1:
                total = sum(sign * p ** (fl - fl0) * tau_int(p, code, n - 1) for fl, code, sign in group)
            else:
                total = [0] * ctx.m
                for fl, code, sign in group:
                    s = sign * p ** (fl - fl0)
                    tau = tau_poly(p, ctx.m, fld.modulus, code, n - 1)
                    total = [x + s * y for x, y in zip(total, tau)]
        out.extend(digits(ctx, total, k0, n))
    out.sort()
    return tuple(out)
