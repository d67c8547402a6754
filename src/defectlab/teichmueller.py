"""Teichmueller digits of the mixed (p-adic) ambient.

A digit code c at exponent e stands for tau(c) * p^e, tau the
multiplicative (Teichmueller) lift.  For the prime field the lift of c is
the (p-1)-th root of unity congruent to c, computed modulo p^(k+1) as
c^(p^k).  For F_{p^m} the same iteration runs in the unramified ring
(Z/p^N)[y]/(G), G the integer lift of the field modulus.  Exponents are
grid numerators k (exponent k/D) of a ``series.SeriesContext``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .ffield import _poly_mul_mod
from .series import PrecisionError, SeriesContext


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


def _set_bits(u: int, k0: int, D: int, out: List[Tuple[int, int]]) -> None:
    """Append the 2-adic digits of the int ``u >= 0``, its set bits, as
    (k0 + i*D, 1) for each set bit i."""
    while u:
        low = u & -u
        out.append((k0 + (low.bit_length() - 1) * D, 1))
        u ^= low


def digits(ctx: SeriesContext, u, k0: int, n: Optional[int]) -> List[Tuple[int, int]]:
    """The canonical Teichmueller digits of the p-adic integer ``u``, the
    i-th at k0 + i*D (exponent k0/D + i), as sorted (k, code) pairs.

    With a digit count ``n``, ``u`` need only be right modulo p^n: an int,
    or for m > 1 a coefficient list in the unramified ring.  The remainder
    is kept reduced, so the walk stops once the remaining digits are zero.
    With ``n`` None the expansion is exact (an int, p in {2, 3}, lifts
    ``EXACT_LIFTS``): the balanced lifts for p = 3 shrink |u| to 0, and
    for p = 2 a negative u never reaches 0 and is refused.  For an int at
    p = 2 the lifts are 0 and 1, so the digits are the set bits of u
    (modulo 2^n).
    """
    p, D = ctx.p, ctx.D
    out: List[Tuple[int, int]] = []
    i = 0
    if isinstance(u, int):
        if p == 2:
            if n is not None:
                u &= (1 << n) - 1
            elif u < 0:
                raise PrecisionError(
                    "negative values have non-terminating 2-adic expansions; "
                    "pass a finite precision"
                )
            _set_bits(u, k0, D, out)
            return out
        mod = None if n is None else p ** n
        while u:
            d = u % p
            if d:
                out.append((k0 + i * D, d))
                u -= EXACT_LIFTS[p][d] if n is None else tau_int(p, d, n - 1)
            i += 1
            u //= p
            if mod is not None:
                mod //= p
                u %= mod
        return out
    modulus = ctx.field.modulus
    mod = p ** n
    while any(u):
        d = 0  # the code of u mod p
        for x in reversed(u):
            d = d * p + x % p
        mod //= p
        if d:
            out.append((k0 + i * D, d))
            tau = tau_poly(p, ctx.m, modulus, d, n - 1)
            u = [(x - y) // p % mod for x, y in zip(u, tau)]
        else:
            u = [x // p % mod for x in u]
        i += 1
    return out


def normalize(
    ctx: SeriesContext,
    parts: Iterable[Tuple[int, int, int]],
    kcap,
) -> Tuple[Tuple[int, int], ...]:
    """Normalize signed Teichmueller contributions into canonical digits,
    as sorted (k, code) terms below the precision kcap/D, a grid index
    (``math.inf`` for an exact sum).  ``Series`` calls it for the classes
    both summands hold, for differences and for products of two series of
    several terms each; elsewhere the digits are already canonical.

    ``parts`` yields (k, digit code, sign).  Signs other than +1 are folded
    into the code for odd p (where -tau(c) = tau(-c) exactly); for p = 2
    they stay on the integer lifts.  Only exponents in one class mod 1
    (k mod D) carry into each other, so one pass over the parts keeps, per
    class, the least k // D seen (fl0) and the ring element
    ``acc = sum sign * tau(code) * p^(k // D - fl0)``: an int for m = 1, a
    coefficient list for m > 1.  A part below fl0 first rescales acc by a
    power of p.  Below the precision only p^n matters, n the class's digit
    count, so a part at k is lifted modulo p^ceil((kcap - k) / D) alone.
    Each class's ``digits`` are then read off once (for p = 2, m = 1 below
    the precision, directly as the set bits of acc mod 2^n); a class whose
    only part is a positive digit is already canonical.  With infinite
    precision the sum must be exact, which needs m = 1 and p in {2, 3};
    otherwise terms are merged only where no carry arises.
    """
    fld = ctx.field
    p, D, m = ctx.p, ctx.D, ctx.m
    exact = kcap == math.inf
    if exact and not (m == 1 and p in EXACT_LIFTS):
        merged: Dict[int, int] = {}
        for k, code, sign in parts:
            if code == 0:
                continue
            if p != 2 and sign < 0:
                code, sign = fld.neg(code), 1
            if sign < 0 or k in merged:
                raise PrecisionError(
                    "exact (infinite-precision) digit carries are only "
                    "available for prime fields with p in {2, 3}; pass a "
                    "finite precision"
                )
            merged[k] = code
        return tuple(sorted(merged.items()))

    # k mod D -> [fl0, acc, code of the class's only part while it is
    # positive, else 0]
    classes: Dict[int, list] = {}
    fold, binary = p != 2, p == 2 and m == 1
    for k, code, sign in parts:
        if code == 0 or k >= kcap:
            continue
        if fold and sign < 0:
            code, sign = fld.neg(code), 1
        # sign * tau(code), needed only modulo p^ceil((kcap - k) / D)
        if binary:
            term = sign
        elif m > 1:
            term = tau_poly(p, m, fld.modulus, code, (kcap - k - 1) // D)
            if sign < 0:
                term = [-y for y in term]
        elif exact:
            term = EXACT_LIFTS[p][code]
        else:
            term = tau_int(p, code, (kcap - k - 1) // D)
        fl, r = k // D, k % D
        rec = classes.get(r)
        if rec is None:
            classes[r] = [fl, term, code if sign > 0 else 0]
            continue
        rec[2] = 0
        shift = fl - rec[0]
        if shift >= 0:
            s = p ** shift
            rec[1] = rec[1] + s * term if m == 1 else [x + s * y for x, y in zip(rec[1], term)]
        else:
            # a lower exponent: rescale the total to it
            s = p ** -shift
            rec[0] = fl
            rec[1] = rec[1] * s + term if m == 1 else [x * s + y for x, y in zip(rec[1], term)]

    out = []
    for r, (fl0, acc, lone) in classes.items():
        k0 = r + fl0 * D
        if lone:
            out.append((k0, lone))
        elif binary and not exact:
            # the set bits of acc mod 2^n, n = ceil((kcap - k0) / D)
            _set_bits(acc & ((1 << -((k0 - kcap) // D)) - 1), k0, D, out)
        else:
            # digits k0 + i*D below kcap, i.e. i < ceil((kcap - k0) / D)
            out.extend(digits(ctx, acc, k0, None if exact else -((k0 - kcap) // D)))
    out.sort()
    return tuple(out)
