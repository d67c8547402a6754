"""Small finite fields F_q, q = p^m, with table-driven arithmetic.

Elements are integer codes 0..q-1: the code is the base-p encoding of the
coefficient vector of a residue polynomial modulo a fixed irreducible
monic modulus (for m = 1 the code is just the canonical residue).  Full
q x q tables are built once per field, so q above ``MAX_Q`` is refused.
The modulus is the lexicographically first irreducible monic polynomial
of the requested degree, which keeps sessions reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

MAX_Q = 256  # q = 256 builds its tables in under a second


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> Tuple[int, ...]:
    """a * b reduced by the monic ``modulus`` and with coefficients mod
    ``p``: a prime for F_q, a prime power for the unramified ring."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce modulo the monic modulus
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c == 0:
            continue
        prod[i] = 0
        for j in range(m + 1):
            prod[i - m + j] = (prod[i - m + j] - c * modulus[j]) % p
    out = prod[:m]
    out += [0] * (m - len(out))
    return tuple(out)


def _poly_is_irreducible(poly: Sequence[int], p: int) -> bool:
    # trial division by every monic polynomial of degree 1..deg//2; the
    # degree-1 divisors are the roots
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            div = [code // (p ** i) % p for i in range(d)] + [1]
            if _poly_divides(div, poly, p):
                return False
    return True


def _poly_divides(div: Sequence[int], poly: Sequence[int], p: int) -> bool:
    """Whether the monic ``div`` divides ``poly`` over F_p."""
    rem = list(poly)
    dd = len(div) - 1
    while len(rem) > dd:
        # the leading term cancels against c * X^top * div
        c = rem.pop()
        top = len(rem) - dd
        for j in range(dd):
            rem[top + j] = (rem[top + j] - c * div[j]) % p
    return not any(rem)


def find_irreducible(p: int, m: int) -> Tuple[int, ...]:
    """Lexicographically first monic irreducible of degree m over F_p."""
    if m == 1:
        return (0, 1)
    for code in range(p ** m):
        poly = tuple(code // (p ** i) % p for i in range(m)) + (1,)
        if _poly_is_irreducible(poly, p):
            return poly
    raise RuntimeError("no irreducible polynomial found")


class FiniteField:
    """F_{p^m} with element codes 0..q-1 and precomputed tables."""

    def __init__(self, p: int, m: int = 1):
        if m < 1 or p ** m > MAX_Q:
            raise ValueError(f"q = {p}^{m} needs m >= 1 and q <= MAX_Q = {MAX_Q}")
        if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"p = {p} is not prime")
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = find_irreducible(p, m)
        self._build_tables()

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        coeffs = [tuple(code // (p ** i) % p for i in range(m)) for code in range(q)]
        self._coeffs = coeffs

        def enc(cs: Sequence[int]) -> int:
            return sum(c * p ** i for i, c in enumerate(cs))

        self._add = [[enc([(a[i] + b[i]) % p for i in range(m)]) for b in coeffs] for a in coeffs]
        self._neg = [enc([(-a[i]) % p for i in range(m)]) for a in coeffs]
        self._mul = [[enc(_poly_mul_mod(a, b, self.modulus, p)) for b in coeffs] for a in coeffs]
        self._inv: List[Optional[int]] = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break
        self._frob = [self.pow_(a, p) for a in range(q)]
        # Frobenius is a bijection; invert it
        self._ifrob = [0] * q
        for a in range(q):
            self._ifrob[self._frob[a]] = a

    # --- basic operations on codes ---

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        r = self._inv[a]
        assert r is not None
        return r

    def pow_(self, a: int, n: int) -> int:
        """a^n for n >= 0."""
        r, base = 1, a
        while n:
            if n & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            n >>= 1
        return r

    def frob(self, a: int) -> int:
        """x -> x^p."""
        return self._frob[a]

    def ifrob(self, a: int) -> int:
        """The inverse of Frobenius: the unique p-th root."""
        return self._ifrob[a]

    def artin_schreier_roots(self, r: int) -> List[int]:
        """Solutions of x^p - x = r in F_q (possibly empty)."""
        return [x for x in range(self.q) if self.sub(self._frob[x], x) == r]

    def roots_of(self, coeffs: Sequence[int]) -> List[int]:
        """All roots in F_q of sum coeffs[i] X^i, by enumeration."""
        out = []
        for x in range(self.q):
            acc = 0
            for c in reversed(coeffs):
                acc = self.add(self.mul(acc, x), c)
            if acc == 0:
                out.append(x)
        return out

    def repr_code(self, a: int):
        """JSON form: plain int for prime fields, coefficient list otherwise."""
        if self.m == 1:
            return a
        return list(self._coeffs[a])

    def parse_code(self, obj) -> int:
        """The code of a coefficient list, ``repr_code``'s form when m > 1."""
        cs = list(obj)
        if len(cs) != self.m:
            raise ValueError("bad coordinate length")
        return sum((c % self.p) * self.p ** i for i, c in enumerate(cs))


@lru_cache(maxsize=None)
def finite_field(p: int, m: int = 1) -> FiniteField:
    return FiniteField(p, m)
