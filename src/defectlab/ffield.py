"""Small finite fields F_q, q = p^m, with table-driven arithmetic.

Elements are integer codes 0..q-1: the code is the base-p encoding of the
coefficient vector of a residue polynomial modulo a fixed irreducible
monic modulus (for m = 1 the code is just the canonical residue).  All
fields used here are tiny, so full operation tables are precomputed once
per field.  The modulus is the lexicographically first irreducible monic
polynomial of the requested degree, which keeps sessions reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple


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
    deg = len(poly) - 1
    if deg == 1:
        return True
    # no roots
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    # trial division by monic polynomials of degree 2..deg//2
    for d in range(2, deg // 2 + 1):
        for code in range(p ** d):
            div = [code // (p ** i) % p for i in range(d)] + [1]
            if _poly_divides(div, poly, p):
                return False
    return True


def _poly_divides(div: Sequence[int], poly: Sequence[int], p: int) -> bool:
    rem = list(poly)
    dd = len(div) - 1
    inv_lead = pow(div[-1], -1, p)
    while len(rem) - 1 >= dd:
        c = rem[-1] * inv_lead % p
        if c:
            for j in range(dd + 1):
                rem[len(rem) - 1 - dd + j] = (rem[len(rem) - 1 - dd + j] - c * div[j]) % p
        rem.pop()
        while rem and rem[-1] == 0 and len(rem) - 1 >= dd:
            rem.pop()
    return all(c == 0 for c in rem)


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
        if p < 2 or any(p % k == 0 for k in range(2, int(p ** 0.5) + 1)):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError("m must be >= 1")
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

    def from_int(self, n: int) -> int:
        """Image of an ordinary integer in the prime subfield."""
        return n % self.p

    def in_prime_field(self, a: int) -> bool:
        return self._frob[a] == a

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
        if isinstance(obj, int):
            if self.m != 1 and obj >= self.p:
                raise ValueError("extension field elements need coordinates")
            return obj % self.q if self.m == 1 else obj
        cs = list(obj)
        if len(cs) != self.m:
            raise ValueError("bad coordinate length")
        return sum((c % self.p) * self.p ** i for i, c in enumerate(cs))

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FiniteField(p={self.p}, m={self.m})"


@lru_cache(maxsize=None)
def finite_field(p: int, m: int = 1) -> FiniteField:
    return FiniteField(p, m)
