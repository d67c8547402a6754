import pytest

from defectlab.ffield import MAX_Q, FiniteField, find_irreducible, finite_field


def test_prime_field_arithmetic():
    f3 = finite_field(3)
    assert f3.add(2, 2) == 1
    assert f3.mul(2, 2) == 1
    assert f3.inv(2) == 2
    assert f3.neg(1) == 2


def test_field_axioms_small():
    for p, m in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
        f = finite_field(p, m)
        els = list(range(f.q))
        for a in els:
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in els[: min(8, len(els))]:
            for b in els[: min(8, len(els))]:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)


def test_frobenius_bijection_and_inverse():
    for p, m in [(2, 2), (3, 2)]:
        f = finite_field(p, m)
        seen = {f.frob(a) for a in range(f.q)}
        assert seen == set(range(f.q))
        for a in range(f.q):
            assert f.frob(f.ifrob(a)) == a
            assert f.ifrob(f.frob(a)) == a


def test_f4_square_root_of_generator():
    f4 = finite_field(2, 2)
    # codes 2 and 3 are the two generators; the square root is the square
    c = 2
    r = f4.ifrob(c)
    assert f4.mul(r, r) == c
    assert r == f4.mul(c, c)


def test_f9_has_square_root_of_minus_one():
    f9 = finite_field(3, 2)
    minus1 = f9.neg(1)
    roots = [a for a in range(f9.q) if f9.mul(a, a) == minus1]
    assert len(roots) == 2
    f3 = finite_field(3)
    assert all(f3.mul(a, a) != f3.neg(1) for a in range(f3.q))


def test_artin_schreier_roots():
    f2 = finite_field(2)
    assert f2.artin_schreier_roots(0) == [0, 1]
    assert f2.artin_schreier_roots(1) == []
    f4 = finite_field(2, 2)
    img = {f4.sub(f4.frob(x), x) for x in range(f4.q)}
    assert len(img) == 2  # index-p additive subgroup
    for r in img:
        assert len(f4.artin_schreier_roots(r)) == 2


def test_in_prime_field():
    # the prime field is the fixed field of Frobenius
    f9 = finite_field(3, 2)
    primes = [a for a in range(f9.q) if f9.frob(a) == a]
    assert primes == [0, 1, 2]


def test_repr_and_parse():
    f9 = finite_field(3, 2)
    for a in range(f9.q):
        assert f9.parse_code(f9.repr_code(a)) == a
    f3 = finite_field(3)
    assert f3.repr_code(2) == 2


def test_bad_prime_rejected():
    with pytest.raises(ValueError):
        FiniteField(4)


@pytest.mark.parametrize("p, m", [(2, 9), (257, 1), (1000003, 1)])
def test_q_above_max_q_rejected(p, m):
    assert p ** m > MAX_Q
    with pytest.raises(ValueError, match=f"^q = {p}\\^{m} needs m >= 1 and q <= MAX_Q = 256$"):
        FiniteField(p, m)


# find_irreducible(p, m) for each q = p^m <= MAX_Q with m > 1 (m = 1 gives
# X); the modulus fixes every F_q code, and so every certificate byte with m > 1
MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 0, 1),
    (5, 3): (1, 1, 0, 1),
    (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
}


def test_find_irreducible_keeps_every_modulus():
    primes = [p for p in range(2, MAX_Q + 1) if all(p % k for k in range(2, int(p ** 0.5) + 1))]
    got = {(p, m): find_irreducible(p, m)
           for p in primes for m in range(1, 9) if p ** m <= MAX_Q}
    assert len(got) == 70
    assert {pm: f for pm, f in got.items() if pm[1] > 1} == MODULI
    assert all(f == (0, 1) for pm, f in got.items() if pm[1] == 1)
