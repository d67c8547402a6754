import pytest

from defectlab.ffield import FiniteField, finite_field


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
    f9 = finite_field(3, 2)
    primes = [a for a in range(f9.q) if f9.in_prime_field(a)]
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
