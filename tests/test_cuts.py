import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from defectlab.certfile import _parse_extrat
from defectlab.cuts import (
    Cut,
    CutEnclosure,
    ExtRat,
    InfinityArithmeticError,
    MINUS_INF,
    PLUS_INF,
    cut_of_sample,
    segment_affine,
)
from defectlab.fields import PRESET_NAMES, preset_field


def q(n, d=1):
    return Fraction(n, d)


def cut_compare(x, y):
    """The order of two cuts as one of less / equal / greater."""
    return "less" if x < y else "greater" if x > y else "equal"


class TestExtRat:
    def test_exact_arithmetic(self):
        a = ExtRat.of(q(1, 3))
        b = ExtRat.of(q(1, 6))
        assert (a + b).fraction == q(1, 2)
        assert (a - b).fraction == q(1, 6)
        assert (a * 3).fraction == 1

    def test_infinities_compare(self):
        assert MINUS_INF < ExtRat.of(q(-10 ** 9)) < PLUS_INF
        assert PLUS_INF + 5 == PLUS_INF
        assert MINUS_INF + q(7, 2) == MINUS_INF

    def test_infinity_hash_and_order_against_ints_and_fractions(self):
        # an infinity's key is (sign, 0), which hashes as (sign, Fraction(0))
        assert hash(PLUS_INF) == hash((1, 0)) == hash((1, Fraction(0)))
        assert hash(MINUS_INF) == hash((-1, 0)) == hash((-1, Fraction(0)))
        assert hash(ExtRat.of(q(2, 3))) == hash((0, q(2, 3)))
        assert len({PLUS_INF, ExtRat(None, 1), MINUS_INF, ExtRat.of(0)}) == 3
        for x in (0, -10 ** 30, 10 ** 30, q(-7, 3), q(10 ** 12, 7)):
            assert MINUS_INF < x < PLUS_INF and MINUS_INF <= x <= PLUS_INF
            assert PLUS_INF > x and not PLUS_INF <= x and not PLUS_INF == x
            assert MINUS_INF < ExtRat.of(x) < PLUS_INF
        assert PLUS_INF == PLUS_INF and PLUS_INF <= PLUS_INF and not PLUS_INF < PLUS_INF
        assert MINUS_INF == MINUS_INF and MINUS_INF >= MINUS_INF and not MINUS_INF > MINUS_INF
        assert MINUS_INF < PLUS_INF and PLUS_INF != MINUS_INF

    def test_inf_minus_inf_errors(self):
        with pytest.raises(InfinityArithmeticError):
            PLUS_INF + MINUS_INF
        with pytest.raises(InfinityArithmeticError):
            PLUS_INF - PLUS_INF

    def test_parse_roundtrip(self):
        for s in ["3/4", "-2/1", "+inf", "-inf"]:
            assert str(_parse_extrat(s)) == s


class TestCutOrder:
    def test_trivial_examples(self):
        assert cut_compare(Cut(ExtRat.of(0), False), Cut(ExtRat.of(0), True)) == "less"
        assert cut_compare(Cut(ExtRat.of(q(1, 2)), True), Cut(ExtRat.of(q(1, 2)), True)) == "equal"
        assert cut_compare(Cut(ExtRat.of(0), False), Cut(MINUS_INF, False)) == "greater"

    def test_infinite_bound_never_attained(self):
        with pytest.raises(ValueError):
            Cut(PLUS_INF, True)

    @given(
        st.fractions(max_denominator=32),
        st.fractions(max_denominator=32),
        st.booleans(),
        st.booleans(),
    )
    def test_order_matches_lower_set_inclusion(self, b1, b2, a1, a2):
        c1, c2 = Cut(ExtRat.of(b1), a1), Cut(ExtRat.of(b2), a2)
        # compare by sampling the lower sets over a common denominator grid
        probe = sorted({b1, b2, b1 - 1, b2 - 1, (b1 + b2) / 2, b1 + 1, b2 + 1})

        def lower(c, x):
            return x <= c.bound.fraction if c.attained else x < c.bound.fraction

        inc12 = all(lower(c2, x) for x in probe if lower(c1, x))
        inc21 = all(lower(c1, x) for x in probe if lower(c2, x))
        rel = cut_compare(c1, c2)
        if rel == "less":
            assert inc12
        elif rel == "greater":
            assert inc21
        else:
            assert inc12 and inc21


class TestSegmentAffine:
    def test_examples(self):
        s = Cut(ExtRat.of(0), False)
        assert segment_affine(s, 1, 0) == s
        s2 = segment_affine(Cut(ExtRat.of(q(1, 2)), True), 2, q(-1, 2))
        assert s2 == Cut(ExtRat.of(q(1, 2)), True)
        assert segment_affine(Cut(ExtRat.of(0), False), 3, -2) == Cut(ExtRat.of(-2), False)

    def test_infinite_alpha_rejected(self):
        with pytest.raises(InfinityArithmeticError):
            segment_affine(Cut(ExtRat.of(0), False), 2, PLUS_INF)

    def test_order_preserving_random(self):
        rng = random.Random(7)
        for _ in range(200):
            b1 = Fraction(rng.randint(-50, 50), rng.randint(1, 8))
            b2 = Fraction(rng.randint(-50, 50), rng.randint(1, 8))
            c1 = Cut(ExtRat.of(b1), rng.random() < 0.5)
            c2 = Cut(ExtRat.of(b2), rng.random() < 0.5)
            n = rng.randint(1, 5)
            alpha = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
            rel_before = cut_compare(c1, c2)
            rel_after = cut_compare(segment_affine(c1, n, alpha), segment_affine(c2, n, alpha))
            assert rel_before == rel_after


class TestCutOfSample:
    def test_examples(self):
        assert cut_of_sample([q(-1), q(-1, 2), q(1, 2)]) == Cut(ExtRat.of(q(1, 2)), True)
        assert cut_of_sample([q(0), q(1), q(2)]) == Cut(ExtRat.of(2), True)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cut_of_sample([])


class TestEnclosure:
    def test_invariant(self):
        lo = Cut(ExtRat.of(0), False)
        hi = Cut(ExtRat.of(0), True)
        assert not CutEnclosure(lo, hi).is_exact
        assert CutEnclosure(lo, lo).is_exact
        with pytest.raises(ValueError):
            CutEnclosure(hi, lo)


def _grid_ks(D, p):
    """Every k with |k| <= 3D for the small grid; for the large one the
    multiples of D/p^i (i <= 16) and their neighbours, plus a seeded
    sample."""
    if D <= p ** 8:
        return range(-3 * D, 3 * D + 1)
    ks = {m * D // p ** i + off for i in range(17) for m in range(-3, 4) for off in (-1, 0, 1)}
    rng = random.Random(D)
    ks.update(rng.randint(-3 * D, 3 * D) for _ in range(3000))
    return sorted(ks)


def _in_value_group(name, p, x):
    """The oracle: x lies in Z, or in Z[1/p] for the two towers, exactly
    when its denominator is 1, or a power of p for the towers."""
    d = Fraction(x).denominator
    while name in ("pdiv_tower", "qp_pdiv_tower") and d % p == 0:
        d //= p
    return d == 1


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("e", [8, 16])
def test_grid_step_matches_contains(p, e):
    D = p ** e
    ks = _grid_ks(D, p)
    for name in PRESET_NAMES:
        step = preset_field(name, p, D=D).grid_step
        bad = [k for k in ks if (k % step == 0) != _in_value_group(name, p, Fraction(k, D))]
        assert not bad, (name, D, step, bad[:5])
