from fractions import Fraction

import pytest

from defectlab.fields import (
    PRESET_NAMES,
    enumerate_elements,
    member_witness,
    preset_field,
)
from defectlab.certfile import _field_to_json, field_from_json
from defectlab.series import Series
from defectlab.cuts import ExtRat


def q(n, d=1):
    return Fraction(n, d)


def test_fp_t_height_one_contains_basics():
    K = preset_field("fp_t", 2)
    els = enumerate_elements(K, 1)
    ctx = K.ctx
    t = Series.monomial(ctx, 1)
    one = Series.one(ctx)
    expected = [Series.zero(ctx), one, t, one + t]
    for e in expected:
        assert any(x.terms == e.terms for x in els)
    # 1/t and 1/(1+t) appear as truncations
    inv_t = next(x for x in els if x.terms and x.terms[0][0] == q(-1))
    assert inv_t.terms == ((q(-1), 1),)
    geo = next(x for x in els if len(x.terms) > 2 and x.terms[0][0] == 0)
    assert geo.terms[:3] == ((q(0), 1), (q(1), 1), (q(2), 1))


def test_enumeration_monotone_in_height():
    # each height computes to its own precision, so compare the elements
    # truncated to one that every listed element reaches
    K = preset_field("fp_t", 2)
    prec = ExtRat.of(q(6))
    low, high = enumerate_elements(K, 1), enumerate_elements(K, 2)
    assert all(x.precision >= prec for x in low + high)
    small = {x.truncate(prec).terms for x in low}
    big = {x.truncate(prec).terms for x in high}
    assert small <= big


def test_pdiv_tower_contains_roots():
    K = preset_field("pdiv_tower", 2)
    els = enumerate_elements(K, 2)
    assert any(x.terms == ((q(1, 2), 1),) for x in els)
    assert any(x.terms == ((q(1, 4), 1),) for x in els)


def test_laurent_small_elements_first():
    K = preset_field("laurent", 2)
    els = enumerate_elements(K, 2)
    nonzero = [x for x in els if not x.is_zero]
    assert nonzero[0].terms == ((q(0), 1),)
    assert nonzero[1].terms == ((q(1), 1),)


def test_qp_enumeration_contains_small_rationals():
    K = preset_field("qp", 2)
    els = enumerate_elements(K, 2)
    ctx = K.ctx
    three = Series.from_int(ctx, 3)
    assert any(x.terms[: len(three.terms)] == three.terms for x in els if x.terms)
    # 1/3 must appear as a digit series
    third = Series.from_rational(ctx, q(1, 3), ExtRat.of(q(6)))
    assert any(x.terms[:3] == third.terms[:3] for x in els if len(x.terms) >= 3)


def test_qp_tower_monomials():
    K = preset_field("qp_pdiv_tower", 2)
    els = enumerate_elements(K, 3)
    assert any(x.terms == ((q(-1, 8), 1),) for x in els)


def test_member_witness():
    K = preset_field("fp_t", 2)
    ctx = K.ctx
    assert member_witness(K, Series.monomial(ctx, 3))
    assert not member_witness(K, Series.monomial(ctx, q(1, 2)))
    # a session bound with a factor of 3 admits exponents outside the tower
    T = preset_field("pdiv_tower", 2, D=3 * 2 ** 8)
    assert member_witness(T, Series.monomial(T.ctx, q(3, 8)))
    assert not member_witness(T, Series.monomial(T.ctx, q(1, 3)))


def _denominator_in(name, d):
    while name in ("pdiv_tower", "qp_pdiv_tower") and d % 2 == 0:
        d //= 2
    return d == 1


def test_enumerated_supports_lie_in_lattice():
    for name in ("fp_t", "laurent", "pdiv_tower", "qp", "qp_pdiv_tower"):
        K = preset_field(name, 2)
        for el in enumerate_elements(K, 2):
            # Z, or Z[1/2] for the towers
            assert all(_denominator_in(name, e.denominator) for e, _ in el.terms), (name, el)


def test_json_roundtrip():
    for name in ("fp_t", "laurent", "pdiv_tower", "qp", "qp_pdiv_tower"):
        K = preset_field(name, 2)
        assert field_from_json(_field_to_json(K), "field") == K


def test_bad_preset():
    with pytest.raises(ValueError):
        preset_field("nope", 2)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_enumeration_lists_each_element_once(name):
    els = enumerate_elements(preset_field(name, 2), 2)
    assert len(set(els)) == len(els)
    assert any(x.is_zero for x in els)


_LISTINGS = [(name, p, 1, h) for name in PRESET_NAMES for p in (2, 3) for h in (1, 2, 3)]
_LISTINGS += [(name, 2, 2, h) for name in PRESET_NAMES for h in (1, 2)]


@pytest.mark.parametrize("name, p, m, height", _LISTINGS)
def test_listed_elements_keep_the_series_invariant(name, p, m, height):
    # value_set's listing index reads v(a - c) off the leading terms,
    # which is exact only under this invariant
    K = preset_field(name, p, m)
    for c in enumerate_elements(K, height):
        ks = [k for k, _ in c.kterms]
        assert all(x < y for x, y in zip(ks, ks[1:])), c.kterms
        assert all(code for _, code in c.kterms), c.kterms
        assert all(k < K.ctx.kcap(c.precision) for k in ks), (c.kterms, c.precision)
