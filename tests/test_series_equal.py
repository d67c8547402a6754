import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.cuts import ExtRat, PLUS_INF
from defectlab.series import (
    EQUAL,
    DenominatorBoundError,
    Series,
    invert,
    make_context,
    newton_root,
    pth_root,
)


def q(n, d=1):
    return Fraction(n, d)


CTX2 = make_context(EQUAL, 2)
CTX3 = make_context(EQUAL, 3)


def mono(ctx, e, c=1):
    return Series.monomial(ctx, q(*e) if isinstance(e, tuple) else q(e), c)


def test_char2_cancellation():
    a = Series.make(CTX2, {q(1, 2): 1, q(1): 1})
    b = mono(CTX2, 1)
    assert (a + b).terms == ((q(1, 2), 1),)


def test_freshman_dream():
    a = Series.one(CTX2) + mono(CTX2, (1, 2))
    assert (a * a).terms == ((q(0), 1), (q(1), 1))


def test_random_ultrametric_laws():
    rng = random.Random(5)
    for ctx in (CTX2, CTX3):
        for _ in range(80):
            def rand_series():
                n = rng.randint(1, 5)
                terms = {}
                for _ in range(n):
                    e = Fraction(rng.randint(-8, 8), rng.choice([1, 1, ctx.p, ctx.p ** 2]))
                    terms[e] = rng.randint(1, ctx.p - 1)
                return Series.make(ctx, terms)

            a, b = rand_series(), rand_series()
            va, vb = a.valuation(), b.valuation()
            prod = a * b
            assert prod.valuation() == va + vb
            s = a + b
            if not s.is_zero:
                assert s.valuation() >= min(va, vb)
                if va != vb:
                    assert s.valuation() == min(va, vb)


def test_frobenius_additive():
    rng = random.Random(9)
    for _ in range(50):
        terms_a = {Fraction(rng.randint(-6, 6), 3): rng.randint(1, 2) for _ in range(3)}
        terms_b = {Fraction(rng.randint(-6, 6), 3): rng.randint(1, 2) for _ in range(3)}
        a = Series.make(CTX3, terms_a)
        b = Series.make(CTX3, terms_b)
        assert (a + b).pow_int(3) == a.pow_int(3) + b.pow_int(3)


def test_pth_root_examples():
    assert pth_root(mono(CTX2, 1)).terms == ((q(1, 2), 1),)
    a = Series.make(CTX2, {q(2): 1, q(1): 1})
    r = pth_root(a)
    assert r * r == a

    ctx4 = make_context(EQUAL, 2, 2)
    c = 2  # a generator of F_4
    a4 = Series.monomial(ctx4, q(1), c)
    r4 = pth_root(a4)
    assert r4 * r4 == a4
    assert r4.leading_coeff() == ctx4.field.mul(c, c)


def test_rationals_are_refused_in_equal_mode():
    # Q does not embed in characteristic p; only the mixed ambient has from_rational
    with pytest.raises(ValueError, match="mixed-characteristic ambient"):
        Series.from_rational(CTX3, q(1, 2))
    with pytest.raises(ValueError, match="mixed-characteristic ambient"):
        Series.from_int(CTX2, 3)


def test_pth_root_respects_D_bound():
    ctx = make_context(EQUAL, 2, 1, D=4)
    deep = Series.monomial(ctx, q(1, 4))
    with pytest.raises(DenominatorBoundError):
        pth_root(deep)


def test_invert_monomial_exact():
    s = invert(mono(CTX2, 1), ExtRat.of(q(5)))
    assert s.terms == ((q(-1), 1),)


def test_invert_geometric():
    a = Series.one(CTX2) + mono(CTX2, 1)
    s = invert(a, ExtRat.of(q(3)))
    assert s.terms == ((q(0), 1), (q(1), 1), (q(2), 1))
    prod = a * s
    assert prod.kterms[0] == (0, 1)
    assert all(e >= 3 for e, _ in prod.terms if e != 0)


def test_invert_random_contract():
    rng = random.Random(13)
    for _ in range(40):
        terms = {Fraction(rng.randint(-4, 4), rng.choice([1, 3])): rng.randint(1, 2)
                 for _ in range(rng.randint(1, 4))}
        a = Series.make(CTX3, terms)
        target = ExtRat.of(q(6))
        s = invert(a, target)
        err = a * s - Series.one(CTX3)
        assert err.vlow() >= target - a.valuation()


def test_newton_linear_and_exact_root():
    t = mono(CTX2, 1)
    f = (t.neg(), Series.one(CTX2))  # X - t
    assert newton_root(f, Series.zero(CTX2, ExtRat.of(q(10))), ExtRat.of(q(8))).terms == t.terms

    # X^2 - t^2 from start t is already exact
    f2 = ((t * t).neg(), Series.zero(CTX2), Series.one(CTX2))
    r = newton_root(f2, t, ExtRat.of(q(9)))
    assert (r * r - t * t).vlow() >= ExtRat.of(q(9))


# --- differential oracles: integer exponents against GF(p)[t] ---


def _poly_add(f, g, p):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return [(x + y) % p for x, y in zip(f, g)]


def _poly_mul(f, g, p):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _series_inverse(f, n, p):
    """The first n coefficients of 1/f in GF(p)[[t]], f(0) != 0."""
    f0_inv = pow(f[0], -1, p)
    g = []
    for k in range(n):
        acc = 1 if k == 0 else 0
        acc -= sum(f[i] * g[k - i] for i in range(1, min(k, len(f) - 1) + 1))
        g.append(acc * f0_inv % p)
    return g


def _as_series(ctx, coeffs, shift=0):
    return Series.make(ctx, {i + shift: c for i, c in enumerate(coeffs)})


def _as_dict(coeffs, shift=0):
    return {q(i + shift): c for i, c in enumerate(coeffs) if c}


@st.composite
def _gfp_polys(draw):
    p = draw(st.sampled_from([2, 3]))
    poly = st.lists(st.integers(0, p - 1), min_size=0, max_size=7)
    horizon = st.one_of(st.none(), st.integers(1, 8))
    return p, draw(poly), draw(poly), draw(horizon), draw(horizon)


def _known(coeffs, n):
    """The polynomial known below t^n (None: exactly), and its vlow."""
    if n is not None:
        coeffs = coeffs[:n]
    nonzero = [i for i, c in enumerate(coeffs) if c]
    return coeffs, nonzero[0] if nonzero else n


@settings(max_examples=300, deadline=None)
@given(_gfp_polys())
def test_add_mul_match_gfp_polynomials(case):
    # a is f known below t^na, b is g known below t^nb (None: exact); the
    # sum is known below min(na, nb), the product below
    # min(vlow(a) + nb, vlow(b) + na)
    p, f, g, na, nb = case
    ctx = {2: CTX2, 3: CTX3}[p]
    f, va = _known(f, na)
    g, vb = _known(g, nb)
    a = Series.make(ctx, _as_dict(f), PLUS_INF if na is None else ExtRat.of(q(na)))
    b = Series.make(ctx, _as_dict(g), PLUS_INF if nb is None else ExtRat.of(q(nb)))
    bounds = [n for n in (na, nb) if n is not None]
    s = a + b
    assert s.precision == (ExtRat.of(q(min(bounds))) if bounds else PLUS_INF)
    want = _poly_add(f, g, p)
    assert dict(s.terms) == _as_dict(want[:min(bounds)] if bounds else want)
    # an exact zero (vlow None) times anything is exact
    caps = [v + n for v, n in ((va, nb), (vb, na)) if n is not None and v is not None]
    prod = a * b
    want = _poly_mul(f, g, p)
    if caps:
        assert prod.precision == ExtRat.of(q(min(caps)))
        want = want[:min(caps)]
    else:
        assert prod.precision == PLUS_INF
    assert dict(prod.terms) == _as_dict(want)


@st.composite
def _gfp_units(draw):
    p = draw(st.sampled_from([2, 3]))
    f = [draw(st.integers(1, p - 1))] + draw(st.lists(st.integers(0, p - 1), max_size=6))
    return p, f, draw(st.integers(0, 3)), draw(st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(_gfp_units())
def test_invert_matches_truncated_power_series(case):
    # a = t^v * f with f(0) != 0; 1/a = t^-v * (1/f), certified below
    # target - 2v
    p, f, v, n = case
    ctx = {2: CTX2, 3: CTX3}[p]
    target = n + v
    s = invert(_as_series(ctx, f, v), ExtRat.of(q(target)))
    assert s.precision == ExtRat.of(q(n - v))
    assert dict(s.terms) == _as_dict(_series_inverse(f, n, p), -v)
