"""The Taylor shift f(a + X) of ``series._taylor_shift`` against the exact
binomial expansion, kept here as the oracle, in both modes."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.cuts import ExtRat, PLUS_INF
from defectlab.series import (
    EQUAL,
    MIXED,
    ConvergenceError,
    Series,
    _taylor_shift,
    make_context,
    newton_root,
)
from helpers import horner, int_scale

CTXS = [make_context(mode, p) for mode in (EQUAL, MIXED) for p in (2, 3)]


def binomial_shift(f, a):
    """Coefficients of f(a + X): binomial(j, i) * c_j * a^(j-i) summed into
    the coefficient of X^i."""
    ctx = f[0].ctx
    out = [Series.zero(ctx) for _ in f]
    for j, cj in enumerate(f):
        if cj.is_zero and not cj.precision.is_finite:
            continue
        apow = Series.one(ctx)
        for i in range(j, -1, -1):
            b = math.comb(j, i)
            out[i] = out[i] + (int_scale(cj, b) if b != 1 else cj) * apow
            if i > 0:
                apow = apow * a
    return tuple(out)


@st.composite
def _series(draw, ctx):
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        e = Fraction(draw(st.integers(-2, 8)), draw(st.sampled_from([1, ctx.p])))
        terms[e] = draw(st.integers(1, ctx.q - 1))
    prec = draw(st.sampled_from([None, 2, 4, 7]))
    return Series.make(ctx, terms, PLUS_INF if prec is None else ExtRat.of(Fraction(prec)))


@st.composite
def _shift_case(draw):
    ctx = draw(st.sampled_from(CTXS))
    coeffs = [draw(_series(ctx)) for _ in range(draw(st.integers(1, 4)))]
    coeffs.append(Series.one(ctx))
    return tuple(coeffs), draw(_series(ctx))


@settings(max_examples=150, deadline=None)
@given(_shift_case())
def test_taylor_shift_matches_binomial_expansion(case):
    f, a = case
    got, want = _taylor_shift(f, a), binomial_shift(f, a)
    assert len(got) == len(want) == len(f)
    for g, w in zip(got, want):
        prec = min(g.precision, w.precision)
        assert g.truncate(prec).kterms == w.truncate(prec).kterms
    assert got[0] == horner(f, a)  # terms and precision


def test_newton_root_needs_positive_degree():
    ctx = CTXS[2]
    for f in ((), (Series.one(ctx),)):
        with pytest.raises(ValueError, match="degree at least 1"):
            newton_root(f, Series.one(ctx, ExtRat.of(Fraction(4))), ExtRat.of(Fraction(2)))


def test_newton_root_refuses_an_uncertified_derivative_at_the_root():
    # f'(x) = 2x + c1 is zero only to precision 3 (c1 = 0 to precision 3 and
    # 2x = 0 in characteristic 2), so its vlow is that precision, not a
    # valuation, and the precision of the root cannot be certified
    ctx = CTXS[0]
    f = (Series.monomial(ctx, 20), Series.zero(ctx, ExtRat.of(3)), Series.one(ctx))
    with pytest.raises(ConvergenceError, match="derivative vanishes to precision at the root"):
        newton_root(f, Series.monomial(ctx, 10), ExtRat.of(12))
