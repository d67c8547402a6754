"""Series.diff_k: v(a - c) from the first differing term, checked against
the full subtraction a - c in both modes."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from defectlab.cuts import ExtRat, PLUS_INF
from defectlab.series import (
    EQUAL,
    MIXED,
    DenominatorBoundError,
    PrecisionError,
    Series,
    make_context,
)


def q(n, d=1):
    return Fraction(n, d)


CONTEXTS = {
    (mode, p, m): make_context(mode, p, m)
    for mode in (EQUAL, MIXED)
    for p in (2, 3, 5)
    for m in (1, 2)
}


def diff_valuation(a, c):
    """``diff_k`` as a value: k/D, or None when the difference is zero,
    exactly or up to a precision."""
    k = a.diff_k(c)
    return None if k is None else a.ctx.value_of(k)


def reference(a, c):
    """v(a - c) by building the difference, in diff_valuation's encoding."""
    d = a - c
    if d.is_zero:
        return None
    return d.valuation()


def reference_k(a, c):
    """v(a - c) by building the difference, in diff_k's encoding."""
    d = a - c
    if d.is_zero:
        return None
    return a.ctx.grid_k(d.valuation().fraction)


@st.composite
def _terms(draw, ctx):
    p = ctx.p
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        e = Fraction(draw(st.integers(-6, 10)), draw(st.sampled_from([1, p])))
        out[e] = draw(st.integers(1, ctx.q - 1))
    return out


_PRECISIONS = st.sampled_from([PLUS_INF, ExtRat.of(q(2)), ExtRat.of(q(4)), ExtRat.of(q(8))])


@st.composite
def _pairs(draw):
    """(a, c) in one context; c keeps a prefix of a's terms, so the walk
    often runs past several equal terms before the first difference."""
    ctx = draw(st.sampled_from(list(CONTEXTS.values())))
    a = Series.make(ctx, draw(_terms(ctx)), draw(_PRECISIONS))
    keep = draw(st.integers(0, len(a.terms)))
    c_terms = dict(a.terms[:keep])
    if draw(st.booleans()):
        c_terms.update(draw(_terms(ctx)))
    c = Series.make(ctx, c_terms, draw(_PRECISIONS))
    return a, c


@settings(max_examples=400, deadline=None)
@given(_pairs())
def test_diff_valuation_matches_subtraction(pair):
    a, c = pair
    try:
        want = reference(a, c)
    except PrecisionError:
        # infinite-precision mixed mode has exact carries only for prime
        # fields with p in {2, 3}, and no terminating 2-adic expansion of a
        # negative difference: a - c is undefined there, so there is
        # nothing to compare against
        assume(False)
    assert diff_valuation(a, c) == want
    assert diff_valuation(c, a) == want
    want_k = reference_k(a, c)
    ctx = a.ctx
    for x, y in ((a, c), (c, a)):
        assert x.diff_k(y) == want_k
    assert type(want_k) is int or want_k is None
    if want_k is not None:
        assert ctx.value_of(want_k) == want
        assert ctx.grid_k(want) == want_k


@pytest.mark.parametrize("ctx", [make_context(EQUAL, 3), make_context(MIXED, 3)])
def test_identical_at_infinite_precision_is_none(ctx):
    # an exact zero realizes no value: +inf is never a sample value
    a = Series.make(ctx, {q(-1): 1, q(1, 3): 2, q(2): 1})
    b = Series.make(ctx, dict(a.terms))
    assert diff_valuation(a, b) is None
    assert diff_valuation(Series.zero(ctx), Series.zero(ctx)) is None


@pytest.mark.parametrize("ctx", [make_context(EQUAL, 2), make_context(MIXED, 2)])
def test_identical_to_finite_precision_is_none(ctx):
    a = Series.make(ctx, {q(0): 1, q(1, 2): 1}, q(3))
    assert diff_valuation(a, Series.make(ctx, dict(a.terms))) is None
    assert diff_valuation(a, a) is None


@pytest.mark.parametrize("ctx", [make_context(EQUAL, 2), make_context(MIXED, 2)])
def test_first_difference_at_or_beyond_precision_is_none(ctx):
    a = Series.make(ctx, {q(0): 1, q(3): 1, q(5): 1})
    assert diff_valuation(a, Series.make(ctx, {q(0): 1}, q(3))) is None
    assert diff_valuation(a, Series.make(ctx, {q(0): 1}, q(2))) is None
    assert diff_valuation(Series.make(ctx, {q(0): 1}, q(3)), a) is None
    # one step below the precision the difference is certified
    assert diff_valuation(a, Series.make(ctx, {q(0): 1}, q(4))) == ExtRat.of(q(3))


def test_prefix_walk_reports_the_longer_tail():
    ctx = make_context(EQUAL, 2)
    a = Series.make(ctx, {q(-2): 1, q(0): 1, q(3, 2): 1})
    assert diff_valuation(a, Series.make(ctx, {q(-2): 1, q(0): 1})) == ExtRat.of(q(3, 2))
    assert diff_valuation(Series.make(ctx, {q(-2): 1}), a) == ExtRat.of(q(0))


def test_context_mismatch_raises():
    a = Series.one(make_context(EQUAL, 2))
    with pytest.raises(ValueError, match="different sessions"):
        diff_valuation(a, Series.one(make_context(EQUAL, 3)))
    with pytest.raises(ValueError, match="different sessions"):
        diff_valuation(a, Series.one(make_context(MIXED, 2)))
    # an equal context built separately is the same session
    assert diff_valuation(a, Series.one(make_context(EQUAL, 2))) is None


@pytest.mark.parametrize("ctx", [make_context(EQUAL, 3), make_context(MIXED, 3)])
def test_diff_k_exact_zero_sentinel(ctx):
    a = Series.make(ctx, {q(-1): 1, q(1, 3): 2, q(2): 1})
    b = Series.make(ctx, dict(a.terms))
    assert a.diff_k(b) is None
    assert Series.zero(ctx).diff_k(Series.zero(ctx)) is None
    # math.inf stays the grid index of an exact precision
    assert ctx.value_of(math.inf) is PLUS_INF


@pytest.mark.parametrize("ctx", [make_context(EQUAL, 2), make_context(MIXED, 2)])
def test_diff_k_uncertified_is_none(ctx):
    D = ctx.D
    a = Series.make(ctx, {q(0): 1, q(3): 1, q(5): 1})
    # equal only up to a finite precision
    b = Series.make(ctx, {q(0): 1, q(1, 2): 1}, q(3))
    assert b.diff_k(Series.make(ctx, dict(b.terms))) is None
    assert b.diff_k(b) is None
    # first difference at or beyond either precision
    for prec in (q(3), q(2)):
        c = Series.make(ctx, {q(0): 1}, prec)
        assert a.diff_k(c) is None
        assert c.diff_k(a) is None
    # one step below the precision the grid index is certified
    assert a.diff_k(Series.make(ctx, {q(0): 1}, q(4))) == 3 * D
    assert a.diff_k(Series.make(ctx, {q(0): 1, q(3): 1})) == 5 * D


def test_grid_k_round_trip_and_off_grid():
    ctx = make_context(EQUAL, 2)
    for k in (-3 * ctx.D, -1, 0, 7, ctx.D):
        v = ctx.value_of(k)
        assert ctx.grid_k(v) == k
        assert ctx.grid_k(v.fraction) == k
    assert ctx.grid_k(-3) == -3 * ctx.D
    assert ctx.grid_k(PLUS_INF) == math.inf
    for off in (q(1, 3), q(-1, 2 * ctx.D)):
        for what in ("exponent", "precision"):
            want = f"^{what} {off} needs denominator {off.denominator}, bound is D=256$"
            with pytest.raises(DenominatorBoundError, match=want):
                ctx.grid_k(ExtRat.of(off), what)
            with pytest.raises(DenominatorBoundError, match=want):
                ctx.grid_k(off, what)
    # "exponent" by default
    with pytest.raises(DenominatorBoundError, match="^exponent 1/3 needs"):
        ctx.grid_k(q(1, 3))
