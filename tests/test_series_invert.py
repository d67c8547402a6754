"""Mixed-mode ``invert`` sums the geometric series of 1/(1 + y) by
doubling: s = (1 - y)(1 + y^2)(1 + y^4)..., one squaring per doubling of
the number of terms.  The truncation of 1/(1 + y) below the relative
precision is unique, so the result, precision included, is the one the
geometric series gives term by term, one product per term; that loop is
kept here as the oracle.

An input c * t^k with no second term below the relative precision has
y = 0, so ``invert`` returns c^-1 * t^-k directly, after the two refusals;
the oracle for it is 1 at the relative precision, scaled and shifted back,
as the general path gives it.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.cuts import ExtRat
from defectlab.series import (
    EQUAL,
    MIXED,
    DenominatorBoundError,
    PrecisionError,
    Series,
    _declare,
    invert,
    make_context,
)

CTXS = {(p, m): make_context(MIXED, p, m) for p in (2, 3, 5) for m in (1, 2)}


def geometric_invert(a, target):
    """1/a from sum (-y)^k, k * v(y) below the relative precision."""
    ctx = a.ctx
    kva = a.kterms[0][0]
    va = Fraction(kva, ctx.D)
    rel = min(ctx.kcap(target), a.kprec) - kva
    lc_inv = ctx.field.inv(a.leading_coeff())
    w = _declare(a.shift(-va).scale(lc_inv), rel)
    y = w - Series(ctx, ((0, 1),), rel)
    if y.is_zero:
        return Series(ctx, ((-kva, lc_inv),), rel - kva)
    vy = y.kterms[0][0]
    s = power = Series(ctx, ((0, 1),), rel)
    k = 1
    neg_y = y.neg()
    while k * vy < rel:
        power = power * neg_y
        s = s + power
        k += 1
    return s.scale(lc_inv).shift(-va)


@st.composite
def _cases(draw):
    p, m = draw(st.sampled_from(sorted(CTXS)))
    ctx = CTXS[p, m]
    D = ctx.D
    step = D // draw(st.sampled_from([1, p, p * p, p ** 3]))
    base = step * draw(st.integers(-4, 4))
    offsets = draw(st.sets(st.integers(1, 10), max_size=5))
    codes = st.integers(1, ctx.q - 1)
    kterms = tuple((base + step * i, draw(codes)) for i in [0] + sorted(offsets))
    top = kterms[-1][0] + 1
    cap = draw(st.one_of(st.none(), st.integers(top, top + 12 * step)))
    a = Series(ctx, kterms, float("inf") if cap is None else cap)
    # a relative target of up to 12 steps, so that the oracle's loop stays short
    target = ExtRat(Fraction(base + draw(st.integers(1, 12 * step)), D))
    return a, target


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_doubling_matches_the_geometric_series(case):
    a, target = case
    got, want = invert(a, target), geometric_invert(a, target)
    assert (got.kterms, got.kprec) == (want.kterms, want.kprec)


def test_one_grid_step_above_the_leading_term_is_fast():
    # at p = 3, D = 2 * 3^8 = 13122: the geometric series took one product
    # per grid step, 13 122 in all (about 100 s); doubling takes 14 squarings
    ctx = make_context(MIXED, 3)
    a = Series.make(ctx, {0: 1, Fraction(1, ctx.D): 1}, ExtRat.of(8))
    start = time.perf_counter()
    s = invert(a, ExtRat.of(1))
    assert time.perf_counter() - start < 1.0
    # sum (-t)^k over k/D < 1, t = 3^(1/D), whose digit -1 is the
    # Teichmueller code 2: what the geometric series gives
    assert (s.kterms, s.kprec) == (tuple((k, 1 + k % 2) for k in range(ctx.D)), ctx.D)
    residue = a * s - Series.one(ctx, s.precision)
    assert residue.is_zero or residue.kterms[0][0] >= ctx.D


ONE_TERM_CTXS = [make_context(EQUAL, p, m) for p in (2, 3) for m in (1, 2)] + list(CTXS.values())


def general_invert(a, target):
    """1/a by the general path for an a whose y is zero: 1 at the relative
    precision, times lc^-1 * t^(-v(a))."""
    ctx = a.ctx
    kva, lc = a.kterms[0]
    va, lc_inv = Fraction(kva, ctx.D), ctx.field.inv(lc)
    rel = min(ctx.kcap(target), a.kprec) - kva
    one = Series(ctx, ((0, 1),), rel)
    assert (_declare(a.shift(-va).scale(lc_inv), rel) - one).is_zero  # y
    return one.scale(lc_inv).shift(-va)


@pytest.mark.parametrize("ctx", ONE_TERM_CTXS, ids=lambda c: f"{c.mode}-p{c.p}-m{c.m}")
def test_one_term_inverse_matches_the_general_path(ctx):
    D = ctx.D
    for code in range(1, ctx.q):
        for kva in (-3 * D, -D // ctx.p, 0, 1, 2 * D):
            for kprec in (math.inf, kva + 1, kva + D):
                a = Series(ctx, ((kva, code),), kprec)
                for kt in (kva + 1, kva + D // ctx.p, kva + 5 * D):
                    target = ExtRat(Fraction(kt, D))
                    got, want = invert(a, target), general_invert(a, target)
                    assert (got.kterms, got.kprec) == (want.kterms, want.kprec)
                    assert (a * got).kterms == ((0, 1),)
                    if kprec == math.inf:
                        # a second term at the target is not below it
                        a2 = Series(ctx, ((kva, code), (kt, 1)), kprec)
                        got, want = invert(a2, target), general_invert(a2, target)
                        assert (got.kterms, got.kprec) == (want.kterms, want.kprec)


@pytest.mark.parametrize("ctx", ONE_TERM_CTXS, ids=lambda c: f"{c.mode}-p{c.p}-m{c.m}")
def test_one_term_inverse_keeps_both_refusals(ctx):
    D = ctx.D
    for kva in (-D, 0, D // ctx.p):
        a = Series(ctx, ((kva, ctx.q - 1),), math.inf)
        for kt in (kva, kva - 1, kva - D):
            with pytest.raises(PrecisionError,
                               match="^target precision is below the leading term of the input$"):
                invert(a, ExtRat(Fraction(kt, D)))
        off = Fraction(kva, D) + Fraction(1, D * ctx.p)
        with pytest.raises(DenominatorBoundError) as exc:
            invert(a, ExtRat(off))
        rel = off - Fraction(kva, D)
        assert str(exc.value) == (f"precision {rel} needs denominator {rel.denominator}, "
                                  f"bound is D={D}")
