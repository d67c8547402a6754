"""Equal-mode enumeration against the series-product code it replaced.

The oracles below are the earlier equal-characteristic paths, kept here
verbatim in substance: ``Series.__add__`` merged through a dict and
``sorted``, ``invert`` summed the geometric series (-y)^k, and the
rational-function listing multiplied every numerator by the inverted
denominator.  The library must give the same terms and the same
precision, element by element and in order.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.approx import imperfection_witness
from defectlab.cuts import ExtRat, PLUS_INF
from defectlab.fields import (
    _poly_series,
    _ratfunc_elements,
    enumerate_elements,
    listing_index,
    member_witness,
    preset_field,
)
from defectlab.series import (
    EQUAL,
    PrecisionError,
    Series,
    _below,
    invert,
    make_context,
    pth_root,
)

CTXS = {(p, m): make_context(EQUAL, p, m) for p, m in ((2, 1), (3, 1), (2, 2))}


def oracle_add(a, b):
    ctx = a.ctx
    kcap = ctx.kcap(min(a.precision, b.precision))
    add = ctx.field.add
    acc = dict(a.kterms)
    for k, c in b.kterms:
        r = add(acc.get(k, 0), c)
        if r:
            acc[k] = r
        elif k in acc:
            del acc[k]
    return Series(ctx, _below(sorted(acc.items()), kcap), kcap)


def oracle_invert(a, target_precision):
    if a.is_zero:
        raise ZeroDivisionError("zero series has no inverse")
    target_precision = ExtRat.of(target_precision)
    if not target_precision.is_finite:
        raise PrecisionError("inversion needs a finite target precision")
    ctx = a.ctx
    va = Fraction(a.kterms[0][0], ctx.D)
    rel = target_precision.fraction - va
    if a.precision.is_finite:
        rel = min(rel, a.precision.fraction - va)
    if rel <= 0:
        raise PrecisionError("target precision is below the leading term of the input")
    lc_inv = ctx.field.inv(a.leading_coeff())
    w = a.shift(-va).scale(lc_inv).truncate(ExtRat(rel))
    y = oracle_add(w, Series.one(ctx, ExtRat(rel)).neg())
    if y.is_zero:
        return Series.monomial(ctx, -va, lc_inv, ExtRat(rel - va))
    vy = y.kterms[0][0]
    if vy <= 0:
        raise PrecisionError("inversion requires a dominant leading term")
    s = Series.one(ctx, ExtRat(rel))
    power = Series.one(ctx, ExtRat(rel))
    rel_cap = ctx.kcap(ExtRat(rel))
    k = 1
    neg_y = y.neg()
    while k * vy < rel_cap:
        power = power * neg_y
        s = oracle_add(s, power)
        k += 1
    return s.scale(lc_inv).shift(-va)


def oracle_ratfunc_elements(ctx, height, scale, precision):
    n_polys = ctx.q ** (height + 1)
    kstep = ctx.grid_k(scale)
    for den_code in range(1, n_polys):
        den = _poly_series(ctx, den_code, height, kstep)
        is_one = den.kterms == ((0, 1),)
        den_inv = None
        if not is_one:
            vden = den.valuation().fraction
            den_inv = oracle_invert(den, ExtRat.of(precision.fraction + 2 * vden + 1))
        for num_code in range(n_polys):
            num = _poly_series(ctx, num_code, height, kstep)
            if num.is_zero or is_one:
                yield num
                continue
            yield num * den_inv


def _outcome(fn, *args):
    """(kterms, precision) of the result, or the raised error's type and
    message."""
    try:
        s = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return s.kterms, s.precision


# --------------------------------------------------------------------------
# the rational-function listing, element by element


@pytest.mark.parametrize(
    "p, m, height",
    [(2, 1, h) for h in (1, 2, 3, 4)] + [(3, 1, h) for h in (1, 2, 3)] + [(2, 2, 1), (2, 2, 2)],
)
def test_ratfunc_listing_matches_series_products(p, m, height):
    # tower level 0 is the fp_t listing; levels 0..height are pdiv_tower's
    ctx = CTXS[p, m]
    precision = ExtRat.of(Fraction(height + 4))
    for lvl in range(height + 1):
        scale = Fraction(1, p ** lvl)
        got = _ratfunc_elements(ctx, height, scale, precision)
        want = oracle_ratfunc_elements(ctx, height, scale, precision)
        n = 0
        for x, y in zip(got, want, strict=True):
            assert (x.kterms, x.precision) == (y.kterms, y.precision), (lvl, n)
            n += 1
        assert n == (ctx.q ** (height + 1) - 1) * ctx.q ** (height + 1)


# --------------------------------------------------------------------------
# invert and add on random inputs


@st.composite
def _grid_series(draw, ctx, step, base, nonzero=False):
    """A series with terms at base + step*i and finite or infinite
    precision above them."""
    idx = draw(st.lists(st.integers(0, 12), min_size=1 if nonzero else 0, max_size=6, unique=True))
    codes = st.integers(1, ctx.q - 1)
    kterms = tuple(sorted((base + step * i, draw(codes)) for i in idx))
    top = kterms[-1][0] + 1 if kterms else base
    cap = draw(st.one_of(st.none(), st.integers(top, top + 14 * step)))
    return Series(ctx, kterms, math.inf if cap is None else cap)


@st.composite
def _invert_cases(draw):
    ctx = CTXS[draw(st.sampled_from(sorted(CTXS)))]
    step = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 16]))
    base = draw(st.integers(-40, 40))
    a = draw(_grid_series(ctx, step, base, nonzero=True))
    # relative targets at, below and well above the leading term, on and
    # off the grid
    rel = Fraction(draw(st.integers(-3 * step, 30 * step)), ctx.D * draw(st.sampled_from([1, 1, 3])))
    return a, ExtRat(Fraction(base, ctx.D) + rel)


@settings(max_examples=300, deadline=None)
@given(_invert_cases())
def test_invert_matches_geometric_series(case):
    a, target = case
    assert _outcome(invert, a, target) == _outcome(oracle_invert, a, target)


@st.composite
def _add_cases(draw):
    ctx = CTXS[draw(st.sampled_from(sorted(CTXS)))]
    step = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 16]))
    base = draw(st.integers(-20, 20))
    # shared grids make cancelling terms likely
    shift = draw(st.sampled_from([0, 0, step, 1]))
    return draw(_grid_series(ctx, step, base)), draw(_grid_series(ctx, step, base + shift))


@settings(max_examples=300, deadline=None)
@given(_add_cases())
def test_add_and_sub_match_dict_merge(case):
    a, b = case
    for x, y in ((a, b), (b, a), (a, a.neg()), (a, a)):
        s = x + y
        assert (s.kterms, s.precision) == _outcome(oracle_add, x, y)
        d = x - y
        assert (d.kterms, d.precision) == _outcome(oracle_add, x, y.neg())


def test_invert_error_messages_unchanged():
    ctx = CTXS[2, 1]
    target = ExtRat.of(Fraction(3))
    cases = [
        (Series.zero(ctx, ExtRat.of(Fraction(2))), target),
        (Series.monomial(ctx, 4), target),
        (Series.monomial(ctx, 3), target),
        (Series.monomial(ctx, 0), PLUS_INF),
        # terms out of order: the first term is not the least, so 1 + y
        # has a term below 1 and no geometric series converges
        (Series(ctx, ((2, 1), (0, 1)), math.inf), target),
    ]
    messages = [_outcome(invert, a, t) for a, t in cases]
    assert messages == [_outcome(oracle_invert, a, t) for a, t in cases]
    assert messages == [
        (ZeroDivisionError, "zero series has no inverse"),
        (PrecisionError, "target precision is below the leading term of the input"),
        (PrecisionError, "target precision is below the leading term of the input"),
        (PrecisionError, "inversion needs a finite target precision"),
        (PrecisionError, "inversion requires a dominant leading term"),
    ]


# --------------------------------------------------------------------------
# the imperfection witness reads the stream, not the cached list


@pytest.mark.parametrize("name, p, budget", [("fp_t", 3, 3), ("laurent", 2, 3), ("fp_t", 2, 2)])
def test_imperfection_witness_is_first_hit_without_listing(name, p, budget):
    K = preset_field(name, p)
    listing_index.cache_clear()
    w = imperfection_witness(K, budget)
    assert listing_index.cache_info().currsize == 0
    roots = (pth_root(c) for c in enumerate_elements(K, budget) if not c.is_zero)
    assert w == next(r for r in roots if not member_witness(K, r))
