"""A ``Series`` keeps its precision as a grid index.  The oracle kept here
is the precision arithmetic it replaced, on ``ExtRat`` values: after every
operation the precision must be the oracle's, the terms must be exactly
those below it, and a precision off the grid (1/D)Z must be refused,
never rounded."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.cuts import ExtRat, PLUS_INF
from defectlab.series import (
    EQUAL,
    DenominatorBoundError,
    PrecisionError,
    Series,
    invert,
    make_context,
    pth_root,
)

CTXS = [make_context(mode, p, m) for mode in ("equal", "mixed") for p in (2, 3) for m in (1, 2)]


# --- the oracle: the ExtRat precision rules --------------------------------


def oracle_product_precision(a, pa, b, pb):
    def vlow(s, ps):
        return ExtRat(Fraction(s.kterms[0][0], s.ctx.D)) if s.kterms else ps

    if not pa.is_finite and not pb.is_finite:
        return PLUS_INF
    cands = []
    if pb.is_finite:
        cands.append(vlow(a, pa) + pb)
    if pa.is_finite:
        cands.append(vlow(b, pb) + pa)
    return min(cands)


def _on_grid(ctx, v):
    return not v.is_finite or ctx.D % v.fraction.denominator == 0


def _lifted(s):
    """s with its finite precision raised by 1: the terms an operation
    keeps below the oracle precision do not depend on the horizon."""
    return s if s.kprec == math.inf else Series(s.ctx, s.kterms, s.kprec + s.ctx.D)


def _below(ctx, s, prec):
    kcap = ctx.kcap(prec)
    return tuple(t for t in s.kterms if t[0] < kcap)


def _refusal(ctx, what, f):
    return DenominatorBoundError, f"{what} {f} needs denominator {f.denominator}, bound is D={ctx.D}"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


# --- random operation chains -----------------------------------------------


@st.composite
def _series(draw, ctx):
    """A series and its precision as a value: terms on a lattice of step
    D, D/p or 1, and an infinite precision or one above the top term."""
    D, p = ctx.D, ctx.p
    step = draw(st.sampled_from([D, D // p, 1]))
    ks = draw(st.lists(st.integers(-2 * D // step, 6 * D // step), max_size=4, unique=True))
    terms = {Fraction(k * step, D): draw(st.integers(1, ctx.q - 1)) for k in ks}
    prec = PLUS_INF
    if draw(st.booleans()):
        top = max(ks) * step if ks else -2 * D
        pstep = draw(st.sampled_from([D, D // p, 1]))
        prec = ExtRat(Fraction(top + draw(st.integers(1, 3 * D // pstep)) * pstep, D))
    return Series.make(ctx, terms, prec), prec


@st.composite
def _value(draw, ctx):
    """A finite value, on the grid or off it."""
    return Fraction(draw(st.integers(-3 * ctx.D, 9 * ctx.D)), ctx.D * draw(st.sampled_from([1, 1, 3, ctx.p])))


def _step(data, ctx, x, px):
    """One operation on (x, px): the library's outcome and the oracle's,
    each a (series, precision) pair or an exception's type and message."""
    ops = ["add", "sub", "mul", "shift", "truncate", "invert"]
    if ctx.mode == EQUAL:
        ops += ["frobenius", "pth_root"]
    op = data.draw(st.sampled_from(ops))
    if op in ("add", "sub", "mul"):
        y, py = data.draw(_series(ctx))
        fn = {"add": Series.__add__, "sub": Series.__sub__, "mul": Series.__mul__}[op]
        prec = oracle_product_precision(x, px, y, py) if op == "mul" else min(px, py)
        got = _outcome(fn, x, y)
        ref = _outcome(fn, _lifted(x), _lifted(y))
        if type(ref) is tuple:  # an exact carry that only p in {2, 3}, m = 1 sums
            return got, ref
        return got, (_below(ctx, ref, prec), prec)
    if op == "shift":
        delta = Fraction(data.draw(st.integers(-2 * ctx.p, 2 * ctx.p)), ctx.p)
        dk = ctx.grid_k(delta)
        return x.shift(delta), (tuple((k + dk, c) for k, c in x.kterms), px + delta)
    if op == "truncate":
        v = data.draw(_value(ctx))
        got = _outcome(x.truncate, ExtRat(v))
        if not _on_grid(ctx, ExtRat(v)):
            return got, _refusal(ctx, "precision", v)
        prec = min(px, ExtRat(v))
        return got, (_below(ctx, x, prec), prec)
    if op == "frobenius":
        frob = ctx.field.frob
        prec = px if not px.is_finite else px * ctx.p
        return x.frobenius(), (tuple((k * ctx.p, frob(c)) for k, c in x.kterms), prec)
    if op == "pth_root":
        got = _outcome(pth_root, x)
        off = [k for k, _ in x.kterms if k % ctx.p]
        if off:
            return got, _refusal(ctx, "exponent", Fraction(off[0], ctx.D * ctx.p))
        prec = px if not px.is_finite else ExtRat(px.fraction / ctx.p)
        if not _on_grid(ctx, prec):
            return got, _refusal(ctx, "precision", prec.fraction)
        ifrob = ctx.field.ifrob
        return got, (tuple((k // ctx.p, ifrob(c)) for k, c in x.kterms), prec)
    # invert: rel = min(T - va, prec - va) is the relative precision, and
    # the inverse's precision is rel - va.  T lies within six times the
    # gap below x's second term (so that the geometric series stays short),
    # on the grid or off it.
    k0 = x.kterms[0][0] if x.kterms else 0
    g = x.kterms[1][0] - k0 if len(x.kterms) > 1 else ctx.D
    n = data.draw(st.integers(-g, 6 * g))
    target = ExtRat(Fraction(3 * (k0 + n) + data.draw(st.sampled_from([0, 0, 1])), 3 * ctx.D))
    got = _outcome(invert, x, target)
    if x.is_zero:
        return got, (ZeroDivisionError, "zero series has no inverse")
    va = Fraction(x.kterms[0][0], ctx.D)
    rel = min(target, px) - va
    if rel <= 0:
        return got, (PrecisionError, "target precision is below the leading term of the input")
    if not _on_grid(ctx, rel):
        return got, _refusal(ctx, "precision", rel.fraction)
    ref = invert(_lifted(x), min(target, px))
    return got, (ref.kterms, rel - va)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_precision_follows_the_fraction_rules(data):
    ctx = data.draw(st.sampled_from(CTXS))
    x, px = data.draw(_series(ctx))
    assert (x.precision, x.kprec) == (px, ctx.kcap(px))
    for _ in range(4):
        got, want = _step(data, ctx, x, px)
        if type(got) is tuple:
            assert got == want
            return
        x, px = got, want[1]
        assert (x.kterms, x.precision) == want
        assert x.kprec == ctx.kcap(px)


# --- off-grid precisions, one by one ---------------------------------------


@pytest.mark.parametrize("build, value", [
    (lambda ctx: Series.make(ctx, {}, ExtRat.of(Fraction(1, 3))), "1/3"),
    (lambda ctx: pth_root(Series.zero(ctx, ExtRat.of(Fraction(5, 256)))), "5/512"),
    (lambda ctx: Series.monomial(ctx, 1).truncate(Fraction(1, 3)), "1/3"),
    (lambda ctx: invert(Series.monomial(ctx, 1), ExtRat.of(Fraction(7, 3))), "4/3"),
], ids=["make", "pth-root", "truncate", "invert"])
def test_off_grid_precision_is_refused(build, value):
    ctx = make_context(EQUAL, 2)
    with pytest.raises(DenominatorBoundError, match=f"^precision {value} needs denominator "
                                                    f"{value.split('/')[1]}, bound is D=256$"):
        build(ctx)


def test_a_zero_has_no_valuation():
    # +inf is a bound, never a value: an exact zero has no valuation, and a
    # zero to a finite precision no certified one, each with its message
    for ctx in CTXS:
        exact, finite = Series.zero(ctx), Series.zero(ctx, ExtRat.of(3))
        for s, message in ((exact, r"an exact zero has valuation \+inf, which is not a value"),
                           (finite, "series is zero to precision 3/1; valuation not certified")):
            with pytest.raises(PrecisionError, match=message):
                s.valuation()
            with pytest.raises(PrecisionError, match=message):
                s.valuation_k()
        root = Series.monomial(ctx, Fraction(1, ctx.p))
        assert (root.valuation(), root.valuation_k()) == (
            ExtRat.of(Fraction(1, ctx.p)), ctx.D // ctx.p)
