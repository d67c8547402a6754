"""``newton_root`` moves the previous Taylor shift by each Newton-polygon
monomial instead of shifting f from scratch.  The oracle kept here is the
loop that shifts f in full on every step; both must give the same root,
terms and precision, or the same exception."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defectlab import series
from defectlab.cli import main
from defectlab.cuts import ExtRat, PLUS_INF
from defectlab.series import (
    ConvergenceError,
    DenominatorBoundError,
    Polynomial,
    PrecisionError,
    Series,
    int_scale,
    invert,
    make_context,
    newton_root,
)

CTXS = [make_context(mode, p, m) for mode in ("equal", "mixed") for p in (2, 3) for m in (1, 2)]


def newton_root_full_shift(f, start, target_precision, max_steps=200):
    """The refinement loop with one full shift ``f.shifted(x)`` per step."""
    target_precision = ExtRat.of(target_precision)
    if not target_precision.is_finite:
        raise PrecisionError("newton_root needs a finite target precision")
    if f.degree == 0:
        raise ValueError("newton_root needs a polynomial of degree at least 1")
    ctx = f.ctx
    D = ctx.D

    def declare(s, precision):
        kcap = ctx.kcap(precision)
        return Series(ctx, tuple(t for t in s.kterms if t[0] < kcap), kcap)

    x = start
    last_vf = None
    for _ in range(max_steps):
        shifted = f.shifted(x)
        fx, fpx = shifted[0], shifted[1]
        if fx.vlow() >= target_precision:
            if fpx.is_zero and fpx.precision.is_finite:
                raise ConvergenceError("derivative vanishes to precision at the root")
            loss = fpx.vlow()
            cap = target_precision - loss if loss.is_finite else target_precision
            return x.truncate(min(x.precision, cap))
        if fx.is_zero:
            raise ConvergenceError(
                f"residual is zero only to precision {fx.precision}, below the "
                f"target {target_precision}; supply more input precision"
            )
        vf = fx.kterms[0][0]
        if last_vf is not None and vf <= last_vf:
            raise ConvergenceError("no certified progress in root refinement")
        last_vf = vf
        if fpx.is_zero:
            raise ConvergenceError("derivative vanishes to precision at the iterate")
        vfp = fpx.kterms[0][0]
        work = ExtRat(target_precision.fraction + Fraction(2 * abs(vfp), D) + 4)
        if vf > 2 * vfp:
            x = declare(x - fx * invert(fpx, work), work)
        else:
            slope = None
            for i in range(1, len(shifted)):
                ci = shifted[i]
                if ci.is_zero:
                    continue
                s = Fraction(vf - ci.kterms[0][0], i)
                if slope is None or s > slope:
                    slope = s
            if slope is None:
                raise ConvergenceError("degenerate polygon: no higher coefficients")
            if slope.denominator != 1:
                ctx.check_exponent(slope / D)
            ks = slope.numerator
            res_coeffs = [0] * len(shifted)
            for i, ci in enumerate(shifted):
                if not ci.is_zero and ci.kterms[0][0] + i * ks == vf:
                    res_coeffs[i] = ci.leading_coeff()
            roots = [r for r in ctx.field.roots_of(res_coeffs) if r != 0]
            if not roots:
                raise ConvergenceError("residue equation has no root in F_q")
            x = declare(x + Series.monomial(ctx, Fraction(ks, D), roots[0], work), work)
    raise ConvergenceError(f"iteration budget exhausted: NEWTON_MAX_STEPS = {max_steps} steps")


def outcome(solver, f, start, target):
    try:
        r = solver(f, start, target)
    except Exception as e:  # the exception is part of the contract
        return type(e).__name__, str(e)
    return r.kterms, r.precision


def assert_same_as_full_shift(f, start, target):
    assert outcome(newton_root, f, start, target) == outcome(newton_root_full_shift, f, start, target)


# precisions and targets n/p^j lie on the grid of every context
@st.composite
def _precision(draw, ctx):
    if draw(st.booleans()):
        return PLUS_INF
    return ExtRat.of(Fraction(draw(st.integers(2, 28)), draw(st.sampled_from([1, ctx.p]))))


@st.composite
def _series(draw, ctx, lo=-1, hi=6, most=3, exact=True):
    terms = {}
    for _ in range(draw(st.integers(0, most))):
        e = Fraction(draw(st.integers(4 * lo, 4 * hi)), draw(st.sampled_from([1, ctx.p, ctx.p ** 2])))
        terms[e] = draw(st.integers(1, ctx.q - 1))
    prec = draw(_precision(ctx)) if exact else ExtRat.of(Fraction(draw(st.integers(4, 28))))
    return Series.make(ctx, terms, prec)


@st.composite
def _target(draw, ctx):
    return ExtRat.of(Fraction(draw(st.integers(2, 12)), draw(st.sampled_from([1, ctx.p, ctx.p ** 2]))))


@st.composite
def _random_case(draw):
    ctx = draw(st.sampled_from(CTXS))
    coeffs = [draw(_series(ctx)) for _ in range(draw(st.integers(1, 4)))]
    return Polynomial.make(coeffs + [Series.one(ctx)]), draw(_series(ctx, 0, 4)), draw(_target(ctx))


@st.composite
def _planted_case(draw):
    # f = (X - r) g(X) plus an optional deep perturbation, started at a
    # truncation of r; r is finite, since -r has no exact digits in general
    ctx = draw(st.sampled_from(CTXS))
    r = draw(_series(ctx, 0, 5, 4, exact=False))
    g = [draw(_series(ctx, 0, 3)) for _ in range(draw(st.integers(0, 3)))] + [Series.one(ctx)]
    neg_r = Series.zero(ctx) - r
    coeffs = [neg_r * g[0]] + [g[i - 1] + neg_r * g[i] for i in range(1, len(g))] + [g[-1]]
    if draw(st.booleans()):
        coeffs[0] = coeffs[0] + draw(_series(ctx, 4, 12, 2))
    cut = ExtRat.of(Fraction(draw(st.integers(0, 12)), draw(st.sampled_from([1, ctx.p, ctx.p ** 2]))))
    start = Series(ctx, r.truncate(cut).kterms, ctx.kcap(draw(_precision(ctx))))
    return Polynomial.make(coeffs), start, draw(_target(ctx))


@st.composite
def _kummer_case(draw):
    # X^p + sum binom(p, i) d^(p-i) X^i - eta^p started at eta, the shape
    # the Kummer transformation solves
    ctx = draw(st.sampled_from(CTXS))
    p = ctx.p
    d = Series.monomial(
        ctx,
        Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, p, p * p]))),
        draw(st.integers(1, ctx.q - 1)),
        draw(_precision(ctx)),
    )
    eta = draw(_series(ctx, 0, 4, 5, exact=False))
    eta = Series.one(ctx, eta.precision) + eta
    coeffs = [Series.zero(ctx, eta.precision) - eta.pow_int(p)]
    coeffs += [int_scale(d.pow_int(p - i), math.comb(p, i)) for i in range(1, p)]
    return Polynomial.make(coeffs + [Series.one(ctx)]), eta, draw(_target(ctx))


@settings(max_examples=150, deadline=None)
@given(st.one_of(_random_case(), _planted_case(), _kummer_case()))
def test_moved_shift_gives_the_full_shift_root(case):
    assert_same_as_full_shift(*case)


def test_pinned_cancellation_keeps_the_full_shift():
    # x + m cancels the leading term of x, so v(x + m) > v(x): the product
    # precisions of a moved shift would fall below those of the full one
    ctx = make_context("equal", 2)
    f = Polynomial.make((
        Series.zero(ctx, ExtRat.of(14)),
        Series.make(ctx, {Fraction(1, 2): 1, Fraction(3, 4): 1}, ExtRat.of(4)),
        Series.one(ctx),
    ))
    start, target = Series.one(ctx, ExtRat.of(14)), ExtRat.of(9)
    assert str(newton_root(f, start, target)) == "0 [prec 17/2]"
    assert_same_as_full_shift(f, start, target)


def test_pinned_start_below_the_horizon_keeps_the_full_shift():
    # the first shift is taken at the start's precision 7, below the
    # working horizon, so the next step must shift f in full again
    ctx = make_context("equal", 2, 2)
    code = ctx.field.parse_code
    f = Polynomial.make((Series.make(ctx, {0: code([1, 1]), 7: 1}), Series.one(ctx)))
    start, target = Series.make(ctx, {0: code([0, 1])}, ExtRat.of(7)), ExtRat.of(10)
    assert str(newton_root(f, start, target)) == "[1, 1] + t^7 [prec 10/1]"
    assert_same_as_full_shift(f, start, target)


def test_off_grid_target_is_refused():
    # 10/3 is off the grid (1/D)Z of D = 2^8; rounding the target up would
    # certify a horizon the residual never reached
    ctx = make_context("equal", 2)
    f = Polynomial.make((Series.monomial(ctx, 1), Series.one(ctx)))
    with pytest.raises(DenominatorBoundError, match="^precision 10/3 needs denominator 3, bound is D=256$"):
        newton_root(f, Series.zero(ctx), ExtRat.of(Fraction(10, 3)))


def test_kummer_roots_move_the_shift(monkeypatch, tmp_path, capsys):
    # each root of a Kummer family shifts f in full at most twice; the
    # other polygon steps move the previous shift
    full_shifts = []
    solve, shift = series.newton_root, Polynomial.shifted

    def counting_root(f, start, target):
        full_shifts.append([f, 0])
        return solve(f, start, target)

    def counting_shift(poly, a):
        if full_shifts and poly is full_shifts[-1][0]:
            full_shifts[-1][1] += 1
        return shift(poly, a)

    monkeypatch.setattr("defectlab.kummer.newton_root", counting_root)
    monkeypatch.setattr(Polynomial, "shifted", counting_shift)
    argv = ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2", "--q", "2",
            "--n", "1", "--budget", "5", "--out", str(tmp_path / "k.json")]
    assert main(argv) == 0
    assert full_shifts
    assert all(1 <= n <= 2 for _, n in full_shifts), [n for _, n in full_shifts]


def test_budget_message_names_the_step_limit(monkeypatch, tmp_path, capsys):
    # sqrt(9) from 1 needs more than one step; with a budget of one step
    # the error names the limit, and a Kummer family is inconclusive
    monkeypatch.setattr(series, "NEWTON_MAX_STEPS", 1)
    ctx = make_context("mixed", 2)
    nine = Series.from_int(ctx, 9).truncate(ExtRat.of(10))
    f = Polynomial.make((nine.neg(), Series.zero(ctx), Series.one(ctx)))
    try:
        newton_root(f, Series.one(ctx, ExtRat.of(10)), ExtRat.of(8))
    except ConvergenceError as exc:
        assert str(exc) == "iteration budget exhausted: NEWTON_MAX_STEPS = 1 steps"
    else:
        raise AssertionError("newton_root returned within one step")
    argv = ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2", "--q", "2",
            "--n", "1", "--budget", "5", "--out", str(tmp_path / "k.json")]
    assert main(argv) == 3
    assert "NEWTON_MAX_STEPS = 1 steps" in capsys.readouterr().err
    assert not (tmp_path / "k.json").exists()
