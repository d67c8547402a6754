import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from defectlab import teichmueller
from defectlab.cuts import ExtRat, PLUS_INF
from defectlab.series import (
    MIXED,
    PrecisionError,
    Series,
    invert,
    make_context,
    newton_root,
    zeta_p,
)
from helpers import horner


def q(n, d=1):
    return Fraction(n, d)


M2 = make_context(MIXED, 2)
M3 = make_context(MIXED, 3)


def test_carry_identity_p2():
    a = Series.one(M2) + Series.monomial(M2, q(1, 2))
    s = a + a
    assert s.terms == ((q(1), 1), (q(3, 2), 1))


def test_from_rational_digits():
    three = Series.from_int(M2, 3)
    assert three.terms == ((q(0), 1), (q(1), 1))
    # 1/2 at p = 3 has all Teichmueller digits equal to 2
    half = Series.from_rational(M3, q(1, 2), ExtRat.of(q(4)))
    assert half.terms == tuple((q(k), 2) for k in range(4))
    # and is exactly minus the all-ones series
    minus_half = half.neg()
    assert minus_half.terms == tuple((q(k), 1) for k in range(4))


def test_negative_integer_exact_p3():
    m2 = Series.from_int(M3, -2)
    assert not m2.precision.is_finite
    assert (m2 + Series.from_int(M3, 2)).is_zero


def test_p2_negative_needs_finite_precision():
    with pytest.raises(PrecisionError):
        Series.from_int(M2, -1)
    m1 = Series.from_rational(M2, q(-1), ExtRat.of(q(5)))
    assert m1.terms == tuple((q(k), 1) for k in range(5))
    assert (m1 + Series.one(M2)).is_zero


def test_from_rational_with_no_digit_below_the_precision():
    # 8 = 2^3 has its only digit at 3, above the precision 2
    eight = Series.from_rational(M2, q(8), 2)
    assert (eight.terms, str(eight)) == ((), "0 [prec 2/1]")


def test_subtraction_with_borrows():
    a = Series.from_int(M2, 9)
    b = Series.from_int(M2, 1)
    d = a - b
    assert d.terms == ((q(3), 1),)  # 8
    assert d.valuation() == ExtRat.of(q(3))


def test_mul_uses_teichmueller_digits():
    # tau is multiplicative, so single-digit terms multiply term-by-term
    x = Series.monomial(M3, q(1, 2), 2)
    assert (x * x).terms == ((q(1), 1),)  # tau(2)^2 = tau(4) = tau(1)
    y = Series.from_int(M3, -1)
    assert (y * y).terms == ((q(0), 1),)


def test_valuation_example():
    a = Series.make(M2, {q(3, 2): 1, q(2): 1})
    assert a.valuation() == ExtRat.of(q(3, 2))
    assert a.leading_coeff() == 1


def test_add_associative_to_common_precision():
    rng = random.Random(21)
    for ctx in (M2, M3):
        for _ in range(60):
            def rand():
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    e = Fraction(rng.randint(-4, 6), rng.choice([1, ctx.p, ctx.p ** 2]))
                    terms[e] = rng.randint(1, ctx.p - 1)
                return Series.make(ctx, terms, ExtRat.of(q(8)))

            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a + b) - b == a.truncate((a + b).precision)


def test_invert_one_plus_p():
    a = Series.one(M2) + Series.monomial(M2, 1)
    s = invert(a, ExtRat.of(q(6)))
    prod = a * s
    one = Series.one(M2)
    assert (prod - one).vlow() >= ExtRat.of(q(6))


def test_zeta_2_is_minus_one():
    z = zeta_p(M2, ExtRat.of(q(8)))
    assert z.terms == tuple((q(k), 1) for k in range(8))
    assert (z + Series.one(M2)).is_zero
    assert (z - Series.one(M2)).valuation() == ExtRat.of(q(1))  # v(p)/(p-1)
    sq = z * z
    assert (sq - Series.one(M2)).vlow() >= ExtRat.of(q(8))


def test_zeta_3_needs_extension_field():
    with pytest.raises(ValueError):
        zeta_p(M3, ExtRat.of(q(4)))


M9 = make_context(MIXED, 3, 2)


def test_zeta_3_valuation_and_order():
    z = zeta_p(M9, ExtRat.of(q(6)))
    one = Series.one(M9)
    d = z - one
    assert d.valuation() == ExtRat.of(q(1, 2))
    cube = z * z * z
    assert (cube - one).vlow() >= ExtRat.of(q(6))
    # both primitive powers sit at distance 1/2 from 1
    z2 = z * z
    assert (z2 - one).valuation() == ExtRat.of(q(1, 2))


@pytest.mark.parametrize("p", [5, 7])
def test_zeta_p_beyond_exact_lifts(p):
    # p >= 5 has no exact integer lifts; the Newton steps must not need them
    ctx = make_context(MIXED, p, 2)
    z = zeta_p(ctx, ExtRat.of(q(3)))
    one = Series.one(ctx)
    assert (z - one).valuation() == ExtRat.of(q(1, p - 1))
    f = (one,) * p  # 1 + X + ... + X^(p-1)
    assert horner(f, z).vlow() >= z.precision


def test_newton_sqrt_of_nine():
    # X^2 - 9 from start 1 converges to the odd square root 3 or -3;
    # the reported precision loses v(f') = v(2x) = 1
    nine = Series.from_int(M2, 9).truncate(ExtRat.of(q(10)))
    f = (nine.neg(), Series.zero(M2), Series.one(M2))
    r = newton_root(f, Series.one(M2, ExtRat.of(q(10))), ExtRat.of(q(8)))
    assert r.precision == ExtRat.of(q(7))
    check = r * r - nine
    assert check.vlow() >= ExtRat.of(q(7))


def test_newton_sqrt_one_plus_p_cubed():
    a = (Series.one(M2) + Series.monomial(M2, 3)).truncate(ExtRat.of(q(12)))
    f = (a.neg(), Series.zero(M2, ExtRat.of(q(12))), Series.one(M2))
    r = newton_root(f, Series.one(M2, ExtRat.of(q(12))), ExtRat.of(q(9)))
    assert (r * r - a).vlow() >= ExtRat.of(q(8))
    assert (r - Series.one(M2)).valuation() >= ExtRat.of(q(1))


M4 = make_context(MIXED, 2, 2)


@st.composite
def _mixed_series(draw, ctx):
    n = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n):
        num = draw(st.integers(-8, 12))
        den = draw(st.sampled_from([1, ctx.p, ctx.p ** 2]))
        terms[Fraction(num, den)] = draw(st.integers(1, ctx.q - 1))
    return Series.make(ctx, terms, ExtRat.of(q(8)))


@settings(max_examples=90, deadline=None)
@given(st.sampled_from([M2, M4, M9]).flatmap(lambda ctx: st.tuples(*[_mixed_series(ctx)] * 3)))
def test_mixed_ring_laws(abc):
    a, b, c = abc
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    prod = a * (b + c)
    both = a * b + a * c
    assert prod.truncate(both.precision) == both.truncate(prod.precision)


# --- differential oracles: integer exponents against Python integers ---

PRIME_CTXS = {p: make_context(MIXED, p) for p in (2, 3, 5, 7)}


def _value_mod(s, n):
    """sum tau(c) p^e mod p^n for integer exponents e >= 0, each digit
    lifted on its own as c^(p^n), which is tau(c) mod p^(n+1)."""
    p = s.ctx.p
    mod = p ** n
    assert all(e.denominator == 1 and e >= 0 for e, _ in s.terms)
    return sum(pow(c, p ** n, mod) * p ** int(e) for e, c in s.terms) % mod


@st.composite
def _digits_mod(draw, ctx, n, prec):
    digits = draw(st.lists(st.integers(0, ctx.p - 1), min_size=n, max_size=n))
    return Series.make(ctx, {q(i): d for i, d in enumerate(digits)}, prec)


@st.composite
def _finite_pair(draw):
    ctx = PRIME_CTXS[draw(st.sampled_from(sorted(PRIME_CTXS)))]
    n = draw(st.integers(1, 10))
    prec = ExtRat.of(q(n))
    return ctx, n, draw(_digits_mod(ctx, n, prec)), draw(_digits_mod(ctx, n, prec))


@settings(max_examples=200, deadline=None)
@given(_finite_pair())
def test_finite_precision_matches_integers_mod_pn(case):
    ctx, n, a, b = case
    mod = ctx.p ** n
    x, y = _value_mod(a, n), _value_mod(b, n)
    for got, want in ((a + b, x + y), (a - b, x - y), (a * b, x * y)):
        assert got.precision >= ExtRat.of(q(n))
        assert _value_mod(got, n) == want % mod


@st.composite
def _unit_case(draw):
    ctx = PRIME_CTXS[draw(st.sampled_from([2, 3, 5]))]
    n = draw(st.integers(1, 10))
    lead = draw(st.integers(1, ctx.p - 1))
    rest = draw(st.lists(st.integers(0, ctx.p - 1), min_size=n - 1, max_size=n - 1))
    unit = Series.make(ctx, {q(i): d for i, d in enumerate([lead] + rest)}, ExtRat.of(q(n)))
    return ctx, n, unit, draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(_unit_case())
def test_invert_matches_inverse_mod_pn(case):
    # a = p^v * u with u a unit known mod p^n; 1/a = p^-v * (1/u)
    ctx, n, u, v = case
    mod = ctx.p ** n
    a = u.shift(v)
    s = invert(a, ExtRat.of(q(n + v)))
    assert s.precision == ExtRat.of(q(n - v))
    assert _value_mod(s.shift(v), n) == pow(_value_mod(u, n), -1, mod)


def _exact_value(s):
    lift = {2: {1: 1}, 3: {1: 1, 2: -1}}[s.ctx.p]
    assert all(e.denominator == 1 and e >= 0 for e, _ in s.terms)
    return sum(lift[c] * s.ctx.p ** int(e) for e, c in s.terms)


@st.composite
def _exact_pair(draw):
    ctx = PRIME_CTXS[draw(st.sampled_from([2, 3]))]
    return ctx, draw(_digits_mod(ctx, 8, PLUS_INF)), draw(_digits_mod(ctx, 8, PLUS_INF))


@settings(max_examples=200, deadline=None)
@given(_exact_pair())
def test_exact_mode_matches_integers(case):
    ctx, a, b = case
    x, y = _exact_value(a), _exact_value(b)
    assert _exact_value(a + b) == x + y
    assert _exact_value(a * b) == x * y
    if ctx.p == 2 and x < y:
        with pytest.raises(PrecisionError, match="negative values have non-terminating"):
            a - b
    else:
        assert (a - b).precision == PLUS_INF
        assert _exact_value(a - b) == x - y


# --- exact-mode edges: which sums carry, merge or refuse ---

M5 = PRIME_CTXS[5]


def test_exact_p2_negative_difference_is_refused():
    with pytest.raises(PrecisionError, match="negative values have non-terminating 2-adic expansions"):
        Series.one(M2) - Series.monomial(M2, 1)


def test_exact_p5_carry_is_refused():
    with pytest.raises(PrecisionError, match=r"only available for prime fields with p in \{2, 3\}"):
        Series.monomial(M5, 0, 3) + Series.monomial(M5, 0, 4)


def test_exact_p5_difference_without_carry_merges():
    # -tau(2) = tau(-2) = tau(3), so 1 - 2p needs no carry
    d = Series.one(M5) - Series.monomial(M5, 1, 2)
    assert str(d) == "1 + 3*p^1 [prec +inf]"


def test_extension_field_carries():
    # in F_9 digits, tau(c)^2 = tau(c^2) = -1 for c with c^2 = -1
    f9 = M9.field
    c = next(a for a in range(f9.q) if f9.mul(a, a) == f9.neg(1))
    x = Series.monomial(M9, q(1, 2), c, ExtRat.of(q(6)))
    sq = x * x
    # tau(-1) = -1 exactly: the square is -p, whose digit expansion is
    # tau(2) * p = 2's lift times p
    minus_p = Series.from_rational(M9, q(-3), ExtRat.of(q(8)))
    diff = sq - minus_p
    assert diff.is_zero or diff.vlow() >= ExtRat.of(q(6))


# --- the carry rule against the grouping normalization it replaced ---


def _digits_by_divmod(ctx, u, k0, n):
    """``teichmueller.digits`` as it was: one divmod per digit and a fresh
    modulus p^(n - i) per step."""
    p, D = ctx.p, ctx.D
    out = []
    i = 0
    if isinstance(u, int):
        if n is None and p == 2 and u < 0:
            raise PrecisionError(
                "negative values have non-terminating 2-adic expansions; "
                "pass a finite precision"
            )
        while u:
            d = u % p
            if d:
                out.append((k0 + i * D, d))
                u -= teichmueller.EXACT_LIFTS[p][d] if n is None else teichmueller.tau_int(p, d, n - 1)
            i += 1
            u //= p
            if n is not None:
                u %= p ** (n - i)
        return out
    fld = ctx.field
    while any(u):
        d = fld.parse_code(u)
        if d:
            out.append((k0 + i * D, d))
            u = [x - y for x, y in zip(u, teichmueller.tau_poly(p, ctx.m, fld.modulus, d, n - 1))]
        i += 1
        mod = p ** (n - i)
        u = [x // p % mod for x in u]
    return out


def _normalize_by_classes(ctx, parts, precision):
    """``teichmueller.normalize`` as it was: group the parts per class,
    sum each group with every part lifted to the class's digit count, then
    read the digits."""
    fld = ctx.field
    p, D = ctx.p, ctx.D
    exact = not precision.is_finite
    merge_only = exact and not (ctx.m == 1 and p in teichmueller.EXACT_LIFTS)
    kcap = ctx.kcap(precision)
    merged = {}
    classes = {}
    for k, code, sign in parts:
        if code == 0 or k >= kcap:
            continue
        if p != 2 and sign < 0:
            code, sign = fld.neg(code), 1
        if merge_only:
            if sign < 0 or k in merged:
                raise PrecisionError(
                    "exact (infinite-precision) digit carries are only "
                    "available for prime fields with p in {2, 3}; pass a "
                    "finite precision"
                )
            merged[k] = code
        else:
            fl, r = divmod(k, D)
            classes.setdefault(r, []).append((fl, code, sign))
    out = list(merged.items())
    for r, group in classes.items():
        if len(group) == 1 and group[0][2] > 0:
            fl, code, _ = group[0]
            out.append((r + fl * D, code))
            continue
        fl0 = min(fl for fl, _, _ in group)
        k0 = r + fl0 * D
        if exact:
            n = None
            total = sum(sign * teichmueller.EXACT_LIFTS[p][code] * p ** (fl - fl0) for fl, code, sign in group)
        else:
            n = -((k0 - kcap) // D)
            if ctx.m == 1:
                total = sum(sign * p ** (fl - fl0) * teichmueller.tau_int(p, code, n - 1) for fl, code, sign in group)
            else:
                total = [0] * ctx.m
                for fl, code, sign in group:
                    s = sign * p ** (fl - fl0)
                    tau = teichmueller.tau_poly(p, ctx.m, fld.modulus, code, n - 1)
                    total = [x + s * y for x, y in zip(total, tau)]
        out.extend(_digits_by_divmod(ctx, total, k0, n))
    out.sort()
    return tuple(out)


@st.composite
def _normalize_case(draw):
    # D in {1, p}: several parts share a class, and k repeats often
    p = draw(st.sampled_from([2, 3, 5]))
    ctx = make_context(MIXED, p, draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, p])))
    D = ctx.D
    part = st.tuples(st.integers(-2 * D, 6 * D), st.integers(0, ctx.q - 1), st.sampled_from([1, -1]))
    parts = draw(st.lists(part, max_size=12))
    if draw(st.booleans()):
        prec = PLUS_INF
    else:
        # a cap inside the drawn range, so that some parts lie at or past it
        prec = ExtRat.of(Fraction(draw(st.integers(-D, 7 * D)), D))
    return ctx, parts, prec


def _outcome(normalize, ctx, parts, prec):
    try:
        return normalize(ctx, parts, prec)
    except PrecisionError as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_normalize_case())
# 1 + 1 = 2 carries to k = 1, past the cap: run first, it fails fast where
# reading 2-adic digits without the 2^n mask would loop on a negative sum
@example((make_context(MIXED, 2, 1, 1), [(0, 1, 1), (0, 1, 1)], ExtRat.of(1)))
def test_normalize_matches_grouping_by_classes(case):
    ctx, parts, prec = case
    got = _outcome(teichmueller.normalize, ctx, parts, ctx.kcap(prec))
    assert got == _outcome(_normalize_by_classes, ctx, parts, prec)


# --- sums and products against normalizing every part ---


def _all_parts_sum(a, b):
    """``a + b`` by the rule that normalizes every term of both operands."""
    prec = min(a.kprec, b.kprec)
    parts = [(k, c, 1) for k, c in a.kterms + b.kterms]
    return Series(a.ctx, teichmueller.normalize(a.ctx, parts, prec), prec)


def _all_parts_product(a, b):
    """``a * b`` by the rule that normalizes every pairwise product."""
    kcap = min(a.vlow_k() + b.kprec, b.vlow_k() + a.kprec)
    mul = a.ctx.field.mul
    parts = [(k1 + k2, mul(c1, c2), 1) for k1, c1 in a.kterms for k2, c2 in b.kterms if k1 + k2 < kcap]
    return Series(a.ctx, teichmueller.normalize(a.ctx, parts, kcap), kcap)


def _result(op, a, b):
    try:
        s = op(a, b)
    except PrecisionError as exc:
        return type(exc), str(exc)
    return s.kterms, s.kprec


@st.composite
def _class_series(draw, ctx, residues):
    D = ctx.D
    kind = draw(st.sampled_from(["terms", "terms", "digit", "one", "free"]))
    if kind == "one":
        return Series.one(ctx)
    kprec = draw(st.one_of(st.just(math.inf), st.integers(-D, 6 * D)))
    # several terms per class: k = r + fl*D for a drawn class r
    n = {"free": 0, "digit": 1, "terms": draw(st.integers(2, 6))}[kind]
    ks = draw(st.lists(st.tuples(st.sampled_from(residues), st.integers(-2, 5)), min_size=n,
                       max_size=n, unique=True))
    terms = sorted((r + fl * D, draw(st.integers(1, ctx.q - 1))) for r, fl in ks)
    return Series(ctx, tuple(t for t in terms if t[0] < kprec), kprec)


@st.composite
def _class_pair(draw):
    # exponents over a few classes mod D, so that the operands share some
    # classes and not others; class 0 is the class of 1
    p = draw(st.sampled_from([2, 3, 5]))
    ctx = make_context(MIXED, p, draw(st.sampled_from([1, 2])), draw(st.sampled_from([p, p * p, 2 ** 16])))
    residues = draw(st.lists(st.sampled_from([0, 1, ctx.D // 2, ctx.D - 1]), min_size=1, max_size=3,
                             unique=True))
    return draw(_class_series(ctx, residues)), draw(_class_series(ctx, residues))


P2_D4 = make_context(MIXED, 2, 1, 4)


def _exact(ctx, terms):
    return Series(ctx, tuple(terms), math.inf)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_class_pair())
# 1 + p^(1/4) plus 1 + p^(1/2): class 0 carries, classes 1 and 2 pass
@example((_exact(P2_D4, [(0, 1), (1, 1)]), _exact(P2_D4, [(0, 1), (2, 1)])))
# a shared class 0, and a term at p^(5/4) past the other operand's precision 1
@example((_exact(P2_D4, [(0, 1), (5, 1)]), Series(P2_D4, ((0, 1),), 4)))
# one digit known to precision 1 times 1 + p^2: the product is known below 1
@example((Series(P2_D4, ((0, 1),), 4), _exact(P2_D4, [(0, 1), (8, 1)])))
def test_sum_and_product_match_normalizing_all_parts(ab):
    a, b = ab
    assert _result(Series.__add__, a, b) == _result(_all_parts_sum, a, b)
    assert _result(Series.__mul__, a, b) == _result(_all_parts_product, a, b)
