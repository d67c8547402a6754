import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.approx import (
    TailSchema,
    difference_horizon,
    distance,
    sample_shape_error,
    semitame_report,
    support_upper_cut,
    translate_sample,
    value_set,
)
from defectlab.artin import as_root
from defectlab.cuts import Cut, ExtRat, PLUS_INF
from defectlab.fields import enumerate_elements, listing_index, member_witness, preset_field
from defectlab.kummer import lab_superdependent_unit
from defectlab.series import Series


def q(n, d=1):
    return Fraction(n, d)


K2 = preset_field("fp_t", 2)
T2 = preset_field("pdiv_tower", 2)
L2 = preset_field("laurent", 2)
QT2 = preset_field("qp_pdiv_tower", 2, D=2 ** 16)


def test_value_set_sqrt_t_over_fp_t():
    a = Series.monomial(K2.ctx, q(1, 2))
    s = value_set(a, K2, 3)
    vals = set(s.finite_values())
    assert {q(-3), q(-2), q(-1), q(0), q(1, 2)} <= vals
    assert s.upper == Cut(ExtRat.of(q(1, 2)), True)
    assert s.no_max == "refuted"
    witnesses = dict(s.realized)
    assert witnesses[ExtRat.of(q(1, 2))].is_zero
    assert ExtRat.of(q(-2)) in witnesses


def test_value_set_element_of_K():
    a = Series.monomial(K2.ctx, 1)
    s = value_set(a, K2, 2)
    assert any(not v.is_finite for v in s.values())


def test_value_set_rejects_zero_budget():
    with pytest.raises(ValueError):
        value_set(Series.monomial(K2.ctx, q(1, 2)), K2, 0)


def test_value_set_rejects_another_session():
    # most values are read off the listing index, not diff_k, so
    # value_set checks the session itself
    with pytest.raises(ValueError, match="different sessions"):
        value_set(Series.monomial(K3.ctx, q(1, 3)), K2, 1)


def test_distance_sqrt_t_exact():
    a = Series.monomial(K2.ctx, q(1, 2))
    enc = distance(value_set(a, K2, 3))
    assert enc.is_exact
    assert enc.lo == Cut(ExtRat.of(q(1, 2)), True)


def test_distance_element_degenerate():
    a = Series.monomial(K2.ctx, 1)
    enc = distance(value_set(a, K2, 2))
    assert enc.lo == Cut(PLUS_INF, False) and enc.is_exact


def test_tailed_value_set_partial_sums():
    # truncation of sum_{i>=1} t^(-1/2^i) with a tail certificate
    ctx = T2.ctx
    exps = [q(-1, 2 ** i) for i in range(1, 6)]
    a = Series.make(ctx, {e: 1 for e in exps}, ExtRat.of(q(8)))
    tail = TailSchema(q(0), q(-1, 64), "root tail")
    s = value_set(a, T2, 2, tail)
    vals = set(s.finite_values())
    assert {q(-1, 2), q(-1, 4), q(-1, 8), q(-1, 16), q(-1, 32)} <= vals
    assert s.no_max == "proved"
    assert s.upper == Cut(ExtRat.of(0), False)
    enc = distance(s, tail)
    assert enc.is_exact and enc.lo == Cut(ExtRat.of(0), False)


def test_semitame_fp_t_all_refuted():
    rep = semitame_report(K2, 2)
    assert rep["drst"].status == "refuted"
    for key in ("a", "b", "c", "d", "e", "f"):
        assert rep[key].status == "refuted", key
    assert rep["residue_perfect"].status == "proved"
    assert rep["e"].witness.terms == ((q(1, 2), 1),)


def test_semitame_laurent_witness():
    rep = semitame_report(L2, 2)
    assert rep["e"].status == "refuted"
    assert rep["e"].witness.terms == ((q(1, 2), 1),)


def test_semitame_pdiv_tower_all_proved():
    rep = semitame_report(T2, 2)
    for key in ("drst", "residue_perfect", "a", "b", "c", "d", "e", "f"):
        assert rep[key].status == "proved", key


def test_semitame_consistency():
    for K in (K2, L2, T2):
        rep = semitame_report(K, 2)
        statuses = {rep[k].status for k in ("a", "b", "c", "d", "e", "f")}
        assert not ({"proved", "refuted"} <= statuses)


def _listing(K, budget):
    """The listing value_set reads: the one its cached index holds."""
    return listing_index(K, budget).elements


def _reference_realized(a, K, budget, tail=None):
    """value_set's realized tuple, with v(a - c) from the full subtraction."""
    horizon = a.precision if tail is None else min(a.precision, ExtRat.of(tail.low))
    found = {}
    prefix = {}
    for e, c in a.terms:
        if ExtRat.of(e) < horizon:
            partial = Series.make(a.ctx, dict(prefix), a.precision)
            if member_witness(K, partial):
                found.setdefault(ExtRat.of(e), partial)
        prefix[e] = c
    for c in _listing(K, budget):
        d = a - c
        if d.is_zero:
            if not d.precision.is_finite:
                found.setdefault(PLUS_INF, c)
            continue
        if d.valuation() < horizon:
            found.setdefault(d.valuation(), c)
    return tuple(sorted(found.items(), key=lambda kv: kv[0]._key()))


def _tower_root(budget, K=T2):
    root = as_root(Series.monomial(K.ctx, -1), ExtRat.of(q(budget + 6)))
    return root.theta, root.tail


K3 = preset_field("fp_t", 3)
L3 = preset_field("laurent", 3)
T3 = preset_field("pdiv_tower", 3)
Q2 = preset_field("qp", 2)


def _listed(K, budget, pred):
    return next(c for c in _listing(K, budget) if pred(c))


def _plus_term(c, e):
    """c plus the monomial t^e, for an e above c's leading exponent."""
    k = c.ctx.grid_k(e)
    assert c.kterms[0][0] < k < c.ctx.kcap(c.precision)
    return Series(c.ctx, tuple(sorted(c.kterms + ((k, 1),))), c.kprec)


_CALL_SITE_CASES = {
    "fp_t-sqrt": lambda: (K2, Series.monomial(K2.ctx, q(1, 2)), None, 3),
    "fp_t-member": lambda: (K2, Series.monomial(K2.ctx, 1), None, 2),
    "fp_t-finite-precision": lambda: (
        K2, Series.make(K2.ctx, {q(-1): 1, q(1, 2): 1, q(1): 1}, ExtRat.of(q(2))), None, 2),
    "laurent": lambda: (L2, Series.make(L2.ctx, {q(-1): 1, q(1, 2): 1}), None, 3),
    "pdiv_tower-root": lambda: (T2,) + _tower_root(2) + (2,),
    "pdiv_tower-root-budget-3": lambda: (T2,) + _tower_root(3) + (3,),
    "fp_t-p3-cube-root": lambda: (K3, Series.monomial(K3.ctx, q(1, 3)), None, 2),
    "fp_t-p3-finite-precision": lambda: (
        K3, Series.make(K3.ctx, {q(-1): 2, q(1, 3): 1, q(1): 1}, ExtRat.of(q(2))), None, 2),
    "laurent-p3": lambda: (L3, Series.make(L3.ctx, {q(-1): 1, q(2, 3): 2}), None, 2),
    "laurent-p3-root": lambda: (L3,) + _tower_root(2, L3) + (2,),
    "pdiv_tower-p3-root": lambda: (T3,) + _tower_root(2, T3) + (2,),
    "qp_pdiv_tower-unit": lambda: (QT2,) + lab_superdependent_unit(QT2) + (5,),
    "qp_pdiv_tower-finite-precision": lambda: (
        QT2, Series.make(QT2.ctx, {q(0): 1, q(1, 2): 1, q(3): 1}, ExtRat.of(q(4))), None, 3),
    # a listed element plus one higher term shares the listed leading term
    "fp_t-listed-plus-term": lambda: (
        K2, _plus_term(_listed(K2, 2, lambda c: len(c.kterms) > 2), q(5, 2)), None, 2),
    "pdiv_tower-p3-listed-plus-term": lambda: (
        T3, _plus_term(_listed(T3, 2, lambda c: c.precision.is_finite), q(1, 9)), None, 2),
    # a listed exact element is its own +inf witness
    "laurent-p3-listed-exact": lambda: (
        L3, _listed(L3, 2, lambda c: len(c.kterms) == 3), None, 2),
    "pdiv_tower-listed-exact": lambda: (
        T2, _listed(T2, 2, lambda c: len(c.kterms) > 1 and not c.precision.is_finite), None, 2),
    "fp_t-exact-zero": lambda: (K2, Series.zero(K2.ctx), None, 2),
    "laurent-finite-zero": lambda: (L2, Series.zero(L2.ctx, ExtRat.of(q(1))), None, 3),
    # the qp listing holds the zero of the rationals at finite precision,
    # which no exact element equals
    "qp-exact-zero": lambda: (Q2, Series.zero(Q2.ctx), None, 2),
    "qp-beyond-listed-zero": lambda: (Q2, Series.monomial(Q2.ctx, q(7)), None, 2),
}


@pytest.mark.parametrize("case", sorted(_CALL_SITE_CASES))
def test_value_set_matches_subtraction_reference(case):
    K, a, tail, budget = _CALL_SITE_CASES[case]()
    got = value_set(a, K, budget, tail).realized
    want = _reference_realized(a, K, budget, tail)
    assert [v for v, _ in got] == [v for v, _ in want]
    enumerated = {id(c) for c in _listing(K, budget)}
    for (_, w), (_, rw) in zip(got, want):
        if id(rw) in enumerated:
            assert w is rw
        else:  # a partial-sum witness, rebuilt on every call
            assert w == rw


def _scan_realized(a, K, budget, tail, listing):
    """value_set's realized pairs by a diff_k scan of the whole listing,
    each with whether its witness is a listed element."""
    ctx = a.ctx
    khorizon = difference_horizon(a, tail)
    kprec = ctx.kcap(a.precision)
    found = {}
    for i, (k, _) in enumerate(a.kterms):
        if k < khorizon:
            partial = Series(ctx, a.kterms[:i], a.kprec)
            if member_witness(K, partial):
                found.setdefault(k, (partial, False))
    for c in listing:
        k = a.diff_k(c, kprec)
        if k is not None and (k == math.inf or k < khorizon):
            found.setdefault(k, (c, True))
    return [(ctx.value_of(k),) + found[k] for k in sorted(found)]


@st.composite
def _probes(draw, K, listing):
    """An element to sample: a listed one or zero, with up to two terms
    set or cleared, a precision and maybe a tail floor."""
    ctx = K.ctx
    steps = [ctx.D // d for d in (1, 2, 3, 4, ctx.p, ctx.p ** 2, ctx.p ** 3) if ctx.D % d == 0]

    def grid_k():
        step = draw(st.sampled_from(steps))
        return draw(st.integers(-4 * ctx.D // step, 5 * ctx.D // step)) * step

    base = draw(st.one_of(st.none(), st.integers(0, len(listing) - 1)))
    terms = dict(listing[base].kterms) if base is not None else {}
    for _ in range(draw(st.integers(0, 2))):
        terms[grid_k()] = draw(st.integers(0, ctx.q - 1))
    precision = draw(st.sampled_from(
        [PLUS_INF, ExtRat.of(Fraction(grid_k(), ctx.D))]
        + ([listing[base].precision] if base is not None else [])))
    kcap = ctx.kcap(precision)
    a = Series(ctx, tuple(sorted((k, c) for k, c in terms.items() if c and k < kcap)), kcap)
    tail = None
    if draw(st.booleans()):
        low = Fraction(grid_k(), ctx.D)
        tail = TailSchema(low + 1, low, "probe")
    return a, tail


_ORACLE_FIELDS = [
    (name, p, budget)
    for name in ("fp_t", "laurent", "pdiv_tower", "qp", "qp_pdiv_tower")
    for p in (2, 3)
    for budget in (1, 2, 3)
]


@pytest.mark.parametrize("name, p, budget", _ORACLE_FIELDS)
def test_value_set_matches_listing_scan(name, p, budget):
    K = preset_field(name, p)
    listing = _listing(K, budget)
    assert listing == enumerate_elements(K, budget)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_probes(K, listing))
    def check(probe):
        a, tail = probe
        want = _scan_realized(a, K, budget, tail, listing)
        if sample_shape_error([(v, w) for v, w, _ in want], support_upper_cut(a, K, tail)):
            # a tail on an element the listing holds exactly: refused
            with pytest.raises(AssertionError):
                value_set(a, K, budget, tail)
            return
        got = value_set(a, K, budget, tail).realized
        assert [v for v, _ in got] == [v for v, _, _ in want]
        for (_, w), (_, rw, listed) in zip(got, want):
            assert w is rw if listed else w == rw

    check()


def test_translate_sample_failure_messages():
    a = Series.monomial(K2.ctx, q(1, 2))
    sample = value_set(a, K2, 2)
    with pytest.raises(ValueError, match="got zero"):
        translate_sample(sample, a, q(0), lambda w: a, PLUS_INF)
    with pytest.raises(ValueError, match=r"expected value -1/1, got -2/1"):
        translate_sample(sample, a, q(1), lambda w: w, PLUS_INF)
