from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.approx import (
    TailSchema,
    difference_horizon,
    distance,
    no_max_refuted,
    sample_shape_error,
    semitame_report,
    support_upper_cut,
    translate_sample,
    value_set,
)
from defectlab import fields
from defectlab.artin import as_root
from defectlab.cuts import Cut, ExtRat, PLUS_INF
from defectlab.fields import (
    PRESET_NAMES,
    PRESETS,
    enumerate_elements,
    listing_index,
    member_witness,
    preset_field,
)
from defectlab.kummer import lab_superdependent_unit
from defectlab.series import EQUAL, Series, make_context
from helpers import realized, values


def q(n, d=1):
    return Fraction(n, d)


K2 = preset_field("fp_t", 2)
T2 = preset_field("pdiv_tower", 2)
L2 = preset_field("laurent", 2)
QT2 = preset_field("qp_pdiv_tower", 2)


def test_value_set_sqrt_t_over_fp_t():
    a = Series.monomial(K2.ctx, q(1, 2))
    s = value_set(a, K2, 3)
    vals = set(values(s))
    assert {q(-3), q(-2), q(-1), q(0), q(1, 2)} <= vals
    assert s.upper == Cut(ExtRat.of(q(1, 2)), True)
    assert s.no_max == "refuted"
    witnesses = dict(realized(s))
    assert witnesses[q(1, 2)].is_zero
    assert q(-2) in witnesses


def test_value_set_element_of_K():
    # t is in K, yet its sample holds finite values only: the exact zero
    # t - t realizes nothing, and +inf- bounds the sample
    a = Series.monomial(K2.ctx, 1)
    s = value_set(a, K2, 2)
    assert values(s) == tuple(q(k) for k in range(-2, 4))
    assert s.upper == Cut(PLUS_INF, False)
    assert s.no_max == "unknown"


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
    # the sound enclosure [max realized+, +inf-], not the exact top cut
    a = Series.monomial(K2.ctx, 1)
    enc = distance(value_set(a, K2, 2))
    assert (enc.lo, enc.hi) == (Cut(ExtRat.of(3), True), Cut(PLUS_INF, False))
    assert not enc.is_exact


def test_tailed_value_set_partial_sums():
    # truncation of sum_{i>=1} t^(-1/2^i) with a tail certificate
    ctx = T2.ctx
    exps = [q(-1, 2 ** i) for i in range(1, 6)]
    a = Series.make(ctx, {e: 1 for e in exps}, ExtRat.of(q(8)))
    tail = TailSchema(q(0), q(-1, 64), "root tail")
    s = value_set(a, T2, 2, tail)
    vals = set(values(s))
    assert {q(-1, 2), q(-1, 4), q(-1, 8), q(-1, 16), q(-1, 32)} <= vals
    assert s.no_max == "proved"
    assert s.upper == Cut(ExtRat.of(0), False)
    enc = distance(s, tail)
    assert enc.is_exact and enc.lo == Cut(ExtRat.of(0), False)


def test_semitame_fp_t_all_refuted():
    rep = semitame_report(K2)
    assert rep["drst"].status == "refuted"
    for key in ("a", "b", "c", "d", "e", "f"):
        assert rep[key].status == "refuted", key
    assert rep["residue_perfect"].status == "proved"
    assert rep["e"].witness.terms == ((q(1, 2), 1),)


def test_semitame_laurent_witness():
    rep = semitame_report(L2)
    assert rep["e"].status == "refuted"
    assert rep["e"].witness.terms == ((q(1, 2), 1),)


def test_semitame_pdiv_tower_all_proved():
    rep = semitame_report(T2)
    for key in ("drst", "residue_perfect", "a", "b", "c", "d", "e", "f"):
        assert rep[key].status == "proved", key


def test_semitame_consistency():
    for K in (K2, L2, T2):
        rep = semitame_report(K)
        statuses = {rep[k].status for k in ("a", "b", "c", "d", "e", "f")}
        assert not ({"proved", "refuted"} <= statuses)


def _listing(K, budget):
    """The listing value_set reads through its index, built whole: the
    brute-force reference, independent of the index."""
    return enumerate_elements(K, budget)


def _reference_realized(a, K, budget, tail=None):
    """value_set's realized tuple in the Fraction view, with v(a - c) from
    the full subtraction."""
    horizon = a.precision if tail is None else min(a.precision, ExtRat.of(tail.low))
    found = {}
    prefix = {}
    for e, c in a.terms:
        if ExtRat.of(e) < horizon:
            partial = Series.make(a.ctx, dict(prefix), a.precision)
            if member_witness(K, partial):
                found.setdefault(e, partial)
        prefix[e] = c
    for c in _listing(K, budget):
        d = a - c
        if d.is_zero:
            continue
        if d.valuation() < horizon:
            found.setdefault(d.valuation().fraction, c)
    return tuple(sorted(found.items(), key=lambda kv: kv[0]))


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
    # a listed exact element is no witness for itself: an exact zero
    # realizes no value
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
    got = realized(value_set(a, K, budget, tail))
    want = _reference_realized(a, K, budget, tail)
    assert [v for v, _ in got] == [v for v, _ in want]
    for (_, w), (_, rw) in zip(got, want):
        assert w == rw


def _scan_realized(a, K, budget, tail, listing):
    """value_set's realized pairs by a diff_k scan of the whole listing."""
    ctx = a.ctx
    khorizon = difference_horizon(a, tail)
    found = {}
    for i, (k, _) in enumerate(a.kterms):
        if k < khorizon:
            partial = Series(ctx, a.kterms[:i], a.kprec)
            if member_witness(K, partial):
                found.setdefault(k, partial)
    for c in listing:
        k = a.diff_k(c)
        if k is not None and k < khorizon:
            found.setdefault(k, c)
    return [(k, found[k]) for k in sorted(found)]


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


# (p, m) of the residue field F_q, by q
_RESIDUE = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}
_ORACLE_FIELDS = [
    (name, q, budget)
    for name in ("fp_t", "laurent", "pdiv_tower", "qp", "qp_pdiv_tower")
    for q in (2, 3)
    for budget in (1, 2, 3)
] + [
    (name, q, budget)
    for name in ("fp_t", "laurent", "pdiv_tower")
    for q, budgets in ((4, (1, 2)), (2, (4, 5)), (5, (1, 2)))
    for budget in budgets
    # about 2.6 s, half of the other 17 cases together
    if (name, q, budget) != ("pdiv_tower", 5, 2)
]


def _index_error(K, budget, listing):
    """How the index of ``listing`` (the whole listing, in order) departs
    from it, or None: its first element at each leading exponent, its
    elements without terms and the elements it gives for each lead."""
    index = listing_index(K, budget)
    first, led, termless = {}, {}, []
    for c in listing:
        if c.kterms:
            first.setdefault(c.kterms[0][0], c)
            led.setdefault(c.kterms[0], []).append(c)
        else:
            termless.append(c)
    if index.lead_ks != sorted(first):
        return f"leading exponents {index.lead_ks}, listed {sorted(first)}"
    if [index.element(at) for at in index.first_at] != [first[k] for k in index.lead_ks]:
        return "a first element differs"
    if list(dict.fromkeys(index.element(at) for at in index.termless)) != termless:
        return "the elements without terms differ"
    for lead, cs in led.items():
        if list(dict.fromkeys(index.element(at) for at in index.led_by(lead))) != cs:
            return f"the elements led by {lead} differ"
    return None


@pytest.mark.parametrize("name, q, budget", _ORACLE_FIELDS)
def test_value_set_matches_listing_scan(name, q, budget):
    K = preset_field(name, *_RESIDUE[q])
    listing = _listing(K, budget)
    assert _index_error(K, budget, listing) is None

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_probes(K, listing))
    def check(probe):
        a, tail = probe
        want = _scan_realized(a, K, budget, tail, listing)
        upper = support_upper_cut(a, K, tail)
        if sample_shape_error(want, upper, K.ctx):
            # a tail on an element the listing holds exactly: refused
            with pytest.raises(AssertionError):
                value_set(a, K, budget, tail)
            return
        got = value_set(a, K, budget, tail).realized
        assert got == tuple(want)

    check()


@pytest.mark.parametrize("name", ["fp_t", "laurent", "pdiv_tower"])
@pytest.mark.parametrize("p", [2, 3])
def test_value_set_builds_no_listing(name, p, monkeypatch):
    # the index reads leading terms off the digit codes: with the listing
    # and the stream refused, the samples are the listing scan's
    K, budget = preset_field(name, p), 3
    listing = enumerate_elements(K, budget)
    canonical = (Series.monomial(K.ctx, q(1, p)), None) if name == "fp_t" else _tower_root(budget, K)
    probes = [canonical, (Series.zero(K.ctx), None)]
    # listed elements without their last term: led as the listed ones are
    probes += [(Series(K.ctx, c.kterms[:-1], c.kprec), None) for c in listing[1::len(listing) // 6]]
    want = [_scan_realized(a, K, budget, tail, listing) for a, tail in probes]

    def refuse(*args):
        raise AssertionError("the listing was built")

    monkeypatch.setattr(fields, "enumerate_elements", refuse)
    monkeypatch.setattr(fields, "element_stream", refuse)
    listing_index.cache_clear()
    assert [list(value_set(a, K, budget, tail).realized) for a, tail in probes] == want


_GRID4 = make_context(EQUAL, 2, 1, 4)


@pytest.mark.parametrize("bound", [q(1, 3), q(1, 2)], ids=["off-grid", "on-grid"])
@pytest.mark.parametrize("attained", [True, False], ids=["attained", "open"])
def test_sample_shape_decides_a_cut_bound_exactly(bound, attained):
    # on the grid (1/4)Z, 1/3 lies between 1/4 and 1/2, so both cuts at 1/3
    # hold 1/4 and not 1/2; a cut at 1/2 holds 1/2 exactly when attained
    ctx, w = _GRID4, Series.zero(_GRID4)
    upper = Cut(ExtRat.of(bound), attained)
    at_top = bound == q(1, 2) and attained
    kout = 3 if at_top else 2
    assert ctx.kout(upper) == kout
    below = [(kout - 2, w), (kout - 1, w)]
    assert sample_shape_error(below, upper, ctx) is None
    assert sample_shape_error(below + [(kout, w)], upper, ctx) == (
        f"realized value {ctx.value_of(kout)} escapes the certified upper cut {upper}")
    assert no_max_refuted(below, upper, ctx) == at_top


def test_translate_sample_failure_messages():
    a = Series.monomial(K2.ctx, q(1, 2))
    sample = value_set(a, K2, 2)
    with pytest.raises(ValueError, match="got zero"):
        translate_sample(sample, a, q(0), lambda w: a, None)
    with pytest.raises(ValueError, match=r"expected value -1/1, got -2/1"):
        translate_sample(sample, a, q(1), lambda w: w, None)


def test_translate_sample_drops_values_at_the_difference_horizon():
    # a = t^-3 + t^(1/2) realizes -3 (witness 0) and 1/2 (witness t^-3);
    # a value is kept below min(prec, tail floor) and dropped from there on
    ctx = K2.ctx
    a = Series.make(ctx, {q(-3): 1, q(1, 2): 1})
    sample = value_set(a, K2, 2)
    assert values(sample) == (q(-3), q(1, 2))

    def kept(a_new, tail):
        return values(translate_sample(sample, a_new, q(0), lambda w: w, tail))

    # a tail floor below the precision bounds the horizon
    assert kept(a, TailSchema(q(1), q(0), "floor 0")) == (q(-3),)
    # a precision below the tail floor bounds it too: 1/2 lies between the
    # two, where t^-3 [prec 0] certifies nothing, and is dropped, not refused
    assert kept(a.truncate(q(0)), TailSchema(q(2), q(1), "floor 1")) == (q(-3),)
    # without a tail the horizon is the precision
    assert kept(a.truncate(q(1)), None) == (q(-3), q(1, 2))
    assert kept(a.truncate(q(1, 2)), None) == (q(-3),)


@pytest.mark.parametrize("budget", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if PRESETS[n][1] == EQUAL])
def test_listed_member_samples_finite_values_under_plus_inf(name, p, budget):
    # a member of K realizes no +inf: its sample is bounded by the cut
    # +inf-, and its distance enclosure ends there
    K = preset_field(name, p)
    top = Cut(PLUS_INF, False)
    a = _listed(K, budget, lambda c: c.kterms and not c.precision.is_finite)
    s = value_set(a, K, budget)
    assert s.realized and all(type(k) is int for k, _ in s.realized)
    assert s.upper == top
    assert distance(s).hi == top
