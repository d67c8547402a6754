import math
import random
from fractions import Fraction

import pytest

import defectlab.approx as approx_mod
import defectlab.artin as artin_mod
from defectlab.approx import imperfection_witness, value_set
from defectlab.artin import (
    ARTIN_SCHREIER,
    Claims,
    admissible_twist,
    as_extension,
    as_family,
    as_root,
    certify,
    check_pairwise_distinct,
    degree_p_poly,
    residual_window_violations,
    sigma_sample,
    transform_inseparable,
)
from defectlab.cuts import PLUS_INF, Cut, CutEnclosure, ExtRat
from defectlab.fields import enumerate_elements, preset_field
from defectlab.kummer import kummer_family, lab_superdependent_unit
from defectlab.series import EQUAL, Series, make_context, pth_root
from helpers import as_generator_transform, horner, values


def q(n, d=1):
    return Fraction(n, d)


def residual(res, b):
    """theta^p - theta - b for an Artin-Schreier root of X^p - X - b."""
    return horner(degree_p_poly(ARTIN_SCHREIER, b.neg()), res.theta)


K2 = preset_field("fp_t", 2)
T2 = preset_field("pdiv_tower", 2)
L2 = preset_field("laurent", 2)
K3 = preset_field("fp_t", 3)
T3 = preset_field("pdiv_tower", 3)


class TestAsRoot:
    def test_negative_part(self):
        b = Series.monomial(K2.ctx, -1)
        res = as_root(b, ExtRat.of(q(8)))
        # theta = t^(-1/2) + t^(-1/4) + ... down to the D bound
        exps = [e for e, _ in res.theta.terms]
        assert exps[0] == q(-1, 2)
        assert exps[-1] == q(-1, 256)
        assert all(e.numerator == -1 for e in exps)
        resid = residual(res, b)
        assert residual_window_violations(resid, res.residual_floor) == []
        assert resid.terms == ((q(-1, 256), 1),)
        # the floor -1/256 as its grid index at D = 256
        assert res.residual_floor == -1
        assert res.tail is not None and res.tail.sup == 0
        assert res.tail.low == q(-1, 512)

    def test_negative_part_stops_at_grid_without_raising(self, monkeypatch):
        calls, raised = [], []
        real = artin_mod.pth_root

        def recording(x):
            calls.append(x)
            try:
                return real(x)
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(artin_mod, "pth_root", recording)
        res = as_root(Series.monomial(K2.ctx, -1), ExtRat.of(q(12)))
        assert K2.ctx.D == 256
        # one part per root t^(-1/2), ..., t^(-1/256)
        assert len(calls) == 8
        assert len(res.theta.terms) == 8
        assert res.tail.low == q(-1, 512)
        assert res.residual_floor == -1
        assert raised == []

    def test_positive_exponent_is_refused(self):
        # every b the commands solve has only negative exponents, so the
        # solver builds no sum over the Frobenius powers of b_+
        b = Series.make(K2.ctx, {q(1): 1, q(-1): 1})
        with pytest.raises(ValueError, match="b has a term at exponent 1/1 > 0"):
            as_root(b, ExtRat.of(q(9)))

    def test_zero(self):
        res = as_root(Series.zero(K2.ctx), ExtRat.of(q(5)))
        assert res.theta.is_zero

    def test_residue_obstruction(self):
        b = Series.one(K2.ctx)  # x^2 - x = 1 has no root in F_2
        with pytest.raises(ValueError):
            as_root(b, ExtRat.of(q(5)))

    def test_random_roots(self):
        rng = random.Random(17)
        for K in (K2, K3):
            ctx = K.ctx
            p = ctx.p
            image = sorted({ctx.field.sub(ctx.field.frob(x), x) for x in range(ctx.q)})
            for _ in range(25):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    terms[Fraction(rng.randint(-6, 0))] = rng.randint(1, p - 1)
                terms[Fraction(0)] = rng.choice(image)
                b = Series.make(ctx, terms)
                res = as_root(b, ExtRat.of(q(16)))
                resid = residual(res, b)
                assert residual_window_violations(resid, res.residual_floor) == []
                # the residual window is fully visible at this precision
                assert resid.precision >= ExtRat.of(q(0))


def summed_root(b, precision):
    """as_root's theta and floor by one ``+`` per p-th root in the chain of
    b's negative part: the oracle for its one-pass sum."""
    ctx = b.ctx
    precision = min(ExtRat.of(precision), b.precision)
    rho = ctx.field.artin_schreier_roots(dict(b.kterms).get(0, 0))[0]
    theta = Series.make(ctx, {q(0): rho} if rho else {}, precision)
    x = Series(ctx, tuple(t for t in b.kterms if t[0] < 0), math.inf)
    while all(k % ctx.p == 0 for k, _ in x.kterms):
        x = pth_root(x)
        theta = theta + x
    return theta.truncate(precision), x.valuation_k()


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_one_pass_root_sum_matches_repeated_addition(p, m):
    # c1 t^-p^2 + c2 t^-p + c3 t^-1: the chains of the three terms meet at
    # -1/p^i, where the codes add and, for some c, cancel to 0
    ctx = make_context(EQUAL, p, m)
    F = ctx.field
    image = sorted({F.sub(F.frob(x), x) for x in range(ctx.q)})
    cancelled = 0
    for c1 in range(1, ctx.q):
        for c2 in range(1, ctx.q):
            c3 = (c1 * c2 + c2) % (ctx.q - 1) + 1
            terms = {q(-p * p): c1, q(-p): c2, q(-1): c3, q(0): image[c1 % len(image)]}
            for b_prec, prec in [(PLUS_INF, PLUS_INF), (PLUS_INF, q(-1, p * p)),
                                 (q(1), q(9)), (q(-1, p), PLUS_INF)]:
                b = Series.make(ctx, terms, b_prec)
                got = as_root(b, prec)
                theta, kfloor = summed_root(b, prec)
                assert (got.theta.kterms, got.theta.kprec) == (theta.kterms, theta.kprec)
                assert got.residual_floor == kfloor
                if b_prec == prec == PLUS_INF:
                    # each chain takes 8 roots, down to t^(-p^j/p^8) at D = p^8
                    reached = {-(p ** j) * ctx.D // p ** i for j in range(3) for i in range(1, 9)}
                    cancelled += len(reached - {k for k, _ in theta.kterms})
    assert cancelled  # some codes summed to 0 and were dropped


def test_residual_window_rule():
    resid = Series.make(K2.ctx, {q(-1, 4): 1, q(-1, 8): 1, q(0): 1, q(3): 1})

    def k(v):  # the floor v as its grid index
        return int(v * K2.ctx.D)

    # a negative floor allows terms in [floor, 0) only, the floor included
    assert residual_window_violations(resid, k(q(-1, 4))) == [q(0), q(3)]
    assert residual_window_violations(resid, k(q(-1, 4)) + 1) == [q(-1, 4), q(0), q(3)]
    assert residual_window_violations(resid, k(q(-1, 8))) == [q(-1, 4), q(0), q(3)]
    # any other floor allows no term below it
    assert residual_window_violations(resid, k(q(0))) == [q(-1, 4), q(-1, 8)]
    assert residual_window_violations(resid, k(q(1))) == [q(-1, 4), q(-1, 8), q(0)]
    assert residual_window_violations(resid, math.inf) == [q(-1, 4), q(-1, 8), q(0), q(3)]
    assert residual_window_violations(Series.zero(K2.ctx), math.inf) == []


class TestGeneratorTransform:
    def test_identity(self):
        b = Series.monomial(K2.ctx, -1)
        theta = as_root(b, ExtRat.of(q(8))).theta
        assert as_generator_transform(theta, 1, Series.zero(K2.ctx)) == theta

    def test_p3_orbit_relation(self):
        ctx = K3.ctx
        b = Series.monomial(ctx, -1)
        res = as_root(b, ExtRat.of(q(8)))
        theta = res.theta
        c = Series.monomial(ctx, 1)
        theta2 = as_generator_transform(theta, 2, c)
        # (2 theta + c)^3 - (2 theta + c) = 2(theta^3 - theta) + c^3 - c
        lhs = theta2.pow_int(3) - theta2
        rhs = (theta.pow_int(3) - theta).scale(2) + c.pow_int(3) - c
        assert (lhs - rhs).is_zero

    def test_rejects_non_prime_subfield(self):
        ctx4 = make_context(EQUAL, 2, 2)
        theta = Series.monomial(ctx4, -1)
        with pytest.raises(ValueError):
            as_generator_transform(theta, 2, Series.zero(ctx4))
        with pytest.raises(ValueError):
            as_generator_transform(theta, 0, Series.zero(ctx4))


class TestTransformInseparable:
    def test_canonical_p2(self):
        eta = Series.monomial(K2.ctx, q(1, 2))
        d = Series.monomial(K2.ctx, 1)
        cert = transform_inseparable(eta, K2, d, value_set(eta, K2, 3))
        theta_tilde = cert.generator * d
        assert theta_tilde.valuation() == ExtRat.of(q(1, 2))
        assert (eta - theta_tilde).valuation() == ExtRat.of(q(3, 4))
        assert cert.sample.upper == Cut(ExtRat.of(q(-1, 2)), True)
        vals = set(values(cert.sample))
        assert q(-1, 2) in vals and q(-2) in vals
        assert cert.claims.unique_extension == "proved"
        assert cert.claims.unique_rule == "ve_th"

    def test_canonical_p3(self):
        eta = Series.monomial(K3.ctx, q(1, 3))
        d = Series.monomial(K3.ctx, 1)
        cert = transform_inseparable(eta, K3, d, value_set(eta, K3, 2))
        assert cert.generator.valuation() == ExtRat.of(q(-2, 3))
        # v(eta - d theta) = ((p-1) v(d) + v(eta)) / p = (2 + 1/3)/3 = 7/9
        assert (eta - cert.generator * d).valuation() == ExtRat.of(q(7, 9))

    def test_guard_violated(self):
        eta = Series.monomial(K2.ctx, q(1, 2))
        d = Series.one(K2.ctx)  # v(d) = 0 < 1/2
        sample = value_set(eta, K2, 2)
        with pytest.raises(ValueError):
            transform_inseparable(eta, K2, d, sample)

    def test_eta_p_must_be_in_K(self):
        eta = Series.monomial(K2.ctx, q(1, 4))  # eta^2 = t^(1/2) not in K
        d = Series.monomial(K2.ctx, 1)
        sample = value_set(eta, K2, 2)
        with pytest.raises(ValueError):
            transform_inseparable(eta, K2, d, sample)


class TestTransformIdentityChecks:
    """Each identity ``transform_inseparable`` checks, reached by a
    perturbed root or sample, for eta = t^(1/2) and d = t over F_2(t):
    v(d theta) = 1/2, v(eta - d theta) = 3/4 and v(eta/d - theta) = -1/4."""

    eta = Series.monomial(K2.ctx, q(1, 2))
    d = Series.monomial(K2.ctx, 1)

    def transform(self):
        return transform_inseparable(self.eta, K2, self.d, value_set(self.eta, K2, 3))

    def perturb_root(self, monkeypatch, exp):
        real = artin_mod.as_root

        def root(b, precision):
            r = real(b, precision)
            return r._replace(theta=r.theta + Series.monomial(K2.ctx, exp))

        monkeypatch.setattr(artin_mod, "as_root", root)

    def test_valuation_of_d_theta(self, monkeypatch):
        self.perturb_root(monkeypatch, q(-3, 2))
        with pytest.raises(AssertionError) as exc:
            self.transform()
        assert str(exc.value) == "v(d theta) = -1/2 differs from v(eta) = 1/2"

    def test_valuation_of_eta_minus_d_theta(self, monkeypatch):
        self.perturb_root(monkeypatch, q(-3, 8))
        with pytest.raises(AssertionError) as exc:
            self.transform()
        assert str(exc.value) == "v(eta - d theta) = 5/8, expected ((p-1)v(d)+v(eta))/p = 3/4"

    @pytest.mark.parametrize("bound, attained, passes", [
        (q(-1, 4), True, False),  # -1/4 lies in {q <= -1/4}
        (q(-1, 4), False, True),
        (q(-1, 4) - q(1, 512), True, True),  # the bounds between grid points
        (q(-1, 4) + q(1, 512), False, False),
    ])
    def test_comparison_element_against_the_upper_cut(self, monkeypatch, bound, attained,
                                                      passes):
        real = artin_mod._merge_samples

        def merge(a, b):
            return real(a, b)._replace(upper=Cut(bound, attained))

        monkeypatch.setattr(artin_mod, "_merge_samples", merge)
        if passes:
            assert self.transform().sample.upper == Cut(bound, attained)
        else:
            with pytest.raises(AssertionError) as exc:
                self.transform()
            assert str(exc.value) == "comparison element is not strictly closer than K"


class TestAsFamily:
    def test_five_members_p2(self):
        eta = Series.monomial(K2.ctx, q(1, 2))
        d = Series.monomial(K2.ctx, 1)
        certs = as_family(eta, K2, d, 5, value_set(eta, K2, 3))
        assert len(certs) == 5
        for n, cert in enumerate(certs, start=1):
            assert cert.sample.upper == Cut(ExtRat.of(q(1, 2) - n), True)
            assert cert.claims.defect == 1
            assert cert.claims.defect_rule == "ramified"
        sets = [frozenset(values(c.sample)) for c in certs]
        assert len(set(sets)) == 5

    def test_three_members_p3(self):
        eta = Series.monomial(K3.ctx, q(1, 3))
        d = Series.monomial(K3.ctx, 1)
        certs = as_family(eta, K3, d, 3, value_set(eta, K3, 2))
        for n, cert in enumerate(certs, start=1):
            assert cert.sample.upper == Cut(ExtRat.of(q(1, 3) - n), True)


@pytest.mark.parametrize(
    "build, condition",
    [
        (lambda eta, d, s: transform_inseparable(eta, K2, d, s), "twist condition fails"),
        (lambda eta, d, s: as_family(eta, K2, d, 2, s), "family hypothesis fails"),
        (lambda eta, d, s: admissible_twist(eta, s), "no certified finite upper bound"),
    ],
    ids=["transform_inseparable", "as_family", "admissible_twist"],
)
def test_unbounded_sample_fails_the_named_condition(build, condition):
    # the cut +inf- lies above every finite one, so each function's own
    # comparison refuses it; only admissible_twist does arithmetic on it
    eta = Series.monomial(K2.ctx, q(1, 2))
    sample = value_set(eta, K2, 2)._replace(upper=Cut(PLUS_INF, False))
    with pytest.raises(ValueError, match=condition):
        build(eta, Series.monomial(K2.ctx, 1), sample)


class TestImperfectionWitness:
    def test_fp_t(self):
        w = imperfection_witness(K2)
        assert w is not None and w.terms == ((q(1, 2), 1),)

    def test_laurent(self):
        w = imperfection_witness(L2)
        assert w is not None and w.terms == ((q(1, 2), 1),)

    def test_perfect_tower(self):
        assert imperfection_witness(T2) is None

    def test_a_root_in_k_is_refused(self, monkeypatch):
        # t^(1/p) lies off every imperfect preset's lattice; a membership
        # rule that accepted it would make the witness prove nothing
        monkeypatch.setattr(approx_mod, "member_witness", lambda K, s: True)
        with pytest.raises(ValueError, match="^the p-th root of t lies in fp_t; it witnesses"):
            imperfection_witness(K2)


class TestAdmissibleTwist:
    @pytest.mark.parametrize(
        "preset, p",
        [("fp_t", 2), ("fp_t", 3), ("laurent", 2), ("laurent", 3)],
    )
    def test_matches_cli_choice(self, preset, p):
        # asfamily --budget 2 prints "v(d) = 1/1" for all four presets
        K = preset_field(preset, p)
        eta = imperfection_witness(K)
        d = admissible_twist(eta, value_set(eta, K, 2))
        assert d.terms == ((q(1), 1),)

    @pytest.mark.parametrize(
        "preset, p, terms",
        [("fp_t", 2, {q(0): 1, q(1, 2): 1}), ("laurent", 3, {q(-1): 1, q(1, 3): 1})],
    )
    def test_integer_bound_steps_strictly_above(self, preset, p, terms):
        # (p u - v(eta)) / (p - 1) = 1 exactly, so v(d) = 1 fails the twist
        # condition and the choice must be 2
        K = preset_field(preset, p)
        eta = Series.make(K.ctx, terms)
        sample = value_set(eta, K, 2)
        d = admissible_twist(eta, sample)
        assert d.terms == ((q(2), 1),)
        transform_inseparable(eta, K, d, sample)
        with pytest.raises(ValueError, match="twist condition fails"):
            transform_inseparable(eta, K, Series.monomial(K.ctx, q(1)), sample)


class TestPairwiseDistinct:
    def test_as_family_duplicates(self):
        eta = Series.monomial(K2.ctx, q(1, 2))
        certs = as_family(eta, K2, Series.monomial(K2.ctx, 1), 2, value_set(eta, K2, 2))
        check_pairwise_distinct(certs)
        with pytest.raises(AssertionError, match="members 1 and 2 have equal samples"):
            check_pairwise_distinct([certs[0], certs[0]])
        same_poly = certs[1]._replace(min_poly=certs[0].min_poly)
        with pytest.raises(AssertionError, match="members 1 and 2 share a minimal polynomial"):
            check_pairwise_distinct([certs[0], same_poly])

    def test_kummer_shared_minimal_polynomial(self):
        QT2 = preset_field("qp_pdiv_tower", 2, D=2 ** 16)
        eta, tail = lab_superdependent_unit(QT2)
        certs = kummer_family(eta, QT2, 2, 5, tail)
        with pytest.raises(AssertionError, match="members 1 and 2 share a minimal polynomial"):
            check_pairwise_distinct([certs[0], certs[1]._replace(min_poly=certs[0].min_poly)])

    def test_overlap_names_the_members_in_index_order(self):
        # sorted by lo, member 2 ([-3/2+, -1/2+]) comes before member 1
        # ([-1/2+, -1/2+]); the message still names them as 1 and 2
        eta = imperfection_witness(K2)
        sample = value_set(eta, K2, 2)
        m1, m2 = as_family(eta, K2, admissible_twist(eta, sample), 2, sample)
        assert (str(m1.dist), str(m2.dist)) == ("[-1/2+, -1/2+]", "[-3/2+, -3/2+]")
        forged = m2._replace(dist=CutEnclosure(m2.dist.lo, m1.dist.hi))
        with pytest.raises(AssertionError,
                           match="^members 1 and 2 have overlapping distance enclosures$"):
            check_pairwise_distinct([m1, forged])


class TestClassicalDefectExtension:
    @pytest.mark.parametrize("K", [T2, T3], ids=["p2", "p3"])
    def test_uniqextv_rule(self, K):
        b = Series.monomial(K.ctx, -1)
        cert = as_extension(b, K, 3 if K.ctx.p == 2 else 2)
        assert cert.sample.no_max == "proved"
        assert cert.dist.is_exact
        assert cert.dist.lo == Cut(ExtRat.of(0), False)
        assert cert.claims.defect == K.ctx.p
        assert cert.claims.defect_rule == "uniqextv"
        assert cert.claims.immediate == "proved"
        assert cert.claims.unique_extension == "proved"

    @pytest.mark.parametrize("K", [T2, T3], ids=["p2", "p3"])
    def test_sigma_values_accumulate(self, K):
        p = K.ctx.p
        b = Series.monomial(K.ctx, -1)
        cert = as_extension(b, K, 3 if p == 2 else 2)
        sig = sigma_sample(cert)
        vals = {Fraction(k, K.ctx.D) for k, _ in sig.values}
        assert {q(1, p), q(1, p ** 2), q(1, p ** 3)} <= vals
        assert all(v > 0 for v in vals)
        assert sig.verdict == "independent_consistent"

    def test_sigma_gap_below_zero_is_dependent_evidence(self):
        # the same positive values under a proved no-maximum, with the
        # enclosure moved to a certified gap below 0
        cert = as_extension(Series.monomial(T2.ctx, -1), T2, 2)
        base = sigma_sample(cert)
        assert (cert.sample.no_max, base.verdict) == ("proved", "independent_consistent")
        gap = cert._replace(dist=CutEnclosure(Cut(ExtRat.of(q(-1, 2)), True),
                                              Cut(ExtRat.of(q(-1, 4)), False)))
        assert sigma_sample(gap) == base._replace(verdict="dependent_evidence")

    def test_sigma_invariant_under_generator_change(self):
        b = Series.monomial(T2.ctx, -1)
        cert = as_extension(b, T2, 3)
        from defectlab.approx import value_set
        theta = cert.generator
        c = Series.monomial(T2.ctx, 1)
        theta2 = as_generator_transform(theta, 1, c)
        s1 = value_set(theta, T2, 2, cert.generator_tail)
        s2 = value_set(theta2, T2, 2, cert.generator_tail)
        assert values(s1) == values(s2)
        assert s1.upper == s2.upper

    def test_value_set_invariant_over_full_orbit_p3(self):
        # the value set is an invariant of the extension: identical across
        # all generators i*theta + c
        from defectlab.approx import value_set

        b = Series.monomial(T3.ctx, -1)
        cert = as_extension(b, T3, 2)
        theta = cert.generator
        base = value_set(theta, T3, 2, cert.generator_tail)
        cs = [Series.zero(T3.ctx), Series.monomial(T3.ctx, 1),
              Series.monomial(T3.ctx, q(1, 3))]
        for i_code in (1, 2):
            for c in cs:
                theta2 = as_generator_transform(theta, i_code, c)
                s2 = value_set(theta2, T3, 2, cert.generator_tail)
                assert values(s2) == values(base)
                assert s2.upper == base.upper
                assert s2.no_max == base.no_max


def _sigma_monomial_keys(cert):
    """The sigma values of every f = c theta^j, c nonzero at height 1 of
    ``enumerate_elements`` and 1 <= j < p, as v(sigma f - f) - v(f) by
    ``Series`` arithmetic: the brute-force reference for the one value
    -v(theta) that ``sigma_sample`` reads off theta."""
    theta = cert.generator
    keys = set()
    shifted = theta + Series.one(theta.ctx)
    powers = [(theta.pow_int(j), shifted.pow_int(j)) for j in range(1, theta.ctx.p)]
    for c in enumerate_elements(cert.base, 1):
        if not c.is_zero:
            for tj, sj in powers:
                f = c * tj
                keys.add((c * sj - f).valuation_k() - f.valuation_k())
    return keys


# pdiv_tower at p = 5 (about 1.4 s of listing) is left out
_SIGMA_CASES = (
    [(name, p, 1, b) for name in ("fp_t", "laurent", "pdiv_tower") for p in (2, 3)
     for b in (1, 2, 3)]
    + [(name, p, 2, 1) for name in ("fp_t", "laurent", "pdiv_tower") for p in (2, 3)]
    + [("fp_t", 5, 1, 1), ("laurent", 5, 1, 1)]
)


@pytest.mark.parametrize("name, p, m, budget", _SIGMA_CASES,
                         ids=[f"{n}-q{p ** m}-b{b}" for n, p, m, b in _SIGMA_CASES])
def test_sigma_values_match_the_listing_scan(name, p, m, budget):
    K = preset_field(name, p, m)
    cert = as_extension(Series.monomial(K.ctx, -1), K, budget)
    monomial = _sigma_monomial_keys(cert)
    # the sample realizes v(theta) by its empty truncation; without that
    # value, only the monomials give -v(theta)
    kt = cert.generator.valuation_k()
    thinned = cert._replace(sample=cert.sample._replace(
        realized=tuple(r for r in cert.sample.realized if r[0] != kt)))
    for case in (cert, thinned):
        sig = sigma_sample(case)
        assert {k for k, _ in sig.values} == {-k for k, _ in case.sample.realized} | monomial
        # every witness is theta - c with c in K or c = 0, so sigma f - f = 1
        assert all(k == -f.valuation_k() for k, f in sig.values)
        assert dict(sig.values)[-kt] == cert.generator


@pytest.mark.parametrize("exp", [0, 1], ids=["v0", "v1"])
def test_sigma_refuses_a_generator_without_negative_valuation(exp):
    # (theta + 1)^j - theta^j need not lead with j theta^(j-1) then
    cert = as_extension(Series.monomial(T2.ctx, -1), T2, 1)
    forged = cert._replace(generator=Series.monomial(T2.ctx, exp))
    with pytest.raises(ValueError, match=r"needs v\(theta\) < 0"):
        sigma_sample(forged)


class TestCertifyEdges:
    def test_unknown_sample_gives_unknown_claims(self):
        b = Series.monomial(K2.ctx, -1)
        cert = as_extension(b, K2, 2)
        assert cert.claims.defect == 1  # -1/2 lies off the value group Z
        # an inconclusive sample: its values lie in Z, its maximum unknown
        inside = tuple((k, w) for k, w in cert.sample.realized if k % K2.grid_step == 0)
        assert inside
        sample = cert.sample._replace(no_max="unknown", realized=inside)
        out = certify(cert.kind, K2, cert.generator, cert.generator_tail,
                      cert.min_poly[0], cert.residual_floor, sample, Claims(), ())
        assert out.claims == Claims()
        assert out.dist == CutEnclosure(Cut(ExtRat.of(-1), True), cert.sample.upper)
        assert out.min_poly == cert.min_poly

    def test_family_of_one_matches_transform(self):
        eta = Series.monomial(K2.ctx, q(1, 2))
        d = Series.monomial(K2.ctx, 1)
        sample = value_set(eta, K2, 3)
        certs = as_family(eta, K2, d, 1, sample)
        single = transform_inseparable(eta, K2, d, sample)
        assert certs[0].sample.realized == single.sample.realized
        assert certs[0].min_poly[0] == single.min_poly[0]
