"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from defectlab.approx import imperfection_witness, semitame_report, value_set
from defectlab.artin import (
    ARTIN_SCHREIER,
    as_extension,
    as_root,
    degree_p_poly,
    residual_window_violations,
    sigma_sample,
    transform_inseparable,
)
from defectlab.certfile import read_certificate_file, verify_certificate
from defectlab.cli import main as cli_main
from defectlab.cuts import Cut, ExtRat, segment_affine
from defectlab.fields import preset_field
from defectlab.kummer import pth_power_difference_check
from defectlab.series import MIXED, Series, invert, make_context, zeta_p
from helpers import cut_of_sample, horner, realized, values


def q(n, d=1):
    return Fraction(n, d)


def _report(num, name):
    print(f"[acceptance] C{num:02d} {name}: PASS")


def cut_compare(x, y):
    """The order of two cuts as one of less / equal / greater."""
    return "less" if x < y else "greater" if x > y else "equal"


# -------------------------------------------------------------------------


def test_c01_cut_algebra_randomized():
    rng = random.Random(20260808)
    cases = 1000

    def rand_cut():
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        return Cut(ExtRat.of(b), rng.random() < 0.5)

    failures = 0
    for _ in range(cases):
        x, y, z = rand_cut(), rand_cut(), rand_cut()
        # total order: antisymmetry, transitivity, totality
        rel_xy, rel_yx = cut_compare(x, y), cut_compare(y, x)
        if {rel_xy, rel_yx} not in ({"less", "greater"}, {"equal"}):
            failures += 1
        if cut_compare(x, y) != "greater" and cut_compare(y, z) != "greater":
            if cut_compare(x, z) == "greater":
                failures += 1
        # affine images preserve the order
        n = rng.randint(1, 6)
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        if cut_compare(segment_affine(x, n, alpha), segment_affine(y, n, alpha)) != rel_xy:
            failures += 1
        # S+ <= s-  iff  S < s
        vals = [Fraction(rng.randint(-30, 30), rng.randint(1, 8))
                for _ in range(rng.randint(1, 7))]
        s = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
        lhs = cut_of_sample(vals) <= Cut(ExtRat.of(s), False)
        if lhs != (max(vals) < s):
            failures += 1
    assert failures == 0
    _report(1, "cut algebra randomized suites (1000 cases)")


# -------------------------------------------------------------------------


def _instances_for_c2():
    rng = random.Random(7)
    out = []
    K_rat = preset_field("fp_t", 2, D=3 * 2 ** 8)
    K_tow = preset_field("pdiv_tower", 2, D=3 * 2 ** 8)
    for K, bad_dens in ((K_rat, (2, 4)), (K_tow, (3, 6))):
        for _ in range(12):
            terms = {}
            e0 = Fraction(rng.randint(-2, 2), rng.choice(bad_dens))
            if e0.denominator == 1:
                e0 += Fraction(1, bad_dens[0])
            terms[e0] = 1
            for _ in range(rng.randint(0, 2)):
                terms.setdefault(Fraction(rng.randint(-2, 3)), 1)
            out.append((Series.make(K.ctx, terms), K))
    return out


def _in_value_group(K, x):
    """Z for fp_t, Z[1/2] for pdiv_tower, by the denominator of x."""
    d = x.denominator
    while K.name == "pdiv_tower" and d % 2 == 0:
        d //= 2
    return d == 1


def test_c02_value_set_structure():
    instances = _instances_for_c2()
    assert len(instances) >= 20
    rng = random.Random(11)
    for a, K in instances:
        sample = value_set(a, K, 3)
        vals = values(sample)
        in_group = [v for v in vals if _in_value_group(K, v)]
        outside = [v for v in vals if not _in_value_group(K, v)]

        # part (4): at most one realized value outside vK
        assert len(outside) <= 1

        # part (3): realized values in vK form an initial segment; for
        # every realized alpha with witness c and every enumerated b of
        # group value beta < alpha, the composite witness c - b realizes
        # beta exactly
        from defectlab.fields import enumerate_elements

        small = [e for e in enumerate_elements(K, 1) if not e.is_zero]
        if in_group:
            alpha = max(in_group)
            c_alpha = dict(realized(sample))[alpha]
            for b_el in small:
                beta = b_el.valuation().fraction
                if beta < alpha and _in_value_group(K, beta):
                    composite = c_alpha - b_el
                    assert (a - composite).valuation() == ExtRat.of(beta)

        # part (5): v(d a + c - K) = v(a - K) + v(d), witness by witness
        els = small
        d = rng.choice(els)
        c = rng.choice(els + [Series.zero(K.ctx)])
        vd = d.valuation().fraction
        a2 = d * a + c
        for v, w in realized(sample):
            w2 = d * w + c
            assert (a2 - w2).valuation() == ExtRat.of(v + vd)
        # and back: fresh witnesses of a2 translate to witnesses of a
        sample2 = value_set(a2, K, 3)
        d_inv = invert(d, ExtRat.of(q(10) + abs(vd)))
        for v, w2 in realized(sample2):
            w = (w2 - c) * d_inv
            got = (a - w).valuation()
            assert got == ExtRat.of(v - vd)

        # part (6): a deep perturbation does not change the witnessed values
        if sample.upper.bound.is_finite:
            delta = Series.monomial(K.ctx, sample.upper.bound.fraction + 2)
            b = a + delta
            for v, w in realized(sample):
                assert (b - w).valuation() == ExtRat.of(v)
    _report(2, "value-set structure parts (3)-(6) on 24 instances")


# -------------------------------------------------------------------------


def test_c03_translated_samples_pairwise_distinct():
    K = preset_field("fp_t", 2)
    a = Series.monomial(K.ctx, q(1, 2))
    sample = value_set(a, K, 3)
    vals = frozenset(values(sample))
    vd = Fraction(1)
    alpha = max(vals)
    assert sample.upper <= Cut(ExtRat.of(alpha + vd), False)
    translates = [frozenset(v - n * vd for v in vals) for n in range(1, 11)]
    for i in range(10):
        for j in range(i + 1, 10):
            assert translates[i] != translates[j]
    _report(3, "ten translated value sets pairwise distinct (exact)")


# -------------------------------------------------------------------------


def test_c04_artin_schreier_solver():
    rng = random.Random(404)
    count = 0
    for p in (2, 3):
        for preset in ("fp_t", "pdiv_tower"):
            K = preset_field(preset, p)
            ctx = K.ctx
            image = sorted({ctx.field.sub(ctx.field.frob(x), x) for x in range(ctx.q)})
            for _ in range(25):
                terms = {}
                dens = [1] if preset == "fp_t" else [1, p]
                for _ in range(rng.randint(1, 3)):
                    e = Fraction(rng.randint(-(p * p), 0), rng.choice(dens))
                    terms[e] = rng.randint(1, p - 1)
                terms[Fraction(0)] = rng.choice(image)
                b = Series.make(ctx, terms)
                res = as_root(b, ExtRat.of(q(4 * p * p + 8)))
                resid = horner(degree_p_poly(ARTIN_SCHREIER, b.neg()), res.theta)
                assert residual_window_violations(resid, res.residual_floor) == []
                # the exception window [floor, 0) is fully certified and
                # at least p^4 refinement levels deep (so no wider than
                # the most negative exponent shrunk p^4-fold)
                assert resid.precision >= ExtRat.of(q(0))
                if res.residual_floor != math.inf:
                    e_min = min(e for e, _ in b.terms)
                    assert Fraction(res.residual_floor, ctx.D) >= e_min / p ** 4
                count += 1
    assert count == 100
    _report(4, "100 Artin-Schreier roots verified exactly (p in {2,3})")


# -------------------------------------------------------------------------


def test_c05_transform_chain():
    for p, exps in ((2, (q(1, 2), q(3, 4), q(-1, 2))), (3, (q(1, 3), q(7, 9), q(-2, 3)))):
        K = preset_field("fp_t", p)
        veta, gap_expected, upper_expected = exps
        eta = Series.monomial(K.ctx, veta)
        d = Series.monomial(K.ctx, 1)
        cert = transform_inseparable(eta, K, d, value_set(eta, K, 2))
        theta_tilde = cert.generator * d
        assert theta_tilde.valuation() == ExtRat.of(veta)
        assert (eta - theta_tilde).valuation() == ExtRat.of(gap_expected)
        assert cert.sample.upper == Cut(ExtRat.of(upper_expected), True)
        # witness-by-witness translation was verified inside the transform;
        # re-assert the translated maximum here
        assert max(values(cert.sample)) == upper_expected
    _report(5, "transform chain equalities exact (p = 2 and p = 3)")


# -------------------------------------------------------------------------


def test_c06_family_pipeline(tmp_path):
    for preset in ("fp_t", "laurent"):
        out = tmp_path / f"{preset}.json"
        code = cli_main(["asfamily", "--base", preset, "--p", "2", "--n", "10",
                         "--budget", "3", "--out", str(out)])
        assert code == 0
        cf = read_certificate_file(str(out))
        assert len(cf.certs) == 10
        sets = [frozenset(values(c.sample)) for c in cf.certs]
        assert len(set(sets)) == 10
        consts = [c.min_poly[0].terms for c in cf.certs]
        assert len(set(consts)) == 10
        # degree 2 = defect * e * f with e = 2 (ramified) and f = 1
        for cert in cf.certs:
            assert cert.claims.defect == 1
    # the perfect tower yields no witness, matching its condition verdicts
    T = preset_field("pdiv_tower", 2)
    assert imperfection_witness(T) is None
    rep = semitame_report(T)
    assert all(rep[k].status == "proved" for k in ("a", "b", "c", "d", "e", "f"))
    _report(6, "families of 10 over fp_t and laurent; perfect tower yields none")


# -------------------------------------------------------------------------


def test_c07_classical_defect_extension():
    for p in (2, 3):
        K = preset_field("pdiv_tower", p)
        b = Series.monomial(K.ctx, -1)
        cert = as_extension(b, K, 3 if p == 2 else 2)
        assert cert.dist.is_exact
        assert cert.dist.lo == Cut(ExtRat.of(0), False)
        assert cert.sample.no_max == "proved"
        assert cert.claims.defect == p
        assert cert.claims.defect_rule == "uniqextv"
        sig = sigma_sample(cert)
        vals = {Fraction(k, K.ctx.D) for k, _ in sig.values}
        assert {q(1, p ** k) for k in range(1, 5)} <= vals
        assert sig.verdict == "independent_consistent"
    _report(7, "classical extension: dist = 0-, defect p, sigma at 0+")


# -------------------------------------------------------------------------


def test_c08_condition_circle_consistency():
    for preset in ("fp_t", "laurent", "pdiv_tower"):
        K = preset_field(preset, 2)
        rep = semitame_report(K)
        statuses = {rep[k].status for k in ("a", "b", "c", "d", "e", "f")}
        assert not ({"proved", "refuted"} <= statuses), preset
    L = preset_field("laurent", 2)
    rep = semitame_report(L)
    assert rep["e"].status == "refuted"
    assert rep["e"].witness.terms == ((q(1, 2), 1),)
    _report(8, "condition circle consistent on all presets; witness stored")


# -------------------------------------------------------------------------


def test_c09_mixed_characteristic_exact():
    ctx9 = make_context(MIXED, 3, 2)
    z = zeta_p(ctx9, ExtRat.of(q(6)))
    assert (z - Series.one(ctx9)).valuation() == ExtRat.of(q(1, 2))

    rng = random.Random(909)
    checked = 0
    for p in (2, 3):
        ctx = make_context(MIXED, p)
        for _ in range(100):
            prec = ExtRat.of(q(14))
            terms = {q(0): rng.randint(1, p - 1)}
            for _ in range(rng.randint(0, 2)):
                terms[Fraction(rng.randint(1, 6), rng.choice([1, p]))] = rng.randint(1, p - 1)
            eta = Series.make(ctx, terms, prec)
            den = rng.choice([4, 8, 16] if p == 2 else [6, 9, 27])
            num = rng.randint(1, max(1, den // (p - 1) - 1))
            vdelta = Fraction(num, den)
            assert vdelta < Fraction(1, p - 1)
            a = eta - Series.monomial(ctx, vdelta, rng.randint(1, p - 1), prec)
            rep = pth_power_difference_check(eta, a)
            assert rep.precondition_holds
            assert rep.equation_holds, (p, eta, a)
            checked += 1
    assert checked == 200

    ctx2 = make_context(MIXED, 2)
    rep = pth_power_difference_check(Series.from_int(ctx2, 3), Series.from_int(ctx2, 1))
    assert not rep.precondition_holds
    assert rep.lhs == ExtRat.of(q(3)) and rep.rhs == ExtRat.of(q(2))
    assert rep.equation_holds is False
    _report(9, "v(zeta_3 - 1) = 1/2; 200 admissible pairs; boundary pair fails")


# -------------------------------------------------------------------------


def test_c10_kummer_family_pipeline(tmp_path):
    out = tmp_path / "kummer.json"
    code = cli_main(["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2",
                     "--n", "5", "--budget", "5", "--out", str(out)])
    assert code == 0
    cf = read_certificate_file(str(out))
    assert len(cf.certs) == 5
    sets = [frozenset(values(c.sample)) for c in cf.certs]
    assert len(set(sets)) == 5
    from defectlab.fields import member_witness

    for cert in cf.certs:
        one = Series.one(cert.base.ctx)
        assert (cert.generator - one).valuation() > ExtRat.of(0)
        rhs = cert.min_poly[0].neg()
        assert member_witness(cert.base, rhs)
        assert cert.claims.classification == "super_dependent"
        bounds = dict(cert.claims.bounds)
        bound = Fraction(bounds["super_dependent_bound"])
        vt = Fraction(bounds["v_td"])
        assert bound == q(1, 2) + vt
        assert cert.sample.upper <= Cut(ExtRat.of(bound), False)
    _report(10, "five super-dependent Kummer certificates, bounds recorded")


# -------------------------------------------------------------------------


def test_c11_certificate_roundtrip(tmp_path):
    paths = []
    for argv, name in [
        (["asfamily", "--base", "fp_t", "--p", "2", "--n", "4", "--budget", "3"], "as"),
        (["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2", "--n", "3",
          "--budget", "5"], "ku"),
        (["sigma", "--base", "pdiv_tower", "--p", "2", "--budget", "3"], "sg"),
    ]:
        out = tmp_path / f"{name}.json"
        assert cli_main(argv + ["--out", str(out)]) in (0, 2)
        paths.append(out)
    for path in paths:
        cf = read_certificate_file(str(path))
        diffs = verify_certificate(cf)
        assert not diffs, diffs
        # byte-for-byte reproducibility of the payload
        again = tmp_path / (path.name + ".again")
        from defectlab.certfile import write_certificate_file

        write_certificate_file(str(again), cf)
        assert again.read_bytes() == path.read_bytes()
    # single-value tampering is detected
    target = paths[0]
    obj = json.loads(target.read_text())
    obj["certs"][0]["sample"]["realized"][0]["value"] = "-41/1"
    target.write_text(json.dumps(obj))
    assert cli_main(["verify", str(target)]) == 2
    _report(11, "round-trip verification bit-exact; tampering detected")
