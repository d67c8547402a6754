import random
from fractions import Fraction
from pathlib import Path

import pytest

from defectlab import kummer
from defectlab.approx import TailSchema, translate_sample, value_set
from defectlab.artin import Claims, _short_hash, certify
from defectlab.certfile import read_certificate_file
from defectlab.cli import main
from defectlab.cuts import PLUS_INF, Cut, CutEnclosure, ExtRat
from defectlab.fields import enumerate_elements, member_witness, preset_field
from defectlab.kummer import (
    is_one_unit,
    kummer_family,
    lab_superdependent_unit,
    pth_power_difference_check,
    transform_mixed,
)
from defectlab.series import (
    MIXED,
    ConvergenceError,
    Series,
    grid_bound,
    newton_root,
)
from helpers import values


def q(n, d=1):
    return Fraction(n, d)


QP2 = preset_field("qp", 2)
QT2 = preset_field("qp_pdiv_tower", 2, D=2 ** 16)


class TestPthPowerCheck:
    def test_half_exponent_example(self):
        ctx = QP2.ctx
        eta = Series.make(ctx, {q(0): 1, q(1, 2): 1}, ExtRat.of(q(8)))
        a = Series.one(ctx, ExtRat.of(q(8)))
        rep = pth_power_difference_check(eta, a)
        assert rep.precondition_holds
        assert rep.rhs == ExtRat.of(q(1))
        assert rep.lhs == ExtRat.of(q(1))
        assert rep.equation_holds

    def test_boundary_pair_nine_minus_one(self):
        ctx = QP2.ctx
        eta = Series.from_int(ctx, 3)
        a = Series.from_int(ctx, 1)
        rep = pth_power_difference_check(eta, a)
        assert not rep.precondition_holds
        assert rep.lhs == ExtRat.of(q(3))  # v(8)
        assert rep.rhs == ExtRat.of(q(2))  # 2 v(2)
        assert rep.equation_holds is False

    def test_degenerate(self):
        ctx = QP2.ctx
        eta = Series.from_int(ctx, 3)
        rep = pth_power_difference_check(eta, eta)
        assert not rep.precondition_holds and rep.equation_holds is None

    def test_random_admissible_pairs(self):
        rng = random.Random(31)
        ctx = QP2.ctx
        p = 2
        for _ in range(60):
            prec = ExtRat.of(q(12))
            base = {q(0): 1}
            for _ in range(rng.randint(0, 2)):
                base[Fraction(rng.randint(1, 8), rng.choice([1, 2, 4]))] = 1
            eta = Series.make(ctx, base, prec)
            vdelta = Fraction(rng.randint(1, 7), rng.choice([1, 2, 4, 8]))
            if vdelta >= 1:
                vdelta = Fraction(rng.randint(1, 7), 8)
            delta = Series.monomial(ctx, vdelta, 1, prec)
            a = eta - delta
            rep = pth_power_difference_check(eta, a)
            assert rep.precondition_holds
            assert rep.equation_holds, (eta, a, rep)


class TestLabWitness:
    def test_shape(self):
        eta, tail = lab_superdependent_unit(QT2)
        assert is_one_unit(eta)
        assert tail.sup == q(1, 8)
        assert eta.terms[0] == (q(0), 1)
        assert eta.terms[1][0] == q(1, 16)

    def test_value_set(self):
        from defectlab.approx import value_set

        eta, tail = lab_superdependent_unit(QT2)
        s = value_set(eta, QT2, 4, tail)
        assert s.no_max == "proved"
        assert s.upper == Cut(ExtRat.of(q(1, 8)), False)
        vals = set(values(s))
        assert q(1, 16) in vals and q(3, 32) in vals


class TestTransformMixed:
    def test_depth_guard(self):
        ctx = QT2.ctx
        # a lab unit with value set reaching up to 1/2 cannot pass vd = -1/4
        eta, tail = lab_superdependent_unit(QT2, sup=q(1, 2))
        d = Series.monomial(ctx, q(-1, 4), 1)
        sample = value_set(eta, QT2, 4, tail)
        with pytest.raises(ValueError):
            transform_mixed(eta, QT2, d, sample, tail, eta.pow_int(2))

    def test_unbounded_sample_fails_the_depth_condition(self):
        eta, tail = lab_superdependent_unit(QT2)
        d = Series.monomial(QT2.ctx, q(-1, 16), 1)
        sample = value_set(eta, QT2, 4, tail)._replace(upper=Cut(PLUS_INF, False))
        with pytest.raises(ValueError, match=r"depth condition fails: certified upper cut \+inf-"):
            transform_mixed(eta, QT2, d, sample, tail, eta.pow_int(2))

    def test_transform_runs(self):
        ctx = QT2.ctx
        eta, tail = lab_superdependent_unit(QT2)
        d = Series.monomial(ctx, q(-1, 16), 1)
        sample = value_set(eta, QT2, 4, tail)
        root = transform_mixed(eta, QT2, d, sample, tail, eta.pow_int(2))
        assert root.valuation() == ExtRat.of(0)
        gap = (root - eta).valuation()
        # the root correction enters at (v(p) + v(d))/p = 15/32
        assert gap == ExtRat.of(q(15, 32))
        # the sample's witnesses transfer to the root
        transferred = translate_sample(sample, root, q(0), lambda w: w, tail)
        assert len(transferred.realized) >= 2

    def test_imprecise_eta_p_is_refused_by_its_own_precision(self):
        # the Newton target is 3/2 + v(d) = 23/16 at p = 2, v(d) = -1/16; the
        # guard reads eta^p's precision, not that of the constant cut at the
        # target: one grid step past the target is enough, at it is not
        eta, tail = lab_superdependent_unit(QT2)
        d = Series.monomial(QT2.ctx, q(-1, 16), 1)
        sample = value_set(eta, QT2, 4, tail)
        eta_p = eta.pow_int(2)
        target = q(23, 16)
        with pytest.raises(ValueError, match="eta is too imprecise for the requested transformation"):
            transform_mixed(eta, QT2, d, sample, tail, eta_p.truncate(target))
        step = q(1, QT2.ctx.D)
        root = transform_mixed(eta, QT2, d, sample, tail, eta_p.truncate(target + step))
        assert root == transform_mixed(eta, QT2, d, sample, tail, eta_p)

    def test_quarter_depth_instance(self):
        # upper bound 1/8 sits below (v(p) + v(d))/p = 3/8 for v(d) = -1/4,
        # and the linear coefficient 2d has value 3/4 > 2 * (1/8)
        ctx = QT2.ctx
        eta, tail = lab_superdependent_unit(QT2)
        d = Series.monomial(ctx, q(-1, 4), 1)
        assert (d + d).valuation() == ExtRat.of(q(3, 4))
        root = transform_mixed(eta, QT2, d, value_set(eta, QT2, 4, tail), tail, eta.pow_int(2))
        assert (root - eta).valuation() == ExtRat.of(q(3, 8))


class TestKummerFamily:
    def test_five_members(self):
        eta, tail = lab_superdependent_unit(QT2)
        certs = kummer_family(eta, QT2, 5, 5, tail)
        assert len(certs) == 5
        sets = [frozenset(values(c.sample)) for c in certs]
        assert len(set(sets)) == 5
        for cert in certs:
            assert cert.claims.classification == "super_dependent"
            assert cert.claims.defect == 2
            assert cert.claims.immediate == "proved"
            gen_minus_one = cert.generator - Series.one(QT2.ctx)
            assert gen_minus_one.valuation() > ExtRat.of(0)
            assert cert.dist.is_exact

    def test_family_of_ten(self):
        # the family size is limited only by the budget
        eta, tail = lab_superdependent_unit(QT2)
        certs = kummer_family(eta, QT2, 10, 7, tail)
        assert len(certs) == 10
        sets = [frozenset(values(c.sample)) for c in certs]
        assert len(set(sets)) == 10
        assert all(c.claims.classification == "super_dependent" for c in certs)

    def test_translated_bounds_at_sup_one_thirtysecond(self):
        # with the value set bounded by 1/32, deep elements of values
        # -1/8 and -1/16 give members bounded by 1/32 + 1/8 and 1/32 + 1/16
        eta, tail = lab_superdependent_unit(QT2, sup=q(1, 32))
        certs = kummer_family(eta, QT2, 2, 4, tail)
        uppers = sorted(c.sample.upper.bound.fraction for c in certs)
        assert q(1, 32) + q(1, 16) in uppers
        offsets = {u - q(1, 32) for u in uppers}
        assert offsets <= {q(1, 16), q(1, 8), q(3, 32), q(1, 4), q(1, 32)}
        for c in certs:
            assert not c.sample.upper.attained

    def test_base_without_pth_roots_of_unity_is_refused(self):
        # v(zeta_3 - 1) = 1/2 is not in Z[1/3]: the refusal comes before
        # any sampling, not as a failed claim check afterwards
        K = preset_field("qp_pdiv_tower", 3)
        eta, tail = lab_superdependent_unit(K)
        with pytest.raises(ValueError, match=r"no primitive p-th root of unity zeta_3: "
                                             r"v\(zeta_3 - 1\) = 1/2 lies outside"):
            kummer_family(eta, K, 1, 3, tail)

    def test_unbounded_sample_has_no_certified_gap(self):
        # 3 lies in Q_2, whose support lattice Z bounds nothing, and the
        # tail bounds nothing outside a leveled union: the upper cut is +inf-
        eta = Series.from_int(QP2.ctx, 3, q(8))
        tail = TailSchema(q(4), q(2), "no bound off a leveled union")
        with pytest.raises(ValueError, match=r"upper bound \+inf is not strictly below "
                                             r"v\(p\)/p = 1/2; no certified gap"):
            kummer_family(eta, QP2, 1, 2, tail)


class TestClassify:
    # ``certify`` classifies by the enclosure it builds from the sample, so
    # each case crafts a sample: one value k/D, D = 2^16, under an upper cut

    @staticmethod
    def _certify_at(k, upper):
        eta, tail = lab_superdependent_unit(QT2)
        cert = kummer_family(eta, QT2, 1, 5, tail)[0]
        assert QT2.ctx.D == 2 ** 16
        sample = cert.sample._replace(realized=((k, cert.sample.realized[0][1]),), upper=upper)
        return certify(cert.kind, QT2, cert.generator, cert.generator_tail,
                       cert.min_poly[0], cert.residual_floor, sample, Claims(),
                       cert.provenance)

    def test_boundary_is_unknown(self):
        # [1/64+, 1-]: v(p)/(p-1) = 1 bounds it, nothing below 1- does
        out = self._certify_at(2 ** 10, Cut(ExtRat.of(1), False))
        assert out.dist == CutEnclosure(Cut(ExtRat.of(q(1, 64)), True), Cut(ExtRat.of(1), False))
        assert out.claims.classification == "unknown"
        assert out.claims.classification_rule == "boundary enclosure certifies nothing"

    def test_super_dependent_boundary_is_dependent(self):
        # hi = (v(p)/p)^- is not strictly below itself
        out = self._certify_at(2 ** 10, Cut(ExtRat.of(q(1, 2)), False))
        assert out.claims.classification == "dependent"
        assert out.claims.classification_rule == "dist below (v(p)/1)^-"

    def test_bad_enclosure_rejected(self):
        with pytest.raises(ValueError, match=r"distance enclosure \[0/1\+, \+inf-\] violates "
                                             r"0 < dist <= \(v\(p\)/\(p-1\)\)\^-"):
            self._certify_at(0, Cut(PLUS_INF, False))


# --- the deep elements against the listing scan they replaced -------------


def _scan_deep_elements(K, budget, upper):
    """The first listed element at each admissible negative value, in
    increasing |v|: the scan of the whole listing that ``kummer_family``
    ran before it read ``listing_index``."""
    sd_threshold = Fraction(1, K.ctx.p)
    candidates = []
    seen = set()
    for x in enumerate_elements(K, budget):
        if x.is_zero:
            continue
        v = x.valuation().fraction
        if v >= 0 or v in seen:
            continue
        if upper <= Cut(ExtRat.of(sd_threshold + 2 * v), False):
            seen.add(v)
            candidates.append((v, x))
    candidates.sort(key=lambda t: -t[0])
    return candidates


@pytest.mark.parametrize("m", [1, 2], ids=["q2", "q4"])
def test_deep_elements_match_the_listing_scan(m):
    K = preset_field("qp_pdiv_tower", 2, m, grid_bound(MIXED, 2, 16))
    eta, tail = lab_superdependent_unit(K)
    for budget in range(3, 10):
        # 1, 3, 6, 9, 14, 18 and 26 admissible elements at budgets 3..9
        want = _scan_deep_elements(K, budget, value_set(eta, K, budget, tail).upper)
        certs = kummer_family(eta, K, len(want), budget, tail)
        got = [(dict(c.claims.bounds)["v_td"], c.provenance[0].split()[2]) for c in certs]
        assert got == [(str(v), f"td={_short_hash(x)}") for v, x in want], budget


# --- Newton's constant cut at its target against the full -eta^p ----------

# the (q = 2^m, budget, members) jobs of the kummer-family benchmark pool,
# each key with its most members: every transform_mixed input a pool round
# makes
KUMMER_POOL = ((1, 5, 5), (1, 6, 3), (1, 7, 5), (1, 8, 1), (2, 5, 3), (2, 7, 1))


def test_newton_constant_cut_at_the_target_changes_no_root(monkeypatch):
    # the (f, start, target) of every newton_root call of transform_mixed
    calls = []
    real = kummer.newton_root

    def record(f, start, target):
        calls.append((f, start, target))
        return real(f, start, target)

    monkeypatch.setattr(kummer, "newton_root", record)
    for m, budget, n in KUMMER_POOL:
        K = preset_field("qp_pdiv_tower", 2, m, grid_bound(MIXED, 2, 16))
        eta, tail = lab_superdependent_unit(K)
        kummer_family(eta, K, n, budget, tail)
    assert len(calls) == 18
    for f, eta, target in calls:
        # the family refines from eta itself, so its constant is -eta^2 cut
        # at the target, a strict cut of the full one
        eta_p = eta.pow_int(2)
        cut, *rest = f
        assert cut == eta_p.truncate(target).neg()
        assert eta_p.precision > ExtRat.of(target)
        want = newton_root((eta_p.neg(), *rest), eta, target)
        got = newton_root(f, eta, target)
        assert (got.kterms, got.kprec) == (want.kterms, want.kprec)
        # the horizon is tight: one grid step short, the residual runs out
        short = eta_p.truncate(target - Fraction(1, eta.ctx.D)).neg()
        with pytest.raises(ConvergenceError, match="residual is zero only to precision"):
            newton_root((short, *rest), eta, target)


# --------------------------------------------------------------------------
# the stored super-dependent class against the Frobenius lift (ROADMAP item 19)

KUMMER_CORPUS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "corpus")
                       .glob("kummerfamily-*.json"))


def _frobenius_lift(c):
    """b with b^2 = c mod 2: c's terms below 1 at half their exponents,
    each digit through the inverse Frobenius of F_q, since
    sum w_i 2^(e_i) = (sum w_i^(1/2) 2^(e_i/2))^2 mod 2."""
    ctx = c.ctx
    half = {Fraction(k, 2 * ctx.D): ctx.field.ifrob(d) for k, d in c.kterms if k < ctx.D}
    return Series.make(ctx, half, c.precision)


def test_frobenius_lift_puts_every_stored_generator_above_half():
    # X^2 - c with b in K and v(c - b^2) > 1: f(b + X) = X^2 + 2bX + (b^2 - c)
    # has the one Newton segment (0, v(c - b^2)) to (2, 0), so both roots xi
    # have v(xi - b) = v(c - b^2)/2 > 1/2 = v(2)/2, above every stored dist;
    # the stored class super_dependent (dist below 1/2) is refuted
    assert len(KUMMER_CORPUS) == 4
    measured = []
    for path in KUMMER_CORPUS:
        for cert in read_certificate_file(path).certs:
            assert cert.claims.classification == "super_dependent"
            c = cert.min_poly[0].neg()
            b = _frobenius_lift(c)
            assert member_witness(cert.base, b)
            v = (c - b * b).valuation().fraction
            assert v / 2 > cert.dist.hi.bound.fraction
            measured.append(v)
    assert measured == [q(33, 32), q(257, 256), q(65, 64), q(33, 32), q(67, 64), q(129, 128)]


@pytest.mark.xfail(strict=True, reason=(
    "verify does not yet apply the Frobenius-lift rule to a Kummer "
    "certificate (ROADMAP item 19 step B)"))
def test_verify_refutes_the_stored_class_by_the_frobenius_lift(capsys):
    for path in KUMMER_CORPUS:
        assert main(["verify", str(path)]) == 2
        assert "Frobenius lift b gives v(xi - b)" in capsys.readouterr().out
