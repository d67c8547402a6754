"""Mixed-characteristic degree-p pipeline: the p-th power difference
law, the separable twist of X^p - eta^p, and certified families of
pairwise-distinct Kummer extensions.

The twist replaces X^p - eta^p by X^p + h_d(X) - eta^p with
h_d(X) = sum_i binom(p, i) d^(p-i) X^i for a deep element d of negative
value.  When the certified upper bound of v(eta - K) sits below
(v(p) + (p-1) v(d)) / p, every coefficient of h_d is too deep to move
the value set, and the root found near eta has the same witnessed value
set as eta.  Dividing the root by d and adding 1 produces a new 1-unit
Kummer generator whose value set is the translate by -v(d).

Genuine defect witnesses cannot be materialized at a finite exponent
denominator bound, so laboratory inputs are truncations carrying a
TailSchema plus the hypothesis that their p-th power lies in K; every
equality the construction claims is still verified exactly on the
certified region.

The deep elements are the first listed elements at each leading exponent
(``fields.listing_index``).  Each member is built by ``artin.certify``,
which gives its minimal polynomial, its distance enclosure and its claims,
the classification included.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .approx import (
    InitialSegmentSample,
    TailSchema,
    translate_sample,
    value_set,
)
from .artin import (
    KUMMER,
    Claims,
    ExtensionCert,
    _short_hash,
    certify,
    check_pairwise_distinct,
)
from .cuts import Cut, ExtRat, segment_affine
from .fields import BudgetTooSmall, FieldDesc, listing_index, member_witness
from .series import (
    MIXED,
    Polynomial,
    PrecisionError,
    Series,
    invert,
    newton_root,
)


def _require_mixed(ctx):
    if ctx.mode != MIXED:
        raise ValueError("this operation runs in the mixed-characteristic ambient")


def is_one_unit(eta: Series) -> bool:
    d = eta - Series.one(eta.ctx, eta.precision)
    if d.is_zero:
        return True
    return d.valuation() > 0


class PthPowerReport(NamedTuple):
    precondition_holds: bool
    equation_holds: Optional[bool]
    lhs: Optional[ExtRat]
    rhs: Optional[ExtRat]
    threshold: ExtRat


def pth_power_difference_check(eta: Series, a: Series) -> PthPowerReport:
    """Evaluate v(eta^p - a^p) against p*v(eta - a).

    The equality is asserted by the theory only under the precondition
    v(eta - a) < v(p)/(p-1) + v(eta); outside it both sides are still
    reported, which is how the sharpness of the bound is exhibited.
    """
    _require_mixed(eta.ctx)
    p = eta.ctx.p
    if eta.is_zero or a.is_zero:
        raise ValueError("both elements must be nonzero")
    threshold = eta.valuation() + Fraction(1, p - 1)
    diff = eta - a
    if diff.is_zero:
        return PthPowerReport(False, None, None, None, threshold)
    vdiff = diff.valuation()
    pre = vdiff < threshold
    power_diff = eta.pow_int(p) - a.pow_int(p)
    if power_diff.is_zero:
        raise PrecisionError(
            "p-th power difference vanishes to working precision; "
            "increase the inputs' precision"
        )
    lhs = power_diff.valuation()
    rhs = ExtRat.of(vdiff.fraction * p)
    return PthPowerReport(pre, lhs == rhs, lhs, rhs, threshold)


def transform_mixed(
    eta: Series,
    K: FieldDesc,
    d: Series,
    sample: InitialSegmentSample,
    tail: TailSchema,
    eta_p: Series,
) -> Series:
    """Solve X^p + h_d(X) = eta^p near eta, verify the value-set
    transfer witness by witness, and return the root.

    Requires v(d) < 0 and the certified upper cut of v(eta - K) below
    (v(p) + (p-1) v(d)) / p.  Checks the coefficient-depth inequalities
    v(binom(p,i) d^(p-i)) >= v(p) + (p-1)v(d) > p v(eta - K) and that the
    root's distance v(root - eta) lies above the sample; a failed check
    raises ``AssertionError``.

    ``eta`` must be a 1-unit, which the caller checks once for all
    members (``kummer_family`` does); ``sample`` is the sample of
    v(eta - K), ``tail`` the tail of eta and ``eta_p`` is eta^p, which a
    family computes once for all of its members.

    The horizon rule: Newton's constant coefficient is -eta^p cut at the
    Newton target T, so the refinement's cost follows T, not the
    precision of eta^p.  The cut leaves every decision of ``newton_root``
    and the returned root as they are:
    * The constant is only ever added, never multiplied (Horner's rule
      adds it last, and a Taylor shift of f(x + X) by a monomial adds to
      it), and carries only move upward.  So f(x) changes only at or past
      T, and the other Taylor coefficients not at all.  The target test
      reads f(x)'s lead against T and the polygon reads the leads below
      T; both decide as before.  A cut f(x) with no term below T has
      precision T, since every other summand is known past T, so it
      passes the target test as the uncut one does.
    * A Hensel step divides f(x) by f'(x), whose value is
      b = v(p) + (p-1)v(d) at every unit x (the linear coefficient
      p d^(p-1) has the least value).  So it moves the iterate only at
      or past T - b, f(x) again only at or past T (the branch runs only
      when T > 2b) and, at p = 2, f'(x) = 2x + 2d only at or past
      T - b + 1, past its lead b.  The root is returned at precision
      T - b, below every moved term.
    The "too imprecise" guard reads the precision of the uncut eta^p; the
    cut constant has precision T whatever eta^p knows.
    """
    ctx = eta.ctx
    _require_mixed(ctx)
    p = ctx.p
    if not member_witness(K, d) or d.is_zero:
        raise ValueError("d must be a nonzero element of K")
    vd = d.valuation().fraction
    if vd >= 0:
        raise ValueError("d must have negative value")
    upper = sample.upper
    threshold = Fraction(1 + (p - 1) * vd, p)
    if not upper <= Cut(threshold, False):
        raise ValueError(
            f"depth condition fails: certified upper cut {upper} is not below "
            f"(v(p) + (p-1)v(d))/p = {threshold}"
        )

    coeff_bound = ExtRat(1 + (p - 1) * vd)
    p_upper = segment_affine(upper, p, 0)
    coeffs: List[Series] = []
    for i in range(1, p):
        ci = Series.from_int(ctx, math.comb(p, i)) * d.pow_int(p - i)
        vci = ci.valuation()
        if not vci >= coeff_bound:
            raise AssertionError(f"coefficient {i} has value {vci}, below {coeff_bound}")
        if not p_upper <= Cut(vci, False):
            raise AssertionError(
                f"coefficient {i} is not deeper than p * v(eta - K)"
            )
        coeffs.append(ci)
    coeffs.append(Series.one(ctx))

    # The exact root has unbounded exponent denominators (it generates a
    # defect extension), so it can only be materialized to modest depth on
    # the D-grid.  All p conjugate roots lie within (v(p)+(p-1)v(d))/p of
    # eta and v(f') = v(p)+(p-1)v(d), so a residual of depth
    # v(p)+(p-1)v(d) + that quotient + margin certifies the candidate just
    # past its leading correction, which is all the checks need.
    base = Fraction(1 + (p - 1) * vd)
    margin = abs(vd) / p
    target = base + Fraction(base, p) + margin
    if eta_p.precision <= target:
        raise ValueError("eta is too imprecise for the requested transformation")
    f = Polynomial.make((eta_p.truncate(target).neg(), *coeffs))
    theta_tilde = newton_root(f, eta, target)

    vtt = theta_tilde.valuation()
    if vtt != 0:
        raise AssertionError(f"the root has value {vtt}, expected 0")
    gap = (theta_tilde - eta).vlow()
    if not Cut(gap, True) > upper:
        raise AssertionError("v(root - eta) does not clear the sample")

    # raises unless every witness of the sample transfers to the root
    translate_sample(sample, theta_tilde, Fraction(0), lambda w: w, tail)
    return theta_tilde


def kummer_family(
    eta: Series,
    K: FieldDesc,
    n_members: int,
    budget: int,
    tail: TailSchema,
) -> List[ExtensionCert]:
    """Certified pairwise-distinct Kummer extensions from one 1-unit
    eta, the truncation of an exact object whose tail is ``tail``.

    For each admissible deep element td (negative value, value set of
    eta certifiably below v(p)/p + 2 v(td)), the twisted root divided by
    td plus 1 is a new 1-unit generator whose p-th power is
    eta^p / td^p + 1 in K, with value set translated by -v(td); distinct
    translations give distinct extensions.

    Kummer theory of degree p needs a primitive p-th root of unity in K;
    raises ValueError when v(zeta_p - 1) = 1/(p-1) lies outside the
    value group of K.
    """
    ctx = eta.ctx
    _require_mixed(ctx)
    p = ctx.p
    if not member_witness(K, Series.monomial(ctx, Fraction(1, p - 1))):
        raise ValueError(
            f"{K.name} contains no primitive p-th root of unity zeta_{p}: "
            f"v(zeta_{p} - 1) = 1/{p - 1} lies outside its value group"
        )
    if n_members < 1:
        raise ValueError("need at least one family member")
    if not is_one_unit(eta):
        raise ValueError("eta must be a 1-unit")
    sample = value_set(eta, K, budget, tail)
    upper = sample.upper
    sd_threshold = Fraction(1, p)
    if not upper.bound < sd_threshold:
        raise ValueError(
            f"the certified upper bound {upper.bound} is not strictly below "
            f"v(p)/p = {sd_threshold}; no certified gap"
        )

    # the first listed element at each admissible negative exponent, in
    # increasing |v(td)|
    index = listing_index(K, budget)
    candidates: List[Tuple[Fraction, Series]] = []
    for k, at in zip(reversed(index.lead_ks), reversed(index.first_at)):
        v = Fraction(k, ctx.D)
        if k < 0 and upper <= Cut(sd_threshold + 2 * v, False):
            candidates.append((v, index.elements[at]))
    if len(candidates) < n_members:
        raise BudgetTooSmall(
            f"only {len(candidates)} admissible deep elements at budget {budget}, "
            f"need {n_members}"
        )

    b_eta = eta.pow_int(p)
    one = Series.one(ctx)
    eta_hash = _short_hash(eta)
    work = budget + 6
    certs: List[ExtensionCert] = []
    for vt, td in candidates[:n_members]:
        theta_tilde = transform_mixed(eta, K, td, sample, tail, b_eta)
        td_inv = invert(td, work)
        theta = theta_tilde * td_inv
        eta_new = theta + one

        vnew = (eta_new - one).valuation()
        if not (vnew > 0 and vnew == -vt):
            raise AssertionError(f"new generator is not a 1-unit at value {-vt}")

        power_formula = b_eta * td_inv.pow_int(p) + one
        resid = eta_new.pow_int(p) - power_formula
        kfloor = resid.vlow_k()
        if resid.kterms and kfloor <= 0:
            raise AssertionError("p-th power formula fails on certified terms")
        if not is_one_unit(power_formula):
            raise AssertionError("the new p-th power is not a 1-unit")

        tail_new = tail.shift(-vt)
        sample_new = translate_sample(
            sample, eta_new, -vt, lambda w, _ti=td_inv: w * _ti + one, tail_new
        )
        bound_new = sd_threshold + vt
        if not sample_new.upper <= Cut(bound_new, False):
            raise AssertionError("super-dependent bound fails after translation")

        claims = Claims(
            bounds=(
                ("upper_eta", str(upper)),
                ("v_td", str(vt)),
                ("super_dependent_bound", str(bound_new)),
            ),
        )
        certs.append(certify(
            KUMMER, K, eta_new, tail_new, power_formula.neg(), kfloor, sample_new, claims,
            (f"kummer_family eta={eta_hash} td={_short_hash(td)} budget={budget}",),
        ))

    check_pairwise_distinct(certs)
    return certs


def lab_superdependent_unit(K: FieldDesc, sup: Optional[Fraction] = None) -> Tuple[Series, TailSchema]:
    """A laboratory 1-unit whose value set is certifiably bounded by
    ``sup`` (default 1/(4p), strictly below v(p)/p): the truncation of
    1 + sum_i p^(sup (1 - p^-i)) after six terms, at precision 8,
    carrying the tail certificate for the un-materialized terms.

    The super-dependent hypothesis (together with eta^p lying in K) is
    accepted as a certified input property of the laboratory object; the
    transformations downstream verify all of their own claims exactly.
    """
    ctx = K.ctx
    _require_mixed(ctx)
    p = ctx.p
    s = Fraction(1, 4 * p) if sup is None else Fraction(sup)
    stored = 6  # materialized terms; the tail schema describes the rest
    terms = {Fraction(0): 1}
    for i in range(1, stored + 1):
        terms[s * (1 - Fraction(1, p ** i))] = 1
    eta = Series.make(ctx, terms, 8)
    tail = TailSchema(
        s, s * (1 - Fraction(1, p ** (stored + 1))), "laboratory super-dependent witness"
    )
    return eta, tail
