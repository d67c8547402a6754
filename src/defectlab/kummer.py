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

The deep elements are the exact monomials p^v at the admissible tower
exponents v = -j/p^l, read off the grid of the base; they are the elements
the listing gave first at each value (``kummer_family``'s docstring).  Each
member is built by ``artin.certify``, which gives its minimal polynomial,
its distance enclosure and its claims, the classification included.

The class these certificates store is refuted.  A member over
``qp_pdiv_tower`` is X^2 - c, c a finite 1-unit of K, called
super-dependent for a stored dist below v(2)/2 = 1/2.  Frobenius is
surjective on O_K/2: halving the exponents of c's terms below 1 and
passing their digits through the inverse Frobenius of F_q gives b in K
with v(c - b^2) > 1.  f(b + X) = X^2 + 2bX + (b^2 - c) has one Newton
segment, so both roots xi have v(xi - b) = v(c - b^2)/2 > 1/2.
``verify`` does not check this yet.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from . import artin
from .approx import (
    InitialSegmentSample,
    TailSchema,
    translate_sample,
    value_set,
)
from .cuts import Cut, ExtRat, segment_affine
from .fields import BudgetTooSmall, FieldDesc, member_witness
from .series import (
    MIXED,
    PrecisionError,
    Series,
    invert,
    newton_root,
)


def _require_mixed(ctx):
    if ctx.mode != MIXED:
        raise ValueError("this operation runs in the mixed-characteristic ambient")


def is_one_unit(eta: Series) -> bool:
    k = eta.diff_k(Series.one(eta.ctx))
    return k is None or k > 0


class PthPowerReport(NamedTuple):
    precondition_holds: bool
    equation_holds: Optional[bool]
    lhs: Optional[ExtRat]
    rhs: Optional[ExtRat]


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
        return PthPowerReport(False, None, None, None)
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
    return PthPowerReport(pre, lhs == rhs, lhs, rhs)


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
    theta_tilde = newton_root((eta_p.truncate(target).neg(), *coeffs), eta, target)

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
) -> List[artin.ExtensionCert]:
    """Certified pairwise-distinct Kummer extensions from one 1-unit
    eta, the truncation of an exact object whose tail is ``tail``.

    For each admissible deep element td (negative value, value set of
    eta certifiably below v(p)/p + 2 v(td)), the twisted root divided by
    td plus 1 is a new 1-unit generator whose p-th power is
    eta^p / td^p + 1 in K, with value set translated by -v(td); distinct
    translations give distinct extensions.

    The deep elements are the monomials td = p^v at the exponents
    v = -j/p^l of K's value group, 1 <= j <= budget and 0 <= l <= budget,
    that pass the depth test, in decreasing v.  They are the elements
    the listing gave first at each value:
    * Let u be the bound of the certified upper cut of v(eta - K).  Then
      u >= v(eta - 1) > 0, since 1 is in K and eta is a 1-unit.
    * So an admissible v satisfies v >= (u - 1/p)/2 > -1/(2p), and v is
      not an integer.
    * Every rational the listing holds has an integer value, so the first
      element listed at v is the tower monomial with digit code 1: exact,
      and the same ``Series`` at every level where it appears.

    Kummer theory of degree p needs a primitive p-th root of unity in K;
    raises ValueError when v(zeta_p - 1) = 1/(p-1) lies outside the
    value group of K.  Over a tower, the twisted roots of the exponents
    at level l need grid level l + 2, so a budget past the grid's depth
    minus 2 is refused, and a shortfall at that largest budget is a
    ValueError, since no budget gives more deep elements.
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
    if K.leveled and budget > K.depth - 2:
        raise ValueError(f"budget {budget} needs tower level {budget + 2} for its twisted roots, "
                         f"but {K.name}'s grid D={ctx.D} ends at level {K.depth}")
    sample = value_set(eta, K, budget, tail)
    upper = sample.upper
    sd_threshold = Fraction(1, p)
    if not upper.bound < sd_threshold:
        raise ValueError(
            f"the certified upper bound {upper.bound} is not strictly below "
            f"v(p)/p = {sd_threshold}; no certified gap"
        )

    # the admissible exponents -j/p^l of K's value group, in decreasing v
    levels = range(budget + 1) if K.leveled else (0,)
    vs = sorted({Fraction(-j, p ** l) for j in range(1, budget + 1) for l in levels}, reverse=True)
    deep = [v for v in vs if upper <= Cut(sd_threshold + 2 * v, False)]
    if len(deep) < n_members:
        short = (f"only {len(deep)} admissible deep elements at budget {budget}, "
                 f"need {n_members}")
        if K.leveled and budget == K.depth - 2:
            raise ValueError(f"{short}; {K.name}'s grid D={ctx.D} serves no larger budget")
        raise BudgetTooSmall(short)

    b_eta = eta.pow_int(p)
    one = Series.one(ctx)
    eta_hash = artin._short_hash(eta)
    work = budget + 6
    certs: List[artin.ExtensionCert] = []
    for vt in deep[:n_members]:
        td = Series.monomial(ctx, vt)
        theta_tilde = transform_mixed(eta, K, td, sample, tail, b_eta)
        td_inv = invert(td, work)
        theta = theta_tilde * td_inv
        eta_new = theta + one

        vnew = (eta_new - one).valuation()
        if not (vnew > 0 and vnew == -vt):
            raise AssertionError(f"new generator is not a 1-unit at value {-vt}")

        # X^p + c0 is the member's minimal polynomial; verify re-derives the
        # floor from the same residual eta_new^p + c0
        power_formula = b_eta * td_inv.pow_int(p) + one
        c0 = power_formula.neg()
        resid = eta_new.pow_int(p) + c0
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

        claims = artin.Claims(
            bounds=(
                ("upper_eta", str(upper)),
                ("v_td", str(vt)),
                ("super_dependent_bound", str(bound_new)),
            ),
        )
        certs.append(artin.certify(
            artin.KUMMER, K, eta_new, tail_new, c0, kfloor, sample_new, claims,
            (f"kummer_family eta={eta_hash} td={artin._short_hash(td)} budget={budget}",),
        ))

    artin.check_pairwise_distinct(certs)
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
