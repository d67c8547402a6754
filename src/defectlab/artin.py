"""Degree-p extension certificates in equal characteristic: the
Artin-Schreier root solver and the tail rule of its roots, the
inseparable-to-separable transformation, certified families, and the
one rule (``certify``) that builds a certificate of either kind from its
stored inputs: minimal polynomial, distance enclosure and claims.

The solver takes b with no positive exponent (every b the commands
solve, t^(-1) and (eta/d)^p after the twist, is one) and writes a root
of X^p - X - b as

    sum_{i>=1} (b_-)^(1/p^i)  +  rho

where b_- is the negative part of b and rho solves the residue equation
x^p - x = b_0 in F_q for its constant term b_0.  The sum telescopes
under x -> x^p - x; truncating it after I steps leaves the exact
residual -(b_-)^(1/p^I), which is recorded as a certified floor, and the
dropped tail is described by a TailSchema so that downstream value-set
sampling stays sound.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .approx import (
    InitialSegmentSample,
    PROVED,
    REFUTED,
    TailSchema,
    UNKNOWN,
    distance,
    translate_sample,
    value_set,
)
from .cuts import Cut, CutEnclosure, ExtRat
from .fields import FieldDesc, member_witness
from .series import (
    EQUAL,
    DenominatorBoundError,
    Series,
    invert,
    pth_root,
)

ARTIN_SCHREIER = "artin_schreier"
KUMMER = "kummer"


def _short_hash(*parts) -> str:
    import hashlib  # loads OpenSSL; imported here so that start-up skips it

    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
    return h.hexdigest()[:10]


class Claims(NamedTuple):
    unique_extension: str = UNKNOWN
    unique_rule: str = "none"
    immediate: str = UNKNOWN
    immediate_rule: str = "none"
    defect: Optional[int] = None
    defect_rule: str = "none"
    classification: str = UNKNOWN
    classification_rule: str = "none"
    bounds: Tuple[Tuple[str, str], ...] = ()


class ExtensionCert(NamedTuple):
    """A persisted degree-p extension record: generator, minimal
    polynomial, certified value-set sample, distance enclosure, and the
    claims together with the rules that produced them."""

    kind: str
    base: FieldDesc
    generator: Series
    generator_tail: Optional[TailSchema]
    min_poly: Tuple[Series, ...]  # coefficients, constant term first
    residual_floor: Union[int, float]  # a grid index; math.inf for no residual
    sample: InitialSegmentSample
    dist: CutEnclosure
    claims: Claims
    provenance: Tuple[str, ...]


class ASRoot(NamedTuple):
    theta: Series
    tail: Optional[TailSchema]
    residual_floor: Union[int, float]  # a grid index; math.inf for no residual


def as_root(b: Series, precision) -> ASRoot:
    """A root of X^p - X - b in the ambient field, by a telescoping sum.

    The sum of the (b_-)^(1/p^i) is truncated when the session
    denominator bound D is reached, and theta is cut at ``precision``,
    or at b's own precision when that is lower.  The returned residual
    floor certifies v(theta^p - theta - b) (see
    ``residual_window_violations``), and the tail schema describes the
    dropped fractional terms.

    Raises ValueError when b stores a term at a positive exponent (the
    solver builds no sum over the Frobenius powers of b_+), or when the
    residue equation x^p - x = b_0 has no root in F_q (a residue
    extension would be needed).
    """
    ctx = b.ctx
    if ctx.mode != EQUAL:
        raise ValueError("Artin-Schreier roots are an equal-characteristic construction")
    if b.kterms and b.kterms[-1][0] > 0:
        raise ValueError(
            f"b has a term at exponent {ctx.value_of(b.kterms[-1][0])} > 0; "
            f"the Artin-Schreier solver takes b without positive exponents"
        )
    p = ctx.p
    field = ctx.field
    r0 = dict(b.kterms).get(0, 0)

    roots = field.artin_schreier_roots(r0)
    if not roots:
        raise ValueError(
            f"residue equation x^{p} - x = {field.repr_code(r0)} has no root in "
            f"F_{ctx.q}; extend the residue field"
        )
    rho = roots[0]
    kcap = ctx.grid_k(min(ExtRat.of(precision), b.precision), "precision")

    # theta as grid index -> code: rho plus every part, summed in one pass
    acc = {0: rho} if rho else {}
    kfloor = math.inf
    # the stored negative terms are exact regardless of b's horizon
    b_neg = Series(ctx, tuple(t for t in b.kterms if t[0] < 0), math.inf)
    if not b_neg.is_zero:
        x = b_neg
        # x^(1/p) stays on the grid while p divides every numerator
        while all(k % p == 0 for k, _ in x.kterms):
            x = pth_root(x)
            for k, c in x.kterms:
                r = field.add(acc.get(k, 0), c)
                if r:
                    acc[k] = r
                else:
                    del acc[k]  # c is nonzero, so k held a code
        if x is b_neg:
            raise DenominatorBoundError(
                "the session bound D admits no fractional refinement of the exponents"
            )
        kfloor = x.valuation_k()

    theta = Series(ctx, tuple(sorted(t for t in acc.items() if t[0] < kcap)), kcap)
    return ASRoot(theta, root_tail(kfloor, ctx), kfloor)


def root_tail(kfloor, ctx) -> Optional[TailSchema]:
    """The tail schema of an Artin-Schreier root whose residual floor is
    the grid index ``kfloor``, ``math.inf`` or negative: none for
    ``math.inf`` (no fractional term was dropped), else the dropped
    fractional terms, from floor/p up and accumulating at 0.  floor/p may
    lie off the grid, so the tail keeps it as a ``Fraction``.  ``verify``
    re-derives a stored tail by this rule."""
    if kfloor == math.inf:
        return None
    return TailSchema(Fraction(0), Fraction(kfloor, ctx.D * ctx.p),
                      "fractional telescoping tail of an Artin-Schreier root")


def residual_window_violations(resid: Series, kfloor) -> List[Fraction]:
    """The exponents of the terms of a minimal-polynomial residual f(theta)
    that lie outside the window its recorded floor allows, in order; the
    floor is a grid index, or ``math.inf``.

    A negative floor allows terms in [floor, 0) only: the fractional
    residual -(b_-)^(1/p^I) of an Artin-Schreier root, which ``as_root``
    records as a negative floor (or ``math.inf`` when there is none).  Any
    other floor allows no term below it.  Terms at or beyond the
    residual's own precision are not stored, so they are certified
    neither way.
    """
    if kfloor < 0:
        bad = [k for k, _ in resid.kterms if not kfloor <= k < 0]
    else:
        bad = [k for k, _ in resid.kterms if k < kfloor]
    return [Fraction(k, resid.ctx.D) for k in bad]


def degree_p_poly(kind: str, c0: Series) -> Tuple[Series, ...]:
    """The coefficients, constant term first, of the minimal polynomial of
    a certificate of ``kind`` with constant term c0: X^p - X + c0 for
    Artin-Schreier, X^p + c0 for Kummer."""
    ctx = c0.ctx
    zero = Series.zero(ctx)
    x1 = Series.monomial(ctx, 0, ctx.field.neg(1)) if kind == ARTIN_SCHREIER else zero
    return (c0, x1, *[zero] * (ctx.p - 2), Series.one(ctx))


def transform_inseparable(
    eta: Series,
    K: FieldDesc,
    d: Series,
    sample_eta: InitialSegmentSample,
    eta_hash: Optional[str] = None,
) -> ExtensionCert:
    """Turn the inseparable relation eta^p in K into an Artin-Schreier
    extension whose value set is the translate of v(eta - K), and return
    its certificate: generator theta, minimal polynomial
    X^p - X - eta^p / d^p.

    Requires the twist condition (p-1) v(d) > p sup v(eta - K) - v(eta),
    checked on the certified upper cut, which an unbounded v(eta - K)
    (the cut +inf-) fails.  Verifies the full chain of equalities:
    v(d theta) = v(eta), v(eta - d theta) = ((p-1)v(d) + v(eta))/p above
    the sample, v(d theta - c) = v(eta - c) witness by witness, and
    v(theta - c/d) = v(eta - c) - v(d) witness by witness.

    ``sample_eta`` is the sample of v(eta - K); its budget is the one
    used to sample theta.  ``eta_hash`` is ``_short_hash(eta)`` for the
    log line, which a family computes once for all its members.
    """
    ctx = eta.ctx
    if ctx.mode != EQUAL:
        raise ValueError("this transformation runs in equal characteristic")
    p = ctx.p
    b_eta = eta.pow_int(p)
    if not member_witness(K, b_eta):
        raise ValueError("eta^p is not certified to lie in K (support check failed)")
    if not member_witness(K, d):
        raise ValueError("d must be an element of K")
    if d.is_zero:
        raise ZeroDivisionError("d must be nonzero")

    budget = sample_eta.budget
    upper = sample_eta.upper
    veta = eta.valuation().fraction
    vd = d.valuation().fraction
    threshold = Fraction((p - 1) * vd + veta, p)
    if not upper <= Cut(threshold, False):
        raise ValueError(
            f"twist condition fails: need (p-1)v(d) > p v(eta-K) - v(eta), "
            f"but the certified upper cut {upper} is not below {threshold}"
        )

    work = budget + 6 + 2 * abs(vd) + abs(veta)
    d_inv = invert(d, work)
    ratio = eta * d_inv
    b = ratio.pow_int(p)
    root = as_root(b, work)
    theta, tail = root.theta, root.tail
    theta_tilde = theta * d
    tilde_tail = tail.shift(vd) if tail is not None else None

    # the two identities, on grid indices
    D, kveta = ctx.D, eta.valuation_k()
    k_tilde = theta_tilde.valuation_k()
    if k_tilde != kveta:
        raise AssertionError(f"v(d theta) = {Fraction(k_tilde, D)} differs from v(eta) = {veta}")

    kgap = (eta - theta_tilde).valuation_k()
    if p * kgap != (p - 1) * d.valuation_k() + kveta:
        raise AssertionError(
            f"v(eta - d theta) = {Fraction(kgap, D)}, expected ((p-1)v(d)+v(eta))/p = {threshold}"
        )

    # witness-by-witness equality of the two value sets
    translate_sample(sample_eta, theta_tilde, Fraction(0), lambda w: w, tilde_tail)
    sample_theta_tr = translate_sample(sample_eta, theta, -vd, lambda w: w * d_inv, tail)

    fresh = value_set(theta, K, budget, tail)
    if fresh.upper != sample_theta_tr.upper:
        raise AssertionError(
            f"upper cuts disagree: fresh {fresh.upper} vs translated {sample_theta_tr.upper}"
        )
    merged = _merge_samples(fresh, sample_theta_tr)

    # uniqueness of the extension of v via the purely inseparable comparison:
    # eta/d is purely inseparable over K and sits strictly closer to theta
    # than K does: v(ratio - theta) lies outside the lower set of the upper cut
    if (ratio - theta).valuation_k() < ctx.kout(merged.upper):
        raise AssertionError("comparison element is not strictly closer than K")

    claims = Claims(
        unique_extension=PROVED,
        unique_rule="ve_th",
        bounds=(
            ("upper_eta", str(upper)),
            ("threshold", str(threshold)),
            ("v_eta_minus_theta_tilde", str(threshold)),  # v(eta - d theta), checked above
        ),
    )
    return certify(
        ARTIN_SCHREIER, K, theta, tail, b.neg(), root.residual_floor, merged, claims,
        (f"transform_inseparable eta={eta_hash or _short_hash(eta)} d={_short_hash(d)} budget={budget}",),
    )


def _merge_samples(a: InitialSegmentSample, b: InitialSegmentSample) -> InitialSegmentSample:
    found = dict(b.realized) | dict(a.realized)  # a's witness where both have one
    realized = tuple(sorted(found.items()))  # the keys differ, so no witness is compared
    no_max = a.no_max if a.no_max != UNKNOWN else b.no_max
    return InitialSegmentSample(realized, min(a.upper, b.upper), no_max, max(a.budget, b.budget))


def as_family(
    eta: Series,
    K: FieldDesc,
    d: Series,
    n_members: int,
    sample_eta: InitialSegmentSample,
) -> List[ExtensionCert]:
    """Certificates for the extensions generated by roots of
    X^p - X - eta^p/d^(np), n = 1..n_members, with exact pairwise
    distinctness of the translated value-set samples.

    The one sample ``sample_eta`` of v(eta - K) is shared by every
    member."""
    if n_members < 1:
        raise ValueError("need at least one family member")
    if not sample_eta.realized:
        raise ValueError("no realized values at this budget")
    # upper <= (alpha + v(d))^-, read on the grid
    alpha = max(k for k, _ in sample_eta.realized)
    if d.ctx.kout(sample_eta.upper) > alpha + d.valuation_k():
        raise ValueError(
            "family hypothesis fails: no realized alpha with alpha + v(d) above the sample"
        )

    eta_hash = _short_hash(eta)
    certs: List[ExtensionCert] = []
    for n in range(1, n_members + 1):
        certs.append(transform_inseparable(eta, K, d.pow_int(n), sample_eta, eta_hash))

    check_pairwise_distinct(certs)
    return certs


def check_pairwise_distinct(certs: Sequence[ExtensionCert]) -> None:
    """Raise AssertionError unless the family members are pairwise
    distinct: no two share a value-set sample or the constant term of
    their minimal polynomial, and two Artin-Schreier members have disjoint
    distance enclosures.

    Only the last is an invariant: every Artin-Schreier generator of one
    extension is i*theta + c with i in F_p^x and c in K, and
    v(i*theta + c - K) = v(theta - K), so members whose certified
    enclosures of dist(theta, K) overlap may be one extension."""
    L = math.lcm(*(c.base.ctx.D for c in certs))  # one grid, for a tampered member's D
    value_sets = [frozenset(k * L // c.base.ctx.D for k, _ in c.sample.realized) for c in certs]
    for i in range(len(certs)):
        for j in range(i + 1, len(certs)):
            if value_sets[i] == value_sets[j]:
                raise AssertionError(f"members {i + 1} and {j + 1} have equal samples")
            if certs[i].min_poly[0].kterms == certs[j].min_poly[0].kterms:
                raise AssertionError(f"members {i + 1} and {j + 1} share a minimal polynomial")
    # sorted by lo, the enclosures are pairwise disjoint exactly when each
    # one's hi lies below the next one's lo
    order = sorted((i for i, c in enumerate(certs) if c.kind == ARTIN_SCHREIER),
                   key=lambda i: certs[i].dist.lo)
    for i, j in zip(order, order[1:]):
        if not certs[i].dist.hi < certs[j].dist.lo:
            i, j = sorted((i, j))
            raise AssertionError(
                f"members {i + 1} and {j + 1} have overlapping distance enclosures"
            )


def admissible_twist(eta: Series, sample_eta: InitialSegmentSample) -> Series:
    """The twist element d = t^v for ``as_family``: v is the least
    positive integer strictly above (p u - v(eta))/(p - 1), where u is the
    certified upper bound of v(eta - K), so that (p-1) v(d) > p u - v(eta)
    as ``transform_inseparable`` requires."""
    if not sample_eta.upper.bound.is_finite:
        raise ValueError("v(eta - K) has no certified finite upper bound")
    p = eta.ctx.p
    need = (p * sample_eta.upper.bound.fraction - eta.valuation().fraction) / (p - 1)
    return Series.monomial(eta.ctx, Fraction(max(1, math.floor(need) + 1)))


class SigmaSample(NamedTuple):
    """Sampled values v((sigma f - f)/f) for the Galois generator sigma,
    as grid indices, with the f witnesses retained."""

    values: Tuple[Tuple[int, Series], ...]
    verdict: str  # independent_consistent | dependent_evidence | unknown


def sigma_sample(cert: ExtensionCert) -> SigmaSample:
    """Sample the Galois-twist values of an Artin-Schreier extension,
    read off the certificate: no element of K is built.

    sigma acts by theta -> theta + 1.  In rank 1 an independent defect
    forces the values to fill {alpha > 0}, so accumulation at 0+ is
    consistent with independence while a certified positive gap below
    the values is evidence of dependence.

    f = theta - c, c a witness of the sample, has sigma f - f = 1 and gives
    -v(theta - c).  f = c theta^j, c in K^x and 1 <= j < p, gives -v(theta)
    when v(theta) < 0: (theta + 1)^j - theta^j leads with j theta^(j-1),
    since j is nonzero in F_p and each other term C(j, i) theta^i, i < j - 1,
    lies above it.  Its witness is theta: c = 1, the first nonzero element
    listed at height 1 on every equal-characteristic preset, and j = 1.  A
    generator with v(theta) >= 0, or with no term, is refused with a
    ValueError: the monomials then give other values.
    """
    if cert.kind != ARTIN_SCHREIER:
        raise ValueError(f"sigma is sampled on Artin-Schreier extensions, not {cert.kind!r}")
    theta = cert.generator
    if not theta.kterms or theta.kterms[0][0] >= 0:
        raise ValueError("sigma values are read off v(theta), which needs v(theta) < 0")
    found = {-k: theta - w for k, w in cert.sample.realized}
    found.setdefault(-theta.valuation_k(), theta)
    values = tuple(sorted(found.items()))  # the keys differ, so no witness is compared
    verdict = UNKNOWN
    positive = all(k > 0 for k, _ in values)
    zero_cut = Cut(0, False)
    accumulates_at_zero = cert.sample.no_max == PROVED and cert.dist.hi == zero_cut
    gap_below = cert.dist.hi < zero_cut
    if positive and accumulates_at_zero:
        verdict = "independent_consistent"
    elif positive and gap_below and cert.sample.no_max == PROVED:
        verdict = "dependent_evidence"
    return SigmaSample(values, verdict)


def certify(kind: str, K: FieldDesc, generator: Series, tail: Optional[TailSchema],
            c0: Series, residual_floor: Union[int, float], sample: InitialSegmentSample,
            claims: Claims, provenance: Tuple[str, ...]) -> ExtensionCert:
    """The certificate of ``kind`` over K built from its stored inputs:
    the minimal polynomial ``degree_p_poly(kind, c0)``, the distance
    enclosure ``distance(sample, tail)``, and the six derived claim fields
    (immediacy, defect and classification, each with its rule) from that
    enclosure and the sample; the other fields of ``claims`` are kept.
    Every builder returns its certificate through this rule, and
    ``verify`` rebuilds each stored certificate by it.

    Rank-1 defect rules: a bounded value set with proved no-maximum gives
    a unique valuation extension, immediacy and defect p, so e = f = 1
    (under the distance-below-zero rule when it applies); a realized
    value outside the base value group certifies ramification, defect 1
    and e = p.

    A Kummer certificate is classified by its distance enclosure, which
    must satisfy 0 < dist <= (v(p)/(p-1))^- or the certificate is broken:
    strictly below (v(p)/p)^- is super-dependent, strictly below
    (v(p)/(p-1))^- dependent; independence is never certified from an
    enclosure alone.  An Artin-Schreier certificate keeps the default
    classification.
    """
    dist = distance(sample, tail)
    claims = Claims(claims.unique_extension, claims.unique_rule, bounds=claims.bounds)
    p = K.ctx.p

    if sample.no_max == PROVED and sample.upper.bound.is_finite:
        rule = "uniqextv" if dist.hi <= Cut(0, False) else "c2"
        claims = claims._replace(
            unique_extension=PROVED,
            unique_rule=rule if claims.unique_extension != PROVED else claims.unique_rule,
            immediate=PROVED,
            immediate_rule=rule,
            defect=p,
            defect_rule=rule,
        )
    else:
        # the first value off the value group
        step = K.grid_step
        k = next((k for k, _ in sample.realized if k % step), None)
        if k is not None:
            if (p * k) % step:
                raise AssertionError(
                    f"realized value {Fraction(k, K.ctx.D)} does not generate a "
                    f"degree-{p} group extension"
                )
            claims = claims._replace(
                immediate=REFUTED,
                immediate_rule="ramified",
                defect=1,
                defect_rule="ramified",
            )

    if kind == KUMMER:
        dep_cut = Cut(Fraction(1, p - 1), False)
        sd_cut = Cut(Fraction(1, p), False)
        if not (dist.lo > Cut(0, False) and dist.hi <= dep_cut):
            raise ValueError(f"distance enclosure {dist} violates 0 < dist <= (v(p)/(p-1))^-")
        if dist.hi < sd_cut:
            cls, rule = "super_dependent", f"dist below (v(p)/{p})^-"
        elif dist.hi < dep_cut:
            cls, rule = "dependent", f"dist below (v(p)/{p - 1})^-"
        else:
            cls, rule = UNKNOWN, "boundary enclosure certifies nothing"
        claims = claims._replace(classification=cls, classification_rule=rule)
    return ExtensionCert(kind, K, generator, tail, degree_p_poly(kind, c0), residual_floor,
                         sample, dist, claims, provenance)


def as_extension(b: Series, K: FieldDesc, budget: int) -> ExtensionCert:
    """Certificate for the extension generated by a root of X^p - X - b."""
    root = as_root(b, budget + 6)
    sample = value_set(root.theta, K, budget, root.tail)
    return certify(ARTIN_SCHREIER, K, root.theta, root.tail, b.neg(), root.residual_floor,
                   sample, Claims(), (f"as_extension b={_short_hash(b)} budget={budget}",))
