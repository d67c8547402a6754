"""Certified samples of v(a - K), distances, and the numerical conditions
for semitame / deeply ramified base fields.

Soundness policy (one-sided): a realized value is only reported when an
explicit witness c in K achieves it; an upper bound on v(a - K) is only
reported when a support argument certifies it (an exponent of a outside
the support lattice of K, or unbounded exponent denominators against a
leveled union).  Nothing heuristic is ever labelled proved.

Elements that truncate an exact object with an infinite tail (roots
produced by the solvers, laboratory witnesses) carry a TailSchema: the
exact object is the stored series plus a tail whose exponents lie in
[low, sup), accumulate at sup, and have unbounded denominators.
Differences v(a - c) are certified only below ``low``.

The sample contract: ``value_set`` is the one place that samples
v(a - K).  Everything downstream that needs v(a - K) (distances, the
transformations, the families) takes that sample as an argument and
reads the enumeration budget from ``sample.budget``; nothing samples
the same element twice.  A realized value is the grid index k of k/D
that ``Series.diff_k`` finds; only cut bounds, which may lie off the
grid, are ``ExtRat`` values.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

from .cuts import Cut, CutEnclosure, ExtRat, PLUS_INF
from .fields import FieldDesc, listing_index, member_witness
from .series import EQUAL, Series, pth_root

PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"


class TailSchema:
    """Certificate describing the un-materialized tail of an exact object.

    The exact element equals the stored truncation plus a tail supported
    in [low, sup); nothing below ``low`` is missing, so valuations of
    differences are exact whenever they land below ``low``.  The tail's
    exponents accumulate at ``sup`` with unbounded denominators, and its
    partial sums lie in K.
    """

    __slots__ = ("sup", "low", "note")

    def __init__(self, sup: Fraction, low: Fraction, note: str):
        if low > sup:
            raise ValueError("tail region [low, sup) is empty")
        self.sup = sup
        self.low = low
        self.note = note

    def __eq__(self, other) -> bool:
        if other.__class__ is not TailSchema:
            return NotImplemented
        return (self.sup, self.low, self.note) == (other.sup, other.low, other.note)

    def __hash__(self):
        return hash((self.sup, self.low, self.note))

    def shift(self, delta: Fraction) -> "TailSchema":
        return TailSchema(self.sup + delta, self.low + delta, self.note)


class InitialSegmentSample(NamedTuple):
    """A finite certified sample of v(a - K): (k, witness) pairs for the
    values k/D on the witnesses' grid, a certified upper cut, and a
    no-maximum verdict."""

    realized: Tuple[Tuple[int, Series], ...]
    upper: Cut
    no_max: str
    budget: int


def difference_horizon(a: Series, tail: Optional[TailSchema]):
    """Grid index k such that v(a - c) is certified below k/D: the
    precision of a, lowered to the tail floor when a truncates an exact
    object."""
    if tail is None:
        return a.kprec
    return min(a.kprec, a.ctx.kcap(ExtRat.of(tail.low)))


def support_upper_cut(a: Series, K: FieldDesc, tail: Optional[TailSchema]) -> Cut:
    """The certified upper cut on v(a - K) from support-lattice reasoning.

    An exponent of a outside the support lattice of K bounds v(a - K) by
    that exponent (attained); the unbounded denominators of a tail bound
    it by the tail's sup over a leveled union.  With a tail present, only
    stored exponents below tail.low count, since stored terms inside the
    tail region may be corrected by the un-materialized tail.
    """
    candidates: List[Cut] = []
    ctx = a.ctx
    step = K.grid_step
    # kterms are sorted, so the first index off the lattice is the least
    k = next((k for k, _ in a.kterms if k % step), None)
    if k is not None and k < difference_horizon(a, tail):
        candidates.append(Cut(ctx.value_of(k), True))
    if tail is not None and K.leveled:
        candidates.append(Cut(tail.sup, False))
    return min(candidates) if candidates else Cut(PLUS_INF, False)


def sample_shape_error(realized, upper: Cut, ctx) -> Optional[str]:
    """Why ``realized`` is not a well-formed sample under the certified
    upper cut, or None: the values must be strictly increasing, and every
    value must lie in the cut's lower set, whose bound may lie off the grid."""
    kout, prev, val = ctx.kout(upper), None, ctx.value_of
    for k, _ in realized:
        if prev is not None and not prev < k:
            return f"realized values are not strictly increasing: {val(prev)} then {val(k)}"
        prev = k
        if not k < kout:
            return f"realized value {val(k)} escapes the certified upper cut {upper}"
    return None


def no_max_refuted(realized, upper: Cut, ctx) -> bool:
    """Whether the sample shows that v(a - K) has a maximum: the top
    realized value sits at an attained upper bound.  An element of K realizes
    no value at +inf, and +inf- keeps its maximum unknown."""
    return bool(realized) and upper.attained and upper.bound.num * ctx.D == realized[-1][0]


def value_set(
    a: Series,
    K: FieldDesc,
    budget: int,
    tail: Optional[TailSchema] = None,
) -> InitialSegmentSample:
    """Sample v(a - K) with explicit witnesses up to an enumeration budget.

    Realized values come from two certified sources: truncations of a at
    its own support exponents (when those truncations are members of K),
    and the deterministic element enumeration at height ``budget``.  The
    upper cut comes from support-lattice reasoning only.

    Each value's witness is a truncation if one realizes it, else the
    first listed element that does.  The listing is read through its
    ``listing_index``, never built whole.  Let ka be the leading exponent
    of a (+inf when a has no terms).  A listed c led by another term than
    a's has v(a - c) = min(ka, kc), so each leading exponent kc < ka is
    realized, first by the first element listed there.  The value ka
    itself is realized first by a's empty truncation.  Only the elements
    led by a's leading term, or, when a has no terms, the listed elements
    without terms, are built and read by ``Series.diff_k``, in listing
    order; a repeat comes after its first occurrence, so it is never a
    witness.

    Witnesses are keyed by the grid index k of the value k/D, which is
    the realized value (an exact zero, ``None`` from ``Series.diff_k``,
    realizes nothing).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    ctx = a.ctx
    khorizon = difference_horizon(a, tail)
    kprec = a.kprec
    found: Dict[int, Series] = {}

    # partial-sum witnesses at the element's own support exponents
    partial_ks: List[int] = []
    for i, (k, _) in enumerate(a.kterms):
        if k < khorizon:
            partial = Series(ctx, a.kterms[:i], kprec)
            if member_witness(K, partial):
                found.setdefault(k, partial)
                partial_ks.append(k)

    # enumeration witnesses, as keys of first listed elements (see the docstring)
    if ctx is not K.ctx and ctx != K.ctx:
        raise ValueError("series from different sessions cannot be combined")
    index = listing_index(K, budget)
    lead = a.kterms[0] if a.kterms else None
    j = bisect_left(index.lead_ks, min(lead[0] if lead else math.inf, khorizon))
    first: Dict[int, Hashable] = dict(zip(index.lead_ks[:j], index.first_at))
    for at in index.led_by(lead) if lead else index.termless:
        k = a.diff_k(index.element(at))
        if k is not None and k < khorizon:
            first.setdefault(k, at)
    for k, at in first.items():
        found.setdefault(k, index.element(at))

    realized = tuple((k, found[k]) for k in sorted(found))

    upper = support_upper_cut(a, K, tail)

    # realized values must be increasing and respect the certified upper cut
    err = sample_shape_error(realized, upper, ctx)
    if err is not None:
        raise AssertionError(err)

    # no-maximum verdict: proved only from accepted truncation witnesses
    # over a leveled union, where the tail guarantees strictly better
    # truncations cofinally below sup
    no_max = UNKNOWN
    if no_max_refuted(realized, upper, ctx):
        no_max = REFUTED
    elif (
        tail is not None
        and K.leveled
        and any(Fraction(k, ctx.D) < tail.sup for k in partial_ks)
    ):
        no_max = PROVED

    return InitialSegmentSample(realized, upper, no_max, budget)


def translate_sample(
    sample: InitialSegmentSample,
    a_new: Series,
    shift: Fraction,
    witness_map,
    tail: Optional[TailSchema],
) -> InitialSegmentSample:
    """Re-witness a sample for a_new = (transform of a), whose tail is
    ``tail``, checking each translated witness exactly: v(a_new - map(c))
    must equal v + shift.  Values at or beyond the ``difference_horizon``
    of a_new, where it is not certified, are dropped.  The shift lies on
    the grid, so the check runs on grid indices."""
    ctx = a_new.ctx
    khorizon, dk = difference_horizon(a_new, tail), ctx.grid_k(shift)
    out = []
    for k, w in sample.realized:
        w2 = witness_map(w)
        target = k + dk
        if not target < khorizon:
            continue
        got = a_new.diff_k(w2)
        if got != target:
            raise ValueError(
                f"translated witness fails: expected value {ctx.value_of(target)}, "
                f"got {'zero' if got is None else ctx.value_of(got)}"
            )
        out.append((target, w2))
    ub = sample.upper
    new_upper = Cut(ub.bound + shift, ub.attained)  # +inf- stays +inf-
    return InitialSegmentSample(tuple(out), new_upper, sample.no_max, sample.budget)


def distance(
    sample: InitialSegmentSample,
    tail: Optional[TailSchema] = None,
) -> CutEnclosure:
    """Certified enclosure of dist(a, K) from a sample of v(a - K) and the
    tail of a, collapsing to an exact cut when the sample is provably
    cofinal in it.  The lower end S^+ is at the largest value, wherever a
    sample of unchecked order holds it."""
    if not sample.realized:
        raise ValueError("no realized values at this budget; cannot bracket the distance")
    k, w = max(sample.realized, key=lambda r: r[0])
    lo, hi = Cut(w.ctx.value_of(k), True), sample.upper
    if (
        sample.no_max == PROVED
        and tail is not None
        and hi == Cut(tail.sup, False)
    ):
        return CutEnclosure(hi, hi)
    return CutEnclosure(lo, hi)


# --------------------------------------------------------------------------
# semitame / deeply ramified condition checks


class ConditionVerdict(NamedTuple):
    status: str  # proved | refuted
    witness: Optional[Series] = None
    note: str = ""


CONDITION_NAMES = {
    "drst": "value group p-divisible",
    "residue_perfect": "residue field perfect",
    "a": "semitame",
    "b": "deeply ramified",
    "c": "Frobenius surjective on the completion's valuation ring mod p",
    "d": "completion perfect",
    "e": "dense in the perfect hull",
    "f": "p-th powers dense",
}


def semitame_report(K: FieldDesc) -> Dict[str, ConditionVerdict]:
    """Per-condition verdicts for the semitame / deeply ramified circle.

    Refutations carry explicit witnesses plus a support-lattice argument:
    the ``imperfection_witness`` t^(1/p), whose exponent lies outside
    the lattice, and its p-th power t, boundedly far from every p-th power.
    Proofs are structural, from the shape flags of the description (a
    perfect directed union stays perfect in the completion).  No verdict
    is left unknown, and none depends on a budget.
    """
    if K.ctx.mode != EQUAL:
        raise ValueError("the condition circle is checked in equal characteristic")
    p = K.ctx.p
    out: Dict[str, ConditionVerdict] = {}

    # the table's value group: Z[1/p] for a tower, else Z, where 1 is a
    # member and 1/p is not
    if K.leveled:
        out["drst"] = ConditionVerdict(PROVED, None, f"the value group Z[1/{p}] is p-divisible")
    else:
        out["drst"] = ConditionVerdict(
            REFUTED,
            Series.monomial(K.ctx, Fraction(1)),
            f"group element 1 with 1/{p} outside the group",
        )

    out["residue_perfect"] = ConditionVerdict(PROVED, None, "finite fields are perfect")

    if K.perfect:
        note = "shape is closed under p-th roots"
        for key in ("c", "d", "e", "f"):
            out[key] = ConditionVerdict(PROVED, None, note)
    else:
        root = imperfection_witness(K)
        a0 = root.frobenius()
        lattice_note = (
            "the p-th root's exponent lies outside the support lattice, so "
            "v(root - K) is bounded and the root misses the completion"
        )
        out["e"] = ConditionVerdict(REFUTED, root, lattice_note)
        out["d"] = ConditionVerdict(REFUTED, root, lattice_note)
        power_note = (
            "p-th powers are supported on the scaled lattice, so this element "
            "is boundedly far from all of them"
        )
        out["f"] = ConditionVerdict(REFUTED, a0, power_note)
        out["c"] = ConditionVerdict(REFUTED, a0, power_note)

    bad = next((v for v in (out["drst"], out["c"]) if v.status == REFUTED), None)
    if bad is not None:
        out["a"] = ConditionVerdict(REFUTED, bad.witness, "a failing sub-condition refutes semitameness")
    else:
        out["a"] = ConditionVerdict(PROVED, None, "both sub-conditions proved")
    out["b"] = ConditionVerdict(out["a"].status, out["a"].witness,
                                "equivalent to semitameness in positive characteristic")
    return out


def imperfection_witness(K: FieldDesc) -> Optional[Series]:
    """An eta with eta^p in K and v(eta - K) certifiably bounded (hence
    eta outside the completion), or None when the field is certified
    perfect: the p-th root of t.

    t lies in K, and its root t^(1/p) has an exponent outside the support
    lattice Z of every imperfect equal-characteristic preset, so
    ``member_witness`` refuses it and ``support_upper_cut`` bounds
    v(eta - K) by 1/p, attained.  The root is t^(1/p) exactly, so eta^p = t
    on the nose.  A root that ``member_witness`` accepts witnesses nothing
    and raises ValueError.
    """
    if K.perfect:
        return None
    root = pth_root(Series.monomial(K.ctx, 1))
    if member_witness(K, root):
        raise ValueError(f"the p-th root of t lies in {K.name}; it witnesses no imperfection")
    return root
