"""Constructions that only the tests need: no program changes a generator,
multiplies a series by an integer or evaluates a polynomial by Horner,
and no program builds a certificate file as a tree of dicts (the writer
renders the records as text)."""

import json
import math
from fractions import Fraction

from defectlab.certfile import _TAIL_FLAGS, SCHEMA_VERSION, SESSION_PRECISION, _field_to_json
from defectlab.cuts import Cut, ExtRat
from defectlab.series import EQUAL, Series


def as_generator_transform(theta: Series, i_code: int, c: Series) -> Series:
    """The generator change theta -> i*theta + c, i in the prime field.

    Any two generators of the same extension are related this way, so
    value-set invariants must agree across the orbit.
    """
    fld = theta.ctx.field
    if i_code == 0:
        raise ValueError("i must be a nonzero element of the prime field")
    if fld.frob(i_code) != i_code:  # the prime field is fixed by Frobenius
        raise ValueError("i must lie in the prime field")
    return theta.scale(i_code) + c


def horner(f, a: Series) -> Series:
    """f(a) for a coefficient tuple f, constant term first, by Horner."""
    acc = f[-1]
    for c in reversed(f[:-1]):
        acc = acc * a + c
    return acc


# The Fraction view of a sample, the oracle for its grid indices: a
# realized value k is the value k/D on its witness's session grid.


def realized(sample) -> tuple:
    """The (value, witness) pairs of ``sample``, each value a Fraction."""
    return tuple((Fraction(k, w.ctx.D), w) for k, w in sample.realized)


def values(sample) -> tuple:
    """The realized values of ``sample`` as Fractions, in stored order."""
    return tuple(v for v, _ in realized(sample))


def cut_of_sample(vals) -> Cut:
    """The least upper cut S^+ of a nonempty sample S of Fractions:
    (max(S), attained)."""
    if not vals:
        raise ValueError("empty sample has no cut")
    return Cut(ExtRat.of(max(vals)), True)


def int_scale(a: Series, n: int) -> Series:
    """n*a for an ordinary integer n >= 2."""
    ctx = a.ctx
    if ctx.mode == EQUAL:
        return a.scale(n % ctx.p)
    return Series.from_int(ctx, n) * a


# The certificate file as a tree of dicts and lists, key for key what the
# writer renders as text: ``json.dumps(oracle_tree(cf), sort_keys=True,
# indent=1)`` is the canonical text of ``cf``, and the writer must give it
# byte for byte.


def series_tree(s: Series) -> dict:
    D = s.ctx.D
    terms = []
    for k, c in s.kterms:
        g = math.gcd(k, D)  # the exponent k/D as a reduced fraction
        terms.append({"exp": f"{k // g}/{D // g}", "coeff": s.ctx.field.repr_code(c)})
    k = s.kprec
    if k == math.inf:
        return {"mode": s.ctx.mode, "terms": terms, "precision": "+inf"}
    g = math.gcd(k, D)
    return {"mode": s.ctx.mode, "terms": terms, "precision": f"{k // g}/{D // g}"}


def _tail_tree(tail) -> dict:
    return {
        "sup": str(ExtRat.of(tail.sup)),
        "low": str(ExtRat.of(tail.low)),
        "note": tail.note,
        **dict.fromkeys(_TAIL_FLAGS, True),
    }


def _claims_tree(c) -> dict:
    return {
        "unique_extension": [c.unique_extension, c.unique_rule],
        "immediate": [c.immediate, c.immediate_rule],
        "defect": [c.defect, c.defect_rule],
        "classification": [c.classification, c.classification_rule],
        "bounds": [[n, v] for n, v in c.bounds],
    }


def _cut_tree(c) -> dict:
    return {"bound": str(c.bound), "attained": c.attained}


def _enclosure_tree(e) -> dict:
    return {"lo": _cut_tree(e.lo), "hi": _cut_tree(e.hi)}


def _sample_tree(s) -> dict:
    return {
        "realized": [{"value": f"{v.numerator}/{v.denominator}", "witness": series_tree(w)}
                     for v, w in realized(s)],
        "upper": _cut_tree(s.upper),
        "no_max": s.no_max,
        "budget": s.budget,
    }


def _floor_text(cert) -> str:
    # the floor's value k/D, from the Fraction, not from the writer
    if cert.residual_floor == math.inf:
        return "+inf"
    f = Fraction(cert.residual_floor, cert.base.ctx.D)
    return f"{f.numerator}/{f.denominator}"


def cert_tree(cert) -> dict:
    return {
        "kind": cert.kind,
        "base": _field_to_json(cert.base),
        "generator": series_tree(cert.generator),
        "generator_tail": _tail_tree(cert.generator_tail) if cert.generator_tail else None,
        "min_poly": [series_tree(c) for c in cert.min_poly],
        "residual_floor": _floor_text(cert),
        "sample": _sample_tree(cert.sample),
        "dist": _enclosure_tree(cert.dist),
        "claims": _claims_tree(cert.claims),
        "provenance": list(cert.provenance),
    }


def oracle_tree(cf) -> dict:
    config = cf.config
    return {
        "version": SCHEMA_VERSION,
        "config": {
            "mode": config.mode,
            "p": config.p,
            "m": config.m,
            "D": config.D,
            "precision": SESSION_PRECISION,
            "budget": config.budget,
        },
        "field": _field_to_json(cf.field),
        "certs": [cert_tree(c) for c in cf.certs],
        "log": list(cf.log),
    }


def oracle_text(cf) -> str:
    """The canonical text of ``cf``, without the final newline the file adds."""
    return json.dumps(oracle_tree(cf), sort_keys=True, indent=1)
