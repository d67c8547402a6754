"""Certificate files: schema v1, which no other module spells (the value
types carry no JSON), atomic writes of the canonical text, and search-free
re-verification.

The canonical text of a file is ``json.dumps(tree, sort_keys=True,
indent=1)`` of its records as a tree of dicts and lists; the writer renders
each record straight to that text and builds no tree.

Certificates carry their witnesses, so verification re-derives every
recorded claim from stored data alone: witness valuations are recomputed,
minimal-polynomial residuals are re-derived against the recorded floor,
cuts and defect arithmetic are recomputed, and the claim rules are
re-applied.  A verified file reproduces the stored verdicts bit for bit;
any divergence is reported as a structured diff.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import List, NamedTuple, Tuple

from .approx import (
    REFUTED,
    InitialSegmentSample,
    TailSchema,
    difference_horizon,
    no_max_refuted,
    sample_shape_error,
    support_upper_cut,
)
from .artin import (
    ARTIN_SCHREIER,
    KUMMER,
    Claims,
    ExtensionCert,
    certify,
    check_pairwise_distinct,
    degree_p_poly,
    residual_window_violations,
    root_tail,
)
from .cuts import PLUS_INF, Cut, CutEnclosure, ExtRat
from .ffield import FiniteField
from .fields import FieldDesc, member_witness, preset_field
from .series import EQUAL, Series, SeriesContext

SCHEMA_VERSION = 1


# schema v1 field of every session snapshot, which no program varies
SESSION_PRECISION = "8/1"

# schema v1 flags that every tail this toolkit builds has, stored as true
_TAIL_FLAGS = ("cofinal_at_sup", "denominators_unbounded", "partials_in_field")


class SessionConfig(NamedTuple):
    """Session parameters snapshotted into every certificate file."""

    mode: str
    p: int
    m: int
    D: int
    budget: int

    @staticmethod
    def from_json(obj: dict) -> "SessionConfig":
        D, budget, m, mode, p, precision = _read(obj, "config", {
            "D": int, "budget": int, "m": int, "mode": str, "p": int, "precision": str})
        if precision != SESSION_PRECISION:
            raise ValueError(f"config precision is {precision!r}, not {SESSION_PRECISION!r}")
        return SessionConfig(mode, p, m, D, budget)

    @staticmethod
    def for_field(K: FieldDesc, budget: int) -> "SessionConfig":
        return SessionConfig(K.ctx.mode, K.ctx.p, K.ctx.m, K.ctx.D, budget)


def _read(obj, record: str, spec: dict) -> list:
    """The values of ``obj``, one ``record`` of the file, in the order of ``spec``: a
    JSON object with exactly the keys of ``spec``, each value of the type (or in the
    tuple of types) named for its key, so that 1, 1.0 and true differ."""
    if type(obj) is not dict:
        raise ValueError(f"{record} {obj!r} is not an object")
    values = []
    try:
        if len(obj) != len(spec):
            raise KeyError  # another key set, as a missing key is
        for key, t in spec.items():
            v = obj[key]
            if type(v) is not t and (type(t) is not tuple or type(v) not in t):
                raise ValueError(f"{record} {key} {v!r} is not of the writer's type")
            values.append(v)
    except KeyError:
        raise ValueError(
            f"{record} keys differ from the writer's in {sorted(obj.keys() ^ spec)}") from None
    return values


# CPython's default limit on int/str conversions, which the writer's own
# f-strings obey: no writer spells a longer digit string
_MAX_DIGITS = 4300


def _parse_ratio(s) -> Tuple[int, int]:
    """The numerator and denominator of a rational as ``str(Fraction)``
    writes it: ``"n/d"`` reduced, ``d >= 1``, no sign but a leading minus,
    no leading zeros, at most ``_MAX_DIGITS`` digits each, and ``"0/1"``
    for zero."""
    if type(s) is str and s.isascii():
        num, _, den = s.partition("/")
        if den.isdigit() and (num.isdigit() or num[:1] == "-" and num[1:].isdigit()) \
                and len(den) <= _MAX_DIGITS and len(num.lstrip("-")) <= _MAX_DIGITS:
            n, d = int(num), int(den)
            # no leading zero (num[n < 0] is the first digit of |n|), and zero only as 0/1
            if den[0] != "0" and (num[n < 0] != "0" if n else s == "0/1") and math.gcd(n, d) == 1:
                return n, d
    quoted = repr(s)
    if len(quoted) > 64:
        quoted = quoted[:60] + "..."
    raise ValueError(f"{quoted} is not a reduced ratio n/d as the writer writes it")


def _parse_k(s, D: int, what: str) -> int:
    # the grid index n*(D/d) of a ratio n/d on the grid (1/D)Z
    n, d = _parse_ratio(s)
    if D % d:
        raise ValueError(f"{what} {s!r} is off the grid (1/D)Z, D={D}")
    return n * (D // d)


def _parse_extrat(s: str) -> ExtRat:
    # a cut bound: "+inf" or a ratio, as the writer writes it
    if s == "+inf":
        return PLUS_INF
    return ExtRat(Fraction(*_parse_ratio(s)))


def _cut_from_json(obj: dict) -> Cut:
    attained, bound = _read(obj, "cut", {"attained": bool, "bound": str})
    return Cut(_parse_extrat(bound), attained)


def _field_to_json(K: FieldDesc) -> dict:
    # schema v1 describes the value group by generators and stores it
    # twice, as the group and as the support lattice
    ctx = K.ctx
    group = {"generators": ["1/1"], "p_divisible_closure": K.leveled}
    if K.leveled:
        group["p"] = ctx.p
    return {
        "kind": K.kind,
        "name": K.name,
        "ctx": {"mode": ctx.mode, "p": ctx.p, "m": ctx.m, "D": ctx.D},
        "value_group": group,
        "support_lattice": dict(group),
        "leveled": K.leveled,
        "perfect": K.perfect,
        "complete": K.complete,
        "level": 0,  # schema v1 field, always 0 for the preset shapes
    }


def field_from_json(obj: dict, where: str) -> FieldDesc:
    """The preset a stored field description names, which the description
    must equal key for key, type for type; ``where`` names it in the error."""
    _, p, m, D = _read(obj.get("ctx"), f"{where} ctx", {"mode": str, "p": int, "m": int, "D": int})
    K = preset_field(str(obj.get("name")), p, m, D)  # a name that is no string names no preset
    want = _field_to_json(K)
    # 0 == 0.0 == False, so types are compared too, one level into the writer's dicts
    differ = sorted(k for k in want.keys() | obj.keys() if obj.get(k) != want.get(k)
                    or type(obj[k]) is not type(want[k]) or type(want[k]) is dict
                    and any(type(x) is not type(want[k][j]) for j, x in obj[k].items()))
    if differ:
        raise ValueError(f"{where} differs from the preset {K.name!r} in {', '.join(differ)}")
    return K


def _tail_from_json(obj: dict) -> TailSchema:
    *flags, low, note, sup = _read(obj, "generator_tail", {
        "cofinal_at_sup": bool, "denominators_unbounded": bool, "partials_in_field": bool,
        "low": str, "note": str, "sup": str})
    for flag, value in zip(_TAIL_FLAGS, flags):
        if value is not True:
            raise ValueError(f"generator_tail {flag} is {value!r}, not True")
    return TailSchema(Fraction(*_parse_ratio(sup)), Fraction(*_parse_ratio(low)), note)


def _claims_from_json(obj: dict) -> Claims:
    *pairs, bounds = _read(obj, "claims", {
        "unique_extension": list, "immediate": list, "defect": list, "classification": list,
        "bounds": list})
    for i, pair in enumerate(pairs + bounds):  # only the defect verdict is an int or null
        first = (int, type(None)) if i == 2 else (str,)
        if type(pair) is not list or len(pair) != 2 or type(pair[0]) not in first \
                or type(pair[1]) is not str:
            raise ValueError(f"claims pair {pair!r} is not a pair the writer writes")
    return Claims(*pairs[0], *pairs[1], *pairs[2], *pairs[3], tuple(map(tuple, bounds)))


def series_from_json(obj: dict, ctx: SeriesContext) -> Series:
    """The series of a stored object, read on the grid: the precision is
    ``+inf`` or a ratio n/d on it, read as the index n*(D/d); each exponent
    is such an index, above the one before it and below the precision, and
    each coefficient a nonzero code as ``repr_code`` writes it."""
    mode, prec, terms = _read(obj, "series", {"mode": str, "precision": str, "terms": list})
    if mode != ctx.mode:
        raise ValueError(f"series mode {mode!r} does not match the session")
    F, D = ctx.field, ctx.D
    kcap = math.inf if prec == "+inf" else _parse_k(prec, D, "series precision")
    p, m, kterms = F.p, F.m, []
    ctype = int if m == 1 else list
    for t in terms:  # _read's check, inline: a call per term costs 3% of a verify job
        if type(t) is not dict or len(t) != 2 or type(t.get("exp")) is not str \
                or type(t.get("coeff")) is not ctype:
            _read(t, "series term", {"coeff": ctype, "exp": str})  # refuses, naming why
        coeff, exp = t["coeff"], t["exp"]
        n, d = _parse_ratio(exp)
        k = n * (D // d)
        if D % d or not k < kcap or kterms and not kterms[-1][0] < k:
            raise ValueError(f"series exponent {exp!r} is off the grid, not above the one "
                             f"before it, or not below the precision {prec}")
        if not (0 < coeff < p if m == 1 else len(coeff) == m and any(coeff)
                and all(type(c) is int and 0 <= c < p for c in coeff)):
            raise ValueError(f"series code {coeff!r} at {exp!r} is zero or not the writer's form")
        kterms.append((k, coeff if m == 1 else F.parse_code(coeff)))  # 0 < coeff < p: its own code
    return Series(ctx, tuple(kterms), kcap)


def poly_from_json(obj: list, ctx: SeriesContext) -> Tuple[Series, ...]:
    f = tuple(series_from_json(c, ctx) for c in obj)
    if not f or f[-1].is_zero and f[-1].kprec == math.inf:
        raise ValueError(f"min_poly of {len(obj)} coefficients is empty or ends in a zero one")
    return f


def sample_from_json(obj: dict, ctx: SeriesContext) -> InitialSegmentSample:
    budget, no_max, realized, upper = _read(obj, "sample", {
        "budget": int, "no_max": str, "realized": list, "upper": dict})
    entries = []
    for r in realized:
        value, witness = _read(r, "realized entry", {"value": str, "witness": dict})
        # a grid index, never +inf: +inf is written for bounds only
        entries.append((_parse_k(value, ctx.D, "realized value"), series_from_json(witness, ctx)))
    return InitialSegmentSample(tuple(entries), _cut_from_json(upper), no_max, budget)


def cert_from_json(obj: dict) -> ExtensionCert:
    kind, base, gen, tail, min_poly, floor, sample, dist, claims, provenance = _read(obj, "cert", {
        "kind": str, "base": dict, "generator": dict, "generator_tail": (dict, type(None)),
        "min_poly": list, "residual_floor": str, "sample": dict, "dist": dict, "claims": dict,
        "provenance": list})
    if kind not in (ARTIN_SCHREIER, KUMMER):
        raise ValueError(f"kind {kind!r} is neither {ARTIN_SCHREIER!r} nor {KUMMER!r}")
    if any(type(s) is not str for s in provenance):
        raise ValueError(f"cert provenance {provenance!r} is not a list of strings")
    base = field_from_json(base, "base")
    ctx = base.ctx
    return ExtensionCert(
        kind, base, series_from_json(gen, ctx), None if tail is None else _tail_from_json(tail),
        poly_from_json(min_poly, ctx),
        math.inf if floor == "+inf" else _parse_k(floor, ctx.D, "residual_floor"),
        sample_from_json(sample, ctx),
        CutEnclosure(*map(_cut_from_json, _read(dist, "enclosure", {"lo": dict, "hi": dict}))),
        _claims_from_json(claims), tuple(provenance),
    )


class CertificateFile(NamedTuple):
    version: int
    config: SessionConfig
    field: FieldDesc
    certs: Tuple[ExtensionCert, ...]
    log: Tuple[str, ...]


def make_certificate_file(
    K: FieldDesc, config: SessionConfig, certs, log=()
) -> CertificateFile:
    return CertificateFile(SCHEMA_VERSION, config, K, tuple(certs), tuple(log))


# --------------------------------------------------------------------------
# The writer: one function per record, each giving the record's text with
# its keys in sorted order.  ``nl`` is a newline followed by the indent of
# the line the record ends on, one space per level.  Free strings go through
# the C string escaper, which refuses anything but a str with TypeError.


def _array(texts: list, nl: str) -> str:
    # the elements' texts end on lines indented by nl + " "
    if not texts:
        return "[]"
    inner = nl + " "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _object(nl: str, keys: str, *texts: str) -> str:
    # ``keys`` names the texts, space-separated, in sorted order
    return _object_format(nl, keys).format(*texts)


@lru_cache(maxsize=None)
def _object_format(nl: str, keys: str) -> str:
    # one format string per record shape, its keys' texts as the fields
    inner = nl + " "
    return "{{" + inner + ("," + inner).join(f'"{k}": {{}}' for k in keys.split()) + nl + "}}"


@lru_cache(maxsize=None)
def _term_format(F: FiniteField, nl: str) -> tuple:
    # a term of F that ends on ``nl``: its text up to the exponent, for
    # each code (a plain int for a prime field), and after the exponent
    n1 = nl + " "
    codes = [str(c) if F.m == 1 else _array([str(x) for x in F.repr_code(c)], n1)
             for c in range(F.q)]
    return tuple(f'{{{n1}"coeff": {t},{n1}"exp": "' for t in codes), f'"{nl}}}'


def _k_text(k, D: int) -> str:
    # the grid value k/D as a reduced ratio, "+inf" for math.inf
    if k == math.inf:
        return "+inf"
    g = math.gcd(k, D)
    return f"{k // g}/{D // g}"


def _series_text(s: Series, nl: str) -> str:
    # most of a file's bytes: one format for every term
    ctx, n1 = s.ctx, nl + " "
    D, (heads, end) = ctx.D, _term_format(ctx.field, n1 + " ")
    terms = []
    for k, c in s.kterms:
        g = math.gcd(k, D)  # the exponent k/D as a reduced fraction
        terms.append(f"{heads[c]}{k // g}/{D // g}{end}")
    prec = _k_text(s.kprec, D)
    return (f'{{{n1}"mode": {encode_basestring_ascii(ctx.mode)},{n1}"precision": "{prec}",'
            f'{n1}"terms": {_array(terms, n1)}{nl}}}')


def _cut_text(c: Cut, nl: str) -> str:
    return _object(nl, "attained bound", "true" if c.attained else "false", f'"{c.bound}"')


def _sample_text(s: InitialSegmentSample, nl: str) -> str:
    n1, n2, n3 = nl + " ", nl + "  ", nl + "   "
    realized = [f'{{{n3}"value": "{_k_text(k, w.ctx.D)}",'
                f'{n3}"witness": {_series_text(w, n3)}{n2}}}' for k, w in s.realized]
    return _object(nl, "budget no_max realized upper", str(s.budget),
                   encode_basestring_ascii(s.no_max), _array(realized, n1), _cut_text(s.upper, n1))


def _claims_text(c: Claims, nl: str) -> str:
    n1, n2, q = nl + " ", nl + "  ", encode_basestring_ascii
    defect = "null" if c.defect is None else str(c.defect)
    pairs = [_array([v, q(rule)], n1) for v, rule in zip(
        (q(c.classification), defect, q(c.immediate), q(c.unique_extension)),
        (c.classification_rule, c.defect_rule, c.immediate_rule, c.unique_rule))]
    bounds = [_array([q(n), q(v)], n2) for n, v in c.bounds]
    return _object(nl, "bounds classification defect immediate unique_extension",
                   _array(bounds, n1), *pairs)


def _tail_text(tail: TailSchema, nl: str) -> str:
    # the flags of _TAIL_FLAGS are true
    return _object(nl, "cofinal_at_sup denominators_unbounded low note partials_in_field sup",
                   "true", "true", f'"{ExtRat.of(tail.low)}"', encode_basestring_ascii(tail.note),
                   "true", f'"{ExtRat.of(tail.sup)}"')


@lru_cache(maxsize=None)
def _field_text(K: FieldDesc, nl: str) -> str:
    # the same few fields in every file of a process, each rendered once by
    # the encoder that defines the canonical text
    return json.dumps(_field_to_json(K), sort_keys=True, indent=1).replace("\n", nl)


def _cert_text(cert: ExtensionCert, nl: str) -> str:
    n1, n2, q = nl + " ", nl + "  ", encode_basestring_ascii
    tail, floor = cert.generator_tail, _k_text(cert.residual_floor, cert.base.ctx.D)
    return _object(nl, "base claims dist generator generator_tail kind min_poly provenance "
                   "residual_floor sample", _field_text(cert.base, n1),
                   _claims_text(cert.claims, n1),
                   _object(n1, "hi lo", _cut_text(cert.dist.hi, n2), _cut_text(cert.dist.lo, n2)),
                   _series_text(cert.generator, n1), "null" if tail is None else _tail_text(tail, n1),
                   q(cert.kind), _array([_series_text(c, n2) for c in cert.min_poly], n1),
                   _array([q(s) for s in cert.provenance], n1), f'"{floor}"',
                   _sample_text(cert.sample, n1))


def _file_text(cf: CertificateFile) -> str:
    config, q = cf.config, encode_basestring_ascii
    return _object("\n", "certs config field log version",
                   _array([_cert_text(c, "\n  ") for c in cf.certs], "\n "),
                   _object("\n ", "D budget m mode p precision", str(config.D), str(config.budget),
                           str(config.m), q(config.mode), str(config.p), f'"{SESSION_PRECISION}"'),
                   _field_text(cf.field, "\n "), _array([q(s) for s in cf.log], "\n "),
                   str(cf.version))


def write_certificate_file(path: str, cf: CertificateFile) -> None:
    """Write ``cf`` to ``path`` atomically: a temporary file in the same
    directory, created with mode 0666 less the umask (what a plain
    ``open(path, "w")`` gives), renamed over ``path``."""
    payload = _file_text(cf)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".cert-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_certificate_file(path: str) -> CertificateFile:
    with open(path) as fh:
        obj = json.load(fh)
    stored, config, field, log, version = _read(obj, "file", {
        "certs": list, "config": dict, "field": dict, "log": list, "version": int})
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version}")
    if any(type(s) is not str for s in log):
        raise ValueError(f"file log {log!r} is not a list of strings")
    config = SessionConfig.from_json(config)
    field = field_from_json(field, "field")
    certs = []
    for i, c in enumerate(stored):
        try:
            certs.append(cert_from_json(c))
        except ValueError as exc:
            raise ValueError(f"certs[{i}]: {exc}") from exc
    return CertificateFile(version, config, field, tuple(certs), tuple(log))


class VerifyReport:
    """The outcome of ``verify_certificate``: ``ok`` until a diff is added."""

    def __init__(self):
        self.ok = True
        self.diffs: List[str] = []

    def add(self, msg: str):
        self.ok = False
        self.diffs.append(msg)


def verify_certificate(cf: CertificateFile) -> VerifyReport:
    """Re-derive every recorded claim from stored witnesses alone.

    No searches are repeated: realized values come from recomputing the
    stored witness differences, the upper cut from the recorded support
    and tail data, the residual from re-evaluating the stored minimal
    polynomial, and the enclosure and the claims from rebuilding the
    certificate with ``artin.certify``, the rule every builder uses.  A
    file with several certificates is a family, whose members must be
    pairwise distinct.
    """
    report = VerifyReport()
    config = cf.config
    session = (config.mode, config.p, config.m, config.D)
    fctx = cf.field.ctx
    if (fctx.mode, fctx.p, fctx.m, fctx.D) != session:
        report.add("field: config-mismatch between the field and the session snapshot")
    for idx, cert in enumerate(cf.certs):
        tag = f"cert[{idx}]"
        if cert.sample.budget != config.budget:
            report.add(f"{tag}: budget-mismatch: the sample's budget is "
                       f"{cert.sample.budget}, the session's {config.budget}")
        if cert.base != cf.field:
            report.add(f"{tag}: base-mismatch: the certificate's base {cert.base.name!r} "
                       f"differs from the file's field {cf.field.name!r}")
        ctx = cert.base.ctx
        if (ctx.mode, ctx.p, ctx.m, ctx.D) != session:
            report.add(f"{tag}: config-mismatch between the field and the session snapshot")
            continue
        try:
            _verify_one(cert, report, tag)
        except Exception as exc:  # a broken certificate must not crash the run
            report.add(f"{tag}: verification error: {exc}")
    # only family commands write more than one certificate per file
    if len(cf.certs) >= 2:
        try:
            check_pairwise_distinct(cf.certs)
        except AssertionError as exc:
            report.add(f"family: {exc}")
    return report


def _verify_one(cert: ExtensionCert, report: VerifyReport, tag: str):
    ctx = cert.base.ctx
    gen = cert.generator
    tail = cert.generator_tail
    kfloor = cert.residual_floor

    # 0. an Artin-Schreier root's tail is the one its floor implies
    if cert.kind == ARTIN_SCHREIER:
        if 0 <= kfloor < math.inf:
            report.add(f"{tag}: residual_floor {ctx.value_of(kfloor)} is neither +inf nor "
                       f"negative, as an Artin-Schreier root's is")
        else:
            want = root_tail(kfloor, ctx)
            if want != tail:
                texts = ("null" if t is None else
                         f"low {ExtRat.of(t.low)}, sup {ExtRat.of(t.sup)}, note {t.note!r}"
                         for t in (want, tail))
                report.add(f"{tag}: generator_tail re-derives to " + ", stored ".join(texts))

    # 1. witness membership and re-evaluation, on the grid
    khorizon = difference_horizon(gen, tail)
    for k, w in cert.sample.realized:
        if not member_witness(cert.base, w):
            report.add(f"{tag}: witness for {ctx.value_of(k)} is not in K")
        got = gen.diff_k(w)
        if got is None:
            report.add(f"{tag}: witness for {ctx.value_of(k)} gives a zero difference")
        elif got != k or not got < khorizon:
            report.add(f"{tag}: witness re-evaluation gives {ctx.value_of(got)}, "
                       f"stored {ctx.value_of(k)}")

    # 2. upper cut from the stored support and tail, the shape of the
    # sample under it, and whether the sample refutes "no maximum"
    upper = support_upper_cut(gen, cert.base, tail)
    if upper != cert.sample.upper:
        report.add(f"{tag}: upper cut re-derivation gives {upper}, stored {cert.sample.upper}")
    err = sample_shape_error(cert.sample.realized, upper, ctx)
    if err is not None:
        report.add(f"{tag}: sample shape: {err}")
    refuted = no_max_refuted(cert.sample.realized, upper, ctx)
    if refuted != (cert.sample.no_max == REFUTED):
        report.add(
            f"{tag}: no_max re-derives to {'refuted' if refuted else 'not refuted'}, "
            f"stored {cert.sample.no_max!r}"
        )

    # 3. the minimal polynomial is its kind's over its kind's base, and its
    # residual is the recorded one: for Artin-Schreier, theta^p - theta - b
    # by the exact Frobenius lies within the window of the recorded floor
    # (the product theta * theta keeps only the precision v(theta) +
    # prec(theta)); for Kummer, theta^p + c0 starts at the recorded floor
    f = cert.min_poly
    equal = cert.kind == ARTIN_SCHREIER
    if (ctx.mode == EQUAL) != equal or degree_p_poly(cert.kind, f[0]) != f:
        want = "X - b over an equal-characteristic" if equal else "c over a mixed-characteristic"
        report.add(f"{tag}: min_poly is not X^{ctx.p} - {want} base")
    elif equal:
        bad = residual_window_violations(gen.frobenius() - gen + f[0], kfloor)
        if bad:
            report.add(f"{tag}: residual terms at {bad} violate the recorded floor "
                       f"{ctx.value_of(kfloor)}")
    else:
        k = (gen.pow_int(ctx.p) + f[0]).vlow_k()
        if k != kfloor:
            report.add(f"{tag}: residual_floor re-derives to {ctx.value_of(k)}, "
                       f"stored {ctx.value_of(kfloor)}")

    # 4. the distance enclosure and the six derived claim fields, rebuilt by
    # the one rule every builder returns its certificate through
    try:
        rebuilt = certify(cert.kind, cert.base, gen, tail, f[0], kfloor, cert.sample,
                          cert.claims, cert.provenance)
    except (ValueError, AssertionError) as exc:
        report.add(f"{tag}: claim re-derivation failed: {exc}")
        return
    if rebuilt.dist != cert.dist:
        report.add(f"{tag}: distance enclosure differs: re-derives to {rebuilt.dist}, "
                   f"stored {cert.dist}")
    got, want = rebuilt.claims, cert.claims
    for fieldname in ("immediate", "immediate_rule", "defect", "defect_rule",
                      "classification", "classification_rule"):
        if getattr(got, fieldname) != getattr(want, fieldname):
            report.add(
                f"{tag}: claim {fieldname} re-derives to {getattr(got, fieldname)!r}, "
                f"stored {getattr(want, fieldname)!r}"
            )
