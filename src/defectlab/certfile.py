"""Certificate files: schema v1, which no other module spells (the value
types carry no JSON), canonical serialization, atomic writes, and
search-free re-verification.

Certificates carry their witnesses, so verification re-derives every
recorded claim from stored data alone: witness valuations are recomputed,
minimal-polynomial residuals are re-evaluated against the recorded floor,
cuts and defect arithmetic are recomputed, and the claim rules are
re-applied.  A verified file reproduces the stored verdicts bit for bit;
any divergence is reported as a structured diff.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import List, NamedTuple, Tuple

from .approx import (
    REFUTED,
    InitialSegmentSample,
    TailSchema,
    difference_horizon,
    distance,
    no_max_refuted,
    sample_shape_error,
    support_upper_cut,
)
from .artin import (
    ARTIN_SCHREIER,
    KUMMER,
    Claims,
    ExtensionCert,
    check_pairwise_distinct,
    derive_claims,
    residual_window_violations,
)
from .cuts import MINUS_INF, PLUS_INF, Cut, CutEnclosure, ExtRat
from .fields import FieldDesc, member_witness, preset_field
from .series import Polynomial, Series, SeriesContext

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

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "p": self.p,
            "m": self.m,
            "D": self.D,
            "precision": SESSION_PRECISION,
            "budget": self.budget,
        }

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


def _parse_extrat(s: str) -> ExtRat:
    if s == "+inf":
        return PLUS_INF
    if s == "-inf":
        return MINUS_INF
    return ExtRat(Fraction(*_parse_ratio(s)))


def _cut_to_json(c: Cut) -> dict:
    return {"bound": str(c.bound), "attained": c.attained}


def _cut_from_json(obj: dict) -> Cut:
    attained, bound = _read(obj, "cut", {"attained": bool, "bound": str})
    return Cut(_parse_extrat(bound), attained)


def _enclosure_to_json(e: CutEnclosure) -> dict:
    return {"lo": _cut_to_json(e.lo), "hi": _cut_to_json(e.hi)}


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


def _tail_to_json(tail: TailSchema) -> dict:
    return {
        "sup": str(ExtRat.of(tail.sup)),
        "low": str(ExtRat.of(tail.low)),
        "note": tail.note,
        **dict.fromkeys(_TAIL_FLAGS, True),
    }


def _tail_from_json(obj: dict) -> TailSchema:
    *flags, low, note, sup = _read(obj, "generator_tail", {
        "cofinal_at_sup": bool, "denominators_unbounded": bool, "partials_in_field": bool,
        "low": str, "note": str, "sup": str})
    for flag, value in zip(_TAIL_FLAGS, flags):
        if value is not True:
            raise ValueError(f"generator_tail {flag} is {value!r}, not True")
    return TailSchema(Fraction(*_parse_ratio(sup)), Fraction(*_parse_ratio(low)), note)


def _claims_to_json(c: Claims) -> dict:
    return {
        "unique_extension": [c.unique_extension, c.unique_rule],
        "immediate": [c.immediate, c.immediate_rule],
        "defect": [c.defect, c.defect_rule],
        "classification": [c.classification, c.classification_rule],
        "bounds": [[n, v] for n, v in c.bounds],
    }


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


def series_to_json(s: Series) -> dict:
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


def series_from_json(obj: dict, ctx: SeriesContext) -> Series:
    """The series of a stored object, read on the grid: the precision is
    ``+inf`` or a ratio n/d on it, read as the index n*(D/d); each exponent
    is such an index, above the one before it and below the precision, and
    each coefficient a nonzero code as ``repr_code`` writes it."""
    mode, prec, terms = _read(obj, "series", {"mode": str, "precision": str, "terms": list})
    if mode != ctx.mode:
        raise ValueError(f"series mode {mode!r} does not match the session")
    F, D, kcap = ctx.field, ctx.D, math.inf
    if prec != "+inf":
        n, d = _parse_ratio(prec)
        if D % d:
            raise ValueError(f"series precision {prec!r} is off the grid (1/D)Z, D={D}")
        kcap = n * (D // d)
    p, m, k, kterms = F.p, F.m, -math.inf, []
    ctype = int if m == 1 else list
    for t in terms:  # _read's check, inline: a call per term costs 3% of a verify job
        if type(t) is not dict or len(t) != 2 or type(t.get("exp")) is not str \
                or type(t.get("coeff")) is not ctype:
            _read(t, "series term", {"coeff": ctype, "exp": str})  # refuses, naming why
        coeff, exp = t["coeff"], t["exp"]
        n, d = _parse_ratio(exp)
        last, k = k, n * (D // d)
        if D % d or not last < k < kcap:
            raise ValueError(f"series exponent {exp!r} is off the grid, not above the one "
                             f"before it, or not below the precision {prec}")
        if not (0 < coeff < p if m == 1 else len(coeff) == m and any(coeff)
                and all(type(c) is int and 0 <= c < p for c in coeff)):
            raise ValueError(f"series code {coeff!r} at {exp!r} is zero or not the writer's form")
        kterms.append((k, coeff if m == 1 else F.parse_code(coeff)))  # 0 < coeff < p: its own code
    return Series(ctx, tuple(kterms), kcap)


def poly_to_json(f: Polynomial) -> list:
    return [series_to_json(c) for c in f.coeffs]


def poly_from_json(obj: list, ctx: SeriesContext) -> Polynomial:
    f = Polynomial.make(tuple(series_from_json(c, ctx) for c in obj))
    if not obj or len(f.coeffs) != len(obj):
        raise ValueError(f"min_poly of {len(obj)} coefficients is empty or ends in a zero one")
    return f


def sample_to_json(s: InitialSegmentSample) -> dict:
    return {
        "realized": [
            {"value": str(v), "witness": series_to_json(w)} for v, w in s.realized
        ],
        "upper": _cut_to_json(s.upper),
        "no_max": s.no_max,
        "budget": s.budget,
    }


def sample_from_json(obj: dict, ctx: SeriesContext) -> InitialSegmentSample:
    budget, no_max, realized, upper = _read(obj, "sample", {
        "budget": int, "no_max": str, "realized": list, "upper": dict})
    entries = []
    for r in realized:
        value, witness = _read(r, "realized entry", {"value": str, "witness": dict})
        entries.append((_parse_extrat(value), series_from_json(witness, ctx)))
    return InitialSegmentSample(tuple(entries), _cut_from_json(upper), no_max, budget)


def cert_to_json(cert: ExtensionCert) -> dict:
    return {
        "kind": cert.kind,
        "base": _field_to_json(cert.base),
        "generator": series_to_json(cert.generator),
        "generator_tail": _tail_to_json(cert.generator_tail) if cert.generator_tail else None,
        "min_poly": poly_to_json(cert.min_poly),
        "residual_floor": str(cert.residual_floor),
        "sample": sample_to_json(cert.sample),
        "dist": _enclosure_to_json(cert.dist),
        "claims": _claims_to_json(cert.claims),
        "provenance": list(cert.provenance),
    }


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
        poly_from_json(min_poly, ctx), _parse_extrat(floor), sample_from_json(sample, ctx),
        CutEnclosure(*map(_cut_from_json, _read(dist, "enclosure", {"lo": dict, "hi": dict}))),
        _claims_from_json(claims), tuple(provenance),
    )


class CertificateFile(NamedTuple):
    version: int
    config: SessionConfig
    field: FieldDesc
    certs: Tuple[ExtensionCert, ...]
    log: Tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "config": self.config.to_json(),
            "field": _field_to_json(self.field),
            "certs": [cert_to_json(c) for c in self.certs],
            "log": list(self.log),
        }


def make_certificate_file(
    K: FieldDesc, config: SessionConfig, certs, log=()
) -> CertificateFile:
    return CertificateFile(SCHEMA_VERSION, config, K, tuple(certs), tuple(log))


def _dumps(obj) -> str:
    """Canonical JSON text of ``obj``: byte-identical to
    ``json.dumps(obj, sort_keys=True, indent=1)`` on the shapes ``to_json``
    produces (dicts with str keys, lists, tuples, str, int, bool, None).

    ``json.dumps`` cannot use CPython's C encoder when ``indent`` is set;
    this writer keeps the C string escaper and drops the rest of the
    pure-Python encoder's generality.  Any other type raises ``TypeError``.
    """
    chunks: List[str] = []
    _emit(obj, chunks.append, "\n")
    return "".join(chunks)


def _emit(obj, write, nl: str) -> None:
    # ``nl`` is a newline followed by the indent of the line ``obj`` ends on
    t = type(obj)
    if t is str:
        write(encode_basestring_ascii(obj))
    elif t is int:
        write(int.__repr__(obj))  # never a bool: type(True) is bool
    elif t is dict or t is list or t is tuple:
        if not obj:
            write("{}" if t is dict else "[]")
            return
        inner = nl + " "
        sep = inner
        if t is dict:
            write("{")
            for key, value in sorted(obj.items()):
                if type(key) is not str:
                    raise TypeError(f"certificate JSON keys must be str, not {type(key).__name__}")
                write(f"{sep}{encode_basestring_ascii(key)}: ")
                sep = "," + inner
                _emit(value, write, inner)
            write(nl + "}")
        else:
            write("[")
            for value in obj:
                write(sep)
                sep = "," + inner
                _emit(value, write, inner)
            write(nl + "]")
    elif obj is True:
        write("true")
    elif obj is False:
        write("false")
    elif obj is None:
        write("null")
    else:
        raise TypeError(f"cannot write {t.__name__} into a certificate file")


def write_certificate_file(path: str, cf: CertificateFile) -> None:
    """Write ``cf`` to ``path`` atomically: a temporary file in the same
    directory, created with mode 0666 less the umask (what a plain
    ``open(path, "w")`` gives), renamed over ``path``."""
    payload = _dumps(cf.to_json())
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
    polynomial, and the claims from re-running the (pure) rule functions
    on the reconstructed sample.  A file with several certificates is a
    family, whose members must be pairwise distinct.
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

    # 1. witness membership and re-evaluation, on the grid: a stored value
    # off the grid has no index and so never matches
    khorizon = difference_horizon(gen, tail)
    kprec = gen.kprec
    for v, w in cert.sample.realized:
        if not member_witness(cert.base, w):
            report.add(f"{tag}: witness for {v} is not in K")
        got = gen.diff_k(w, kprec)
        if not v.is_finite:
            if got != math.inf:
                report.add(f"{tag}: witness for +inf does not reproduce an exact zero")
            continue
        if got is None or got == math.inf:
            report.add(f"{tag}: witness for {v} gives a zero difference")
            continue
        if got != ctx.grid_index(v) or not got < khorizon:
            report.add(f"{tag}: witness re-evaluation gives {ctx.value_of(got)}, stored {v}")

    # 2. upper cut from the stored support and tail, the shape of the
    # sample under it, and whether the sample refutes "no maximum"
    upper = support_upper_cut(gen, cert.base, tail)
    if upper != cert.sample.upper:
        report.add(f"{tag}: upper cut re-derivation gives {upper}, stored {cert.sample.upper}")
    err = sample_shape_error(cert.sample.realized, upper)
    if err is not None:
        report.add(f"{tag}: sample shape: {err}")
    refuted = no_max_refuted(cert.sample.realized, upper)
    if refuted != (cert.sample.no_max == REFUTED):
        report.add(
            f"{tag}: no_max re-derives to {'refuted' if refuted else 'not refuted'}, "
            f"stored {cert.sample.no_max!r}"
        )

    # 3. minimal polynomial residual within the recorded exception window
    floor = cert.residual_floor
    bad = residual_window_violations(cert.min_poly.evaluate(gen), floor)
    if bad:
        report.add(f"{tag}: residual terms at {bad} violate the recorded floor {floor}")

    # 4. distance enclosure re-derivation
    try:
        dist = distance(cert.sample, tail)
        if dist != cert.dist:
            report.add(f"{tag}: distance enclosure differs: {_enclosure_to_json(dist)} vs stored")
    except ValueError as exc:
        report.add(f"{tag}: distance re-derivation failed: {exc}")

    # 5. the six derived claim fields, from the one rule every builder uses
    try:
        rederived = derive_claims(cert)
    except (ValueError, AssertionError) as exc:
        report.add(f"{tag}: claim re-derivation failed: {exc}")
        return
    got, want = rederived.claims, cert.claims
    for fieldname in ("immediate", "immediate_rule", "defect", "defect_rule",
                      "classification", "classification_rule"):
        if getattr(got, fieldname) != getattr(want, fieldname):
            report.add(
                f"{tag}: claim {fieldname} re-derives to {getattr(got, fieldname)!r}, "
                f"stored {getattr(want, fieldname)!r}"
            )
