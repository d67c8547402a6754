"""Certificate files: canonical JSON serialization, atomic writes, and
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
from .cuts import Cut, CutEnclosure, ExtRat, parse_ratio
from .fields import FieldDesc, field_from_json, member_witness
from .series import Polynomial, Series, SeriesContext

SCHEMA_VERSION = 1


# schema v1 field of every session snapshot, which no program varies
SESSION_PRECISION = "8/1"


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
        if obj["precision"] != SESSION_PRECISION:
            raise ValueError(
                f"config precision is {obj['precision']!r}, not {SESSION_PRECISION!r}"
            )
        return SessionConfig(obj["mode"], obj["p"], obj["m"], obj["D"], obj["budget"])

    @staticmethod
    def for_field(K: FieldDesc, budget: int) -> "SessionConfig":
        return SessionConfig(K.ctx.mode, K.ctx.p, K.ctx.m, K.ctx.D, budget)


def series_to_json(s: Series) -> dict:
    D = s.ctx.D
    terms = []
    for k, c in s.kterms:
        g = math.gcd(k, D)  # the exponent k/D as a reduced fraction
        terms.append({"exp": f"{k // g}/{D // g}", "coeff": s.ctx.field.repr_code(c)})
    return {"mode": s.ctx.mode, "terms": terms, "precision": s.precision.to_json()}


def series_from_json(obj: dict, ctx: SeriesContext) -> Series:
    """The series of a stored object, read on the grid: each exponent n/d
    is the index k = n*(D/d), a repeated exponent keeps its last code, and
    zero codes and indices at or beyond the precision are dropped.  An
    exponent off the grid sends the whole series through ``Series.make``,
    which drops it at or beyond the precision and refuses it below."""
    if obj["mode"] != ctx.mode:
        raise ValueError(f"series mode {obj['mode']!r} does not match the session")
    D = ctx.D
    terms = [(parse_ratio(t["exp"]), ctx.field.parse_code(t["coeff"])) for t in obj["terms"]]
    precision = ExtRat.parse(obj["precision"])
    if any(D % d for (_, d), _ in terms):
        return Series.make(ctx, {Fraction(n, d): c for (n, d), c in terms}, precision)
    kcap = ctx.kcap(precision)
    kcodes = {n * (D // d): c for (n, d), c in terms}
    return Series(ctx, tuple(sorted((k, c) for k, c in kcodes.items() if c and k < kcap)), precision)


def poly_to_json(f: Polynomial) -> list:
    return [series_to_json(c) for c in f.coeffs]


def poly_from_json(obj: list, ctx: SeriesContext) -> Polynomial:
    return Polynomial.make(tuple(series_from_json(c, ctx) for c in obj))


def sample_to_json(s: InitialSegmentSample) -> dict:
    return {
        "realized": [
            {"value": v.to_json(), "witness": series_to_json(w)} for v, w in s.realized
        ],
        "upper": s.upper.to_json(),
        "no_max": s.no_max,
        "budget": s.budget,
    }


def sample_from_json(obj: dict, ctx: SeriesContext) -> InitialSegmentSample:
    realized = tuple(
        (ExtRat.parse(r["value"]), series_from_json(r["witness"], ctx))
        for r in obj["realized"]
    )
    return InitialSegmentSample(
        realized, Cut.from_json(obj["upper"]), obj["no_max"], obj["budget"]
    )


def cert_to_json(cert: ExtensionCert) -> dict:
    return {
        "kind": cert.kind,
        "base": cert.base.to_json(),
        "generator": series_to_json(cert.generator),
        "generator_tail": cert.generator_tail.to_json() if cert.generator_tail else None,
        "min_poly": poly_to_json(cert.min_poly),
        "residual_floor": cert.residual_floor.to_json(),
        "sample": sample_to_json(cert.sample),
        "dist": cert.dist.to_json(),
        "claims": cert.claims.to_json(),
        "provenance": list(cert.provenance),
    }


def cert_from_json(obj: dict) -> ExtensionCert:
    if obj["kind"] not in (ARTIN_SCHREIER, KUMMER):
        raise ValueError(f"kind {obj['kind']!r} is neither {ARTIN_SCHREIER!r} nor {KUMMER!r}")
    base = field_from_json(obj["base"], "base")
    ctx = base.ctx
    return ExtensionCert(
        obj["kind"],
        base,
        series_from_json(obj["generator"], ctx),
        TailSchema.from_json(obj["generator_tail"]) if obj["generator_tail"] else None,
        poly_from_json(obj["min_poly"], ctx),
        ExtRat.parse(obj["residual_floor"]),
        sample_from_json(obj["sample"], ctx),
        CutEnclosure.from_json(obj["dist"]),
        Claims.from_json(obj["claims"]),
        tuple(obj["provenance"]),
    )


class CertificateFile(NamedTuple):
    version: int
    config: SessionConfig
    field: dict
    certs: Tuple[ExtensionCert, ...]
    log: Tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "config": self.config.to_json(),
            "field": self.field,
            "certs": [cert_to_json(c) for c in self.certs],
            "log": list(self.log),
        }


def make_certificate_file(
    K: FieldDesc, config: SessionConfig, certs, log=()
) -> CertificateFile:
    return CertificateFile(SCHEMA_VERSION, config, K.to_json(), tuple(certs), tuple(log))


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
    if obj["version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {obj['version']}")
    config = SessionConfig.from_json(obj["config"])
    field_from_json(obj["field"], "field")
    certs = []
    for i, c in enumerate(obj["certs"]):
        try:
            certs.append(cert_from_json(c))
        except ValueError as exc:
            raise ValueError(f"certs[{i}]: {exc}") from exc
    return CertificateFile(obj["version"], config, obj["field"], tuple(certs), tuple(obj["log"]))


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
    fctx = cf.field["ctx"]
    if (fctx["mode"], fctx["p"], fctx["m"], fctx["D"]) != session:
        report.add("field: config-mismatch between the field and the session snapshot")
    for idx, cert in enumerate(cf.certs):
        tag = f"cert[{idx}]"
        if cert.sample.budget != config.budget:
            report.add(f"{tag}: budget-mismatch: the sample's budget is "
                       f"{cert.sample.budget}, the session's {config.budget}")
        if cert.base.to_json() != cf.field:
            report.add(f"{tag}: base-mismatch: the certificate's base {cert.base.name!r} "
                       f"differs from the file's field {cf.field['name']!r}")
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
    khorizon = ctx.kcap(difference_horizon(gen, tail))
    kprec = ctx.kcap(gen.precision)
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
            report.add(f"{tag}: distance enclosure differs: {dist.to_json()} vs stored")
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
