"""Certificate files: schema v1, which no other module spells (the value
types carry no JSON), and atomic writes of the canonical text.

The canonical text of a file is ``json.dumps(tree, sort_keys=True,
indent=1)`` of its records as a tree of dicts and lists; the writer renders
each record straight to that text and builds no tree.

Reading a file and re-verifying it live in ``certread``, which only
``verify`` runs, so a process that writes a file compiles no reader.
``read_certificate_file`` and ``verify_certificate`` stay here as
forwarders to it, the names the benchmark's tracer times.
"""

from __future__ import annotations

import json
import math
import os
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import List, NamedTuple, Tuple

from . import artin, certread
from .approx import InitialSegmentSample, TailSchema
from .cuts import Cut, ExtRat
from .ffield import FiniteField
from .fields import FieldDesc
from .series import Series

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
    def for_field(K: FieldDesc, budget: int) -> "SessionConfig":
        return SessionConfig(K.ctx.mode, K.ctx.p, K.ctx.m, K.ctx.D, budget)


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


class CertificateFile(NamedTuple):
    config: SessionConfig
    field: FieldDesc
    certs: Tuple[artin.ExtensionCert, ...]
    log: Tuple[str, ...]


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


def _claims_text(c: artin.Claims, nl: str) -> str:
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


def _cert_text(cert: artin.ExtensionCert, nl: str) -> str:
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
                   str(SCHEMA_VERSION))


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
    """The file at ``path``, read by ``certread.read_certificate_file``."""
    return certread.read_certificate_file(path)


def verify_certificate(cf: CertificateFile) -> List[str]:
    """The named diffs of ``cf``, by ``certread.verify_certificate``."""
    return certread.verify_certificate(cf)
