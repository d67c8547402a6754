"""The certificate writer: its text, file mode and write errors.

The writer renders each record as text.  ``json.dumps(tree,
sort_keys=True, indent=1)`` over the records built as a tree of dicts
(``helpers.oracle_tree``) is the oracle: every file the writer gives must
equal it, and every corpus file must re-write from its read records to its
own bytes.
"""

import json
import math
import os
import stat
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.approx import TailSchema
from defectlab.artin import Claims, as_extension
from defectlab.certfile import (
    SessionConfig,
    _field_text,
    _field_to_json,
    _series_text,
    make_certificate_file,
    read_certificate_file,
    write_certificate_file,
)
from defectlab.cli import EX_USAGE, main
from defectlab.cuts import PLUS_INF, Cut
from defectlab.fields import PRESET_NAMES, preset_field
from defectlab.kummer import kummer_family, lab_superdependent_unit
from defectlab.series import EQUAL, MIXED, Series, make_context
from helpers import oracle_text, series_tree

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
DISTANCE = ["distance", "--base", "pdiv_tower", "--p", "2", "--budget", "2"]


def nested(tree, depth):
    # the oracle's text of ``tree`` as a value that ends on a line indented
    # by ``depth`` spaces; JSON strings hold no raw newline
    return json.dumps(tree, sort_keys=True, indent=1).replace("\n", "\n" + " " * depth)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.name)
def test_corpus_redumps_byte_for_byte(path, tmp_path):
    cf = read_certificate_file(str(path))
    out = tmp_path / "out.json"
    write_certificate_file(str(out), cf)
    data = path.read_bytes()
    assert out.read_bytes() == data
    assert (oracle_text(cf) + "\n").encode("ascii") == data


@st.composite
def _series(draw):
    mode = draw(st.sampled_from([EQUAL, MIXED]))
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 3))
    ctx = make_context(mode, p, m)
    D = ctx.D
    # the writer reads the terms as stored; the grid indices need not be
    # a normalized series, only sorted and below the precision
    ks = sorted(draw(st.sets(st.integers(-3 * D, 3 * D), max_size=8)))
    kterms = tuple((k, draw(st.integers(1, ctx.q - 1))) for k in ks)
    top = ks[-1] + 1 if ks else -3 * D
    kprec = draw(st.one_of(st.just(math.inf), st.integers(top, top + 2 * D)))
    return Series(ctx, kterms, kprec)


@settings(max_examples=300, deadline=None)
@given(_series(), st.integers(0, 4))
def test_matches_json_dumps(s, depth):
    # a series at every depth it takes in a file and more: most of the bytes
    assert _series_text(s, "\n" + " " * depth) == nested(series_tree(s), depth)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("p", [2, 3])
def test_field_text_matches_the_oracle(name, p):
    K = preset_field(name, p)
    for depth in (1, 3):
        assert _field_text(K, "\n" + " " * depth) == nested(_field_to_json(K), depth)


def test_scalars_and_empty_containers(tmp_path):
    # no certificate and no log, a null tail, a null defect verdict, no
    # bounds, a term-free exact series, and both values of every flag
    K = preset_field("pdiv_tower", 2)
    config = SessionConfig.for_field(K, 2)
    cert = as_extension(Series.monomial(K.ctx, -1), K, 2)
    zero = Series.zero(K.ctx)
    bare = cert._replace(generator_tail=None, generator=zero, provenance=(),
                         claims=Claims(defect=None),
                         sample=cert.sample._replace(realized=(), upper=Cut(PLUS_INF, False)))
    assert cert.claims.defect is not None and cert.generator_tail is not None
    for cf in (make_certificate_file(K, config, []),
               make_certificate_file(preset_field("laurent", 3), config, [bare, cert], log=("",))):
        out = tmp_path / "out.json"
        write_certificate_file(str(out), cf)
        assert out.read_bytes() == (oracle_text(cf) + "\n").encode("ascii")


AWKWARD = 'q"b\\s/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80é €\U0001f600'


def test_free_strings_are_escaped(tmp_path):
    # log, provenance and the tail's note hold quotes, backslashes, control
    # characters and non-ASCII, and read back as written
    K = preset_field("qp_pdiv_tower", 2, 2, 2 ** 16)
    eta, tail = lab_superdependent_unit(K)
    certs = kummer_family(eta, K, 2, 5, tail)
    odd = TailSchema(Fraction(1, 8), Fraction(-3, 16), AWKWARD)
    certs = [c._replace(provenance=(AWKWARD, "", "plain"), generator_tail=odd) for c in certs]
    cf = make_certificate_file(K, SessionConfig.for_field(K, 5), certs, log=(AWKWARD, "x", ""))
    out = tmp_path / "odd.json"
    write_certificate_file(str(out), cf)
    data = out.read_bytes()
    assert data == (oracle_text(cf) + "\n").encode("ascii")
    back = read_certificate_file(str(out))
    assert back.log == cf.log
    assert [c.provenance for c in back.certs] == [c.provenance for c in certs]
    assert [c.generator_tail for c in back.certs] == [odd, odd]


def test_file_mode_follows_umask(tmp_path, capsys):
    # the mode of a plain open(path, "w"): 0666 less the umask
    for umask, mode in ((0o022, 0o644), (0o002, 0o664), (0o077, 0o600)):
        out = tmp_path / f"d{umask:o}.json"
        old = os.umask(umask)
        try:
            assert main(DISTANCE + ["--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == mode, oct(umask)


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "d.json"
    assert main(DISTANCE + ["--out", str(missing)]) == EX_USAGE
    err = capsys.readouterr().err
    assert f"error: cannot write certificate file {missing}: No such file" in err
    # a directory as the target: the temporary file is made beside it, and
    # removed when the rename fails
    target = tmp_path / "target"
    target.mkdir()
    assert main(DISTANCE + ["--out", str(target)]) == EX_USAGE
    assert f"error: cannot write certificate file {target}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
    assert list(target.iterdir()) == []
