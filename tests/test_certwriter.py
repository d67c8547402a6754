"""The certificate writer: its JSON text, file mode and write errors.

``json.dumps(obj, sort_keys=True, indent=1)`` is the oracle: the writer
must give the same string on every shape a certificate holds, and every
corpus file must re-dump to its own bytes.
"""

import json
import os
import stat
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from defectlab.certfile import _dumps
from defectlab.cli import EX_USAGE, main

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
DISTANCE = ["distance", "--base", "pdiv_tower", "--p", "2", "--budget", "2"]


def oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=1)


texts = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80é €\U0001f600ab'),
)
leaves = st.one_of(
    texts,
    st.integers(),
    st.integers(min_value=-(2 ** 200), max_value=2 ** 200),
    st.booleans(),
    st.none(),
    st.sampled_from([[], (), {}]),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(values)
def test_matches_json_dumps(obj):
    assert _dumps(obj) == oracle(obj)


def test_scalars_and_empty_containers():
    for obj in (True, False, None, 0, -1, 10 ** 40, "", "é\"\\", [], (), {},
                [True, 1, False, 0], {"b": {}, "a": [[], {}]}):
        assert _dumps(obj) == oracle(obj)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.name)
def test_corpus_redumps_byte_for_byte(path):
    data = path.read_bytes()
    assert (_dumps(json.loads(data)) + "\n").encode("ascii") == data


@pytest.mark.parametrize(
    "obj, name",
    [
        (1.5, "float"),
        ({1, 2}, "set"),
        (Fraction(1, 2), "Fraction"),
        ({1: "a"}, "int"),
        ({"a": [{"b": 0.0}]}, "float"),
    ],
)
def test_other_types_raise(obj, name):
    with pytest.raises(TypeError, match=name):
        _dumps(obj)


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
