"""Byte-identical certificates for every golden job.

Each job runs in-process through ``cli.main(argv + ["--out", path])`` and
must give the exit code and the certificate sha256 recorded in the
benchmark's ``perfbench/golden.json`` (read here, never written), and the
file it writes must verify.  A change of representation that moves one
byte of a certificate fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from defectlab.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

JOBS = tuple(sorted(json.loads(GOLDEN.read_text())["jobs"]))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["jobs"]


@pytest.mark.parametrize("job", JOBS)
def test_certificate_matches_golden(job, golden, tmp_path, capsys):
    want = golden[job]
    out = tmp_path / "cert.json"
    assert main(job.split() + ["--out", str(out)]) == want["rc"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"]
    # the reader accepts only what the writer writes, so every output must verify
    assert main(["verify", str(out)]) == 0


CORPUS = GOLDEN.parent / "corpus"


def test_corpus_verifies_twice_in_one_process(capsys):
    # one process, one parser, every corpus file twice: each call gives the
    # golden exit code, and each tampered copy names its recorded diff
    corpus = json.loads(GOLDEN.read_text())["corpus"]
    assert len(corpus) == len(list(CORPUS.glob("*.json")))
    for _ in range(2):
        for name, want in sorted(corpus.items()):
            assert main(["verify", str(CORPUS / name)]) == want["rc"], name
            out = capsys.readouterr().out
            if want["diff"] is None:
                assert out.startswith("verified: "), (name, out)
            else:
                assert "verification FAILED:" in out and want["diff"] in out, (name, out)
