"""Byte-identical certificates for every golden job.

Each job runs in-process through ``cli.main(argv + ["--out", path])`` and
must give the exit code and the certificate sha256 recorded in the
benchmark's ``perfbench/golden.json`` (read here, never written), and the
file it writes must verify.  A change of representation that moves one
byte of a certificate fails here, and so does a family member that
depends on how many members the family has.
"""

import hashlib
import importlib.util
import json
import sys
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


# certificates deeper than the golden jobs reach, with the sha256 of the
# files they write
DEEP = {
    "distance --base pdiv_tower --p 2 --budget 6":
        "8cca66f630c3982d6b3ba0260660e9f0ef4f1d65a7893b3a91509d947c68199d",
    "sigma --base pdiv_tower --p 3 --budget 3":
        "81d95cc3de390e41a530cc23025f2c8b4df0ab776afe724d2cb43bacb10e4bb1",
    "distance --base fp_t --p 11 --budget 2":
        "c39229560b403bd85d9dad2c644b16b3629d534194b5d9b05973faf3fb624513",
}


@pytest.mark.parametrize("job", sorted(DEEP))
def test_deep_certificate_keeps_its_bytes(job, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(job.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEEP[job]
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


def _as_keys():
    # the as-family workload's (base, p, budget) keys and family sizes
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", GOLDEN.parent / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.AS_KEYS


AS_KEYS = _as_keys()


@pytest.mark.parametrize("key", sorted(AS_KEYS), ids=lambda k: "-".join(map(str, k)))
def test_family_members_share_no_state(key, tmp_path, capsys):
    # member i of a family does not depend on how many members follow it, or
    # on which families ran before: each smaller family's certificates are the
    # leading certificates of the largest one
    base, p, budget = key
    certs = {}
    for n in sorted(AS_KEYS[key], reverse=True):
        out = tmp_path / f"n{n}.json"
        argv = ["asfamily", "--base", base, "--p", str(p), "--n", str(n),
                "--budget", str(budget), "--out", str(out)]
        assert main(argv) == 0
        certs[n] = json.loads(out.read_text())["certs"]
        assert len(certs[n]) == n
    largest = certs[max(certs)]
    for n, got in certs.items():
        assert got == largest[:n], n
