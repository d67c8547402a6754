"""Record the golden gate and the verify corpus at the current commit.

    python3 perfbench/record_golden.py

Run from the root of a checkout.  Runs every pool job once, with the same
job functions the benchmark uses, and writes ``perfbench/golden.json``:
each job's exit code and the sha256 of its ``--out`` certificate.  It then
copies the certificates of ``CORPUS_SOURCES`` into ``perfbench/corpus/``,
adds single-value tampered copies, verifies every corpus file, and records
its sha256, its expected exit code and, for a tampered copy, the named
diff that ``verify`` must print.

A tampered copy whose refusal is only an incidental exception, or that
still verifies, stops the recording: a corpus may hold only refusals that
``verify`` names.  A duplicated ``certs[1]`` is deliberately absent: it
still verifies with exit 0 (a known gap), and the corpus must not make
that an expected result.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import sys
import tempfile

import worker
from workloads import AS_FAMILY, CLI_SAMPLE, CORPUS_DIR, CORPUS_SOURCES, KUMMER_FAMILY, job_key

# (corpus source index, json path, new value, diff that verify must name)
TAMPERS = (
    (0, ("certs", 0, "sample", "realized", 0, "value"), "-5/2", "witness re-evaluation gives"),
    (1, ("certs", 3, "claims", "defect", 0), 0, "claim defect re-derives"),
    (2, ("certs", 1, "min_poly", 0, "terms", 0, "exp"), "-5/1", "residual terms at"),
    (8, ("certs", 0, "dist", "hi", "bound"), "-1/3", "distance enclosure differs"),
    (12, ("certs", 0, "sample", "upper", "attained"), True, "upper cut re-derivation gives"),
    (17, ("config", "D"), 128, "config-mismatch"),
)


def corpus_name(argv) -> str:
    words = [a.lstrip("-") for a in argv]
    return "-".join(words) + ".json"


def dumps(obj) -> str:
    # the layout write_certificate_file uses
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def tamper(src: str, dst: str, path, value) -> None:
    with open(src) as fh:
        obj = json.load(fh)
    node = obj
    for key in path[:-1]:
        node = node[key]
    if node[path[-1]] == value:
        raise SystemExit(f"tamper of {dst} changes nothing")
    node[path[-1]] = value
    with open(dst, "w") as fh:
        fh.write(dumps(obj))


def main() -> int:
    signal.signal(signal.SIGALRM, worker._on_alarm)
    tmp = tempfile.mkdtemp(prefix=".golden-", dir=os.getcwd())
    out = os.path.join(tmp, "out.json")
    jobs = {}
    try:
        certs = {}
        for w in (AS_FAMILY, KUMMER_FAMILY, CLI_SAMPLE):
            for argv in w.pool:
                full = list(argv) + ["--out", out]
                if w.in_process:
                    rc = worker.run_in_process(full)[0]
                else:
                    rc = worker.run_process(full)[0]
                key = job_key(argv)
                jobs[key] = {"rc": rc, "sha256": worker.sha256_of(out)}
                print(f"{rc} {jobs[key]['sha256']} {key}", flush=True)
                if os.path.exists(out):
                    certs[key] = os.path.join(tmp, f"{len(certs)}.json")
                    os.replace(out, certs[key])

        shutil.rmtree(CORPUS_DIR, ignore_errors=True)
        os.makedirs(CORPUS_DIR)
        corpus = {}
        names = []
        for argv in CORPUS_SOURCES:
            name = corpus_name(argv)
            shutil.copyfile(certs[job_key(argv)], os.path.join(CORPUS_DIR, name))
            corpus[name] = {"source": job_key(argv), "rc": 0, "diff": None}
            names.append(name)
        for idx, path, value, diff in TAMPERS:
            name = f"tampered-{'.'.join(map(str, path))}-{names[idx]}"
            tamper(os.path.join(CORPUS_DIR, names[idx]), os.path.join(CORPUS_DIR, name), path, value)
            corpus[name] = {"source": None, "rc": 2, "diff": diff}

        for name, entry in sorted(corpus.items()):
            argv = ["verify", f"{CORPUS_DIR}/{name}"]
            rc, _, _, text = worker.run_in_process(argv)
            entry["sha256"] = worker.sha256_of(os.path.join(CORPUS_DIR, name))
            if entry["source"] is not None and entry["sha256"] != jobs[entry["source"]]["sha256"]:
                raise SystemExit(f"{name}: copy differs from its job's certificate")
            if rc != entry["rc"] or (entry["diff"] and entry["diff"] not in text):
                raise SystemExit(f"{name}: verify exit {rc}, output:\n{text}")
            if "verification error" in text:
                raise SystemExit(f"{name}: refused by an incidental exception:\n{text}")
            print(f"{rc} {name}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(os.path.join(worker.HERE, "golden.json"), "w") as fh:
        json.dump({"jobs": jobs, "corpus": corpus}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
