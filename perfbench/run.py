"""defectlab benchmark: family builds, re-verification and cold CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; it imports ``defectlab`` from ``src/``
and writes only under ``.bench_tmp/`` and ``.bench_out/``.  Workloads are
listed in ``workloads.py`` and BENCHMARK.json; README.md beside this file
maps each per-layer metric to the end-to-end metrics it should move.

``--trace 0`` measures set-up time over fresh interpreters, then runs the
untraced closed loop for ``--seconds`` in a fresh worker process and
prints the end-to-end metrics.  Their times are in reference seconds:
wall seconds rescaled by a reference kernel timed beside each job and
each set-up, which takes out the shared host's changing speed (see
speed.py).  ``--trace 1`` runs a fixed number of
rounds of the seed's job list (``trace_rounds``: one, eight for verify)
traced and then untraced, each in a fresh worker, so that call counts
repeat exactly; it prints the per-layer metrics; spans, the layer table and a per-job
breakdown go to ``.bench_out/``.

Every job is gated on the golden record (``golden.json``): a job fails if
it raises, hits its time limit, exits with another code than the golden
one, writes a certificate whose sha256 differs, or (for a tampered verify
input) does not name the expected diff.  Failures are printed with the
job and both hashes.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import per_layer_metrics  # noqa: E402
from speed import adjusted, reference_s  # noqa: E402
from workloads import CORPUS_DIR, WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
P90_MIN_JOBS = 100
WORKER_TIMEOUT_S = 150
TMP_DIR = ".bench_tmp"
OUT_DIR = ".bench_out"

SETUP_CODE = """
import sys, time
sys.path.insert(0, "src")
import defectlab
from defectlab.fields import preset_field
for name, p, m in {fields!r}:
    preset_field(name, p, m, p ** 16 if name == "qp_pdiv_tower" else None)
print(repr(time.time()))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_golden(workload):
    if not os.path.isfile(os.path.join("src", "defectlab", "__init__.py")):
        raise BenchError("no src/defectlab here: run from the root of a defectlab checkout")
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    if workload == "verify":
        for name, entry in golden["corpus"].items():
            got = sha256_of(os.path.join(CORPUS_DIR, name))
            if got != entry["sha256"]:
                raise BenchError(f"corpus file {name}: sha256 {got}, golden {entry['sha256']}")
    return golden


def expected(key, golden):
    if key.startswith("verify "):
        entry = golden["corpus"].get(os.path.basename(key.split(" ", 1)[1]))
        return entry and {"rc": entry["rc"], "sha256": None, "diff": entry["diff"]}
    return golden["jobs"].get(key)


def gate(jobs, golden):
    """Failure messages, one per failed job."""
    failures = []
    for rec in jobs:
        key, want = rec["argv"], expected(rec["argv"], golden)
        if want is None:
            failures.append(f"{key}: no golden record")
        elif rec.get("error"):
            failures.append(f"{key}: {rec['error']}")
        elif rec["rc"] != want["rc"]:
            failures.append(f"{key}: exit code {rec['rc']}, golden {want['rc']}")
        elif rec["sha256"] != want["sha256"]:
            failures.append(f"{key}: certificate sha256 {rec['sha256']}, golden {want['sha256']}")
        elif want.get("diff") and want["diff"] not in rec.get("stdout", ""):
            failures.append(f"{key}: refused without the named diff {want['diff']!r}")
    return failures


def measure_setup(w):
    """Median reference seconds from starting a fresh interpreter until
    defectlab is imported and the workload's preset fields are built."""
    code = SETUP_CODE.format(fields=list(w.fields))
    samples = []
    ref_before = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        wall = float(proc.stdout.strip()) - t0
        ref_after = reference_s()
        samples.append(adjusted(wall, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return statistics.median(samples)


def run_worker(w, seed, seconds, rounds, trace, tmp):
    result = os.path.join(tmp, f"result-{trace}-{rounds}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", w.name,
           "--seed", str(seed), "--seconds", str(seconds), "--rounds", str(rounds),
           "--trace", str(trace), "--tmp", tmp, "--result", result]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stdout}")
    with open(result) as fh:
        return json.load(fh)


def percentile_90(values):
    return statistics.quantiles(values, n=10)[-1]


def p90_sample(jobs):
    """The job times p90 is taken over, in reference seconds.

    With at least ``P90_MIN_JOBS`` jobs, every job's time, so that ten or
    more samples lie beyond p90.  With fewer, p90 would be the slowest of
    a few runs of the dearest job, so each pool job counts once, with the
    median of its runs in the loop.
    """
    times = [adjusted(j["wall"], j["ref"]) for j in jobs]
    if len(jobs) >= P90_MIN_JOBS:
        return times
    runs = {}
    for j, t in zip(jobs, times):
        runs.setdefault(j["argv"], []).append(t)
    return [statistics.median(ts) for ts in runs.values()]


def end_to_end(w, res, setup_s):
    walls = [adjusted(j["wall"], j["ref"]) for j in res["jobs"]]
    done = [j for j in res["jobs"] if j.get("rc") is not None]
    return {
        "setup_s": (setup_s, "s"),
        "job_s_p50": (statistics.median(walls), "s"),
        "job_s_p90": (percentile_90(p90_sample(res["jobs"])), "s"),
        "jobs_per_s": (len(done) / sum(walls), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def print_end_to_end(w, res, metrics, failures):
    n = len(res["jobs"])
    done = sum(1 for j in res["jobs"] if j.get("rc") is not None)
    mode = "in-process main(argv)" if w.in_process else "one python -m defectlab process per job"
    print(f"workload {w.name}: {res['rounds']} round(s) of {n // res['rounds']} jobs, "
          f"closed loop, 1 client, {mode}")
    if n >= P90_MIN_JOBS:
        p90_note = f"n={n}"
    else:
        p90_note = (f"over {len({j['argv'] for j in res['jobs']})} pool jobs, each the median of "
                    f"its {res['rounds']} runs; {n} jobs")
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters, reference seconds",
        "job_s_p50": f"n={n}, reference seconds",
        "job_s_p90": p90_note + ", reference seconds",
        "jobs_per_s": f"{done} jobs / their summed reference seconds; "
                      f"{res['loop_wall']:.2f} s wall loop",
        "peak_rss_mb": "getrusage of the worker" if w.in_process else "getrusage of the job processes",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:10.4f} {unit:<4} ({notes[name]})")
    print(f"  {'failed_frac':<12} {len(failures) / n:10.4f} frac ({len(failures)} of {n} jobs)")


def write_trace(w, seed, traced, plain, layer, failures):
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, f"trace-{w.name}-seed{seed}")
    with open(base + ".spans.jsonl", "w") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "job"]) + "\n")
        for span in spans_of(traced):
            fh.write(json.dumps(span) + "\n")
    per_job = [{"argv": j["argv"], "wall": j["wall"],
                "traced_wall": j["trace"]["traced_wall"], "counts": j["trace"]["delta"]}
               for j in traced["jobs"]]
    with open(base + ".json", "w") as fh:
        json.dump({"workload": w.name, "seed": seed, "layers": layer, "jobs": per_job,
                   "untraced_walls": {j["argv"]: j["wall"] for j in plain["jobs"]},
                   "failures": failures}, fh, indent=1, sort_keys=True)
    return base


def spans_of(traced):
    if "spans" in traced:
        return traced["spans"]
    out = []   # cli-sample: one span list per job process, re-based
    for job_id, j in enumerate(traced["jobs"]):
        off = len(out)
        for name, start, end, parent, _ in j["trace"].get("spans", []):
            out.append([name, start, end, parent + off if parent >= 0 else -1, job_id])
    return out


BREAKDOWN = (
    ("value_set", "approx.value_set.calls"),
    ("scanned", "approx.value_set.elements_scanned"),
    ("listed", "fields.enumerate_elements.listed"),
    ("eq.add", "series.equal.add.calls"),
    ("mx.add", "series.mixed.add.calls"),
    ("mx.mul", "series.mixed.mul.calls"),
    ("newton", "series.newton_root.calls"),
    ("invert", "series.invert.calls"),
    ("ffield", "ffield.ops"),
)


def print_per_job(traced):
    print("per-job breakdown, first run of each argv (traced wall s, then counts):")
    print(f"  {'traced_s':>8} " + " ".join(f"{h:>9}" for h, _ in BREAKDOWN) + "  argv")
    first = {}
    for j in traced["jobs"]:
        first.setdefault(j["argv"], j)
    for _, j in sorted(first.items()):
        d = j["trace"]["delta"]
        cells = " ".join(f"{d.get(k, 0):>9}" for _, k in BREAKDOWN)
        print(f"  {j['trace']['traced_wall']:8.3f} {cells}  {j['argv']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        golden = load_golden(w.name)
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = os.path.join(os.path.abspath(TMP_DIR), f"run-{os.getpid()}")
    os.makedirs(tmp)
    try:
        if args.trace:
            traced = run_worker(w, args.seed, args.seconds, w.trace_rounds, 1, tmp)
            plain = run_worker(w, args.seed, args.seconds, w.trace_rounds, 0, tmp)
            jobs = traced["jobs"] + plain["jobs"]
            failures = gate(jobs, golden)
            metrics = per_layer_metrics(traced, plain)
            layer = {k: v for k, (v, _) in metrics.items()}
            base = write_trace(w, args.seed, traced, plain, layer, failures)
            print(f"workload {w.name}: traced {w.trace_rounds} round(s), {len(traced['jobs'])} jobs, "
                  f"then the same jobs untraced; trace in {base}.*")
            print_per_job(traced)
            for name, (value, unit) in metrics.items():
                print(f"  {name:<48} {value:>16.6g} {unit}")
        else:
            setup_s = measure_setup(w)
            res = run_worker(w, args.seed, args.seconds, 0, 0, tmp)
            jobs = res["jobs"]
            failures = gate(jobs, golden)
            metrics = end_to_end(w, res, setup_s)
            print_end_to_end(w, res, metrics, failures)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for msg in failures:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
