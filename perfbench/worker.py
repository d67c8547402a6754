"""Job loop of one benchmark run, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --rounds R --trace 0|1 --tmp DIR --result FILE

Run from the root of a checkout.  In-process workloads call
``defectlab.cli.main(argv)`` in this process; ``cli-sample`` starts one
``python -m defectlab`` process per job.  ``--rounds 0`` runs whole rounds
until ``--seconds`` have passed and the workload's ``min_jobs`` ran; a
positive value runs exactly that many rounds (the traced run, whose call
counts must repeat).  The result file
holds one record per job (argv, exit code, sha256 of ``--out``, wall
seconds, and the reference kernel's mean time just before and after the
job, see speed.py), the loop wall time and peak RSS; the gate against the
golden hashes is applied by run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.getcwd(), "src"))

from speed import reference_s  # noqa: E402
from workloads import WORKLOADS, job_key, pool_of, round_stream  # noqa: E402

JOB_TIMEOUT_S = 30


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def sha256_of(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def build_fields(w):
    from defectlab.fields import preset_field

    # the CLI refines qp_pdiv_tower on a finer exponent grid
    return [preset_field(name, p, m, p ** 16 if name == "qp_pdiv_tower" else None)
            for name, p, m in w.fields]


def run_in_process(argv, tracer=None, job_id=0):
    from defectlab.cli import main

    buf = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            if tracer is None:
                rc = main(argv)
                traced = None
            else:
                rc, traced = tracer.job_span(job_id, main, argv)
            wall = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return rc, wall, traced, buf.getvalue()


def run_process(argv, trace_file=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    if trace_file is None:
        cmd = [sys.executable, "-m", "defectlab", *argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--child", trace_file, "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=JOB_TIMEOUT_S, text=True)
    return proc.returncode, time.perf_counter() - t0, proc.stdout


def child(trace_file, argv):
    """Traced ``python -m defectlab`` for one cli-sample job."""
    import defectlab.cli
    from tracer import Tracer

    tracer = Tracer().install()
    before = tracer.snapshot()
    rc, traced = tracer.job_span(0, defectlab.cli.main, argv)
    with open(trace_file, "w") as fh:
        json.dump({"dump": tracer.dump(), "delta": delta(before, tracer.snapshot()),
                   "traced_wall": traced, "spans": tracer.spans}, fh)
    return rc


def delta(before, after):
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--child", default=None)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tmp")
    ap.add_argument("--result")
    ap.add_argument("argv", nargs="*")
    args = ap.parse_args()
    if args.child:
        return child(args.child, args.argv)

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    w = WORKLOADS[args.workload]
    pool = pool_of(w, golden)
    import defectlab.cli  # noqa: F401
    build_fields(w)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace and w.in_process:
        from tracer import Tracer

        tracer = Tracer().install()

    out = os.path.join(args.tmp, "out.json")
    jobs = []
    rounds = 0
    t_start = time.perf_counter()
    ref_before = reference_s()
    for rnd in round_stream(pool, args.seed):
        for argv in rnd:
            argv = list(argv)
            if argv[0] != "verify":
                argv += ["--out", out]
            job_id = len(jobs)
            rec = {"argv": job_key(argv[:-2] if argv[0] != "verify" else argv)}
            before = tracer.snapshot() if tracer else None
            trace_file = os.path.join(args.tmp, f"trace-{job_id}.json") if args.trace else None
            traced = None
            t_job = time.perf_counter()
            try:
                if w.in_process:
                    rc, wall, traced, text = run_in_process(argv, tracer, job_id)
                else:
                    rc, wall, text = run_process(argv, trace_file)
                rec.update(rc=rc, wall=wall, sha256=sha256_of(out))
                if argv[0] == "verify":
                    rec["stdout"] = text[-2000:]
            except Exception as exc:  # a crashing job is a failed job, not a crashed run
                rec.update(rc=None, wall=time.perf_counter() - t_job, sha256=None,
                           error=f"{type(exc).__name__}: {exc}")
            if tracer is not None:
                rec["trace"] = {"traced_wall": traced, "delta": delta(before, tracer.snapshot())}
            elif trace_file is not None and os.path.exists(trace_file):
                with open(trace_file) as fh:
                    rec["trace"] = json.load(fh)
                os.unlink(trace_file)
            if os.path.exists(out):
                os.unlink(out)
            ref_after = reference_s()
            rec["ref"] = (ref_before + ref_after) / 2
            ref_before = ref_after
            jobs.append(rec)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif elapsed >= args.seconds and len(jobs) >= w.min_jobs:
            break
    loop_wall = time.perf_counter() - t_start

    who = resource.RUSAGE_SELF if w.in_process else resource.RUSAGE_CHILDREN
    result = {
        "jobs": jobs,
        "rounds": rounds,
        "loop_wall": loop_wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["tracer"] = tracer.dump()
        result["spans"] = tracer.spans
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
