"""Tests of the benchmark itself: seeded job lists, the golden gate, the
tracer's self-time accounting, and BENCHMARK.json against the code.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import os
import shutil
import signal
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
from layers import per_layer_metrics  # noqa: E402
from speed import REF_S, reference_s  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, job_key, pool_of, round_stream  # noqa: E402

JOB = ("asfamily", "--base", "fp_t", "--p", "2", "--n", "2", "--budget", "2")


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(BENCH, "golden.json")) as fh:
        return json.load(fh)


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    tmp = tempfile.mkdtemp(prefix=".bench-test-", dir=ROOT)
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield tmp
    signal.signal(signal.SIGALRM, old)
    shutil.rmtree(tmp)


def first_jobs(pool, seed, rounds=3):
    return [job for rnd in itertools.islice(round_stream(pool, seed), rounds) for job in rnd]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_job_list_is_seeded(name, golden):
    pool = pool_of(WORKLOADS[name], golden)
    assert first_jobs(pool, 5) == first_jobs(pool, 5)
    assert first_jobs(pool, 5) != first_jobs(pool, 6)
    # whole rounds: every seed runs the same job mix
    assert sorted(first_jobs(pool, 5)) == sorted(first_jobs(pool, 6))


def test_every_pool_job_has_a_golden_record(golden):
    for w in WORKLOADS.values():
        for argv in pool_of(w, golden):
            assert run.expected(job_key(argv), golden) is not None, argv


def test_corpus_matches_golden(golden, in_root):
    assert run.load_golden("verify") is not None
    refused = [n for n, e in golden["corpus"].items() if e["rc"] == 2]
    assert refused and all(golden["corpus"][n]["diff"] for n in refused)


def test_gate_counts_wrong_exit_code_and_altered_certificate(golden, in_root):
    out = os.path.join(in_root, "out.json")
    rc, wall, _, _ = worker.run_in_process(list(JOB) + ["--out", out])
    good = {"argv": job_key(JOB), "rc": rc, "wall": wall, "sha256": worker.sha256_of(out)}
    assert run.gate([good], golden) == []

    wrong_rc = dict(good, rc=3)
    with open(out, "a") as fh:
        fh.write(" ")
    altered = dict(good, sha256=worker.sha256_of(out))
    raised = dict(good, rc=None, error="ValueError: boom")
    failures = run.gate([wrong_rc, altered, raised], golden)
    assert len(failures) == 3
    assert "exit code 3, golden 0" in failures[0]
    want = golden["jobs"][job_key(JOB)]["sha256"]
    assert altered["sha256"] in failures[1] and want in failures[1]


def test_gate_requires_the_named_diff(golden, in_root):
    name = next(n for n, e in sorted(golden["corpus"].items()) if e["rc"] == 2)
    argv = ["verify", f"perfbench/corpus/{name}"]
    rc, wall, _, text = worker.run_in_process(argv)
    rec = {"argv": job_key(argv), "rc": rc, "wall": wall, "sha256": None, "stdout": text}
    assert rc == 2 and run.gate([rec], golden) == []
    assert len(run.gate([dict(rec, stdout="verification FAILED:")], golden)) == 1


def test_self_times_sum_to_traced_job_wall(golden, in_root):
    import defectlab.cli
    from defectlab.cli import main

    out = os.path.join(in_root, "out.json")
    tracer = Tracer().install()
    try:
        jobs = []
        for job_id, argv in enumerate([JOB, JOB]):
            before = tracer.snapshot()
            rc, traced = tracer.job_span(job_id, defectlab.cli.main, list(argv) + ["--out", out])
            jobs.append((rc, traced, worker.delta(before, tracer.snapshot())))
    finally:
        tracer.uninstall()
    assert defectlab.cli.main is main  # uninstall restored the library
    for rc, traced, d in jobs:
        self_sum = sum(v for k, v in d.items() if k.endswith(".self_s"))
        assert rc == 0
        assert self_sum == pytest.approx(traced, rel=1e-9)
        assert d["cli.main.calls"] == 1 and d["approx.value_set.calls"] > 0
    assert worker.sha256_of(out) == golden["jobs"][job_key(JOB)]["sha256"]
    for idx, (name, start, end, parent, job) in enumerate(tracer.spans):
        assert parent < idx and start <= end
        if parent >= 0:
            assert tracer.spans[parent][4] == job


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    job = {"wall": 1.0, "ref": 0.01}
    empty = {"tracer": Tracer().dump(), "jobs": [job]}
    layer = per_layer_metrics(empty, {"jobs": [job]})
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (k, u) for k, (_, u) in layer.items()]
    res = {"jobs": [{"argv": "a", "wall": 1.0, "ref": 0.01, "rc": 0},
                    {"argv": "b", "wall": 2.0, "ref": 0.01, "rc": 0}],
           "loop_wall": 3.0, "peak_rss_mb": 1.0}
    e2e = run.end_to_end(WORKLOADS["verify"], res, 0.1)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (k, u) for k, (_, u) in e2e.items()]


def test_job_times_are_rescaled_by_the_reference_kernel():
    # the same job on a host running at half speed: twice the wall time,
    # twice the kernel time, the same reference seconds
    fast = {"wall": 1.0, "ref": REF_S, "rc": 0}
    slow = {"wall": 2.0, "ref": 2 * REF_S, "rc": 0}
    for pair in ((fast, fast), (slow, slow), (fast, slow)):
        jobs = [dict(j, argv=argv) for j, argv in zip(pair, "ab")]
        res = {"jobs": jobs, "loop_wall": 9.0, "peak_rss_mb": 1.0}
        e2e = run.end_to_end(WORKLOADS["verify"], res, 0.1)
        assert e2e["job_s_p50"][0] == pytest.approx(1.0)
        assert e2e["jobs_per_s"][0] == pytest.approx(1.0)
    assert reference_s() > 0


def test_small_runs_take_p90_over_each_jobs_median():
    def job(argv, wall):
        return {"argv": argv, "wall": wall, "ref": REF_S, "rc": 0}

    # four runs each of a cheap and a dear job, one run of the dear job slow
    jobs = [job("cheap", 1.0)] * 4 + [job("dear", 3.0)] * 3 + [job("dear", 9.0)]
    assert sorted(run.p90_sample(jobs)) == [1.0, 3.0]
    many = jobs * 13
    assert len(run.p90_sample(many)) == len(many) >= run.P90_MIN_JOBS
