"""Workload pools and seeded job lists.

A job is one ``defectlab.cli.main(argv)`` call, exactly what
``python -m defectlab`` runs.  Each workload is a closed loop with one
client: the next job starts when the previous one has finished.

The job list for a seed is a sequence of rounds; each round is the whole
pool in a seeded order.  The loop runs whole rounds until ``--seconds``
have passed and at least ``min_jobs`` jobs ran: 100 where the jobs are
cheap, so that p90 has ten samples beyond it, and four rounds where they
are dear, because one job's time varies by about 10% between its runs
even in reference seconds (see speed.py) and a quantile needs several
runs of each job to hold still.  Whole rounds keep the job mix the same for every seed, so
seeds change only the order, and with it which job of a shared key pays
the cold enumeration; drawing jobs with replacement would let the mix,
not the program, set the spread of a run that holds only 20-40 kummer or
CLI jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

CORPUS_DIR = "perfbench/corpus"


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    pool: Tuple[Tuple[str, ...], ...]
    fields: Tuple[Tuple[str, int, int], ...]   # (preset, p, m) built at set-up
    min_jobs: int = 0
    trace_rounds: int = 1


def _family(cmd, base, p, budget, n, q=None):
    argv = [cmd, "--base", base, "--p", str(p)]
    if q is not None:
        argv += ["--q", str(q)]
    return tuple(argv + ["--n", str(n), "--budget", str(budget)])


def _cli(cmd, base, p, budget):
    return (cmd, "--base", base, "--p", str(p), "--budget", str(budget))


# (base, p, budget) -> family sizes; six enumeration keys shared by 27 jobs
AS_KEYS = {
    ("fp_t", 2, 2): (2, 3, 4, 6, 8, 10),
    ("fp_t", 2, 3): (2, 4, 6, 8, 10),
    ("laurent", 2, 3): (2, 3, 5, 7, 9),
    ("laurent", 2, 4): (2, 3, 4),
    ("laurent", 3, 2): (2, 3, 4, 5),
    ("fp_t", 3, 2): (2, 3, 4, 5),
}

AS_FAMILY = Workload(
    "as-family",
    True,
    tuple(_family("asfamily", base, p, b, n)
          for (base, p, b), ns in AS_KEYS.items() for n in ns),
    (("fp_t", 2, 1), ("fp_t", 3, 1), ("laurent", 2, 1), ("laurent", 3, 1)),
    min_jobs=100,
)

# budget 5 and 7 at n = 5 both appear, so the traced per-job breakdown can
# show why budget 7 runs faster than budget 5; the three n = 3 jobs of
# similar cost hold the median, so it does not sit in the gap between the
# cheap n = 1 and the dear n = 5 jobs
KUMMER_FAMILY = Workload(
    "kummer-family",
    True,
    (
        _family("kummerfamily", "qp_pdiv_tower", 2, 5, 1, q=2),
        _family("kummerfamily", "qp_pdiv_tower", 2, 5, 5, q=2),
        _family("kummerfamily", "qp_pdiv_tower", 2, 7, 5, q=2),
        _family("kummerfamily", "qp_pdiv_tower", 2, 6, 3, q=2),
        _family("kummerfamily", "qp_pdiv_tower", 2, 8, 1, q=2),
        _family("kummerfamily", "qp_pdiv_tower", 2, 5, 3, q=2),
        _family("kummerfamily", "qp_pdiv_tower", 2, 7, 3, q=2),
        _family("kummerfamily", "qp_pdiv_tower", 2, 5, 3, q=4),
        _family("kummerfamily", "qp_pdiv_tower", 2, 7, 1, q=4),
    ),
    (("qp_pdiv_tower", 2, 1), ("qp_pdiv_tower", 2, 2)),
    min_jobs=36,
)

# sigma at p = 3 (about 3 s cold) is left out: as the one job far dearer
# than the rest, its two instances alone would set p90
CLI_SAMPLE = Workload(
    "cli-sample",
    False,
    (
        _cli("distance", "pdiv_tower", 2, 2),
        _cli("distance", "pdiv_tower", 2, 3),
        _cli("distance", "pdiv_tower", 3, 2),
        _cli("distance", "fp_t", 2, 3),
        _cli("distance", "fp_t", 2, 4),
        _cli("distance", "fp_t", 3, 2),
        _cli("distance", "laurent", 2, 3),
        _cli("distance", "laurent", 2, 4),
        _cli("distance", "laurent", 3, 3),
        _cli("sigma", "pdiv_tower", 2, 2),
        _cli("sigma", "pdiv_tower", 2, 3),
        _cli("semitame", "pdiv_tower", 2, 3),
        _cli("semitame", "pdiv_tower", 2, 4),
        _cli("semitame", "pdiv_tower", 3, 2),
    ),
    (("pdiv_tower", 2, 1), ("pdiv_tower", 3, 1), ("fp_t", 2, 1), ("fp_t", 3, 1),
     ("laurent", 2, 1), ("laurent", 3, 1)),
    min_jobs=56,
)

# the verify pool is the committed corpus; see pool_of()
VERIFY = Workload(
    "verify",
    True,
    (),
    (("fp_t", 2, 1), ("laurent", 2, 1), ("laurent", 3, 1), ("fp_t", 3, 1),
     ("pdiv_tower", 2, 1), ("qp_pdiv_tower", 2, 1), ("qp_pdiv_tower", 2, 2)),
    min_jobs=100,
    trace_rounds=8,
)

WORKLOADS = {w.name: w for w in (AS_FAMILY, KUMMER_FAMILY, VERIFY, CLI_SAMPLE)}

# the verify corpus: the certificates of these pool jobs, plus tampered
# copies of some of them (see record_golden.py)
CORPUS_SOURCES = (
    tuple(AS_FAMILY.pool[i] for i in (0, 5, 6, 10, 11, 15, 16, 18, 19, 22, 23, 26))
    + tuple(KUMMER_FAMILY.pool[i] for i in (0, 3, 4, 8))
    + tuple(CLI_SAMPLE.pool[i] for i in (0, 9, 10))
)


def job_key(argv) -> str:
    return " ".join(argv)


def pool_of(w: Workload, golden: dict) -> Tuple[Tuple[str, ...], ...]:
    if w.name == "verify":
        return tuple(("verify", f"{CORPUS_DIR}/{name}") for name in sorted(golden["corpus"]))
    return w.pool


def round_stream(pool, seed: int):
    """The seed's job list: endless rounds, each the pool in seeded order."""
    rng = random.Random(seed)
    while True:
        r = list(pool)
        rng.shuffle(r)
        yield r
