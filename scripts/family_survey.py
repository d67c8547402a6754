#!/usr/bin/env python3
"""Survey the equal-characteristic pipeline across the laboratory presets.

For each preset the script reports the semitame condition verdicts, the
imperfection witness (when one exists), and a family of certified
Artin-Schreier extensions built from it.  A perfect base field correctly
yields no witness and no family.
"""

import argparse

from defectlab.approx import semitame_report, value_set
from defectlab.artin import admissible_twist, as_family
from defectlab.cli import _positive_int
from defectlab.fields import preset_field


def survey(preset: str, p: int, n: int, budget: int) -> None:
    K = preset_field(preset, p)
    print(f"\n=== {preset} (p = {p}) ===")
    rep = semitame_report(K)
    line = ", ".join(f"({k}) {rep[k].status}" for k in ("a", "c", "d", "e", "f"))
    print(f"conditions: {line}")

    # condition (e) carries the imperfection witness of an imperfect field
    eta = rep["e"].witness
    if eta is None:
        print("imperfection witness: none (perfect)")
        return
    print(f"imperfection witness: {eta}")
    sample = value_set(eta, K, budget)
    certs = as_family(eta, K, admissible_twist(eta, sample), n, sample)
    for i, cert in enumerate(certs, start=1):
        print(f"  member {i}: upper {cert.sample.upper}, defect {cert.claims.defect} "
              f"({cert.claims.defect_rule})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--n", type=_positive_int, default=5)
    ap.add_argument("--budget", type=_positive_int, default=3)
    args = ap.parse_args(argv)
    for preset in ("fp_t", "laurent", "pdiv_tower"):
        survey(preset, args.p, args.n, args.budget)


if __name__ == "__main__":
    main()
