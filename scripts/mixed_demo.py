#!/usr/bin/env python3
"""Mixed-characteristic demonstration: roots of unity, the p-th power
difference law, and a certified super-dependent Kummer family.
"""

import argparse
from fractions import Fraction

from defectlab.cli import _positive_int
from defectlab.kummer import (
    kummer_family,
    lab_superdependent_unit,
    pth_power_difference_check,
)
from defectlab.fields import preset_field
from defectlab.series import MIXED, Series, make_context, zeta_p


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=_positive_int, default=5)
    ap.add_argument("--budget", type=_positive_int, default=5)
    args = ap.parse_args(argv)

    print("p-th roots of unity")
    ctx2 = make_context(MIXED, 2)
    z2 = zeta_p(ctx2, 8)
    print(f"  p = 2: zeta = {z2}")
    ctx9 = make_context(MIXED, 3, 2)
    z3 = zeta_p(ctx9, 5)
    print(f"  p = 3 (residue F_9): v(zeta - 1) = {(z3 - Series.one(ctx9)).valuation()}")

    print("\np-th power differences at p = 2")
    unit = Series.make(ctx2, {Fraction(0): 1, Fraction(1, 2): 1}, 10)
    one = Series.one(ctx2, 10)
    rep = pth_power_difference_check(unit, one)
    print(f"  v((1 + p^(1/2))^2 - 1) = {rep.lhs} = 2 * {Fraction(1, 2)}"
          f"   (precondition {'holds' if rep.precondition_holds else 'fails'})")
    for eta_n, a_n in ((3, 1), (5, 1), (7, 3)):
        eta = Series.from_int(ctx2, eta_n)
        a = Series.from_int(ctx2, a_n)
        rep = pth_power_difference_check(eta, a)
        mark = "=" if rep.equation_holds else "!="
        print(f"  v({eta_n}^2 - {a_n}^2) = {rep.lhs} {mark} 2 v({eta_n} - {a_n}) = {rep.rhs}"
              f"   (precondition {'holds' if rep.precondition_holds else 'fails'})")

    print("\nsuper-dependent Kummer family over the deep p-adic tower")
    K = preset_field("qp_pdiv_tower", 2)
    eta, tail = lab_superdependent_unit(K)
    print(f"  laboratory 1-unit: {eta}")
    certs = kummer_family(eta, K, args.n, args.budget, tail)
    for i, cert in enumerate(certs, start=1):
        vt = dict(cert.claims.bounds)["v_td"]
        print(f"  member {i}: v(td) = {vt}, upper {cert.sample.upper}, "
              f"class {cert.claims.classification}")


if __name__ == "__main__":
    main()
