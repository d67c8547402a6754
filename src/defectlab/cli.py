"""Command-line surface: build laboratory fields, sample distances,
survey the semitame conditions, generate certified extension families,
and re-verify certificate files.

Exit codes: 0 when every claim checked out, 2 when a claim was refuted
(with the counterexample stored or printed), 3 when the run was
inconclusive at the given budget, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import List, Optional

from .approx import (
    CONDITION_NAMES,
    distance,
    imperfection_witness,
    semitame_report,
    value_set,
)
from .artin import admissible_twist, as_extension, as_family, as_root, sigma_sample
from .certfile import (
    SessionConfig,
    make_certificate_file,
    read_certificate_file,
    verify_certificate,
    write_certificate_file,
)
from .cuts import ExtRat
from .fields import PRESET_NAMES, BudgetTooSmall, FieldDesc, enumerate_elements, preset_field
from .kummer import kummer_family, lab_superdependent_unit
from .series import ConvergenceError, PrecisionError, Series

EX_OK = 0
EX_REFUTED = 2
EX_INCONCLUSIVE = 3
EX_USAGE = 64


def _build_field(args) -> FieldDesc:
    # deep root refinement over qp_pdiv_tower needs a finer exponent grid
    D = args.p ** 16 if args.base == "qp_pdiv_tower" else None
    return preset_field(args.base, args.p, args.q_power, D)


def _canonical_element(K: FieldDesc, budget: int):
    """The preset's standard demonstration element with its tail data."""
    if K.ctx.mode == "equal":
        if K.perfect:
            b = Series.monomial(K.ctx, -1)
            root = as_root(b, ExtRat.of(Fraction(budget + 6)))
            return root.theta, root.tail, "root of X^p - X - t^(-1)"
        w = imperfection_witness(K, budget)
        return w, None, "p-th root of the first imperfect element"
    if K.name == "qp":
        return Series.monomial(K.ctx, Fraction(1, K.ctx.p)), None, "p^(1/p)"
    eta, tail = lab_superdependent_unit(K)
    return eta, tail, "laboratory 1-unit"


def cmd_field(args) -> int:
    K = _build_field(args)
    print(f"preset {K.name}: kind={K.kind}, residue field F_{K.residue_q}, "
          f"mode={K.ctx.mode}, D={K.ctx.D}")
    print(f"  value group: generated by {[str(g) for g in K.value_group.generators]}"
          f"{' (p-divisible closure)' if K.value_group.p_divisible_closure else ''}")
    print(f"  flags: leveled={K.leveled} perfect={K.perfect} complete={K.complete}")
    els = enumerate_elements(K, 1)
    shown = ", ".join(str(e) for e in els[:6])
    print(f"  first elements at height 1: {shown}")
    return EX_OK


def _write_out(args, K: FieldDesc, certs, log=()) -> None:
    """Write the run's certificate file to ``--out``, when one is given."""
    if args.out:
        cf = make_certificate_file(K, SessionConfig.for_field(K, args.budget), certs, log=log)
        try:
            write_certificate_file(args.out, cf)
        except OSError as exc:
            # a ValueError, so that main reports it as a usage error (exit 64)
            raise ValueError(
                f"cannot write certificate file {args.out}: {exc.strerror or exc}"
            ) from exc
        print(f"wrote {args.out}")


def cmd_distance(args) -> int:
    K = _build_field(args)
    a, tail, desc = _canonical_element(K, args.budget)
    if a is None:
        print("no canonical element available (field is perfect); nothing to measure")
        return EX_INCONCLUSIVE
    sample = value_set(a, K, args.budget, tail)
    enc = distance(sample, tail)
    print(f"element: {desc}")
    vals = ", ".join(str(v) for v in sample.values())
    print(f"realized values ({len(sample.realized)}): {vals}")
    print(f"upper cut: {sample.upper}, no_max: {sample.no_max}")
    print(f"distance enclosure: [{enc.lo}, {enc.hi}]"
          + ("  (exact)" if enc.is_exact else ""))
    _write_out(args, K, [], log=[f"distance {desc}: [{enc.lo}, {enc.hi}]"])
    return EX_OK if enc.is_exact or sample.upper.bound.is_finite else EX_INCONCLUSIVE


def cmd_semitame(args) -> int:
    K = _build_field(args)
    report = semitame_report(K, args.budget)
    order = ["drst", "residue_perfect", "a", "b", "c", "d", "e", "f"]
    refuted = False
    unknown = False
    for key in order:
        v = report[key]
        refuted |= v.status == "refuted"
        unknown |= v.status == "unknown"
        witness = f"  witness: {v.witness}" if v.witness is not None else ""
        print(f"({key}) {CONDITION_NAMES[key]}: {v.status}{witness}")
        if v.note:
            print(f"      {v.note}")
    _write_out(args, K, [], log=[f"({k}) {report[k].status}" for k in order])
    if refuted:
        return EX_REFUTED
    if unknown:
        return EX_INCONCLUSIVE
    return EX_OK


def _print_cert_table(certs) -> None:
    print(f"{'#':>2} {'kind':<14} {'v-set max':>10} {'upper':>12} {'no_max':>8} "
          f"{'defect':>6} {'rule':>10} {'class':>15}")
    for i, cert in enumerate(certs, start=1):
        mx = cert.sample.max_realized()
        print(
            f"{i:>2} {cert.kind:<14} {str(mx):>10} {str(cert.sample.upper):>12} "
            f"{cert.sample.no_max:>8} {str(cert.claims.defect):>6} "
            f"{cert.claims.defect_rule:>10} {cert.claims.classification:>15}"
        )


def cmd_asfamily(args) -> int:
    K = _build_field(args)
    if K.ctx.mode != "equal":
        print("asfamily runs in equal characteristic", file=sys.stderr)
        return EX_USAGE
    eta = imperfection_witness(K, args.budget)
    if eta is None:
        if K.perfect:
            print("imperfection witness: none (field certified perfect); "
                  "no Artin-Schreier family from this route")
            return EX_OK
        print("no imperfection witness at this budget")
        return EX_INCONCLUSIVE
    print(f"imperfection witness: {eta}")
    sample = value_set(eta, K, args.budget)
    d = admissible_twist(eta, sample)
    print(f"twist element d with v(d) = {d.valuation()}")
    certs = as_family(eta, K, d, args.n, sample)
    _print_cert_table(certs)
    _write_out(args, K, certs)
    return EX_OK


def cmd_kummerfamily(args) -> int:
    K = _build_field(args)
    if K.ctx.mode != "mixed" or not K.leveled:
        print("kummerfamily runs over the deep p-adic tower preset", file=sys.stderr)
        return EX_USAGE
    eta, tail = lab_superdependent_unit(K)
    print(f"laboratory 1-unit: {eta}")
    certs = kummer_family(eta, K, args.n, args.budget, tail)
    _print_cert_table(certs)
    for cert in certs:
        for name, val in cert.claims.bounds:
            if name == "super_dependent_bound":
                print(f"  recorded bound v(eta_td - K) < {val}")
    _write_out(args, K, certs)
    return EX_OK


def cmd_sigma(args) -> int:
    K = _build_field(args)
    if K.ctx.mode != "equal":
        print("the sigma survey here runs on the classical equal-characteristic "
              "extension; use kummerfamily for the mixed side", file=sys.stderr)
        return EX_USAGE
    b = Series.monomial(K.ctx, -1)
    cert = as_extension(b, K, args.budget)
    sig = sigma_sample(cert, args.budget)
    vals = ", ".join(str(v) for v, _ in sig.values)
    print(f"extension: X^{K.ctx.p} - X - t^(-1) over {K.name}")
    print(f"sigma values: {vals}")
    print(f"verdict: {sig.verdict}")
    _write_out(args, K, [cert], log=[f"sigma verdict: {sig.verdict}"])
    if sig.verdict == "unknown":
        return EX_INCONCLUSIVE
    return EX_OK if sig.verdict == "independent_consistent" else EX_REFUTED


def cmd_verify(args) -> int:
    try:
        cf = read_certificate_file(args.file)
    except OSError as exc:
        # no file to judge: a usage error, not a refuted claim
        print(f"error: cannot read certificate file {args.file}: {exc.strerror or exc}",
              file=sys.stderr)
        return EX_USAGE
    except Exception as exc:
        print(f"cannot load certificate file: {exc}", file=sys.stderr)
        return EX_REFUTED
    report = verify_certificate(cf)
    if report.ok:
        print(f"verified: {len(cf.certs)} certificate(s), all claims reproduced")
        return EX_OK
    print("verification FAILED:")
    for d in report.diffs:
        print(f"  {d}")
    return EX_REFUTED


def _positive_int(text: str) -> int:
    """The argparse type of ``--n`` and ``--budget``: an integer >= 1, so
    that a bad count is a usage error before any work is done."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; ``parse_args``
    leaves it unchanged, so ``main`` may be called any number of times."""
    ap = argparse.ArgumentParser(
        prog="defectlab",
        description="exact-arithmetic laboratory for valued-field extension certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, default=2, dest="p")
        sp.add_argument("--q", type=int, default=None,
                        help="residue field size p^m (default p)")
        sp.add_argument("--base", choices=PRESET_NAMES, default="fp_t")
        sp.add_argument("--budget", type=_positive_int, default=3,
                        help="enumeration height")
        sp.add_argument("--out", type=str, default=None)

    for name in ("field", "distance", "semitame", "asfamily", "kummerfamily", "sigma"):
        sp = sub.add_parser(name)
        common(sp)
        if name in ("asfamily", "kummerfamily"):
            sp.add_argument("--n", type=_positive_int, default=5, help="family size")

    vp = sub.add_parser("verify")
    vp.add_argument("file")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    if hasattr(args, "q") and args.q is not None:
        p, q, m = args.p, args.q, 0
        while q > 1 and q % p == 0:
            q //= p
            m += 1
        if q != 1 or m < 1:
            print(f"--q must be a power of --p", file=sys.stderr)
            return EX_USAGE
        args.q_power = m
    elif hasattr(args, "p"):
        args.q_power = 1
    try:
        # looked up per call, not stored in the cached parser, so that a
        # command patched after the first call (a tracer, a test) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except (BudgetTooSmall, ConvergenceError, PrecisionError) as exc:
        print(f"inconclusive at this budget: {exc}", file=sys.stderr)
        return EX_INCONCLUSIVE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except AssertionError as exc:
        print(f"claim check failed: {exc}", file=sys.stderr)
        return EX_REFUTED


if __name__ == "__main__":
    sys.exit(main())
