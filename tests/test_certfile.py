import contextlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from defectlab import certfile
from defectlab.approx import value_set
from defectlab.artin import as_extension, as_family
from defectlab.certfile import (
    CertificateFile,
    SessionConfig,
    _field_to_json,
    _parse_extrat,
    cert_from_json,
    read_certificate_file,
    sample_from_json,
    series_from_json,
    verify_certificate,
    write_certificate_file,
)
from defectlab.cli import main
from defectlab.cuts import PLUS_INF, ExtRat
from defectlab.fields import preset_field
from defectlab.kummer import kummer_family, lab_superdependent_unit
from defectlab.series import EQUAL, MIXED, Series, make_context
from helpers import as_generator_transform, cert_tree, horner, oracle_text, series_tree


def q(n, d=1):
    return Fraction(n, d)


K2 = preset_field("fp_t", 2)
T2 = preset_field("pdiv_tower", 2)
QT2 = preset_field("qp_pdiv_tower", 2)


def _as_certs():
    eta = Series.monomial(K2.ctx, q(1, 2))
    d = Series.monomial(K2.ctx, 1)
    return as_family(eta, K2, d, 3, value_set(eta, K2, 3))


def test_series_json_roundtrip():
    ctx = make_context(EQUAL, 2, 2)
    s = Series.make(ctx, {q(1, 2): 2, q(3): 3}, q(5))
    back = series_from_json(series_tree(s), ctx)
    assert back == s


def test_cert_json_roundtrip():
    certs = _as_certs()
    for cert in certs:
        back = cert_from_json(cert_tree(cert))
        assert back.kind == cert.kind
        assert back.generator == cert.generator
        assert back.sample.realized == cert.sample.realized
        assert back.claims == cert.claims
        assert back.dist == cert.dist


def test_file_roundtrip_and_verify(tmp_path):
    certs = _as_certs()
    cf = CertificateFile(SessionConfig.for_field(K2, 3), K2, tuple(certs), ())
    path = tmp_path / "out.json"
    write_certificate_file(str(path), cf)
    loaded = read_certificate_file(str(path))
    diffs = verify_certificate(loaded)
    assert not diffs, diffs
    assert oracle_text(loaded) == oracle_text(cf)
    assert path.read_text() == oracle_text(cf) + "\n"


def test_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (p1, p2):
        certs = _as_certs()
        cf = CertificateFile(SessionConfig.for_field(K2, 3), K2, tuple(certs), ())
        write_certificate_file(str(path), cf)
    assert p1.read_bytes() == p2.read_bytes()


def test_tamper_detection_value(tmp_path):
    certs = _as_certs()
    cf = CertificateFile(SessionConfig.for_field(K2, 3), K2, tuple(certs), ())
    path = tmp_path / "out.json"
    write_certificate_file(str(path), cf)
    obj = json.loads(path.read_text())
    obj["certs"][0]["sample"]["realized"][0]["value"] = "-77/1"
    path.write_text(json.dumps(obj))
    diffs = verify_certificate(read_certificate_file(str(path)))
    assert any("witness re-evaluation" in d for d in diffs)


def _set_value(value):
    def tamper(cert):
        cert["sample"]["realized"][0]["value"] = value
    return tamper


def _witness_is_generator(cert):
    cert["sample"]["realized"][0]["witness"] = cert["generator"]


@pytest.mark.parametrize(
    "tamper, diff",
    [
        (_witness_is_generator, "gives a zero difference"),
        (_set_value("-77/1"), "witness re-evaluation gives"),
    ],
    ids=["zero-difference", "re-evaluation"],
)
def test_witness_step_named_diffs(tmp_path, tamper, diff):
    certs = _as_certs()
    cf = CertificateFile(SessionConfig.for_field(K2, 3), K2, tuple(certs), ())
    path = tmp_path / "out.json"
    write_certificate_file(str(path), cf)
    obj = json.loads(path.read_text())
    tamper(obj["certs"][0])
    path.write_text(json.dumps(obj))
    diffs = verify_certificate(read_certificate_file(str(path)))
    assert any(d.startswith("cert[0]: ") and diff in d for d in diffs), diffs
    assert not any("verification error" in d for d in diffs), diffs


def test_tamper_detection_claim(tmp_path):
    certs = _as_certs()
    cf = CertificateFile(SessionConfig.for_field(K2, 3), K2, tuple(certs), ())
    path = tmp_path / "out.json"
    write_certificate_file(str(path), cf)
    obj = json.loads(path.read_text())
    obj["certs"][1]["claims"]["defect"] = [2, "ramified"]
    path.write_text(json.dumps(obj))
    diffs = verify_certificate(read_certificate_file(str(path)))
    assert any("defect" in d for d in diffs)


def test_config_mismatch_rejected(tmp_path):
    certs = _as_certs()
    cf = CertificateFile(SessionConfig.for_field(K2, 3), K2, tuple(certs), ())
    path = tmp_path / "out.json"
    write_certificate_file(str(path), cf)
    obj = json.loads(path.read_text())
    obj["config"]["D"] = 16
    path.write_text(json.dumps(obj))
    diffs = verify_certificate(read_certificate_file(str(path)))
    assert any("config-mismatch" in d for d in diffs)


def test_kummer_cert_verifies(tmp_path):
    eta, tail = lab_superdependent_unit(QT2)
    certs = kummer_family(eta, QT2, 2, 5, tail)
    cf = CertificateFile(SessionConfig.for_field(QT2, 5), QT2, tuple(certs), ())
    path = tmp_path / "ku.json"
    write_certificate_file(str(path), cf)
    diffs = verify_certificate(read_certificate_file(str(path)))
    assert not diffs, diffs


def test_classical_cert_verifies(tmp_path):
    cert = as_extension(Series.monomial(T2.ctx, -1), T2, 3)
    cf = CertificateFile(SessionConfig.for_field(T2, 3), T2, (cert,), ())
    path = tmp_path / "cl.json"
    write_certificate_file(str(path), cf)
    diffs = verify_certificate(read_certificate_file(str(path)))
    assert not diffs, diffs


def test_unsupported_version(tmp_path):
    certs = _as_certs()
    cf = CertificateFile(SessionConfig.for_field(K2, 3), K2, tuple(certs), ())
    path = tmp_path / "v.json"
    write_certificate_file(str(path), cf)
    obj = json.loads(path.read_text())
    obj["version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        read_certificate_file(str(path))


def _flip_upper_attained(cert):
    cert["sample"]["upper"]["attained"] = not cert["sample"]["upper"]["attained"]


def _flip_denominators_unbounded(cert):
    tail = cert["generator_tail"]
    tail["denominators_unbounded"] = not tail["denominators_unbounded"]


@pytest.mark.parametrize(
    "tamper, refusal",
    [
        (_flip_upper_attained, None),
        # every stored tail has unbounded denominators, so the reader refuses
        (_flip_denominators_unbounded,
         "certs[0]: generator_tail denominators_unbounded is False, not True"),
    ],
    ids=["upper-attained", "tail-denominators-unbounded"],
)
def test_kummer_upper_cut_named_diff(tmp_path, tamper, refusal):
    eta, tail = lab_superdependent_unit(QT2)
    certs = kummer_family(eta, QT2, 2, 5, tail)
    cf = CertificateFile(SessionConfig.for_field(QT2, 5), QT2, tuple(certs), ())
    path = tmp_path / "ku.json"
    write_certificate_file(str(path), cf)
    obj = json.loads(path.read_text())
    tamper(obj["certs"][0])
    path.write_text(json.dumps(obj))
    if refusal is not None:
        with pytest.raises(ValueError) as exc:
            read_certificate_file(str(path))
        assert str(exc.value) == refusal
        return
    diffs = verify_certificate(read_certificate_file(str(path)))
    assert any(
        d.startswith("cert[0]: ") and "upper cut re-derivation gives" in d for d in diffs
    ), diffs
    assert not any("verification error" in d for d in diffs), diffs


def _kummer_certs():
    eta, tail = lab_superdependent_unit(QT2)
    return QT2, 5, kummer_family(eta, QT2, 2, 5, tail)


@pytest.mark.parametrize(
    "family",
    [lambda: (K2, 3, _as_certs()), _kummer_certs],
    ids=["artin-schreier", "kummer"],
)
def test_duplicated_family_member_named_diff(tmp_path, capsys, family):
    K, budget, certs = family()
    cf = CertificateFile(SessionConfig.for_field(K, budget), K, tuple(certs), ())
    path = tmp_path / "fam.json"
    write_certificate_file(str(path), cf)
    assert main(["verify", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["certs"][1] = obj["certs"][0]
    path.write_text(json.dumps(obj))
    diffs = verify_certificate(read_certificate_file(str(path)))
    assert diffs == ["family: members 1 and 2 have equal samples"]
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert "  family: members 1 and 2 have equal samples" in capsys.readouterr().out


def test_forged_artin_schreier_member_named_diff(tmp_path, capsys):
    # theta + t is another generator of member 1's extension: it is a root
    # of X^2 - X - (b + t^2 - t), and theta + t - (w + t) = theta - w keeps
    # every witness.  With the value -1 dropped, the copy shares neither
    # the sample nor the minimal polynomial of member 1; only the
    # invariant dist(theta, K) shows that it is the same extension.
    path = tmp_path / "fam.json"
    argv = ["asfamily", "--base", "fp_t", "--p", "2", "--n", "3", "--budget", "3"]
    assert main(argv + ["--out", str(path)]) == 0
    cf = read_certificate_file(str(path))
    cert = cf.certs[0]
    t = Series.monomial(cert.base.ctx, 1)
    coeffs = cert.min_poly
    realized = tuple((k, w + t) for k, w in cert.sample.realized if k != -cert.base.ctx.D)
    assert len(realized) < len(cert.sample.realized)
    forged = cert._replace(
        generator=as_generator_transform(cert.generator, 1, t),
        min_poly=(coeffs[0] - (t * t - t),) + coeffs[1:],
        sample=cert.sample._replace(realized=realized),
    )
    write_certificate_file(str(path), cf._replace(certs=cf.certs + (forged,)))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        "  family: members 1 and 4 have overlapping distance enclosures"
    ], out


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def _swap_first_two(realized):
    realized[0], realized[1] = realized[1], realized[0]


def _repeat_last(realized):
    realized.append(dict(realized[-1]))


def _append_above_cut(realized):
    realized.append({"value": "0/1", "witness": realized[-1]["witness"]})


@pytest.mark.parametrize(
    "forge, diff",
    [
        (_swap_first_two, "realized values are not strictly increasing: -3/1 then -4/1"),
        (_repeat_last, "realized values are not strictly increasing: -1/2 then -1/2"),
        (_append_above_cut, "realized value 0/1 escapes the certified upper cut -1/2+"),
    ],
    ids=["swapped", "duplicated", "above-cut"],
)
def test_sample_shape_named_diff(tmp_path, capsys, forge, diff):
    # the stored witnesses stay valid, so only the shape check can refuse
    # the first two forgeries
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-3.json").read_text())
    forge(obj["certs"][0]["sample"]["realized"])
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert f"  cert[0]: sample shape: {diff}" in out, out
    assert "verification error" not in out, out


def test_distance_reads_the_largest_value_of_an_unordered_sample(tmp_path, capsys):
    # the top value -1/2 moved to the front: the shape check refuses the
    # order, and the re-derived enclosure still starts at the largest value,
    # as the stored one does, not at the last
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    realized = obj["certs"][0]["sample"]["realized"]
    realized.insert(0, realized.pop())
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  cert[0]: sample shape: realized values are not strictly increasing: -1/2 then -3/1",
        "  cert[0]: no_max re-derives to not refuted, stored 'refuted'",
    ]


def test_family_samples_compare_across_grids(tmp_path, capsys):
    # member 2 is member 1 with its base on a grid twice as fine: the same
    # values have other grid indices, and the samples are still equal
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    member = json.loads(json.dumps(obj["certs"][0]))
    member["base"]["ctx"]["D"] *= 2
    obj["certs"][1] = member
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["  cert[1]: config-mismatch between the field and the session snapshot",
                        "  family: members 1 and 2 have equal samples"], out


def test_artin_schreier_residual_is_checked_by_frobenius(tmp_path, capsys):
    # b -> b + t^-3 in member 10: another polynomial, whose root differs
    # from the stored theta at valuation -3/2.  Horner's theta * theta
    # keeps only the precision v(theta) + prec(theta) = -9, below the whole
    # window [floor, 0), so that residual had no term to check; theta^2 by
    # Frobenius is exact
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-10-budget-3.json").read_text())
    obj["certs"][9]["min_poly"][0]["terms"].append({"coeff": 1, "exp": "-3/1"})
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj, sort_keys=True, indent=1))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verification FAILED:",
        "  cert[9]: residual terms at [Fraction(-3, 1)] violate the recorded floor -19/256",
    ]


def _forge_x_coefficient(obj):
    obj["certs"][0]["min_poly"][1]["terms"].append({"coeff": 1, "exp": "1/1"})


def _artin_schreier_kind(obj):
    obj["certs"][0]["kind"] = "artin_schreier"


@pytest.mark.parametrize(
    "name, forge",
    [
        # the Frobenius residual reads only the constant coefficient, so
        # every other one is checked against X^p - X
        ("asfamily-base-fp_t-p-2-n-2-budget-2.json", _forge_x_coefficient),
        ("kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json", _artin_schreier_kind),
    ],
    ids=["x-coefficient", "mixed-base"],
)
def test_artin_schreier_min_poly_shape_named_diff(tmp_path, capsys, name, forge):
    obj = json.loads((CORPUS / name).read_text())
    forge(obj)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "  cert[0]: min_poly is not X^2 - X - b over an equal-characteristic base" in out, out
    assert not any("verification error" in line for line in out), out


def _kummer_term(coeff, exp):
    def forge(obj):
        obj["certs"][0]["min_poly"][coeff]["terms"].append({"coeff": 1, "exp": exp})
    return forge


def _kummer_kind(obj):
    obj["certs"][0]["kind"] = "kummer"


@pytest.mark.parametrize(
    "name, forge",
    [
        # a Kummer floor is its residual's own lowest value, so Horner's
        # residual of a forged coefficient deeper than that stays in its
        # window; only the shape X^p - c refuses it
        ("kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json", _kummer_term(1, "3/4")),
        ("kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json", _kummer_term(1, "5/1")),
        ("kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json", _kummer_term(2, "1/1")),
        ("asfamily-base-fp_t-p-2-n-2-budget-2.json", _kummer_kind),
    ],
    ids=["x-coefficient", "deep-x-coefficient", "x-squared-coefficient", "equal-base"],
)
def test_kummer_min_poly_shape_named_diff(tmp_path, capsys, name, forge):
    obj = json.loads((CORPUS / name).read_text())
    forge(obj)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj, sort_keys=True, indent=1))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "  cert[0]: min_poly is not X^2 - c over a mixed-characteristic base" in out, out
    assert not any("verification error" in line for line in out), out


def test_witness_outside_k_named_diff(tmp_path, capsys):
    # t^(-4) + t^(7/2) differs from the generator where t^(-4) alone does,
    # so the re-evaluation still gives the stored value; only the
    # membership check sees that t^(7/2) is not in F_2(t)
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-3.json").read_text())
    realized = obj["certs"][0]["sample"]["realized"]
    realized[0]["witness"]["terms"].append({"coeff": 1, "exp": "7/2"})
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert f"  cert[0]: witness for {realized[0]['value']} is not in K" in out, out
    assert "verification error" not in out, out


def test_no_max_is_rederived(tmp_path, capsys):
    # the sample's top value -1/2 sits at its attained upper cut, so the
    # sample refutes "no maximum"; the forged verdict and the claims built
    # on it agree with each other, so only the re-derivation can refuse them
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    cert = obj["certs"][0]
    cert["sample"]["no_max"] = "proved"
    cert["claims"]["immediate"] = ["proved", "uniqextv"]
    cert["claims"]["defect"] = [2, "uniqextv"]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == ["  cert[0]: no_max re-derives to refuted, stored 'proved'"], out


def test_no_max_refuted_without_grounds_named_diff(tmp_path, capsys):
    # dropping the top value leaves a sample that refutes nothing
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    obj["certs"][0]["sample"]["realized"].pop()
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert "  cert[0]: no_max re-derives to not refuted, stored 'refuted'" in out, out
    assert "verification error" not in out, out


def test_generator_in_k_has_an_unbounded_upper_cut(tmp_path, capsys):
    # t^(-1) lies in F_2(t): its support has no element outside K, so the
    # upper cut re-derives to +inf-, and the sample's shape and no_max are
    # read against that unbounded cut (SeriesContext.kcap of +inf)
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    obj["certs"][0]["generator"]["terms"] = [{"coeff": 1, "exp": "-1/1"}]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        "  cert[0]: witness for -1/1 gives a zero difference",
        "  cert[0]: witness re-evaluation gives -1/1, stored -1/2",
        "  cert[0]: upper cut re-derivation gives +inf-, stored -1/2+",
        "  cert[0]: no_max re-derives to not refuted, stored 'refuted'",
        "  cert[0]: residual terms at [Fraction(-2, 1)] violate the recorded floor -1/256",
    ], out


@pytest.mark.parametrize(
    "name, claim, forged, diffs",
    [
        # the enclosure certifies super-dependence whatever the file says
        ("kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-1-budget-5.json", "classification",
         ["unknown", "none"],
         ["claim classification re-derives to 'super_dependent', stored 'unknown'",
          "claim classification_rule re-derives to 'dist below (v(p)/2)^-', stored 'none'"]),
        # no rule classifies an Artin-Schreier extension
        ("asfamily-base-fp_t-p-2-n-2-budget-2.json", "classification",
         ["independent", "dist = 0-"],
         ["claim classification re-derives to 'unknown', stored 'independent'",
          "claim classification_rule re-derives to 'none', stored 'dist = 0-'"]),
        # dist(theta, K) = 0- selects the uniqextv rule, not c2
        ("sigma-base-pdiv_tower-p-2-budget-2.json", "immediate", ["proved", "c2"],
         ["claim immediate_rule re-derives to 'uniqextv', stored 'c2'"]),
    ],
    ids=["kummer-classification-unknown", "as-classification-independent", "immediate-rule"],
)
def test_every_derived_claim_is_compared(tmp_path, capsys, name, claim, forged, diffs):
    obj = json.loads((CORPUS / name).read_text())
    obj["certs"][0]["claims"][claim] = forged
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [f"  cert[0]: {d}" for d in diffs], out


def test_session_checked_against_field_without_certs(tmp_path, capsys):
    # a distance file stores no certificate, so only the top-level field
    # can disagree with the session snapshot
    obj = json.loads((CORPUS / "distance-base-pdiv_tower-p-2-budget-2.json").read_text())
    assert obj["certs"] == []
    obj["config"]["mode"] = "mixed"
    obj["config"]["D"] = 128
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        "  field: config-mismatch between the field and the session snapshot"
    ], out


def test_session_budget_checked_against_samples(tmp_path, capsys):
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    obj["config"]["budget"] = 99
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        f"  cert[{i}]: budget-mismatch: the sample's budget is 2, the session's 99"
        for i in range(2)
    ], out


def test_base_checked_against_the_field(tmp_path, capsys):
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    obj["field"] = _field_to_json(preset_field("laurent", 2))
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        f"  cert[{i}]: base-mismatch: the certificate's base 'fp_t' differs from "
        f"the file's field 'laurent'"
        for i in range(2)
    ], out


def _unknown_kind(obj):
    obj["certs"][0]["kind"] = "foo"


def _every_field(key, value):
    def forge(obj):
        for desc in [obj["field"]] + [c["base"] for c in obj["certs"]]:
            desc[key] = value
    return forge


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _edit(path, change):
    """A forgery that applies ``change`` to the container at the dotted ``path``."""
    keys = [int(key) if key.isdigit() else key for key in filter(None, path.split("."))]
    return lambda obj: change(_get(obj, keys))


def _bound(spelling):
    return _edit("certs.0.dist.hi", lambda cut: cut.update(bound=spelling))


_GENERATOR = "certs.0.generator.terms"
_OUT_OF_ORDER = ("certs[0]: series exponent {!r} is off the grid, not above the one before it, "
                 "or not below the precision 17/2")


def _perfect_base(obj):
    obj["certs"][0]["base"]["perfect"] = True


def _tail_flag_false(flag):
    def forge(obj):
        obj["certs"][0]["generator_tail"][flag] = False
    return forge


def _config_precision(obj):
    obj["config"]["precision"] = "16/1"


@pytest.mark.parametrize(
    "forge, message",
    [
        (_every_field("name", "pdiv_tower"), "field differs from the preset 'pdiv_tower' in "
                                             "kind, leveled, perfect, support_lattice, value_group"),
        (_perfect_base, "certs[0]: base differs from the preset 'fp_t' in perfect"),
        (_tail_flag_false("cofinal_at_sup"),
         "certs[0]: generator_tail cofinal_at_sup is False, not True"),
        (_tail_flag_false("denominators_unbounded"),
         "certs[0]: generator_tail denominators_unbounded is False, not True"),
        (_tail_flag_false("partials_in_field"),
         "certs[0]: generator_tail partials_in_field is False, not True"),
        (_config_precision, "config precision is '16/1', not '8/1'"),
        (_unknown_kind, "certs[0]: kind 'foo' is neither 'artin_schreier' nor 'kummer'"),
        # the same values, spelled as no writer spells them
        (_every_field("level", 0.0), "field differs from the preset 'fp_t' in level"),
        (_every_field("leveled", 0), "field differs from the preset 'fp_t' in leveled"),
        (_bound("-2/4"), "certs[0]: '-2/4' is not a reduced ratio n/d as the writer writes it"),
        (_bound(" -1/2 "), "certs[0]: ' -1/2 ' is not a reduced ratio n/d as the writer writes it"),
        (_bound("-0.5"), "certs[0]: '-0.5' is not a reduced ratio n/d as the writer writes it"),
        (_bound("-5.000000e-01"),
         "certs[0]: '-5.000000e-01' is not a reduced ratio n/d as the writer writes it"),
        (_edit("certs.0.dist.hi", lambda cut: cut.update(attained=1)),
         "certs[0]: cut attained 1 is not of the writer's type"),
        (_edit(_GENERATOR, lambda terms: terms.insert(1, dict(terms[0]))),
         _OUT_OF_ORDER.format("-1/2")),
        (_edit(_GENERATOR, lambda terms: terms.append({"coeff": 0, "exp": "1/1"})),
         "certs[0]: series code 0 at '1/1' is zero or not the writer's form"),
        (_edit(_GENERATOR, lambda terms: terms.append({"coeff": 1, "exp": "9/1"})),
         _OUT_OF_ORDER.format("9/1")),
        (_edit(_GENERATOR, list.reverse), _OUT_OF_ORDER.format("-1/128")),
        (_edit(_GENERATOR + ".0", lambda term: term.update(coeff=3)),
         "certs[0]: series code 3 at '-1/2' is zero or not the writer's form"),
        (_edit(_GENERATOR + ".0", lambda term: term.update(coeff=True)),
         "certs[0]: series term coeff True is not of the writer's type"),
        (_edit("certs.0.min_poly",
               lambda f: f.append({"mode": "equal", "precision": "+inf", "terms": []})),
         "certs[0]: min_poly of 4 coefficients is empty or ends in a zero one"),
        (_edit("", lambda obj: obj.update(version=1.0)),
         "file version 1.0 is not of the writer's type"),
        (_edit("config", lambda config: config.update(budget=2.0)),
         "config budget 2.0 is not of the writer's type"),
        (_edit("certs.0", lambda cert: cert.update(note="")),
         "certs[0]: cert keys differ from the writer's in ['note']"),
        (_edit("certs.0.claims", lambda claims: claims.update(note="")),
         "certs[0]: claims keys differ from the writer's in ['note']"),
        (_edit("certs.0.claims.immediate", lambda pair: pair.append("ramified")),
         "certs[0]: claims pair ['refuted', 'ramified', 'ramified'] is not a pair the writer writes"),
        # a value no writer produces: a precision off the grid (1/D)Z
        (_edit("certs.0.generator", lambda gen: gen.update(precision="1/3")),
         "certs[0]: series precision '1/3' is off the grid (1/D)Z, D=256"),
        # more digits than int() converts: refused by name, the value shortened
        (_edit(_GENERATOR + ".0", lambda term: term.update(exp="-1/" + "2" * 5000)),
         "certs[0]: '-1/" + "2" * 56 + "... is not a reduced ratio n/d as the writer writes it"),
        # no writer writes -inf, where the floor's window rule would be empty
        (_edit("certs.0", lambda cert: cert.update(residual_floor="-inf")),
         "certs[0]: '-inf' is not a reduced ratio n/d as the writer writes it"),
        # a floor is a grid index: off the grid (1/D)Z it has none
        (_edit("certs.0", lambda cert: cert.update(residual_floor="-1/3")),
         "certs[0]: residual_floor '-1/3' is off the grid (1/D)Z, D=256"),
        # +inf is written for bounds, floors and precisions, never for a
        # realized value
        (_edit("certs.0.sample.realized.0", lambda entry: entry.update(value="+inf")),
         "certs[0]: '+inf' is not a reduced ratio n/d as the writer writes it"),
        # a realized value is a grid index: off the grid (1/D)Z it has none
        (_edit("certs.0.sample.realized.0", lambda entry: entry.update(value="1/3")),
         "certs[0]: realized value '1/3' is off the grid (1/D)Z, D=256"),
        (_edit("certs.0.sample.realized.0", lambda entry: entry.update(value="-1/3")),
         "certs[0]: realized value '-1/3' is off the grid (1/D)Z, D=256"),
    ],
    ids=["renamed-field", "perfect-base", "tail-cofinal", "tail-denominators",
         "tail-partials", "config-precision", "unknown-kind",
         "level-float", "leveled-int", "bound-unreduced", "bound-padded", "bound-decimal",
         "bound-exponent", "attained-int", "term-duplicated", "term-zero-code",
         "term-beyond-precision", "terms-reversed", "coeff-plus-p", "coeff-bool",
         "min-poly-trailing-zero", "version-float", "budget-float", "cert-extra-key",
         "claims-extra-key", "pair-of-three", "precision-off-grid", "exp-over-digit-limit",
         "floor-minus-inf", "floor-off-grid", "value-plus-inf", "value-off-grid",
         "value-off-grid-negative"],
)
def test_reader_refuses_what_no_writer_produces(tmp_path, capsys, forge, message):
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    forge(obj)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"cannot load certificate file: {message}\n"


def test_kummer_floor_off_the_grid_is_refused_at_load(tmp_path, capsys):
    # a Kummer floor bounds no tail, so it is refused at load or not at all
    obj = json.loads((CORPUS / "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json").read_text())
    assert obj["config"]["D"] == 2 ** 16
    obj["certs"][0]["residual_floor"] = "1/3"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("cannot load certificate file: certs[0]: residual_floor '1/3' is off "
                       "the grid (1/D)Z, D=65536\n")


@pytest.mark.parametrize(
    "min_poly, count",
    [([], 0), ([{"mode": "mixed", "precision": "+inf", "terms": []}], 1)],
    ids=["empty", "exact-zero"],
)
def test_min_poly_without_a_leading_coefficient_is_refused_at_load(tmp_path, capsys,
                                                                  min_poly, count):
    # the reader's own check refuses a polynomial with no nonzero top
    # coefficient, before the shape check could name it
    obj = json.loads((CORPUS / "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json").read_text())
    obj["certs"][0]["min_poly"] = min_poly
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"cannot load certificate file: certs[0]: min_poly of {count} "
                       "coefficients is empty or ends in a zero one\n")


def test_kummer_residual_is_the_horner_residual():
    # verify reads a Kummer floor from theta^p + c0 once the shape check has
    # proved f = X^p + c0; over the corpus that is f(theta) by Horner, terms
    # and precision both
    certs = [c for path in sorted(CORPUS.glob("*kummerfamily-*.json"))
             for c in read_certificate_file(str(path)).certs]
    assert len(certs) == 7 and all(c.kind == "kummer" for c in certs)
    for cert in certs:
        gen, f = cert.generator, cert.min_poly
        assert gen.pow_int(gen.ctx.p) + f[0] == horner(f, gen)


@pytest.mark.parametrize("floor", ["+inf", "0/1", "-1/2", "1/2", "1/64"])
def test_kummer_floor_is_rederived(tmp_path, capsys, floor):
    # theta^p + c0 of member 1 is term-free below its precision 33/64, so a
    # forged floor on the grid leaves no residual term outside any window;
    # only re-deriving the floor refuses it
    obj = json.loads((CORPUS / "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json").read_text())
    assert obj["certs"][0]["residual_floor"] == "33/64"
    obj["certs"][0]["residual_floor"] = floor
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        f"  cert[0]: residual_floor re-derives to 33/64, stored {floor}"], out


@pytest.mark.xfail(strict=True, reason=(
    "the forged term lies above the residual's precision 33/64, so neither the "
    "residual nor its floor moves; it closes with a Hensel floor (ROADMAP item 1 step B)"))
def test_forged_kummer_constant_term_is_refused(tmp_path):
    obj = json.loads((CORPUS / "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json").read_text())
    terms = obj["certs"][0]["min_poly"][0]["terms"]
    at = next(i for i, t in enumerate(terms) if Fraction(t["exp"]) > Fraction(3, 4))
    terms.insert(at, {"coeff": 1, "exp": "3/4"})
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2


def test_forged_kummer_enclosure_is_one_diff(tmp_path, capsys):
    # the claims are re-derived from the rebuilt enclosure, not the stored
    # one, so a forged hi that breaks 0 < dist <= 1- is named once
    obj = json.loads((CORPUS / "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-1-budget-5.json").read_text())
    obj["certs"][0]["dist"]["hi"] = {"attained": False, "bound": "+inf"}
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        "  cert[0]: distance enclosure differs: re-derives to [5/32-, 5/32-], "
        "stored [5/32-, +inf-]"], out


def test_a_check_that_raises_is_a_verification_error(monkeypatch, capsys):
    # a check that raises names the error instead of accepting the
    # certificate, and the next certificate is still checked
    def broken(*args):
        raise RuntimeError("forced")

    monkeypatch.setattr(certfile, "difference_horizon", broken)
    path = CORPUS / "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-3-budget-6.json"
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verification FAILED:", *(f"  cert[{i}]: verification error: forced" for i in range(3))]


@pytest.mark.parametrize("name", [
    "kummerfamily-base-qp_pdiv_tower-p-2-q-4-n-1-budget-7.json",
    "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-1-budget-5.json",
])
def test_an_exact_kummer_generator_is_a_named_diff(name, tmp_path, capsys):
    # kummer_family stores a truncation; an exact one would need digit
    # carries F_4 lacks, and over F_2 its residual has no recorded floor
    obj = json.loads((CORPUS / name).read_text())
    obj["certs"][0]["generator"]["precision"] = "+inf"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "verification FAILED:",
        "  cert[0]: generator is stored exact (precision +inf), not the truncation a Kummer "
        "family stores"]


def test_a_claim_rule_that_refuses_is_a_named_diff(tmp_path, capsys):
    # an upper cut of 2 puts the Kummer enclosure above (v(p)/(p-1))^- = 1^-,
    # so the claim rule refuses to classify it
    obj = json.loads((CORPUS / "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-1-budget-5.json").read_text())
    obj["certs"][0]["sample"]["upper"]["bound"] = "2/1"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  cert[0]: upper cut re-derivation gives 5/32-, stored 2/1-",
        "  cert[0]: claim re-derivation failed: distance enclosure [79/512+, 2/1-] "
        "violates 0 < dist <= (v(p)/(p-1))^-"]


_AS_NOTE = "note 'fractional telescoping tail of an Artin-Schreier root'"
_AS_TAIL = f"low -1/512, sup 0/1, {_AS_NOTE}"


@pytest.mark.parametrize(
    "forge, diff",
    [
        (_edit("certs.0", lambda cert: cert.update(generator_tail=None)),
         f"generator_tail re-derives to {_AS_TAIL}, stored null"),
        (_edit("certs.0.generator_tail", lambda tail: tail.update(low="-1/4")),
         f"generator_tail re-derives to {_AS_TAIL}, stored low -1/4, sup 0/1, {_AS_NOTE}"),
        (_edit("certs.0.generator_tail", lambda tail: tail.update(sup="1/1")),
         f"generator_tail re-derives to {_AS_TAIL}, stored low -1/512, sup 1/1, {_AS_NOTE}"),
        (_edit("certs.0.generator_tail", lambda tail: tail.update(note="x")),
         f"generator_tail re-derives to {_AS_TAIL}, stored low -1/512, sup 0/1, note 'x'"),
        (_edit("certs.0", lambda cert: cert.update(residual_floor="-1/2")),
         f"generator_tail re-derives to low -1/4, sup 0/1, {_AS_NOTE}, stored {_AS_TAIL}"),
        # a finite floor >= 0 has no tail to re-derive: its own diff, not an error
        (_edit("certs.0", lambda cert: cert.update(residual_floor="0/1")),
         "residual_floor 0/1 is neither +inf nor negative, as an Artin-Schreier root's is"),
        (_edit("certs.0", lambda cert: cert.update(residual_floor="1/2")),
         "residual_floor 1/2 is neither +inf nor negative, as an Artin-Schreier root's is"),
    ],
    ids=["tail-null", "tail-low", "tail-sup", "tail-note", "floor-moved", "floor-zero",
         "floor-positive"],
)
def test_artin_schreier_tail_rederives_from_the_floor(tmp_path, capsys, forge, diff):
    # as_root's rule: floor +inf gives no tail, a negative floor the tail
    # [floor/p, 0) with the root's note
    obj = json.loads((CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json").read_text())
    forge(obj)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["verification FAILED:", f"  cert[0]: {diff}"], lines
    assert not any("verification error" in line for line in lines), lines


# --- value-preserving respellings of one leaf of a writer's file ----------

UNTAMPERED = sorted(p.name for p in CORPUS.glob("*.json") if not p.name.startswith("tampered-"))
RATIO = re.compile(r"-?[0-9]+/[0-9]+|[+-]inf")


def _nodes(obj, path=()):
    """Every (path, value) of a JSON tree, containers and leaves."""
    yield path, obj
    items = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _ratio_respellings(s):
    if s.endswith("inf"):
        return [f" {s}", f"{s} "]
    f = Fraction(s)
    n, d = f.numerator, f.denominator
    spellings = [f"{2 * n}/{2 * d}", f" {s}", f"{s} ", f"{'-' if n < 0 else ''}0{abs(n)}/{d}",
                 f"{n}/0{d}"]
    if n >= 0:
        spellings.append(f"+{s}")
    if Fraction(repr(n / d)) == f:  # a float spelling of the same value
        spellings.append(repr(n / d))
    return spellings


@st.composite
def _respelled(draw):
    """An untampered corpus file with one leaf respelled or retyped, or one
    container grown, keeping every value; and the strings of which the
    refusal must name one: the key, or the stored value as ``repr`` quotes it."""
    name = draw(st.sampled_from(UNTAMPERED))
    obj = json.loads((CORPUS / name).read_text())
    nodes = list(_nodes(obj))

    def field_key(path):  # a field description is refused by its top-level key
        return [path[i + 1] for i in range(len(path) - 1) if path[i] in ("field", "base")][:1]

    kinds = ["ratio", "int", "bool", "extra-key"]
    if obj["certs"]:
        kinds += ["duplicated-term", "reversed-terms", "zero-term", "min-poly-zero",
                  "pair-of-three"]
    kind = draw(st.sampled_from(kinds))
    if kind == "ratio":  # claims bounds are cut names, stored and never read as ratios
        cands = [(p, v) for p, v in nodes if type(v) is str and RATIO.fullmatch(v)
                 and "bounds" not in p]
        path, value = draw(st.sampled_from(cands))
        new = draw(st.sampled_from(_ratio_respellings(value)))
    elif kind == "int":
        path, value = draw(st.sampled_from([(p, v) for p, v in nodes if type(v) is int]))
        new = draw(st.sampled_from([float(value)] + ([bool(value)] if value in (0, 1) else [])))
    elif kind == "bool":
        path, value = draw(st.sampled_from([(p, v) for p, v in nodes if type(v) is bool]))
        new = int(value)
    if kind in ("ratio", "int", "bool"):
        _get(obj, path[:-1])[path[-1]] = new
        keys = [k for k in path if type(k) is str][-1:] + field_key(path)
        return obj, keys + [repr(new)]
    if kind == "extra-key":
        path = draw(st.sampled_from([p for p, v in nodes if type(v) is dict]))
        _get(obj, path)["extra"] = 0
        return obj, ["extra"] + field_key(path)
    if kind == "min-poly-zero":
        cert = draw(st.sampled_from(obj["certs"]))
        cert["min_poly"].append({"mode": cert["generator"]["mode"], "precision": "+inf",
                                 "terms": []})
        return obj, ["min_poly"]
    if kind == "pair-of-three":
        claims = draw(st.sampled_from(obj["certs"]))["claims"]
        pair = claims[draw(st.sampled_from(["unique_extension", "immediate", "defect",
                                            "classification"]))]
        pair.append(pair[1])
        return obj, [repr(pair)]
    terms = draw(st.sampled_from([v for p, v in nodes if p[-1:] == ("terms",) and len(v) >= 2]))
    if kind == "duplicated-term":
        i = draw(st.integers(0, len(terms) - 1))
        terms.insert(i + 1, dict(terms[i]))
        return obj, [repr(terms[i]["exp"])]
    if kind == "reversed-terms":
        terms.reverse()
        return obj, [repr(terms[1]["exp"])]
    exps = {t["exp"] for t in terms}
    exp = next(f"{k}/1" for k in range(-5, 10) if f"{k}/1" not in exps)
    zero = 0 if type(terms[0]["coeff"]) is int else [0] * len(terms[0]["coeff"])
    terms.insert(draw(st.integers(0, len(terms))), {"coeff": zero, "exp": exp})
    return obj, [repr(exp)]


@settings(max_examples=150, deadline=None)
@given(_respelled())
def test_no_respelling_verifies(tmp_path_factory, case):
    obj, names = case
    path = tmp_path_factory.mktemp("respelled") / "respelled.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["verify", str(path)]) == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("cannot load certificate file: "), err.getvalue()
    assert any(n in err.getvalue() for n in names), (names, err.getvalue())


# --- the reader against the string-parsing reader it replaced -------------


def _oracle_extrat_parse(s):
    # "-inf", which no writer writes, is refused as Fraction refuses it
    s = s.strip()
    if s == "+inf":
        return PLUS_INF
    return ExtRat(Fraction(s))


def _oracle_series_from_json(obj, ctx):
    if obj["mode"] != ctx.mode:
        raise ValueError(f"series mode {obj['mode']!r} does not match the session")
    terms = {Fraction(t["exp"]): t["coeff"] % ctx.p for t in obj["terms"]}  # prime fields only
    return Series.make(ctx, terms, _oracle_extrat_parse(obj["precision"]))


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except Exception as exc:
        return ("raises", type(exc), str(exc))
    if isinstance(r, Series):
        return ("series", r.kterms, str(r.precision))
    return ("value", str(r))


READER_CTXS = [make_context(EQUAL, 2), make_context(EQUAL, 3), make_context(MIXED, 2)]
ODD_RATIOS = ["2/4", "-0/3", "0.5", " 1/2", "1/0", "7", "1/3", "-1/3", "+1/2", "1/-2",
              "01/2", "-", "/2", "1/", "", "abc", "1 /2", "1/ 2", "1/2 ", "1/+2", "1_0/3",
              "\u0661/2", "\u00b2/3", "2/512", 7, 0.5, None]


@st.composite
def _ratio(draw, D):
    if draw(st.booleans()):
        return draw(st.sampled_from(ODD_RATIOS))
    f = Fraction(draw(st.integers(-3 * D, 3 * D)), draw(st.sampled_from([1, 2, 3, D, 5 * D])))
    return f"{f.numerator}/{f.denominator}"


@st.composite
def _stored_series(draw):
    ctx = draw(st.sampled_from(READER_CTXS))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        exp = draw(_ratio(ctx.D))
        if terms and draw(st.integers(0, 3)) == 0:
            exp = draw(st.sampled_from(terms))["exp"]  # a repeated exponent
        terms.append({"exp": exp, "coeff": draw(st.integers(0, ctx.p))})
    prec = draw(st.one_of(st.sampled_from(["+inf", "-inf", " +inf ", "5/1", "1/3"]), _ratio(ctx.D)))
    mode = draw(st.sampled_from([ctx.mode, ctx.mode, ctx.mode, "other"]))
    return ctx, {"mode": mode, "terms": terms, "precision": prec}


# On the writer's spellings the reader gives what the Fraction reader gives;
# every other input is refused with a ValueError that quotes a stored value.


@settings(max_examples=400, deadline=None)
@given(_stored_series())
def test_series_from_json_matches_fraction_reader(case):
    ctx, obj = case
    want = _outcome(_oracle_series_from_json, obj, ctx)
    if want[0] == "series" and series_tree(_oracle_series_from_json(obj, ctx)) == obj:
        assert _outcome(series_from_json, obj, ctx) == want
        return
    with pytest.raises(ValueError) as exc:
        series_from_json(obj, ctx)
    leaves = [obj["mode"], obj["precision"]] + [v for t in obj["terms"] for v in t.values()]
    assert any(repr(v) in str(exc.value) for v in leaves), (obj, str(exc.value))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ratio(2 ** 8), st.sampled_from(["+inf", "-inf", " -inf", "inf", "+inf/1"])))
def test_extrat_parse_matches_fraction_reader(s):
    want = _outcome(_oracle_extrat_parse, s)
    if want == ("value", s):
        assert _outcome(_parse_extrat, s) == want
        return
    with pytest.raises(ValueError, match=re.escape(repr(s))):
        _parse_extrat(s)


def _stored_values():
    # a context and a value spelled on its grid, off it, or as no writer does
    return st.sampled_from(READER_CTXS).flatmap(
        lambda ctx: st.tuples(st.just(ctx), st.one_of(_ratio(ctx.D), st.just("+inf"))))


@settings(max_examples=300, deadline=None)
@given(_stored_values())
def test_realized_value_parse_matches_fraction_reader(case):
    # the value the Fraction reader gives, as its grid index, when the
    # writer spells it so and it lies on the grid; else a refusal that
    # quotes it (a realized value is never +inf)
    ctx, s = case
    obj = {"budget": 1, "no_max": "unknown", "upper": {"attained": False, "bound": "+inf"},
           "realized": [{"value": s, "witness": series_tree(Series.zero(ctx))}]}
    want = _outcome(_oracle_extrat_parse, s)
    if want == ("value", s) and s != "+inf" and ctx.D % Fraction(s).denominator == 0:
        (k, _), = sample_from_json(obj, ctx).realized
        assert type(k) is int and Fraction(k, ctx.D) == Fraction(s)
        return
    with pytest.raises(ValueError, match=re.escape(repr(s))):
        sample_from_json(obj, ctx)
