import json
import subprocess
import sys
from pathlib import Path

import pytest

import defectlab
from defectlab.cli import build_parser, main


def run(argv):
    return main(argv)


def test_field(capsys):
    assert run(["field", "--base", "fp_t", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "rational_function" in out


def test_distance_fp_t(capsys):
    assert run(["distance", "--base", "fp_t", "--p", "2", "--budget", "3"]) == 0
    out = capsys.readouterr().out
    assert "1/2+" in out and "(exact)" in out


def test_semitame_exit_codes(capsys):
    assert run(["semitame", "--base", "laurent", "--p", "2"]) == 2
    out = capsys.readouterr().out
    assert "t^1/2" in out
    assert run(["semitame", "--base", "pdiv_tower", "--p", "2"]) == 0


def test_asfamily_writes_file(tmp_path, capsys):
    out_path = tmp_path / "fam.json"
    code = run(["asfamily", "--base", "fp_t", "--p", "2", "--n", "4",
                "--budget", "3", "--out", str(out_path)])
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert len(obj["certs"]) == 4
    assert run(["verify", str(out_path)]) == 0


def test_asfamily_perfect_field(capsys):
    assert run(["asfamily", "--base", "pdiv_tower", "--p", "2", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "none" in out


def test_kummerfamily(tmp_path, capsys):
    out_path = tmp_path / "ku.json"
    code = run(["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2",
                "--n", "3", "--budget", "5", "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "super_dependent" in out
    assert run(["verify", str(out_path)]) == 0


@pytest.mark.parametrize("p, D", [(2, 2 ** 16), (3, 2 * 3 ** 16)])
def test_qp_pdiv_tower_grid_has_room_for_roots_of_unity(p, D, capsys):
    # the grid keeps the factor p - 1 of the mixed default at odd p, where
    # the exponent 1/(p-1) of the p-th roots of unity lives
    assert run(["field", "--base", "qp_pdiv_tower", "--p", str(p)]) == 0
    assert f"D={D}\n" in capsys.readouterr().out


def test_distance_qp_pdiv_tower_p3(capsys):
    assert run(["distance", "--base", "qp_pdiv_tower", "--p", "3", "--budget", "3"]) == 0
    assert "distance enclosure: [1/18+, 1/18+]  (exact)" in capsys.readouterr().out


def test_sigma(capsys):
    assert run(["sigma", "--base", "pdiv_tower", "--p", "2", "--budget", "3"]) == 0
    out = capsys.readouterr().out
    assert "independent_consistent" in out


def test_verify_tampered(tmp_path, capsys):
    out_path = tmp_path / "fam.json"
    run(["asfamily", "--base", "fp_t", "--p", "2", "--n", "2",
         "--budget", "3", "--out", str(out_path)])
    obj = json.loads(out_path.read_text())
    obj["certs"][0]["sample"]["realized"][0]["value"] = "-9/1"
    out_path.write_text(json.dumps(obj))
    assert run(["verify", str(out_path)]) == 2


def test_usage_error():
    assert run(["nope"]) == 64


def test_verify_unreadable_path_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["verify", str(missing)]) == 64
    err = capsys.readouterr().err
    assert f"error: cannot read certificate file {missing}: No such file or directory" in err
    assert run(["verify", str(tmp_path)]) == 64
    # a file that opens but is not a certificate is still a refuted claim
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": ')
    assert run(["verify", str(bad)]) == 2
    assert "cannot load certificate file" in capsys.readouterr().err


_COMMAND_ARGV = {
    "field": ["field", "--base", "fp_t", "--p", "2"],
    "distance": ["distance", "--base", "fp_t", "--p", "2"],
    "semitame": ["semitame", "--base", "fp_t", "--p", "2"],
    "asfamily": ["asfamily", "--base", "fp_t", "--p", "2", "--n", "2"],
    "kummerfamily": ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2", "--n", "1"],
    "sigma": ["sigma", "--base", "pdiv_tower", "--p", "2"],
}


@pytest.mark.parametrize(
    "command,flag",
    [(c, ["--budget", v]) for c in _COMMAND_ARGV if c != "field" for v in ("0", "-1")]
    + [(c, ["--n", v]) for c in ("asfamily", "kummerfamily") for v in ("0", "-1")],
    ids=lambda v: v if isinstance(v, str) else "".join(v).lstrip("-"),
)
def test_counts_below_one_are_rejected_before_any_work(command, flag, capsys):
    assert run(_COMMAND_ARGV[command] + flag) == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert "must be at least 1" in out.err


def test_kummerfamily_budget_shortfall_is_inconclusive(capsys):
    # three admissible deep elements at budget 4: a larger budget may
    # find a fourth, so this is exit 3, not a usage error
    argv = ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2", "--budget", "4"]
    assert run(argv + ["--n", "4"]) == 3
    assert "only 3 admissible deep elements at budget 4, need 4" in capsys.readouterr().err
    assert run(argv + ["--n", "0"]) == 64


def test_kummerfamily_at_odd_p_is_a_usage_error(capsys):
    # Kummer theory of degree 3 needs zeta_3, which qp_pdiv_tower lacks
    argv = ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "3", "--n", "1", "--budget", "3"]
    assert run(argv) == 64
    err = capsys.readouterr().err
    assert "no primitive p-th root of unity zeta_3" in err, err
    assert "claim check failed" not in err, err


@pytest.mark.parametrize(
    "argv",
    [[c, "--base", b, "--p", "2"] for c in ("sigma", "asfamily") for b in ("qp", "qp_pdiv_tower")]
    + [["kummerfamily", "--base", b, "--p", "2", "--n", "1"] for b in ("fp_t", "pdiv_tower")],
    ids=lambda argv: f"{argv[0]}-{argv[2]}",
)
def test_commands_refuse_the_other_characteristic(argv, capsys):
    # sigma and asfamily build Artin-Schreier extensions (equal
    # characteristic), kummerfamily Kummer ones (mixed): each refuses the
    # other side before any work, with nothing on stdout
    assert run(argv) == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flag", [["--seed", "1"], ["--mode", "equal"], ["--height", "2"]],
    ids=["seed", "mode", "height"],
)
def test_removed_flags_are_usage_errors(flag, capsys):
    assert run(["field", "--base", "fp_t", "--p", "2", *flag]) == 64


@pytest.mark.parametrize(
    "command,flag",
    [(c, ["--precision", "8"]) for c in
     ("field", "distance", "semitame", "asfamily", "kummerfamily", "sigma")]
    + [(c, ["--n", "3"]) for c in ("field", "distance", "semitame", "sigma")]
    + [(c, ["--D", "16"]) for c in
       ("field", "distance", "semitame", "asfamily", "kummerfamily", "sigma")]
    + [("field", ["--budget", "2"]), ("field", ["--out", "f.json"])],
    ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"),
)
def test_removed_options_are_usage_errors(command, flag, capsys):
    # each argv parses without the flag and fails in parsing with it
    assert run(_COMMAND_ARGV[command] + flag) == 64
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"


def test_parser_reuse_keeps_each_call_independent(capsys):
    # usage errors and --help exit inside argparse; the parser built by the
    # first call must serve the later ones exactly as a fresh one would
    cert = str(CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json")
    tampered = str(CORPUS / "tampered-config.D-sigma-base-pdiv_tower-p-2-budget-2.json")
    calls = [
        ["verify", cert],
        ["asfamily", "--bogus"],
        ["field", "--base", "fp_t", "--p", "2"],
        ["--help"],
        ["verify", tampered],
        ["verify"],
        ["verify", "--help"],
        ["field", "--base", "laurent", "--p", "3"],
        ["nope"],
        ["verify", cert],
    ]
    build_parser.cache_clear()
    runs = []
    for _ in range(2):
        seen = []
        for argv in calls:
            rc = run(argv)
            out = capsys.readouterr()
            seen.append((rc, out.out, out.err))
        runs.append(seen)
    assert runs[0] == runs[1]
    assert [rc for rc, _, _ in runs[0]] == [0, 64, 0, 0, 2, 64, 0, 0, 64, 0]
    assert build_parser.cache_info().misses == 1


def test_subprocess_entry(tmp_path):
    # run from the directory holding the package under test, so that the
    # child imports it without an installed copy or PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "defectlab", "semitame", "--base", "fp_t", "--p", "2"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 2
    assert "refuted" in proc.stdout


def test_cli_import_skips_openssl():
    # hashlib loads OpenSSL's _hashlib; only provenance hashing needs it,
    # so importing the command line must not pay for it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, defectlab.cli; print('_hashlib' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_skips_dataclasses():
    # dataclasses imports inspect (and with it ast, dis and tokenize) and
    # each decoration runs code; start-up of every process would pay for it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, defectlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_command_patched_after_first_call_is_run(monkeypatch, capsys):
    # the cached parser names the command; the function is looked up per call
    assert run(["field", "--base", "fp_t", "--p", "2"]) == 0
    monkeypatch.setattr("defectlab.cli.cmd_field", lambda args: 7)
    assert run(["field", "--base", "fp_t", "--p", "2"]) == 7
