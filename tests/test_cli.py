import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import defectlab
from defectlab.cli import _build_field, build_parser, main
from defectlab.ffield import MAX_Q, FiniteField
from defectlab.fields import PRESET_NAMES, enumerate_elements, preset_field


def run(argv):
    return main(argv)


def test_field(capsys):
    assert run(["field", "--base", "fp_t", "--p", "2"]) == 0
    out = capsys.readouterr().out
    assert "rational_function" in out


_FIELD_GRID = [(base, p, m) for base in PRESET_NAMES for p, m in ((2, 1), (3, 1), (2, 2), (3, 2))]


@pytest.mark.parametrize(
    "base, p, m", _FIELD_GRID + [("fp_t", 2, 4)],
    ids=[f"{base}-q{p ** m}" for base, p, m in _FIELD_GRID] + ["fp_t-q16"],
)
def test_field_shows_the_first_six_listed_elements(base, p, m, capsys):
    assert run(["field", "--base", base, "--p", str(p), "--q", str(p ** m)]) == 0
    K = _build_field(argparse.Namespace(base=base, p=p, q_power=m))
    shown = ", ".join(str(e) for e in enumerate_elements(K, 1)[:6])
    assert capsys.readouterr().out.splitlines()[-1] == f"  first elements at height 1: {shown}"


def test_field_lists_no_more_than_it_shows():
    # fp_t's height-1 listing holds about q^4 elements; field shows six of
    # them, so it must not build the rest.  A child process, so that a
    # listing of 64^4 elements fails on its timeout
    proc = subprocess.run(
        [sys.executable, "-m", "defectlab", "field", "--base", "fp_t", "--p", "2", "--q", "64"],
        capture_output=True,
        text=True,
        timeout=30,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    # an element of F_64 prints as its digit vector, so count precisions
    shown = proc.stdout.splitlines()[-1]
    assert shown.startswith("  first elements at height 1: "), proc.stdout
    assert shown.count(" [prec ") == 6, proc.stdout


def test_distance_at_p_251_lists_only_what_it_compares():
    # fp_t's height-1 listing at p = 251 holds about 251^4 = 4 * 10^9
    # elements, and distance builds only those its sample compares.  A
    # child process, so that building the listing fails on its timeout
    proc = subprocess.run(
        [sys.executable, "-m", "defectlab", "distance", "--base", "fp_t", "--p", "251",
         "--budget", "1"],
        capture_output=True,
        text=True,
        timeout=30,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "distance enclosure: [1/251+, 1/251+]  (exact)"


@pytest.mark.parametrize(
    "base, p, budget, rc, line",
    [("pdiv_tower", "7", "2", 0, "verdict: independent_consistent"),
     ("fp_t", "251", "1", 3, "sigma values: 1/251, 1/1")],
    ids=["pdiv_tower-p7", "fp_t-p251"],
)
def test_sigma_builds_no_listing(base, p, budget, rc, line):
    # sigma reads its values off the certificate; fp_t's height-1 listing
    # at p = 251 holds about 251^4 = 4 * 10^9 elements, each to be
    # multiplied by p - 1 powers of theta.  A child process, so that
    # building the listing fails on its timeout.  fp_t's extension is
    # ramified, so its verdict stays unknown (exit 3) at every budget
    proc = subprocess.run(
        [sys.executable, "-m", "defectlab", "sigma", "--base", base, "--p", p,
         "--budget", budget],
        capture_output=True,
        text=True,
        timeout=30,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert (proc.returncode, proc.stderr) == (rc, "")
    assert line in proc.stdout.splitlines(), proc.stdout


@pytest.mark.parametrize(
    "size, q",
    [(["--p", "2", "--q", "1024"], "2^10"), (["--p", "1000003"], "1000003^1"),
     (["--p", "10007"], "10007^1")],
    ids=["q-1024", "p-1000003", "p-10007"],
)
def test_field_above_max_q_is_a_usage_error(size, q, capsys, monkeypatch):
    # F_q keeps q x q tables, so a q above MAX_Q is refused before the
    # primality test and before any table is built
    monkeypatch.setattr(FiniteField, "_build_tables", lambda self: pytest.fail("tables built"))
    assert run(["field", "--base", "fp_t", *size]) == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: q = {q} needs m >= 1 and q <= MAX_Q = {MAX_Q}\n"


@pytest.mark.parametrize("p", ["1", "0"])
def test_q_over_a_p_below_two_is_a_usage_error(p):
    # no q > 1 is a power of 1 or of 0: the search for the exponent must
    # end (1 divides every q) and must not divide by zero; a child process,
    # so that a search that never ends fails on its timeout
    proc = subprocess.run(
        [sys.executable, "-m", "defectlab", "field", "--base", "fp_t", "--p", p, "--q", "4"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (64, "", "--q must be a power of --p\n")


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
    assert preset_field("qp_pdiv_tower", p).ctx.D == D


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


_PAST_THE_GRID = "but {}'s grid D={} ends at level {}\n"


@pytest.mark.parametrize("command, base, budget, D, depth", [
    ("distance", "pdiv_tower", 9, 256, 8),
    ("sigma", "pdiv_tower", 9, 256, 8),
    ("distance", "qp_pdiv_tower", 17, 2 ** 16, 16),
])
def test_a_listing_past_the_tower_grid_is_refused_by_name(command, base, budget, D, depth, capsys):
    assert run([command, "--base", base, "--p", "2", "--budget", str(budget)]) == 64
    assert capsys.readouterr().err == (f"error: budget {budget} lists the tower to level {budget}, "
                                       + _PAST_THE_GRID.format(base, D, depth))


@pytest.mark.parametrize("budget", [15, 16])
def test_a_kummer_budget_past_the_tower_grid_is_refused_by_name(budget, capsys):
    # the twisted roots at level l need grid level l + 2
    argv = ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2", "--n", "1", "--budget", str(budget)]
    assert run(argv) == 64
    assert capsys.readouterr().err == (f"error: budget {budget} needs tower level {budget + 2} "
                                       "for its twisted roots, "
                                       + _PAST_THE_GRID.format("qp_pdiv_tower", 2 ** 16, 16))


def test_a_kummer_shortfall_at_the_largest_budget_is_a_usage_error(capsys):
    # budget 14 is the largest the grid serves, so no budget finds more
    argv = ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2", "--budget", "14"]
    assert run(argv + ["--n", "100"]) == 64
    assert capsys.readouterr().err == (
        "error: only 68 admissible deep elements at budget 14, need 100; "
        "qp_pdiv_tower's grid D=65536 serves no larger budget\n")


def test_semitame_past_the_tower_grid_lists_nothing(capsys):
    # semitame reads the budget only for its --out config
    assert run(["semitame", "--base", "pdiv_tower", "--p", "2", "--budget", "9"]) == 0
    assert capsys.readouterr().err == ""


def test_kummerfamily_at_odd_p_is_a_usage_error(capsys):
    # Kummer theory of degree 3 needs zeta_3, which qp_pdiv_tower lacks
    argv = ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "3", "--n", "1", "--budget", "3"]
    assert run(argv) == 64
    err = capsys.readouterr().err
    assert "no primitive p-th root of unity zeta_3" in err, err
    assert "claim check failed" not in err, err


def test_a_failed_claim_check_is_exit_2(monkeypatch, capsys):
    def refuted(*args):
        raise AssertionError("forced")
    monkeypatch.setattr("defectlab.artin.as_family", refuted)
    assert run(["asfamily", "--base", "fp_t", "--p", "2", "--n", "2", "--budget", "2"]) == 2
    assert capsys.readouterr().err == "claim check failed: forced\n"


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


SUBMODULES = ("approx", "artin", "certfile", "certread", "cuts", "ffield", "fields", "kummer",
              "series", "teichmueller")
# the modules every command runs: cli and the siblings it imports names from
CLI_RUNS = ("cli", "cuts", "ffield", "fields", "series")
APPROX_RUNS = CLI_RUNS + ("approx",)
QP_TOWER_RUNS = APPROX_RUNS + ("kummer", "teichmueller")

# a module that has run is a plain module; a registered one that has not
# is LazyLoader's subclass, and type() reads none of its attributes
_EXECUTED = """
import contextlib, io, json, sys, types
import defectlab
registered = all("defectlab." + n in sys.modules for n in {names!r})
rc = None
if {argv!r}:
    from defectlab.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main({argv!r})
print(json.dumps([registered, rc, sorted(n.split(".")[1] for n, m in sys.modules.items()
                                         if n.startswith("defectlab.")
                                         and type(m) is types.ModuleType)]))
"""


def _executed(argv):
    """[all submodules registered, exit code, the package modules that have
    run] after ``import defectlab`` and ``main(argv)`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _EXECUTED.format(names=SUBMODULES, argv=argv)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# one row per command: its argv, its exit code and the modules its process runs
MODULE_RUNS = {
    "import": ([], None, ()),
    "field": (["field", "--base", "fp_t", "--p", "2"], 0, CLI_RUNS),
    "field-qp": (["field", "--base", "qp", "--p", "2"], 0, CLI_RUNS + ("teichmueller",)),
    "distance": (["distance", "--base", "fp_t", "--p", "2", "--budget", "3"], 0, APPROX_RUNS),
    "semitame": (["semitame", "--base", "pdiv_tower", "--p", "2", "--budget", "2"], 0,
                 APPROX_RUNS),
    "distance-pdiv_tower": (["distance", "--base", "pdiv_tower", "--p", "2", "--budget", "2"], 0,
                            APPROX_RUNS + ("artin",)),
    "sigma": (["sigma", "--base", "pdiv_tower", "--p", "2", "--budget", "2"], 0,
              APPROX_RUNS + ("artin",)),
    "asfamily": (["asfamily", "--base", "fp_t", "--p", "2", "--n", "2", "--budget", "2"], 0,
                 APPROX_RUNS + ("artin",)),
    "distance-qp_pdiv_tower": (
        ["distance", "--base", "qp_pdiv_tower", "--p", "2", "--budget", "2"], 0, QP_TOWER_RUNS),
    "kummerfamily": (
        ["kummerfamily", "--base", "qp_pdiv_tower", "--p", "2", "--n", "1", "--budget", "5"], 0,
        QP_TOWER_RUNS + ("artin",)),
    "verify-no-certificates": (
        ["verify", str(CORPUS / "distance-base-pdiv_tower-p-2-budget-2.json")], 0,
        APPROX_RUNS + ("certfile", "certread")),
    "verify-artin-schreier": (
        ["verify", str(CORPUS / "asfamily-base-fp_t-p-2-n-2-budget-2.json")], 0,
        APPROX_RUNS + ("artin", "certfile", "certread")),
    "verify-kummer": (
        ["verify", str(CORPUS / "kummerfamily-base-qp_pdiv_tower-p-2-q-2-n-1-budget-5.json")], 0,
        APPROX_RUNS + ("artin", "certfile", "certread", "teichmueller")),
}


@pytest.mark.parametrize("name", MODULE_RUNS)
def test_process_runs_only_the_modules_its_command_calls(name, tmp_path):
    # import defectlab registers every submodule and runs none; --out adds
    # certfile, for its writer, and never certread, its reader
    argv, rc, ran = MODULE_RUNS[name]
    assert _executed(argv) == [True, rc, sorted(ran)]
    if argv and argv[0] not in ("field", "verify"):
        out = tmp_path / "cert.json"
        assert _executed(argv + ["--out", str(out)]) == [True, rc, sorted(ran + ("certfile",))]
        assert out.is_file()


def test_kummer_family_runs_every_module_and_writes_its_golden_bytes(tmp_path):
    job = "kummerfamily --base qp_pdiv_tower --p 2 --q 2 --n 3 --budget 6"
    want = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")
                      .read_text())["jobs"][job]
    out = tmp_path / "cert.json"
    # every module but certread, which only verify runs
    assert _executed(job.split() + ["--out", str(out)]) == [
        True, want["rc"], sorted({*SUBMODULES, "cli"} - {"certread"})]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"]


def test_vars_of_an_unexecuted_module_holds_its_functions():
    # perfbench/tracer.py reads vars() of each module after import defectlab
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, types, defectlab; m = sys.modules['defectlab.kummer']; "
         "print(type(m) is types.ModuleType, callable(vars(m)['kummer_family']), "
         "type(m) is types.ModuleType)"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=Path(defectlab.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True True\n"


def test_command_patched_after_first_call_is_run(monkeypatch, capsys):
    # the cached parser names the command; the function is looked up per call
    assert run(["field", "--base", "fp_t", "--p", "2"]) == 0
    monkeypatch.setattr("defectlab.cli.cmd_field", lambda args: 7)
    assert run(["field", "--base", "fp_t", "--p", "2"]) == 7
