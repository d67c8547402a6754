"""Every function and method of the package is entered by a program run.

The gate runs the programs in one fresh interpreter (this file, run as a
script) under a ``sys.settrace`` hook that records the code object of
every frame it sees, and then asks, for each top-level function of
``src/defectlab`` and each method of its top-level classes (dunders
included), whether a frame of it was ever entered.  The programs are the
commands and the scripts, on the inputs the benchmark, the corpus and
``SCRIPT_RUNS`` give them:

* every ``perfbench/golden.json`` job with ``--out``, and ``verify`` of
  the file it writes;
* ``verify`` of every ``perfbench/corpus`` file;
* the preset grid: each command on each preset at p in {2, 3}, with
  ``--budget 2 --n 1`` where the command takes them, and
  ``field --base fp_t --p 2 --q 16``;
* ``scripts/family_survey.py`` and ``scripts/mixed_demo.py`` with the
  arguments ``SCRIPT_RUNS`` gives them.

The interpreter is a fresh one because the package caches listings,
contexts, lifts and its parser: a call an earlier test made must not
stand in for a program's.  The tests do not count, so a helper that only
tests call belongs in the tests.  A definition no program enters fails
the gate unless ``ALLOWED`` names it with the reason it stays; prefer
adding a program run to adding an entry.

The gate is kept at function level: many functions hold a statement no
program reaches that is not a ``raise`` (verify's diff branches, the
command-line error exits and the branches below), so an allow-list per
line would outgrow the code it guards.  Classes without a method of their
own (the ``NamedTuple`` records, the exception types) have no frame to
enter and are not checked.

A branch no program takes stays only for a reason that names who needs it:

* ``ExtRat.__add__``'s ``+inf`` sum: ``approx.translate_sample`` keeps an
  unbounded cut unbounded;
* ``SeriesContext.kcap``'s ``+inf``: ``verify`` reads a generator forged
  into K against its unbounded upper cut
  (``test_certfile.py::test_generator_in_k_has_an_unbounded_upper_cut``);
* ``teichmueller.normalize``'s exact merge:
  ``test_series_mixed.py::test_exact_p5_difference_without_carry_merges``;
* ``artin.root_tail`` with no residual: acceptance C04, which solves a
  constant b;
* ``artin.sigma_sample``'s ``dependent_evidence`` verdict: ROADMAP item 5
  (``test_artin.py``'s ``test_sigma_gap_below_zero_is_dependent_evidence``);
* ``artin.certify``'s Kummer classes other than super-dependent: the
  forged enclosures of ``test_kummer.py``, and ROADMAP item 10.
"""

import ast
import contextlib
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "defectlab"

# Definitions that stay although no program enters them, with the reason.
_HASHES_AS_IT_COMPARES = (
    "a value type hashes as it compares, so that equal values are one set "
    "member or dict key (tests/test_value_types.py)"
)
_TRACED_OP = (
    "perfbench/tracer.py counts ExtRat operators by wrapping "
    "ExtRat.__dict__[name] for each name in its EXTRAT_OPS; without this "
    "entry --trace 1 cannot install"
)
ALLOWED = {
    "approx.TailSchema.__hash__": _HASHES_AS_IT_COMPARES,
    "cuts.Cut.__hash__": _HASHES_AS_IT_COMPARES,
    "cuts.CutEnclosure.__hash__": _HASHES_AS_IT_COMPARES,
    "cuts.Cut.__ge__": (
        "a cut is totally ordered and defines all four comparisons, as "
        "ExtRat does (tests/test_cuts.py)"
    ),
    "cuts.ExtRat.__repr__": "the form a value takes in an assertion message or at a prompt",
    "cuts.ExtRat.__hash__": _HASHES_AS_IT_COMPARES,
    "cuts.ExtRat.__neg__": _TRACED_OP,
    "cuts.ExtRat.__sub__": _TRACED_OP,
    "cuts.ExtRat.__rsub__": _TRACED_OP,
}


def _definitions(tree):
    """(qualified name, name, first lines) of each top-level function and
    of each method of a top-level class.  A code object's
    ``co_firstlineno`` is the line of the first decorator on some
    interpreters and of ``def`` on others, so both count as first lines."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def firsts(node):
        return {node.lineno} | {d.lineno for d in node.decorator_list[:1]}

    for node in tree.body:
        if isinstance(node, funcs):
            yield node.name, node.name, firsts(node)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, funcs):
                    yield f"{node.name}.{sub.name}", sub.name, firsts(sub)


@functools.cache
def _functions():
    """module.qualified name -> (module, name, first lines) of each
    function and method of the package."""
    return {
        f"{path.stem}.{qual}": (path.stem, name, lines)
        for path in sorted(PACKAGE.glob("*.py"))
        for qual, name, lines in _definitions(ast.parse(path.read_text(), str(path)))
    }


def _program_runs(tmp):
    """The argument lists of the ``cli.main`` runs, in order; the golden
    jobs write their files under ``tmp``."""
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    for i, job in enumerate(sorted(golden["jobs"])):
        out = os.path.join(tmp, f"{i}.json")
        yield job.split() + ["--out", out]
        yield ["verify", out]
    for name in sorted(golden["corpus"]):
        yield ["verify", str(ROOT / "perfbench" / "corpus" / name)]
    from defectlab.fields import PRESET_NAMES

    for command in ("field", "distance", "semitame", "asfamily", "kummerfamily", "sigma"):
        for base in PRESET_NAMES:
            for p in ("2", "3"):
                argv = [command, "--base", base, "--p", p]
                if command != "field":
                    argv += ["--budget", "2"]
                if command in ("asfamily", "kummerfamily"):
                    argv += ["--n", "1"]
                yield argv
    yield ["field", "--base", "fp_t", "--p", "2", "--q", "16"]


SCRIPT_RUNS = (
    ("family_survey.py", ["--budget", "2", "--n", "2"]),
    ("family_survey.py", ["--p", "3", "--budget", "2", "--n", "3"]),
    ("mixed_demo.py", []),
)


def _trace_programs():
    """Run every program under the trace and print the entered package
    functions as JSON [module, first line, name] triples."""
    import runpy
    import tempfile

    sys.path.insert(0, str(ROOT / "src"))
    codes = {}

    def trace(frame, event, arg):
        codes[id(frame.f_code)] = frame.f_code  # no local trace: entries only

    sys.settrace(trace)
    from defectlab.cli import main

    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
        for argv in _program_runs(tmp):
            main(argv)
        for script, args in SCRIPT_RUNS:
            sys.argv = [script] + args
            runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    sys.settrace(None)
    prefix = str(PACKAGE) + os.sep
    entered = sorted(
        {(Path(c.co_filename).stem, c.co_firstlineno, c.co_name)
         for c in codes.values() if c.co_filename.startswith(prefix)}
    )
    print(json.dumps(entered))


@functools.cache
def never_entered():
    """Module.qualified names of the package functions no program enters,
    sorted; the programs run once per test session, in a fresh interpreter."""
    run = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, cwd=ROOT, timeout=600
    )
    assert run.returncode == 0, run.stderr
    entered = {tuple(e) for e in json.loads(run.stdout)}
    return sorted(
        qual for qual, (module, name, lines) in _functions().items()
        if not any((module, line, name) in entered for line in lines)
    )


def test_every_definition_is_reached_from_program_code():
    missing = [q for q in never_entered() if q not in ALLOWED]
    assert not missing, f"no program enters {len(missing)} definition(s): {missing}"


def test_exemptions_name_existing_definitions():
    # an entry names a definition that exists, that no program enters, and why
    stale = [q for q in ALLOWED if q not in _functions() or q not in never_entered()]
    assert not stale, f"allowed but entered or gone: {stale}"
    assert all(isinstance(r, str) and r for r in ALLOWED.values())


def test_scripts_run_as_processes():
    # each script as a user runs it, from the checkout root in a process of
    # its own; a count below 1 is refused by the parser (exit 2) before any work
    runs = [(script, args, 0) for script, args in SCRIPT_RUNS] + [
        ("family_survey.py", ["--budget", "0"], 2),
        ("mixed_demo.py", ["--n", "0"], 2),
    ]
    env = dict(os.environ, PYTHONPATH="src")
    for script, args, rc in runs:
        proc = subprocess.run(
            [sys.executable, str(Path("scripts", script)), *args],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=120,
        )
        assert proc.returncode == rc, (script, args, proc.stderr)
        if rc:
            assert "must be at least 1, got 0" in proc.stderr, (script, args, proc.stderr)


def test_package_binds_only_its_submodules():
    # names are imported from the module that defines them: ``import
    # defectlab`` registers every module but cli and __main__, binds its
    # name and re-exports nothing, so a new module is registered, and so
    # traced by perfbench/tracer.py, with no further edit.  A fresh
    # interpreter, since importing defectlab.cli binds cli too
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, defectlab; print(json.dumps({n: m is sys.modules.get('defectlab.' + n)"
         " for n, m in vars(defectlab).items() if not n.startswith('__')}))"],
        capture_output=True, text=True, cwd=PACKAGE.parent, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    bound = json.loads(proc.stdout)
    assert sorted(bound) == sorted(
        {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__", "cli"})
    strays = sorted(name for name, registered in bound.items() if not registered)
    assert not strays, strays
    import defectlab

    assert isinstance(defectlab.__version__, str)


# siblings that some process running an importer of theirs never calls:
# every module binds them as modules and reaches their names by attribute
_BOUND_AS_MODULES = ("artin", "certfile", "certread", "kummer", "teichmueller")
# the siblings every command runs, and so the only ones cli imports names from
_CLI_NAMES_FROM = ("fields", "series")


def test_names_are_imported_only_from_siblings_that_always_run():
    # a module imports names only from siblings that run whenever it runs,
    # so that a process runs no module its command does not call
    # (tests/test_cli.py pins the modules each command runs)
    found = [
        f"{path.stem}: from .{node.module} import ..."
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        and (node.module in _BOUND_AS_MODULES
             or path.stem == "cli" and node.module not in _CLI_NAMES_FROM)
    ]
    assert not found, found


def test_only_certfile_spells_the_file():
    # schema v1 is written in certfile.py and read in certread.py alone;
    # the value types carry no JSON
    def spells(name):
        return name.endswith(("to_json", "from_json")) or name in ("parse", "parse_ratio")

    found = [
        f"{path.name}: {qual}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in ("certfile.py", "certread.py")
        for qual, name, _ in _definitions(ast.parse(path.read_text()))
        if spells(name)
    ]
    assert not found, found


def _literal(path, name):
    """The value of the literal assigned to ``name`` at the top of ``path``;
    a dict's values that are no literal are read as None."""
    for node in ast.parse((ROOT / path).read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            if isinstance(node.value, ast.Dict):
                return {ast.literal_eval(k): None for k in node.value.keys}
            return ast.literal_eval(node.value)
    raise LookupError(f"{path} assigns no {name}")


# the module functions perfbench/tracer.py wraps by name, which it finds
# only where they are defined: a function moved, renamed or bound from
# elsewhere leaves its benchmark row at 0 with no error
_TRACED = sorted({
    *_literal("perfbench/layers.py", "ENTRY_POINTS"),
    *_literal("perfbench/tracer.py", "POST_HOOKS"),
    "certfile.write_certificate_file", "cli.main", "cli.build_parser",
})
_MOVED = pytest.mark.xfail(strict=True, reason=(
    "the search moved to approx; perfbench/layers.py still traces it in artin, so its "
    "rows read 0 until the benchmark follows (ROADMAP items 11 and 18)"))


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=_MOVED) if n == "artin.imperfection_witness" else n for n in _TRACED])
def test_each_traced_name_is_defined_where_the_benchmark_looks(name):
    module, attr = name.split(".")
    obj = getattr(importlib.import_module(f"defectlab.{module}"), attr, None)
    assert callable(obj) and not isinstance(obj, type), f"{name} is no function"
    assert obj.__module__ == f"defectlab.{module}", f"{name} is defined in {obj.__module__}"


if __name__ == "__main__":
    _trace_programs()
