"""Every definition in the package is reached from program code.

The scan parses ``src/defectlab/*.py`` and ``scripts/*.py`` with ``ast``
and asks, for each top-level function and class of the package and each
method, whether its name is referenced (as a name or an attribute) in
that program code outside the definition itself.  The re-exports in
``__init__.py`` and the tests do not count: a helper that only tests call
belongs in the tests.  A reference made inside a definition that is
itself unreferenced does not count either, so a dead helper cannot keep
the helpers it calls alive.

Dunder methods are called by the language (operators, dataclass hooks),
not by name, and are not checked.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "defectlab"

# Definitions that are reached in a way the scan cannot see, with the reason.
EXEMPT_PREFIXES = {
    "cmd_": "cli.main dispatches to cmd_<command> through globals()",
}
EXEMPT = {
    "as_generator_transform": (
        "the generator change theta -> i*theta + c, under which dist(theta, K) "
        "is invariant; no program changes a generator, only the tests call "
        "it, to check the value set across the orbit and to forge a family "
        "member that the distinctness check must refuse"
    ),
}


def _program_files():
    package = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    return package + sorted((ROOT / "scripts").glob("*.py"))


def _definitions(tree):
    """(qualified name, name, first line, last line) of each top-level
    function and class and of each method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs + (ast.ClassDef,)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, funcs):
                    yield f"{node.name}.{sub.name}", sub.name, sub.lineno, sub.end_lineno


def _checked(name):
    if name.startswith("__") and name.endswith("__"):
        return False
    return name not in EXEMPT and not any(name.startswith(p) for p in EXEMPT_PREFIXES)


def unreached():
    """Qualified names of the checked definitions that no program code
    reaches, sorted."""
    defs = []  # (path, qualified name, name, first line, last line)
    refs = defaultdict(list)  # name -> [(path, line)]
    for path in _program_files():
        tree = ast.parse(path.read_text(), str(path))
        if path.parent == PACKAGE:
            defs += [(path, *d) for d in _definitions(tree) if _checked(d[1])]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((path, node.lineno))

    def inside(path, line, spans):
        return any(p == path and lo <= line <= hi for p, lo, hi in spans)

    dead = set()
    while True:
        dead_spans = [(p, lo, hi) for p, q, _, lo, hi in defs if q in dead]
        found = {
            q
            for path, q, name, lo, hi in defs
            if not any(
                not (rp == path and lo <= line <= hi) and not inside(rp, line, dead_spans)
                for rp, line in refs[name]
            )
        }
        if found == dead:
            return sorted(dead)
        dead = found


def test_every_definition_is_reached_from_program_code():
    missing = unreached()
    assert not missing, f"only tests reach {len(missing)} definition(s): {missing}"


def test_exemptions_name_existing_definitions():
    names = set()
    for path in _program_files():
        if path.parent == PACKAGE:
            names |= {d[1] for d in _definitions(ast.parse(path.read_text()))}
    for name in EXEMPT:
        assert name in names, name
    for prefix in EXEMPT_PREFIXES:
        assert any(n.startswith(prefix) for n in names), prefix


def test_only_certfile_spells_the_file():
    # schema v1 is written and read in certfile.py alone; the value types
    # carry no JSON
    def spells(name):
        return name.endswith(("to_json", "from_json")) or name in ("parse", "parse_ratio")

    found = [
        f"{path.name}: {qual}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "certfile.py"
        for qual, name, _, _ in _definitions(ast.parse(path.read_text()))
        if spells(name)
    ]
    assert not found, found
