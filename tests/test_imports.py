"""The runtime imports nothing beyond the standard library, and each
module imports only the layers beneath it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quintic_garnier"


def test_runtime_imports_only_the_standard_library():
    """Every absolute import of a package module, at top level or inside a
    function, names a standard-library module or the package itself."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"ring.py", "braids.py", "cli.py"} <= {p.name for p in paths}
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "quintic_garnier" and top not in sys.stdlib_module_names:
                    outside.append((path.name, node.lineno, name))
    assert outside == []


# each module and the layers directly beneath it, as the package docstring
# lists them: ring <- fractions <- forms <- connections <- garnier and
# ring <- sl2 <- reps <- families, traces <- braids, with cli on top of both
BENEATH = {
    "ring": (), "fractions": ("ring",), "forms": ("fractions",),
    "connections": ("forms",), "garnier": ("connections",),
    "sl2": ("ring",), "reps": ("sl2",), "families": ("reps",),
    "traces": ("reps",), "braids": ("families", "traces"),
    "cli": ("garnier", "braids"),
}


def below(name):
    """Every layer beneath ``name``."""
    out = set()
    for lower in BENEATH[name]:
        out |= {lower} | below(lower)
    return out


def package_imports(path):
    """The package modules ``path`` imports from, each with the names it
    takes (empty for a module imported whole)."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                package, _, module = module.partition(".")
                if package != "quintic_garnier":
                    continue
            if module:
                out.setdefault(module, set()).update(a.name for a in node.names)
            else:
                out.update((a.name, set()) for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "quintic_garnier" and module:
                    out.setdefault(module.partition(".")[0], set())
    return out


def test_modules_import_only_the_layers_beneath_them():
    paths = {p.stem: p for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert set(paths) == set(BENEATH)
    above = {name: sorted(set(package_imports(path)) - below(name))
             for name, path in paths.items()}
    assert above == {name: [] for name in paths}
    # garnier restricts the connection its caller passes and builds none
    assert package_imports(paths["garnier"])["connections"] == {"MatConnection"}



def test_no_module_takes_a_private_name_from_another():
    paths = sorted(PACKAGE.glob("*.py"))
    private = {path.stem: sorted(name for names in package_imports(path).values()
                                 for name in names if name.startswith("_"))
               for path in paths}
    assert private == {path.stem: [] for path in paths}


def test_only_ring_writes_the_stored_form():
    """Only ``ring``, the owner of the stored form of a term dict, builds a
    value from a dict it vouches for with ``_normalized=``; every other
    module sums terms through its accumulator."""
    paths = sorted(PACKAGE.glob("*.py"))
    vouching = [path.name for path in paths
                if any(isinstance(node, ast.keyword) and node.arg == "_normalized"
                       for node in ast.walk(ast.parse(path.read_text(), str(path))))]
    assert vouching == ["ring.py"]


def readers_of_terms(tree, scope=()):
    """The dotted name of each class or function, outermost first, that
    reads an attribute ``terms`` in its own body, once per read."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            out += readers_of_terms(node, scope + (node.name,))
        else:
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                out.append(".".join(scope) or "<module>")
            out += readers_of_terms(node, scope)
    return out


def test_only_ring_reads_the_stored_form():
    """Outside ``ring``, the owner of a term dict, only the fraction
    substitution kernel reads ``.terms``: every other module asks the value."""
    readers = {path.name: sorted(set(readers_of_terms(ast.parse(path.read_text()))))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "ring.py"}
    assert {name: found for name, found in readers.items() if found} == {
        "fractions.py": ["Substitution.poly"]}


# the modules only the verification suites read
CONNECTION_STACK = ("connections", "forms", "fractions", "garnier")


def fresh(code):
    """Standard output of ``code`` run in a fresh interpreter on the sources."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONWARNINGS="error")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def loaded_by(*argv):
    """The exit code of one ``quintic-garnier`` command run in a fresh
    interpreter, and the package modules it loaded."""
    code = ("import contextlib, io, sys\n"
            "from quintic_garnier.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main({list(argv)!r})\n"
            "print(rc, *sorted(m.partition('.')[2] for m in sys.modules\n"
            "                  if m.startswith('quintic_garnier.')))\n")
    rc, *modules = fresh(code).split()
    return int(rc), set(modules)


def test_importing_the_package_loads_no_module():
    assert fresh("import sys, quintic_garnier\n"
                 "print([m for m in sys.modules if m.startswith('quintic_garnier.')])\n"
                 ) == "[]\n"


def test_orbit_and_compare_load_no_connection_stack(tmp_path):
    """``orbit`` (symbolic, at a point, written to a file) and ``compare``
    (with a substitution) close orbits without loading the connection
    stack; ``verify all`` loads all of it."""
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for argv in (["orbit", "rho2", "--extended", "--out", a],
                 ["orbit", "rho3", "--pure", "--out", b],
                 ["orbit", "rho1", "--pure", "--at", "u=3/2,v=-7"],
                 ["compare", a, b, "--subst", "u=-s,v=s"]):
        rc, modules = loaded_by(*argv)
        assert rc == 0 and "braids" in modules
        assert modules.isdisjoint(CONNECTION_STACK), argv
    rc, modules = loaded_by("verify", "all")
    assert rc == 0 and set(CONNECTION_STACK) <= modules


def test_every_exported_name_resolves_to_its_module():
    """Each name of ``__all__``, read through ``getattr`` or taken by
    ``import *`` in a fresh interpreter, is the object its module defines
    and is kept in the package namespace, and each submodule name is the
    submodule; ``dir`` lists them all."""
    code = (
        "import importlib, sys, quintic_garnier as q\n"
        "star = {}\n"
        "exec('from quintic_garnier import *', star)\n"
        "bad = []\n"
        "for name in q.__all__:\n"
        "    home = 'quintic_garnier.' + q._HOME[name]\n"
        "    value = getattr(importlib.import_module(home), name)\n"
        "    if not (getattr(q, name) is value is star[name] is vars(q)[name]\n"
        "            and getattr(value, '__module__', home) == home):\n"
        "        bad.append(name)\n"
        "for name in q._SUBMODULES:\n"
        "    if getattr(q, name) is not sys.modules['quintic_garnier.' + name]:\n"
        "        bad.append(name)\n"
        "missing = {*q.__all__, *q._SUBMODULES} - set(dir(q))\n"
        "print(len(q.__all__), len(q._SUBMODULES), bad, sorted(missing))\n")
    assert fresh(code) == "52 11 [] []\n"


def test_unknown_attributes_are_refused():
    import quintic_garnier

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quintic_garnier.no_such_name
    with pytest.raises(ImportError):
        from quintic_garnier import no_such_name  # noqa: F401
    assert not hasattr(quintic_garnier, "__wrapped__")


def test_importing_connections_differentiates_nothing():
    """The residue charts at infinity build their maps, whose differentials
    take four derivatives each, on first read, not at import."""
    code = ("from quintic_garnier.fractions import FactoredFraction\n"
            "calls, derivative = [], FactoredFraction.derivative\n"
            "FactoredFraction.derivative = lambda *a: calls.append(a) or derivative(*a)\n"
            "from quintic_garnier import connections, garnier\n"
            "print(len(calls))\n"
            "for table in (connections.QUINTIC2_DIVISORS, connections.CASE1_DIVISORS):\n"
            "    assert table['infinity'].chart is table['infinity'].chart\n"
            "print(len(calls))\n")
    assert fresh(code).split() == ["0", "8"]
