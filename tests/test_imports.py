"""The runtime imports nothing beyond the standard library, and each
module imports only the layers beneath it."""

import ast
import sys
from pathlib import Path

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
