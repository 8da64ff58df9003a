"""The runtime imports nothing beyond the standard library."""

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
