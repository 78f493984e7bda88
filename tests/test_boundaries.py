"""Module boundaries of the package: no module reads a private name of another."""

import ast
from pathlib import Path

import nleig

PACKAGE = Path(nleig.__file__).resolve().parent


def _private_imports(path: Path) -> list[str]:
    """The underscore names that one module of the package imports from a sibling."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("nleig"):
            continue  # the stdlib or a third-party package
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {'.' * node.level}{node.module or ''}")
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    offenders = [line for path in modules for line in _private_imports(path)]
    assert offenders == []


def test_the_scan_sees_a_private_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .solver import _LAMBDA_TOL, minimize\nfrom nleig.core import _x\nfrom os import _exit\n")
    assert _private_imports(path) == [
        "mod.py:1 imports _LAMBDA_TOL from .solver",
        "mod.py:2 imports _x from nleig.core",
    ]
