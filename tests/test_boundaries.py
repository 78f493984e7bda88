"""Module boundaries of the package.

No module reads a private name of another, and the two stacks stay apart:
the variational stack (``solver``, ``critical``) and the first-integral
oracles (``period``, ``branches``) import each other nothing, ``core`` is
their shared base, and only ``verify``, ``cli`` and the package's
``__init__`` (with ``__main__``) join them.
"""

import ast
from pathlib import Path

import nleig

PACKAGE = Path(nleig.__file__).resolve().parent


# the package modules each module may import from; a module absent here joins the stacks
VARIATIONAL = {"core", "solver", "critical"}
ORACLES = {"core", "period", "branches"}
ALLOWED = {"core": set(), "solver": VARIATIONAL, "critical": VARIATIONAL, "period": ORACLES, "branches": ORACLES}
JOINS = {"verify", "cli", "__init__", "__main__"}


def _imported_modules(node: ast.AST) -> list[str]:
    """The package modules an import statement names; ``import nleig`` names ``__init__``."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [parts[1] if len(parts) > 1 else "__init__" for parts in names if parts[0] == "nleig"]
    if not isinstance(node, ast.ImportFrom):
        return []
    module = node.module or ""
    if node.level == 0:
        if module == "nleig":
            return [alias.name for alias in node.names]  # from nleig import x
        return [module.split(".")[1]] if module.startswith("nleig.") else []
    return [module.split(".")[0]] if module else [alias.name for alias in node.names]


def _cross_stack_imports(path: Path) -> list[str]:
    """The imports of a package module that reach outside what ALLOWED lets it import."""
    allowed = ALLOWED.get(path.stem)
    if allowed is None:
        return []
    return [
        f"{path.name}:{node.lineno} imports from {target}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for target in _imported_modules(node)
        if target not in allowed
    ]


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


def test_the_two_stacks_import_each_other_nothing():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in modules} == set(ALLOWED) | JOINS  # a new module takes a side here
    offenders = [line for path in modules for line in _cross_stack_imports(path)]
    assert offenders == []


def test_the_layer_scan_sees_a_cross_stack_import(tmp_path):
    path = tmp_path / "critical.py"
    path.write_text(
        "import math\nfrom .branches import alpha_zero_exact\nfrom .core import check_q\n"
        "def f():\n    import nleig.period, nleig\n    from nleig import verify, solver\n    from . import branches\n"
    )
    assert _cross_stack_imports(path) == [
        "critical.py:2 imports from branches",
        "critical.py:5 imports from period",
        "critical.py:5 imports from __init__",
        "critical.py:6 imports from verify",
        "critical.py:7 imports from branches",
    ]
    path = tmp_path / "core.py"
    path.write_text("from .solver import minimize\n")
    assert _cross_stack_imports(path) == ["core.py:1 imports from solver"]
