"""Import layering of the package: every import sits at module level,
and ``groups`` (finite groups and groupoids) sits below ``cstarcat``,
which builds the groupoid C*-categories from it.  Every public error
class has a raise site, so a dead one cannot stay in ``errors``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spectroid"


def _function_imports(tree) -> list:
    """Line numbers of the imports inside a function body."""
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def _package_imports(tree) -> set:
    """Names of the package modules a module imports, however spelled:
    ``from .m import x``, ``from . import m``, ``from spectroid.m import
    x``, ``import spectroid.m``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "spectroid":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "spectroid" and len(parts) > 1:
                    found.add(parts[1])
    return found


def _raised_names(tree) -> set:
    """Names of the exceptions a module raises, however spelled:
    ``raise X``, ``raise X(...)``, ``raise errors.X(...)``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def _public_errors() -> list:
    """``errors.__all__``, read from the module's source."""
    tree = ast.parse((SRC / "errors.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("errors.py has no __all__")


def test_every_error_class_has_a_raise_site():
    raised = set().union(
        *(_raised_names(ast.parse(path.read_text())) for path in SRC.glob("*.py"))
    )
    dead = [n for n in _public_errors() if n != "SpectroidError" and n not in raised]
    assert not dead, f"error classes nothing raises: {dead}"


def test_no_module_imports_inside_a_function():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _function_imports(ast.parse(path.read_text()))
    ]
    assert not found, f"function-level import at {found}"


def test_groups_imports_nothing_from_cstarcat():
    tree = ast.parse((SRC / "groups.py").read_text())
    assert "cstarcat" not in _package_imports(tree)


@pytest.mark.parametrize(
    "text, lines",
    [
        ("import numpy as np\nfrom .reporting import Report", []),
        ("def f():\n    from .cstarcat import X\n    return X", [2]),
        ("class C:\n    def m(self):\n        import json", [3]),
        ("async def f():\n    import json", [2]),
        ("def f():\n    def g():\n        import json", [3]),
        ("try:\n    import scipy\nexcept ImportError:\n    scipy = None", []),
    ],
)
def test_function_import_scan(text, lines):
    assert _function_imports(ast.parse(text)) == lines


@pytest.mark.parametrize(
    "text, modules",
    [
        ("from .cstarcat import FiniteGroupoid", {"cstarcat"}),
        ("from . import cstarcat as cc, serial", {"cstarcat", "serial"}),
        ("from spectroid.cstarcat import close", {"cstarcat"}),
        ("from spectroid import cstarcat", {"cstarcat"}),
        ("import spectroid.cstarcat", {"cstarcat"}),
        ("import numpy as np\nfrom dataclasses import dataclass", set()),
        ("from .reporting import Report", {"reporting"}),
    ],
)
def test_package_import_scan(text, modules):
    assert _package_imports(ast.parse(text)) == modules


@pytest.mark.parametrize(
    "text, names",
    [
        ("raise NotFull('x')", {"NotFull"}),
        ("raise errors.NotFull('x')", {"NotFull"}),
        ("try:\n    pass\nexcept ValueError:\n    raise", set()),
        ("raise NotCommutative('x') from exc", {"NotCommutative"}),
        ("def f():\n    raise AmbiguousMatching", {"AmbiguousMatching"}),
        ("x = NotUnital('x')", set()),
    ],
)
def test_raise_scan(text, names):
    assert _raised_names(ast.parse(text)) == names
