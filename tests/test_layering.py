"""Import layering of the package: every import sits at module level,
and ``groups`` (finite groups and groupoids) sits below ``cstarcat``,
which builds the groupoid C*-categories from it.  Every public error
class has a raise site, so a dead one cannot stay in ``errors``, and
every public name has a caller in the package or the benchmark, so a
name only tests use cannot stay in an ``__all__``.  The ``_`` parameters
of public functions stay on an allowlist that can only shrink."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spectroid"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public names with no caller yet: the functoriality suite of ROADMAP
# item 9 is to use them, and item 10 deletes whichever it does not.
AWAITING_CALLER = {
    "identity_functor", "compose_functors", "identity_morphism", "compression_functor",
}


# Private switches of public functions: each lets one caller in the
# package hand over what it has already proven or checked.  The list
# only shrinks.
PRIVATE_SWITCHES = {
    "check_axioms._certified", "validate_functor._certified",
    "sections_with_gauge._valid", "evaluation._valid",
}


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


def _read_names(tree) -> set:
    """Names a module reads, however spelled: ``x``, ``m.x``,
    ``obj.x``.  Definitions, imports and the strings of ``__all__`` do
    not count."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
    return found


def _exported(path) -> list:
    """A module's ``__all__``, read from its source (empty without one)."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_every_error_class_has_a_raise_site():
    raised = set().union(
        *(_raised_names(ast.parse(path.read_text())) for path in SRC.glob("*.py"))
    )
    errors = _exported(SRC / "errors.py")
    dead = [n for n in errors if n != "SpectroidError" and n not in raised]
    assert errors and not dead, f"error classes nothing raises: {dead}"


def test_every_public_name_has_a_caller():
    programs = [
        path for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]
        if not path.name.startswith("test_")
    ]
    read = set().union(*(_read_names(ast.parse(p.read_text())) for p in programs))
    public = {
        f"{path.stem}.{name}": name
        for path in sorted(SRC.glob("*.py")) for name in _exported(path)
    }
    unused = [key for key, name in public.items() if name not in read | AWAITING_CALLER]
    assert not unused, f"public names only tests use: {unused}"
    # the allowlist shrinks as its names find callers
    assert not AWAITING_CALLER & read, AWAITING_CALLER & read
    assert AWAITING_CALLER <= set(public.values())


def _private_parameters(tree, exported) -> set:
    """``function._parameter`` for every ``_``-prefixed parameter of a
    module-level function named in ``exported``."""
    found = set()
    for fn in tree.body:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        for arg in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]:
            if fn.name in exported and arg is not None and arg.arg.startswith("_"):
                found.add(f"{fn.name}.{arg.arg}")
    return found


def test_private_switches_stay_on_their_allowlist():
    found = set().union(*(
        _private_parameters(ast.parse(path.read_text()), _exported(path))
        for path in SRC.glob("*.py")
    ))
    # no new switch, and every listed one still exists
    assert found <= PRIVATE_SWITCHES, f"new switches: {found - PRIVATE_SWITCHES}"
    assert PRIVATE_SWITCHES <= found, f"gone, unlist them: {PRIVATE_SWITCHES - found}"


def test_no_module_imports_inside_a_function():
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _function_imports(ast.parse(path.read_text()))
    ]
    assert not found, f"function-level import at {found}"


@pytest.mark.parametrize(
    "module, banned", [("groups", "cstarcat"), ("funcalc", "duality")]
)
def test_module_imports_nothing_from(module, banned):
    # groups builds tables without categories; funcalc reads f[x] off
    # its element's closure, not off a spectrum of a corner
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert banned not in _package_imports(tree)


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


@pytest.mark.parametrize(
    "text, names",
    [
        ("y = f(x)", {"f", "x"}),
        ("du.spectrum(c)", {"du", "spectrum", "c"}),
        ("def spectrum(c):\n    return c", {"c"}),
        ("from .numkit import hs_member", set()),
        ("__all__ = ['spectrum']", set()),
        ("spec.ranks = r", {"spec", "r"}),
    ],
)
def test_read_name_scan(text, names):
    assert _read_names(ast.parse(text)) == names


@pytest.mark.parametrize(
    "text, found",
    [
        ("def f(x, *, _skip=None):\n    pass", {"f._skip"}),
        ("def f(_a, /, _b, *_c, _d=1, **_e):\n    pass", {f"f._{n}" for n in "abcde"}),
        ("async def f(_x):\n    pass", {"f._x"}),
        ("def g(_x):\n    pass", set()),
        ("class f:\n    def m(self, _x):\n        pass", set()),
        ("def f():\n    def h(_x):\n        pass", set()),
    ],
)
def test_private_parameter_scan(text, found):
    assert _private_parameters(ast.parse(text), {"f"}) == found
