"""The tolerance model: every numeric check is one NaN-safe fold against
a named bound (``Report.check``), and no bare factor multiplies ``tol``
in the package source.  Two more scans keep the label-keyed view of the
structure constants out of the package's computations, and label-keyed
dicts of fiber scalars out of the package altogether."""

import ast
from pathlib import Path

import numpy as np
import pytest

from spectroid.reporting import Check, Report, worst

SRC = Path(__file__).resolve().parents[1] / "src" / "spectroid"


def _mentions_tol(node) -> bool:
    """``tol`` (or a ``*_tol`` name) itself, or a product containing it."""
    if isinstance(node, ast.Name):
        return node.id == "tol" or node.id.endswith("_tol")
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and (_mentions_tol(node.left) or _mentions_tol(node.right))
    )


def _is_number(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _literal_tol_factors(tree) -> list:
    """Line numbers of the products of a numeric literal and ``tol``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if any(_is_number(a) and _mentions_tol(b) for a, b in (sides, sides[::-1])):
                lines.append(node.lineno)
    return lines


def test_no_numeric_literal_multiplies_tol():
    # every factor of tol is a named, documented constant in config
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _literal_tol_factors(ast.parse(path.read_text()))
    ]
    assert not found, f"numeric literal times tol at {found}"


@pytest.mark.parametrize(
    "text, flagged",
    [
        ("x = tol * 10", True),
        ("x = 100 * tol", True),
        ("x = tol * s * 1e3", True),
        ("x = cluster_tol * 2", True),
        ("x = SLACK * tol * (1 + s)", False),
        ("x = 2 * np.pi * k", False),
    ],
)
def test_scan_flags_literal_factors_only(text, flagged):
    assert bool(_literal_tol_factors(ast.parse(text))) == flagged


def _in_lam_property(tree) -> set:
    """Ids of the nodes in the body of the ``SpaceoidData.lam``
    property, the one place that builds a label-keyed table."""
    return {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "SpaceoidData"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "lam"
        for node in ast.walk(fn)
    }


def _label_reads(tree) -> list:
    """Line numbers of ``.lam`` reads and ``lam_at`` uses outside the
    body of the ``SpaceoidData.lam`` property."""
    inside = _in_lam_property(tree)
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            isinstance(node, ast.Attribute) and node.attr in ("lam", "lam_at")
            or isinstance(node, ast.Name) and node.id == "lam_at"
        )
    ]


def test_no_computation_reads_the_labeled_table():
    # structure constants are read as the dense table; the label-keyed
    # view is for readers outside the package
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _label_reads(ast.parse(path.read_text()))
    ]
    assert not found, f"labeled structure constants read at {found}"


@pytest.mark.parametrize(
    "text, flagged",
    [
        ("x = e.lam[k]", True),
        ("x = max(e.lam.values())", True),
        ("x = e.lam_at(p, a, b, c)", True),
        ("x = lam_at(p, a, b, c)", True),
        ("lam = e.table\nx = lam[0]", False),
        ("class SpaceoidData:\n    @property\n    def lam(self):\n"
         "        return self.table.lam", False),
        ("class Other:\n    @property\n    def lam(self):\n"
         "        return self.table.lam", True),
    ],
)
def test_label_scan_flags_lam_reads_only(text, flagged):
    assert bool(_label_reads(ast.parse(text))) == flagged


def _is_product(node, products) -> bool:
    """``itertools.product(...)``, ``product(...)``, or a name bound to
    one of them."""
    if isinstance(node, ast.Name):
        return node.id in products
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (
        isinstance(func, ast.Attribute) and func.attr == "product"
        or isinstance(func, ast.Name) and func.id == "product"
    )


def _label_keyed_dicts(tree) -> list:
    """Line numbers of ``dict(zip(<product of labels>, ...))`` outside
    the ``SpaceoidData.lam`` property, the product given directly or
    through a name assigned from it."""
    inside = _in_lam_property(tree)
    products = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and id(node) not in inside
        and _is_product(node.value, ())
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "dict"
        and node.args
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "zip"
        and node.args[0].args
        and _is_product(node.args[0].args[0], products)
    ]


def test_no_module_builds_label_keyed_fiber_dicts():
    # fiber scalars, like structure constants, stay dense arrays in the
    # package; only SpaceoidData.lam builds a label-keyed view
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in _label_keyed_dicts(ast.parse(path.read_text()))
    ]
    assert not found, f"label-keyed dict built at {found}"


@pytest.mark.parametrize(
    "text, flagged",
    [
        ("s = dict(zip(itertools.product(p, o, o), v))", True),
        ("s = dict(zip(product(p, o, o), v.tolist()))", True),
        ("keys = itertools.product(p, o, o)\ns = dict(zip(keys, v))", True),
        ("f = dict(zip(points, images))", False),
        ("keys = itertools.product(p, o)\nrows = sorted(zip(keys, v))", False),
        ("class SpaceoidData:\n    @property\n    def lam(self):\n"
         "        keys = itertools.product(p, o)\n"
         "        return dict(zip(keys, v))", False),
    ],
)
def test_fiber_dict_scan_flags_label_keyed_dicts_only(text, flagged):
    assert bool(_label_keyed_dicts(ast.parse(text))) == flagged


@pytest.mark.parametrize("where", [0, 1, 2])
def test_check_counts_nan_as_infinite_wherever_it_sits(where):
    devs = np.array([1e-12, 2e-12, 3e-12])
    devs[where] = np.nan
    rep = Report()
    rep.check("c", devs, 1.0, lambda i: f"entry {i}")
    (check,) = rep.checks
    assert not check.passed
    assert check.residual == np.inf and check.bound == 1.0
    assert check.detail == f"entry {where}"


def test_check_verdict_is_residual_within_bound():
    rep = Report()
    rep.check("at", [0.5, 1.0], 1.0)
    rep.check("over", np.array([[0.0, 1.5]]), 1.0, lambda i, j: f"({i},{j})")
    rep.check("empty", [], 1e-9)
    at, over, empty = rep.checks
    assert at.passed and at.residual == 1.0 and at.detail == ""
    assert not over.passed and over.residual == 1.5 and over.detail == "(0,1)"
    assert empty.passed and empty.residual == 0.0
    assert "bound=1.000e+00" in rep.summary()


@pytest.mark.parametrize("first", [True, False])
def test_worst_residual_counts_nan_wherever_it_sits(first):
    # a case that raised is recorded with a NaN residual
    rep = Report()
    rows = [("raised", False, float("nan")), ("fine", True, 1e-12)]
    for name, passed, residual in rows if first else rows[::-1]:
        rep.add(name, passed, residual)
    assert rep.worst_residual == np.inf


@pytest.mark.parametrize(
    "devs, expected",
    [
        ([np.inf, np.nan], (np.inf, 0)),
        ([1.0, np.nan, np.inf], (np.inf, 1)),
        ([2.0, np.inf, 1.0, np.nan], (np.inf, 1)),
        ([np.nan, np.nan], (np.inf, 0)),
        ([], (0.0, -1)),
        ([0.0, 0.0], (0.0, -1)),
        ([-1.0, -0.5], (0.0, -1)),
        ([-1.0, 3.0, 3.0], (3.0, 1)),
        ([[0.0, 2.0], [np.nan, 2.0]], (np.inf, 2)),
    ],
)
def test_worst_returns_the_first_worst_entry(devs, expected):
    # a NaN counts as +inf, and the first entry that attains it wins
    value, index = worst(np.array(devs, dtype=float))
    assert (value, index) == expected and type(value) is float


def _mixed_report():
    rep = Report()
    rep.add("yes-no", False, 2.5, "why")
    rep.check("numeric", [1e-12, 3e-12], 1e-9, lambda i: f"entry {i}")
    rep.add("plain", True)
    return rep


def test_extend_keeps_every_field_and_the_order():
    rep = Report()
    rep.add("first", True)
    rep.extend(_mixed_report(), "sub-")
    rep.extend(Report(), "empty-")
    assert [tuple(c) for c in rep.checks] == [
        ("first", True, 0.0, "", None),
        ("sub-yes-no", False, 2.5, "why", None),
        ("sub-numeric", True, 3e-12, "entry 1", 1e-9),
        ("sub-plain", True, 0.0, "", None),
    ]
    assert all(type(c) is Check for c in rep.checks)
    assert not rep.passed and rep.worst_residual == 2.5


def test_check_fields_cannot_be_assigned():
    check = _mixed_report().checks[0]
    with pytest.raises(AttributeError):
        check.passed = True
    assert not check.passed


def test_check_to_json():
    assert [c.to_json() for c in _mixed_report().checks] == [
        {"name": "yes-no", "passed": False, "residual": 2.5, "detail": "why"},
        {"name": "numeric", "passed": True, "residual": 3e-12, "bound": 1e-9,
         "detail": "entry 1"},
        {"name": "plain", "passed": True, "residual": 0.0},
    ]
