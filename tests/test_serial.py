"""File-format round trips: parse(emit(v)) == v, byte-stable emits,
schema errors on malformed input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectroid import cstarcat, duality, groups, serial, spaceoid
from spectroid.errors import SchemaError
from spectroid.reporting import Report

from test_spaceoid import random_morphism, random_spaceoid


def rng_matrix(seed, rows, cols):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def assert_same_category(c1, c2):
    assert c1.objects == c2.objects
    assert c1.unital == c2.unital
    assert set(c1.blocks) == set(c2.blocks)
    for key in c1.blocks:
        m1, m2 = c1.blocks[key], c2.blocks[key]
        assert len(m1) == len(m2)
        for x, y in zip(m1, m2):
            assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# matrices and scalars


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_matrix_roundtrip_exact(rows, cols, seed):
    m = rng_matrix(seed, rows, cols)
    back = serial.parse("matrix", serial.emit("matrix", m))
    assert back.shape == m.shape
    assert np.array_equal(back, m)


def test_matrix_emit_is_byte_stable():
    m = rng_matrix(7, 3, 2)
    assert serial.emit("matrix", m) == serial.emit("matrix", m)
    text = serial.emit("matrix", m)
    assert serial.emit("matrix", serial.parse("matrix", text)) == text


@pytest.mark.parametrize(
    "bad",
    [
        {"rows": 1, "cols": 1},
        {"rows": 2, "cols": 1, "entries": [[[0.0, 0.0]]]},
        {"rows": 1, "cols": 1, "entries": [[[0.0]]]},
        {"rows": 1, "cols": 1, "entries": [[["x", 0.0]]]},
        {"rows": -1, "cols": 1, "entries": []},
        {"rows": 1, "cols": 2, "entries": [[[0.0, 0.0], [float("nan"), 0.0]]]},
        {"rows": 1, "cols": 1, "entries": [[[0.0, float("-inf")]]]},
        [],
    ],
)
def test_matrix_schema_errors(bad):
    with pytest.raises(SchemaError):
        serial.matrix_from_json(bad)


def test_complex_scalar_contract():
    assert serial.complex_to_json(1 - 2j) == [1.0, -2.0]
    assert serial.complex_from_json([1.0, -2.0]) == 1 - 2j
    with pytest.raises(SchemaError):
        serial.complex_from_json([1.0])
    with pytest.raises(SchemaError):
        serial.complex_from_json([True, 0.0])


def test_non_finite_scalars_rejected():
    for v in ([float("nan"), 0.0], [0.0, float("inf")]):
        with pytest.raises(SchemaError):
            serial.complex_from_json(v)
    # JSON's NaN token and an overflowing literal both decode to floats
    text = (
        '{"base_points": ["p"], "objects": ["A"], '
        '"lambda": [["p", "A", "A", "A", [%s, 0.0]]]}'
    )
    for token in ("NaN", "1e999"):
        with pytest.raises(SchemaError):
            serial.parse("spaceoid", text % token)


def test_text_loader_rejects_garbage():
    with pytest.raises(SchemaError):
        serial.load_text("{not json")


# ---------------------------------------------------------------------------
# categories


def test_category_roundtrip_linking():
    cat = cstarcat.linking_category(3, [1, 2, 0], phases=[1.0, -1.0, 1j])
    back = serial.parse("category", serial.emit("category", cat))
    assert_same_category(cat, back)


def test_category_roundtrip_groupoid():
    g = groups.connected_groupoid(2, groups.cyclic(2))
    cat = cstarcat.groupoid_category(g)
    text = serial.emit("category", cat)
    assert_same_category(cat, serial.parse("category", text))
    assert serial.emit("category", serial.parse("category", text)) == text


def test_category_decode_fills_missing_pairs():
    d = {
        "objects": [{"id": "A", "dim": 1}, {"id": "B", "dim": 2}],
        "generators": {
            "A:B": [serial.matrix_to_json(np.array([[1.0, 0.0]]))]
        },
    }
    cat = serial.category_from_json(d)
    assert cat.unital is True
    assert cat.block_dim("A", "B") == 1
    assert cat.block("B", "A") == [] and cat.block("A", "A") == []


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("objects"),
        lambda d: d["objects"].append({"id": "A", "dim": 1}),
        lambda d: d["objects"][0].update(dim=0),
        lambda d: d["generators"].update({"A:C": []}),
        lambda d: d["generators"].update({"AB": []}),
        lambda d: d.update(unital="yes"),
        lambda d: d["generators"]["A:B"].append(
            serial.matrix_to_json(np.eye(3))
        ),
    ],
)
def test_category_schema_errors(mangle):
    d = {
        "objects": [{"id": "A", "dim": 1}, {"id": "B", "dim": 2}],
        "generators": {
            "A:B": [serial.matrix_to_json(np.array([[1.0, 0.0]]))]
        },
        "unital": True,
    }
    mangle(d)
    with pytest.raises(SchemaError):
        serial.category_from_json(d)


# ---------------------------------------------------------------------------
# groupoids


@pytest.mark.parametrize(
    "g",
    [
        groups.connected_groupoid(3, groups.cyclic(2)),
        groups.connected_groupoid(1, groups.symmetric(3)),
        groups.disjoint_union(
            groups.connected_groupoid(2, groups.cyclic(1)),
            groups.connected_groupoid(1, groups.cyclic(3)),
        ),
    ],
)
def test_groupoid_roundtrip(g):
    text = serial.emit("groupoid", g)
    back = serial.parse("groupoid", text)
    assert back == g
    assert serial.emit("groupoid", back) == text
    assert cstarcat.validate_groupoid(back).passed


def test_groupoid_schema_errors():
    g = groups.connected_groupoid(2, groups.cyclic(2))
    d = serial.groupoid_to_json(g)
    d["compose"][0] = d["compose"][0][:2]
    with pytest.raises(SchemaError):
        serial.groupoid_from_json(d)
    d = serial.groupoid_to_json(g)
    d["arrows"][0]["source"] = "nowhere"
    with pytest.raises(SchemaError):
        serial.groupoid_from_json(d)
    d = serial.groupoid_to_json(g)
    del d["identities"][g.objects[0]]
    with pytest.raises(SchemaError):
        serial.groupoid_from_json(d)


# ---------------------------------------------------------------------------
# spaceoids and morphisms


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_spaceoid_roundtrip_exact(seed, n_points, n_objects):
    e, _ = random_spaceoid(seed, n_points, n_objects)
    text = serial.emit("spaceoid", e)
    back = serial.parse("spaceoid", text)
    assert back == e
    assert serial.emit("spaceoid", back) == text


def test_spaceoid_sparse_default_is_one():
    d = {"base_points": ["p0", "p1"], "objects": ["A", "B"], "lambda": []}
    e = serial.spaceoid_from_json(d)
    assert all(z == 1 for z in e.lam.values())
    # the rows that are given land where they name, the rest are 1
    d["lambda"] = [["p1", "A", "B", "A", [-1.0, 0.0]]]
    lam = serial.spaceoid_from_json(d).lam
    assert lam.pop(("p1", "A", "B", "A")) == -1
    assert all(z == 1 for z in lam.values())
    # omitted "lambda" key entirely is also the trivial table
    e2 = serial.spaceoid_from_json(
        {"base_points": ["p0"], "objects": ["A"]}
    )
    assert spaceoid.validate(e2).passed


def test_spaceoid_emit_omits_unit_entries():
    e = spaceoid.trivial_spaceoid(2, 2)
    assert serial.spaceoid_to_json(e)["lambda"] == []


def test_spaceoid_schema_errors():
    with pytest.raises(SchemaError):
        serial.spaceoid_from_json({"objects": ["A"]})
    with pytest.raises(SchemaError):
        serial.spaceoid_from_json(
            {
                "base_points": ["p"],
                "objects": ["A"],
                "lambda": [["q", "A", "A", "A", [1.0, 0.0]]],
            }
        )
    with pytest.raises(SchemaError):
        serial.spaceoid_from_json(
            {"base_points": ["p", "p"], "objects": ["A"], "lambda": []}
        )


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_morphism_roundtrip_exact(seed):
    dom, _ = random_spaceoid(seed, 3, 3)
    cod, _ = random_spaceoid(seed + 1, 3, 3)
    m = random_morphism(seed + 2, dom, cod)
    text = serial.emit("morphism", m)
    back = serial.parse("morphism", text)
    assert back == m
    assert serial.emit("morphism", back) == text
    assert spaceoid.validate_morphism(back, dom, cod).passed


def test_morphism_roundtrip_aligns_scalars_by_label():
    # a file lists f_delta in sorted key order, p0 p1 p10 p11 p2 ...,
    # not in the domain's order: the scalars follow the file's keys
    dom, _ = random_spaceoid(7, 12, 3)
    cod, _ = random_spaceoid(8, 11, 3)
    m = random_morphism(9, dom, cod)
    text = serial.emit("morphism", m)
    back = serial.parse("morphism", text)
    assert list(back.f_delta) == sorted(dom.base_points) != list(dom.base_points)
    assert back == m and serial.emit("morphism", back) == text
    assert spaceoid.morphism_distance(back, m) == 0.0
    assert spaceoid.validate_morphism(back, dom, cod, tol=1e-10).passed
    # one scalar flipped by label in the file, and validate finds it there
    d = serial.morphism_to_json(m)
    (row,) = [r for r in d["fiber_scalars"] if r[:3] == ["p10", "O1", "O1"]]
    row[3] = [-1.0, 0.0]
    rep = spaceoid.validate_morphism(serial.morphism_from_json(d), dom, cod)
    units, functoriality = rep.failures()
    assert (units.name, functoriality.name) == ("fiber-scalars-units", "functoriality")
    assert functoriality.detail.startswith("(p10,")


def _identity_rows():
    e = spaceoid.trivial_spaceoid(2, 2)
    return serial.morphism_to_json(spaceoid.identity_morphism(e))


def test_morphism_schema_errors():
    with pytest.raises(SchemaError):
        serial.morphism_from_json({"f_delta": {}, "f_r": {"A": 3}})
    with pytest.raises(SchemaError):
        serial.morphism_from_json(
            {
                "f_delta": {},
                "f_r": {},
                "fiber_scalars": [["p", "A", [1.0, 0.0]]],
            }
        )
    assert serial.morphism_from_json(_identity_rows()) == spaceoid.identity_morphism(
        spaceoid.trivial_spaceoid(2, 2)
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows.append(["zz", "O1", "O2", [1.0, 0.0]]), "outside"),
        (lambda rows: rows.append(["p0", "O1", "O9", [1.0, 0.0]]), "outside"),
        (lambda rows: rows.append(list(rows[0])), "duplicate"),
        (lambda rows: rows.pop(), "misses"),
    ],
    ids=["unknown-point", "unknown-object", "duplicate-row", "missing-cell"],
)
def test_morphism_rows_must_cover_the_maps_once(edit, message):
    d = _identity_rows()
    edit(d["fiber_scalars"])
    with pytest.raises(SchemaError, match=message):
        serial.morphism_from_json(d)


# ---------------------------------------------------------------------------
# reports


def make_spectrum():
    cat = cstarcat.linking_category(3, [2, 0, 1], phases=[1.0, 1j, -1.0])
    return duality.spectrum(cat)


def test_spectrum_report_roundtrip():
    spec = make_spectrum()
    residuals = spaceoid.validate(spec.spaceoid)
    text = serial.canonical_text(
        serial.spectrum_report_to_json(spec, residuals)
    )
    rep = serial.spectrum_report_from_json(serial.load_text(text))
    assert serial.emit("spectrum-report", rep) == text
    assert serial.parse("spectrum-report", text) == rep
    assert [c.point for c in rep.classes] == list(spec.class_points)
    assert rep.spaceoid == spec.spaceoid
    assert rep.residuals.passed


def test_spectrum_report_carries_class_data():
    spec = make_spectrum()
    d = serial.spectrum_report_to_json(spec)
    assert len(d["classes"]) == spec.n_classes
    for row in d["classes"]:
        assert row["rank"] >= 1
        assert set(row["eigenvalues"]) == set(spec.category.object_ids)
        assert set(row["blocks"]) == set(spec.category.object_ids)


def test_report_roundtrip():
    rep = Report()
    rep.add("alpha", True, 1e-12)
    rep.add("beta", False, 0.25, detail="deliberate")
    rep.check("gamma", [1e-3, 2e-3], 1e-2, lambda i: f"entry {i}")
    text = serial.emit("report", rep)
    back = serial.parse("report", text)
    assert back == rep
    assert back.checks[2].bound == 1e-2 and back.checks[0].bound is None
    assert serial.emit("report", back) == text
    with pytest.raises(SchemaError):
        serial.report_from_json({"checks": [{"name": "x"}]})
    for field in ("residual", "bound"):
        row = {"name": "x", "passed": True, field: "small"}
        with pytest.raises(SchemaError):
            serial.report_from_json({"checks": [row]})


# ---------------------------------------------------------------------------
# classification


def test_classify_every_kind():
    cat = cstarcat.linking_category(2, [1, 0])
    g = groups.connected_groupoid(1, groups.cyclic(2))
    e, _ = random_spaceoid(0, 2, 2)
    m = random_morphism(1, e, e, f_delta={p: p for p in e.base_points})
    spec = duality.spectrum(cat)
    rep = Report()
    rep.add("solo", True)
    pairs = [
        ("matrix", serial.matrix_to_json(np.eye(2))),
        ("category", serial.category_to_json(cat)),
        ("groupoid", serial.groupoid_to_json(g)),
        ("spaceoid", serial.spaceoid_to_json(e)),
        ("morphism", serial.morphism_to_json(m)),
        ("spectrum-report", serial.spectrum_report_to_json(spec)),
        ("report", serial.report_to_json(rep)),
    ]
    for kind, payload in pairs:
        assert serial.classify(payload) == kind
    with pytest.raises(SchemaError):
        serial.classify({"what": 1})
    with pytest.raises(SchemaError):
        serial.classify([1, 2])
