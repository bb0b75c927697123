"""File-format round trips: parse(emit(v)) == v, byte-stable emits,
schema errors on malformed input, and agreement of the array codec with
per-scalar reference decoders and ``json.dumps``."""

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectroid import cstarcat, duality, groups, serial, spaceoid
from spectroid.errors import SchemaError
from spectroid.reporting import Report

from test_spaceoid import random_morphism, random_spaceoid

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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
        {"rows": 1, "cols": 1, "entries": [[[10**400, 0.0]]]},
        {"rows": 1, "cols": 1, "entries": [[[True, 0.0]]]},
        {"rows": 1, "cols": 2, "entries": [[[0.0, 0.0], [None, 0.0]]]},
        {"rows": 1, "cols": 2, "entries": [[[0.0, 0.0], [0.0, 0.0, 0.0]]]},
        {"rows": 2, "cols": 1, "entries": [[[0.0, 0.0]], [[0.0, [0.0]]]]},
    ],
)
def test_matrix_schema_errors(bad):
    with pytest.raises(SchemaError):
        serial.matrix_from_json(bad)


def test_non_finite_scalars_rejected():
    for v in ([float("nan"), 0.0], [0.0, float("inf")]):
        with pytest.raises(SchemaError):
            serial.matrix_from_json({"rows": 1, "cols": 1, "entries": [[v]]})
    # JSON's NaN token and an overflowing float literal decode to floats
    # that are not finite; a huge integer literal and a boolean are
    # rejected before any float is made
    text = (
        '{"base_points": ["p"], "objects": ["A"], '
        '"lambda": [["p", "A", "A", "A", [%s, 0.0]]]}'
    )
    for token in ("NaN", "1e999", "1" + "0" * 400, "true"):
        with pytest.raises(SchemaError):
            serial.parse("spaceoid", text % token)
    # an integer literal past float range is rejected, not an OverflowError
    with pytest.raises(SchemaError, match="out of float range"):
        serial.parse(
            "matrix", '{"rows": 1, "cols": 1, "entries": [[[1%s, 0]]]}' % ("0" * 400)
        )


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
    assert (back.objects, back.arrows) == (g.objects, g.arrows)
    for field in ("source", "target", "compose", "identities", "inverses"):
        assert np.array_equal(getattr(back, field), getattr(g, field)), field
    assert serial.emit("groupoid", back) == text
    assert groups.validate_groupoid(back).passed


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
    d = serial.groupoid_to_json(g)
    d["compose"].append(list(d["compose"][3]))
    with pytest.raises(SchemaError, match="duplicate compose row"):
        serial.groupoid_from_json(d)
    # a name that is not a string is malformed, not a crash
    d = serial.groupoid_to_json(g)
    d["compose"][0][2] = [d["compose"][0][2]]
    with pytest.raises(SchemaError):
        serial.groupoid_from_json(d)
    d = serial.groupoid_to_json(g)
    d["inverses"][g.arrows[0]] = {}
    with pytest.raises(SchemaError):
        serial.groupoid_from_json(d)
    d = serial.groupoid_to_json(g)
    d["objects"].append(d["objects"][0])
    with pytest.raises(SchemaError, match="duplicate object ids"):
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


def test_spaceoid_repeated_lambda_row_rejected():
    row = ["p", "A", "A", "A", [2.0, 0.0]]
    rows = [row, row[:4] + [[1.0, 0.0]]]
    d = {"base_points": ["p"], "objects": ["A"], "lambda": rows}
    with pytest.raises(SchemaError, match="duplicate lambda row"):
        serial.spaceoid_from_json(d)


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
    assert [c.point for c in rep.classes] == list(spec.spaceoid.base_points)
    assert rep.spaceoid == spec.spaceoid
    assert rep.residuals.passed


def test_spectrum_report_carries_class_data():
    spec = make_spectrum()
    d = serial.spectrum_report_to_json(spec)
    assert len(d["classes"]) == spec.n_classes
    for row in d["classes"]:
        assert row["rank"] >= 1
        assert set(row["eigenvalues"]) == set(spec.category.object_ids)
        assert "blocks" not in row


def test_spectrum_report_reader_ignores_the_old_blocks_map():
    # files written before the anchor gauge carry each class's
    # eigenblock per object; they still load, to the same report
    d = serial.spectrum_report_to_json(make_spectrum())
    old = json.loads(json.dumps(d))
    for n, row in enumerate(old["classes"]):
        row["blocks"] = dict.fromkeys(row["eigenvalues"], n)
    assert serial.spectrum_report_from_json(old) == serial.spectrum_report_from_json(d)


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


# ---------------------------------------------------------------------------
# the array codec against the per-scalar codec it replaced
#
# The reference decoders below are the per-scalar ones the array codec
# replaced, kept to show that every decoded array is bit-identical; the
# reference encoders build the same dicts entry by entry, and
# ``json.dumps(indent=2, sort_keys=True)`` is the reference writer.


def ref_complex(v):
    if not (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in v)
    ):
        raise SchemaError(f"complex scalar must be [re, im], got {v!r}")
    z = complex(float(v[0]), float(v[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SchemaError(f"complex scalar must be finite, got {v!r}")
    return z


def ref_matrix_from_json(d):
    rows, cols = d["rows"], d["cols"]
    assert len(d["entries"]) == rows
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(d["entries"]):
        assert len(row) == cols
        for j, v in enumerate(row):
            out[i, j] = ref_complex(v)
    return out


def ref_lambda_table(d):
    points, objs = d["base_points"], d["objects"]
    table = np.ones((len(points),) + (len(objs),) * 3, dtype=complex)
    for p, a, b, c, v in d["lambda"]:
        table[(points.index(p), *map(objs.index, (a, b, c)))] = ref_complex(v)
    return table


def ref_fiber_scalars(d):
    pi = {p: i for i, p in enumerate(d["f_delta"])}
    oi = {a: i for i, a in enumerate(d["f_r"])}
    scal = np.full((len(pi), len(oi), len(oi)), np.nan, dtype=complex)
    for p, a, b, v in d["fiber_scalars"]:
        scal[pi[p], oi[a], oi[b]] = ref_complex(v)
    assert not np.isnan(scal).any()
    return scal


def ref_pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def ref_matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[ref_pair(z) for z in row] for row in m],
    }


def ref_spaceoid_to_json(e):
    keys = itertools.product(e.base_points, *[e.objects] * 3)
    return {
        "base_points": list(e.base_points),
        "objects": list(e.objects),
        "lambda": [
            [*key, ref_pair(z)]
            for key, z in zip(keys, e.table.ravel().tolist())
            if z != 1
        ],
    }


def ref_morphism_to_json(m):
    keys = itertools.product(m.f_delta, m.f_r, m.f_r)
    return {
        "f_delta": {str(p): str(q) for p, q in m.f_delta.items()},
        "f_r": {str(a): str(b) for a, b in m.f_r.items()},
        "fiber_scalars": [
            [*key, ref_pair(z)]
            for key, z in sorted(zip(keys, m.fiber_scalars.ravel().tolist()))
        ],
    }


def ref_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def assert_bit_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


def as_read(payload):
    """The payload as a file reader sees it, JSON types only."""
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def category_files():
    return [
        json.loads(case.inputs[0])
        for seed in (101, 0)
        for case in workloads.category_deck(seed)
    ]


@pytest.fixture(scope="module")
def spaceoid_files():
    return [json.loads(case.inputs[0]) for case in workloads.spaceoid_deck(101)]


@pytest.fixture(scope="module")
def deck_morphisms(spaceoid_files):
    out = []
    for i, d in enumerate(spaceoid_files):
        e = spaceoid.SpaceoidData(
            tuple(d["base_points"]), tuple(d["objects"]), ref_lambda_table(d)
        )
        out += [spaceoid.identity_morphism(e), random_morphism(i, e, e)]
    return out


def test_matrix_decode_matches_reference(category_files):
    mats = [m for d in category_files for ms in d["generators"].values() for m in ms]
    assert len(mats) > 500
    for m in mats:
        assert_bit_identical(serial.matrix_from_json(m), ref_matrix_from_json(m))
    # signed zeros survive the one-conversion decode
    m = {"rows": 1, "cols": 2, "entries": [[[-0.0, 0.0], [0, -0.0]]]}
    assert_bit_identical(serial.matrix_from_json(m), ref_matrix_from_json(m))


def test_spaceoid_decode_matches_reference(spaceoid_files):
    assert len(spaceoid_files) == 80
    for d in spaceoid_files:
        e = serial.spaceoid_from_json(d)
        assert_bit_identical(e.table, ref_lambda_table(d))
        assert list(e.base_points) == d["base_points"]
        assert list(e.objects) == d["objects"]


def test_morphism_decode_matches_reference(deck_morphisms):
    for m in deck_morphisms:
        d = as_read(ref_morphism_to_json(m))
        back = serial.morphism_from_json(d)
        assert_bit_identical(back.fiber_scalars, ref_fiber_scalars(d))
        assert_bit_identical(back.fiber_scalars, m.fiber_scalars.astype(complex))


def test_eigenvalue_decode_matches_reference():
    spec = make_spectrum()
    d = as_read(serial.spectrum_report_to_json(spec))
    rep = serial.spectrum_report_from_json(d)
    for row, c in zip(d["classes"], rep.classes):
        for o, vals in row["eigenvalues"].items():
            ref = np.array([ref_complex(v) for v in vals], dtype=complex)
            assert_bit_identical(np.array(c.eigenvalues[o], dtype=complex), ref)


_MALFORMED_PAIRS = [
    [1.0],
    [1.0, 2.0, 3.0],
    ["x", 0.0],
    [True, 0.0],
    [0.0, False],
    [None, 0.0],
    [float("nan"), 0.0],
    [0.0, float("-inf")],
    [[1.0, 2.0], 0.0],
    "ab",
    {"re": 1.0, "im": 0.0},
    1.0,
]


@pytest.mark.parametrize("v", _MALFORMED_PAIRS, ids=repr)
def test_malformed_pair_rejected_everywhere(v):
    # the reference rejects it too: numpy alone would read True as 1.0
    with pytest.raises(SchemaError):
        ref_complex(v)
    cases = [
        ("matrix", {"rows": 1, "cols": 2, "entries": [[[0.0, 0.0], v]]}),
        ("spaceoid", {"base_points": ["p"], "objects": ["A"],
                      "lambda": [["p", "A", "A", "A", v]]}),
        ("morphism", {"f_delta": {"p": "p"}, "f_r": {"A": "A"},
                      "fiber_scalars": [["p", "A", "A", v]]}),
    ]
    for kind, payload in cases:
        with pytest.raises(SchemaError):
            serial.parse(kind, json.dumps(payload))


def test_eigenvalues_must_be_a_list_of_pairs():
    d = as_read(serial.spectrum_report_to_json(make_spectrum()))
    ev = d["classes"][0]["eigenvalues"]
    o = next(iter(ev))
    for bad in (3, "", {}, [[True, 0.0]], [[1.0, 2.0], [1.0]]):
        ev[o] = bad
        with pytest.raises(SchemaError):
            serial.spectrum_report_from_json(d)


_NUMBERS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e16, 1e-7, float("nan"), float("inf"), -float("inf")]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _NUMBERS,
    st.text(),
    st.sampled_from(["p0", "ü∑", "\n\"\\"]),
)


@st.composite
def _row_lists(draw):
    """Same-shaped flat rows, sometimes ending in an ``[re, im]`` pair,
    sometimes with one row of another shape mixed in."""
    kinds = st.sampled_from([st.text(max_size=3), _NUMBERS, _SCALARS])
    columns = draw(st.lists(kinds, max_size=4))
    if draw(st.booleans()):
        columns.append(st.lists(_NUMBERS, min_size=2, max_size=2))
    rows = draw(st.lists(st.tuples(*columns).map(list), min_size=1, max_size=4))
    if draw(st.booleans()):
        odd = draw(st.lists(_SCALARS, max_size=3))
        rows.insert(draw(st.integers(0, len(rows))), odd)
    return rows


_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _row_lists()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=24,
)


@given(_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_canonical_text_is_json_dumps(payload):
    assert serial.canonical_text(payload) == ref_text(payload)


def test_canonical_text_keys_and_errors_follow_json():
    payload = {"b": [[1, "x", [2.5, -0.0]]], "a": {"k": []}, "c": {}, "ü": [[]]}
    assert serial.canonical_text(payload) == ref_text(payload)
    for keyed in ({2: 1, 10: 2}, {1.5: 0, -1.0: 1}, {True: 0, False: 1}, {None: [1]}):
        assert serial.canonical_text(keyed) == ref_text(keyed)
    for bad in ({1, 2}, [[1, object()]], {(1, 2): 0}, np.int64(1)):
        with pytest.raises(TypeError):
            serial.canonical_text(bad)


def test_emit_matches_reference_on_deck_shapes(
    category_files, spaceoid_files, deck_morphisms
):
    for d in category_files:
        cat = serial.category_from_json(d)
        ref = dict(serial.category_to_json(cat))
        ref["generators"] = {
            k: [ref_matrix_to_json(m) for m in mats]
            for k, mats in zip(ref["generators"], cat.blocks.values())
        }
        assert serial.emit("category", cat) == ref_text(ref)
        for mats in cat.blocks.values():
            for m in mats:
                assert serial.emit("matrix", m) == ref_text(ref_matrix_to_json(m))
    for d in spaceoid_files:
        e = serial.spaceoid_from_json(d)
        for value in (e, spaceoid.trivialize(e).spaceoid):
            ref = ref_spaceoid_to_json(value)
            assert serial.emit("spaceoid", value) == ref_text(ref)
        rep = spaceoid.validate(e)
        assert serial.emit("report", rep) == ref_text(rep.to_json())
    for m in deck_morphisms:
        assert serial.emit("morphism", m) == ref_text(ref_morphism_to_json(m))
    for n in range(1, 5):
        for k in range(2, 7):
            g = groups.connected_groupoid(n, groups.cyclic(k))
            assert serial.emit("groupoid", g) == ref_text(serial.groupoid_to_json(g))
    spec = make_spectrum()
    ref = serial.spectrum_report_to_json(spec)
    ref["spaceoid"] = ref_spaceoid_to_json(spec.spaceoid)
    for row, c in zip(ref["classes"], serial.spectrum_report_from_json(ref).classes):
        row["eigenvalues"] = {
            o: [ref_pair(z) for z in v] for o, v in c.eigenvalues.items()
        }
    assert serial.emit("spectrum-report", spec) == ref_text(ref)
