"""JSON file formats for every value the command line moves around.

Conventions, shared by all file kinds:

* complex scalar -> two-element array ``[re, im]``
* matrix -> ``{"rows", "cols", "entries"}`` with row-major nested
  arrays of ``[re, im]`` pairs
* category -> ``{"objects": [{"id", "dim"}], "generators":
  {"A:B": [matrix, ...]}, "unital"}``
* groupoid -> arrow list plus explicit composition/identity/inverse
  tables
* spaceoid -> ``{"base_points", "objects", "lambda"}`` where
  ``lambda`` is a sparse list of ``[p, A, B, C, [re, im]]`` rows and
  omitted entries default to 1
* morphism -> the three morphism fields, with fiber scalars as
  ``[p, A, B, [re, im]]`` rows (stored densely; the file does not know
  the domain, so nothing can be defaulted)
* spectrum report -> class list (eigenvalue tuples per object plus the
  class-to-eigenblock correspondence), the spaceoid, residual summary
* verifier report -> named pass/fail checks with residuals

Decoders raise :class:`SchemaError` on malformed input, including
non-finite (NaN or infinite) scalars and matrix entries, and never
perform semantic validation (use ``validate``/``check_axioms`` for
that).  ``parse_*`` after ``emit_*`` is the identity on values, and
emitted text is byte-deterministic for a given value.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .cstarcat import FiniteGroupoid, MatrixCategory
from .errors import SchemaError
from .reporting import Check, Report
from .spaceoid import SpaceoidData, SpaceoidMorphism

__all__ = [
    "SpectrumClass",
    "SpectrumReport",
    "canonical_text",
    "load_text",
    "classify",
    "emit",
    "parse",
    "complex_to_json",
    "complex_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "category_to_json",
    "category_from_json",
    "groupoid_to_json",
    "groupoid_from_json",
    "spaceoid_to_json",
    "spaceoid_from_json",
    "morphism_to_json",
    "morphism_from_json",
    "spectrum_report_to_json",
    "spectrum_report_from_json",
    "report_to_json",
    "report_from_json",
]


def _need(cond, msg: str):
    if not cond:
        raise SchemaError(msg)


def canonical_text(payload) -> str:
    """Serialize a JSON-able payload to its one canonical text form."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# scalars and matrices


def complex_to_json(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _complex_pair(v) -> complex:
    """Decode ``[re, im]`` without the finiteness check."""
    _need(
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in v),
        f"complex scalar must be [re, im], got {v!r}",
    )
    return complex(float(v[0]), float(v[1]))


def complex_from_json(v) -> complex:
    z = _complex_pair(v)
    _need(
        math.isfinite(z.real) and math.isfinite(z.imag),
        f"complex scalar must be finite, got {v!r}",
    )
    return z


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    _need(m.ndim == 2, f"matrix must be 2-d, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[complex_to_json(z) for z in row] for row in m],
    }


def matrix_from_json(d) -> np.ndarray:
    _need(isinstance(d, dict), "matrix must be an object")
    for key in ("rows", "cols", "entries"):
        _need(key in d, f"matrix missing {key!r}")
    rows, cols = d["rows"], d["cols"]
    _need(
        isinstance(rows, int) and isinstance(cols, int) and rows >= 0 and cols >= 0,
        "matrix rows/cols must be non-negative integers",
    )
    entries = d["entries"]
    _need(
        isinstance(entries, list) and len(entries) == rows,
        f"matrix entries must hold {rows} rows",
    )
    out = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(entries):
        _need(
            isinstance(row, list) and len(row) == cols,
            f"matrix row {i} must hold {cols} entries",
        )
        for j, v in enumerate(row):
            out[i, j] = _complex_pair(v)
    _need(np.isfinite(out).all(), "matrix entries must be finite")
    return out


# ---------------------------------------------------------------------------
# categories


def _pair_key(a: str, b: str) -> str:
    for t in (a, b):
        _need(":" not in t, f"object id {t!r} may not contain ':'")
    return f"{a}:{b}"


def category_to_json(cat: MatrixCategory) -> dict:
    generators = {}
    for (a, b), mats in cat.blocks.items():
        generators[_pair_key(str(a), str(b))] = [matrix_to_json(m) for m in mats]
    return {
        "objects": [{"id": str(o), "dim": int(d)} for o, d in cat.objects],
        "generators": generators,
        "unital": bool(cat.unital),
    }


def category_from_json(d) -> MatrixCategory:
    """Decode a category file into an as-stored :class:`MatrixCategory`.

    The file's matrices are taken verbatim (generator files and closed
    bases share the schema); run them through ``cstarcat.close`` when a
    genuinely closed category is required.
    """
    _need(isinstance(d, dict), "category must be an object")
    _need(isinstance(d.get("objects"), list), "category missing 'objects' list")
    objects = []
    for o in d["objects"]:
        _need(
            isinstance(o, dict) and isinstance(o.get("id"), str),
            f"object rows need a string 'id': {o!r}",
        )
        dim = o.get("dim")
        _need(
            isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
            f"object {o.get('id')!r} needs a positive integer 'dim'",
        )
        objects.append((o["id"], dim))
    dims = dict(objects)
    _need(len(dims) == len(objects), "duplicate object ids")

    gens = d.get("generators", {})
    _need(isinstance(gens, dict), "'generators' must be an object")
    blocks = {(a, b): [] for a in dims for b in dims}
    for key, mats in gens.items():
        parts = key.split(":") if isinstance(key, str) else []
        _need(len(parts) == 2, f"generator key must look like 'A:B', got {key!r}")
        a, b = parts
        _need(a in dims and b in dims, f"generator key {key!r} names unknown objects")
        _need(isinstance(mats, list), f"generators[{key!r}] must be a list")
        for m in mats:
            mat = matrix_from_json(m)
            _need(
                mat.shape == (dims[a], dims[b]),
                f"generator in {key!r} has shape {mat.shape},"
                f" expected {(dims[a], dims[b])}",
            )
            blocks[(a, b)].append(mat)

    unital = d.get("unital", True)
    _need(isinstance(unital, bool), "'unital' must be a boolean")
    return MatrixCategory(objects=tuple(objects), blocks=blocks, unital=unital)


# ---------------------------------------------------------------------------
# groupoids


def groupoid_to_json(g: FiniteGroupoid) -> dict:
    return {
        "objects": [str(o) for o in g.objects],
        "arrows": [
            {"id": str(a), "source": str(g.source[a]), "target": str(g.target[a])}
            for a in g.arrows
        ],
        "compose": [
            [str(x), str(y), str(z)]
            for (x, y), z in sorted(g.compose.items())
        ],
        "identities": {str(o): str(a) for o, a in g.identities.items()},
        "inverses": {str(a): str(b) for a, b in g.inverses.items()},
    }


def groupoid_from_json(d) -> FiniteGroupoid:
    _need(isinstance(d, dict), "groupoid must be an object")
    _need(isinstance(d.get("objects"), list), "groupoid missing 'objects'")
    objects = tuple(d["objects"])
    _need(
        all(isinstance(o, str) for o in objects),
        "groupoid objects must be strings",
    )
    _need(isinstance(d.get("arrows"), list), "groupoid missing 'arrows'")
    arrows, source, target = [], {}, {}
    for row in d["arrows"]:
        _need(
            isinstance(row, dict)
            and all(isinstance(row.get(k), str) for k in ("id", "source", "target")),
            f"arrow rows need string id/source/target: {row!r}",
        )
        _need(
            row["source"] in objects and row["target"] in objects,
            f"arrow {row['id']!r} references unknown objects",
        )
        arrows.append(row["id"])
        source[row["id"]] = row["source"]
        target[row["id"]] = row["target"]
    known = set(arrows)
    _need(len(known) == len(arrows), "duplicate arrow ids")

    compose = {}
    _need(isinstance(d.get("compose"), list), "groupoid missing 'compose'")
    for row in d["compose"]:
        _need(
            isinstance(row, list) and len(row) == 3 and all(r in known for r in row),
            f"compose rows must be [left, right, result] over known arrows: {row!r}",
        )
        compose[(row[0], row[1])] = row[2]

    identities = d.get("identities", {})
    inverses = d.get("inverses", {})
    _need(
        isinstance(identities, dict)
        and set(identities) == set(objects)
        and all(a in known for a in identities.values()),
        "'identities' must map every object to a known arrow",
    )
    _need(
        isinstance(inverses, dict)
        and set(inverses) == known
        and all(a in known for a in inverses.values()),
        "'inverses' must map every arrow to a known arrow",
    )
    return FiniteGroupoid(
        objects=objects,
        arrows=tuple(arrows),
        source=source,
        target=target,
        compose=compose,
        identities=dict(identities),
        inverses=dict(inverses),
    )


# ---------------------------------------------------------------------------
# spaceoids and their morphisms


def spaceoid_to_json(e: SpaceoidData) -> dict:
    entries = []
    for p in e.base_points:
        for a, b, c in itertools.product(e.objects, repeat=3):
            z = e.lam[(p, a, b, c)]
            if z != 1:
                entries.append([p, a, b, c, complex_to_json(z)])
    return {
        "base_points": list(e.base_points),
        "objects": list(e.objects),
        "lambda": entries,
    }


def spaceoid_from_json(d) -> SpaceoidData:
    _need(isinstance(d, dict), "spaceoid must be an object")
    for key in ("base_points", "objects"):
        _need(
            isinstance(d.get(key), list)
            and all(isinstance(t, str) for t in d[key]),
            f"spaceoid needs a string list {key!r}",
        )
    points, objs = d["base_points"], d["objects"]
    lam = {}
    rows = d.get("lambda", [])
    _need(isinstance(rows, list), "'lambda' must be a list")
    for row in rows:
        _need(
            isinstance(row, list) and len(row) == 5,
            f"lambda rows must be [p, A, B, C, [re, im]]: {row!r}",
        )
        p, a, b, c, v = row
        _need(p in points, f"lambda row names unknown base point {p!r}")
        _need(
            all(t in objs for t in (a, b, c)),
            f"lambda row names unknown objects: {row!r}",
        )
        lam[(p, a, b, c)] = complex_from_json(v)
    try:
        return SpaceoidData(tuple(points), tuple(objs), lam)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def morphism_to_json(m: SpaceoidMorphism) -> dict:
    return {
        "f_delta": {str(p): str(q) for p, q in m.f_delta.items()},
        "f_r": {str(a): str(b) for a, b in m.f_r.items()},
        "fiber_scalars": [
            [p, a, b, complex_to_json(z)]
            for (p, a, b), z in sorted(m.fiber_scalars.items())
        ],
    }


def morphism_from_json(d) -> SpaceoidMorphism:
    _need(isinstance(d, dict), "morphism must be an object")
    for key in ("f_delta", "f_r"):
        _need(
            isinstance(d.get(key), dict)
            and all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in d[key].items()
            ),
            f"morphism needs a string-to-string map {key!r}",
        )
    scalars = {}
    rows = d.get("fiber_scalars", [])
    _need(isinstance(rows, list), "'fiber_scalars' must be a list")
    for row in rows:
        _need(
            isinstance(row, list)
            and len(row) == 4
            and all(isinstance(t, str) for t in row[:3]),
            f"fiber_scalars rows must be [p, A, B, [re, im]]: {row!r}",
        )
        scalars[(row[0], row[1], row[2])] = complex_from_json(row[3])
    return SpaceoidMorphism(
        f_delta=dict(d["f_delta"]),
        f_r=dict(d["f_r"]),
        fiber_scalars=scalars,
    )


# ---------------------------------------------------------------------------
# spectrum and verifier reports


@dataclass(frozen=True)
class SpectrumClass:
    """One unitary class: its id, rank, eigenvalue tuples per object,
    and the class-to-eigenblock correspondence."""

    point: str
    rank: int
    eigenvalues: dict  # object id -> tuple of complex values
    blocks: dict  # object id -> eigenblock index


@dataclass(frozen=True)
class SpectrumReport:
    """The file-level content of a spectrum run."""

    classes: tuple
    spaceoid: SpaceoidData
    residuals: Report


def _as_spectrum_report(value, residuals=None) -> SpectrumReport:
    if isinstance(value, SpectrumReport):
        return value
    # duck-typed SpectrumResult from the duality module
    classes = []
    for i, p in enumerate(value.class_points):
        eigenvalues = {
            str(o): tuple(complex(z) for z in value.diag_table[o][i])
            for o in value.category.object_ids
        }
        blocks = {
            str(o): int(value.class_block[(i, o)])
            for o in value.category.object_ids
        }
        classes.append(
            SpectrumClass(str(p), int(value.ranks[i]), eigenvalues, blocks)
        )
    return SpectrumReport(
        classes=tuple(classes),
        spaceoid=value.spaceoid,
        residuals=residuals if residuals is not None else Report(),
    )


def spectrum_report_to_json(value, residuals=None) -> dict:
    """Encode a spectrum report from either a ``SpectrumResult`` (with
    an optional residual report) or an already-built ``SpectrumReport``."""
    rep = _as_spectrum_report(value, residuals)
    return {
        "classes": [
            {
                "point": c.point,
                "rank": int(c.rank),
                "eigenvalues": {
                    o: [complex_to_json(z) for z in vals]
                    for o, vals in c.eigenvalues.items()
                },
                "blocks": {o: int(i) for o, i in c.blocks.items()},
            }
            for c in rep.classes
        ],
        "spaceoid": spaceoid_to_json(rep.spaceoid),
        "residuals": report_to_json(rep.residuals),
    }


def spectrum_report_from_json(d) -> SpectrumReport:
    _need(isinstance(d, dict), "spectrum report must be an object")
    _need(isinstance(d.get("classes"), list), "spectrum report missing 'classes'")
    classes = []
    for row in d["classes"]:
        _need(
            isinstance(row, dict) and isinstance(row.get("point"), str),
            f"class rows need a string 'point': {row!r}",
        )
        rank = row.get("rank")
        _need(
            isinstance(rank, int) and not isinstance(rank, bool) and rank >= 1,
            f"class {row.get('point')!r} needs a positive integer rank",
        )
        ev = row.get("eigenvalues", {})
        bl = row.get("blocks", {})
        _need(
            isinstance(ev, dict) and isinstance(bl, dict),
            "class eigenvalues/blocks must be objects",
        )
        eigenvalues = {
            o: tuple(complex_from_json(z) for z in vals)
            for o, vals in ev.items()
        }
        for o, i in bl.items():
            _need(
                isinstance(i, int) and not isinstance(i, bool),
                f"block index for {o!r} must be an integer",
            )
        classes.append(
            SpectrumClass(row["point"], rank, eigenvalues, dict(bl))
        )
    _need("spaceoid" in d, "spectrum report missing 'spaceoid'")
    return SpectrumReport(
        classes=tuple(classes),
        spaceoid=spaceoid_from_json(d["spaceoid"]),
        residuals=report_from_json(d.get("residuals", {"checks": []})),
    )


def report_to_json(rep: Report) -> dict:
    return rep.to_json()


def report_from_json(d) -> Report:
    _need(isinstance(d, dict), "report must be an object")
    _need(isinstance(d.get("checks"), list), "report missing 'checks'")
    out = Report()
    for row in d["checks"]:
        _need(
            isinstance(row, dict)
            and isinstance(row.get("name"), str)
            and isinstance(row.get("passed"), bool),
            f"check rows need string 'name' and boolean 'passed': {row!r}",
        )
        residual = row.get("residual", 0.0)
        _need(
            isinstance(residual, (int, float)) and not isinstance(residual, bool),
            f"check {row['name']!r} residual must be a number",
        )
        out.add(row["name"], row["passed"], float(residual), row.get("detail", ""))
    return out


# ---------------------------------------------------------------------------
# file-kind registry


_KINDS = {
    "matrix": (matrix_to_json, matrix_from_json),
    "category": (category_to_json, category_from_json),
    "groupoid": (groupoid_to_json, groupoid_from_json),
    "spaceoid": (spaceoid_to_json, spaceoid_from_json),
    "morphism": (morphism_to_json, morphism_from_json),
    "spectrum-report": (spectrum_report_to_json, spectrum_report_from_json),
    "report": (report_to_json, report_from_json),
}


def classify(payload) -> str:
    """Sniff which file kind a decoded JSON payload is."""
    _need(isinstance(payload, dict), "file must hold a JSON object")
    marks = [
        ("lambda", "spaceoid"),
        ("base_points", "spaceoid"),
        ("generators", "category"),
        ("entries", "matrix"),
        ("arrows", "groupoid"),
        ("fiber_scalars", "morphism"),
        ("classes", "spectrum-report"),
        ("checks", "report"),
    ]
    for key, kind in marks:
        if key in payload:
            return kind
    raise SchemaError(
        f"unrecognized file: keys {sorted(payload)[:6]} match no known kind"
    )


def emit(kind: str, value, **kw) -> str:
    """Canonical text for a value of the given file kind."""
    _need(kind in _KINDS, f"unknown file kind {kind!r}")
    return canonical_text(_KINDS[kind][0](value, **kw))


def parse(kind: str, text: str):
    """Decode canonical (or any) JSON text of the given file kind."""
    _need(kind in _KINDS, f"unknown file kind {kind!r}")
    return _KINDS[kind][1](load_text(text))
