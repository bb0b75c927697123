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
  ``[p, A, B, [re, im]]`` rows in sorted order, one for every ``(p, A,
  B)`` over the keys of ``f_delta`` and ``f_r`` (those keys are the
  domain's labels; no row is defaulted)
* spectrum report -> class list (eigenvalue tuples per object plus the
  class-to-eigenblock correspondence), the spaceoid, residual summary
* verifier report -> named pass/fail checks with residuals

Decoders raise :class:`SchemaError` on malformed input and never
perform semantic validation (use ``validate``/``check_axioms`` for
that).  A number is a JSON int or float, never a boolean; a literal
too large for a float, or a non-finite (NaN or infinite) scalar, is a
``SchemaError``, and so is a repeated ``lambda``, ``fiber_scalars`` or
groupoid ``compose`` row.  Each matrix and each table of ``[re, im]``
pairs is decoded in one array conversion and encoded with one ``%``
template per list.
``parse_*`` after ``emit_*`` is the identity on values, and emitted
text is byte-deterministic for a given value: the text of
``json.dumps(payload, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .cstarcat import MatrixCategory
from .errors import SchemaError
from .groups import FiniteGroupoid
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


def _repeat(cells: np.ndarray):
    """Row of the second occurrence of the smallest cell given twice, or
    ``None`` when every cell is given once."""
    ordered = np.sort(cells)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    return np.flatnonzero(cells == repeated[0])[1] if repeated.size else None


def _indices(at: dict, names) -> np.ndarray:
    return np.fromiter(map(at.__getitem__, names), np.intp)


def canonical_text(payload) -> str:
    """Serialize a JSON-able payload to its one canonical text form, the
    text of ``json.dumps(payload, indent=2, sort_keys=True)`` plus a
    newline.  (That call runs json's pure-Python encoder token by token,
    since its C encoder does not indent.)"""
    out = []
    _encode(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _scalar(v):
    """json's text for a scalar, or None for anything else."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        return float.__repr__(v)
    return None


def _encode(o, nl: str, out: list) -> None:
    """Append the text of ``o``; ``nl`` is a newline plus the indent of
    the line ``o`` starts on."""
    text = _scalar(o)
    if text is not None:
        out.append(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        rows = _flat_rows(o, inner)
        if rows is not None:
            out += ("[", inner, rows, nl, "]")
            return
        out.append("[")
        for i, v in enumerate(o):
            out.append("," + inner if i else inner)
            _encode(v, inner, out)
        out += (nl, "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{")
        for i, (k, v) in enumerate(sorted(o.items())):
            # json writes a number, boolean or null key as its text; any
            # other key leaves None here, which the string encoder refuses
            key = k if isinstance(k, str) else _scalar(k)
            out += ("," + inner if i else inner, encode_basestring_ascii(key), ": ")
            _encode(v, inner, out)
        out += (nl, "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _column(values):
    """A ``%`` code and the arguments that render a column of scalars,
    or None when the column holds anything else."""
    kinds = set(map(type, values))
    # a float sum is finite only when every term is
    if kinds == {float} and math.isfinite(sum(values)):
        return "%r", values
    if kinds == {str}:
        return "%s", list(map(encode_basestring_ascii, values))
    texts = list(map(_scalar, values))
    return None if None in texts else ("%s", texts)


def _flat_rows(rows, nl: str):
    """The text of a list of same-shaped flat rows, built with one ``%``
    template, or None when ``rows`` is not such a list.  A flat row is
    scalars, optionally ending in an ``[re, im]`` pair; ``nl`` starts
    each row's line."""
    if set(map(type, rows)) != {list}:
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    columns = list(zip(*rows))
    last = columns[-1]
    pair = set(map(type, last)) == {list} and set(map(len, last)) == {2}
    if pair:
        columns[-1:] = zip(*last)
    rendered = list(map(_column, columns))
    if None in rendered:
        return None
    codes = [code for code, _ in rendered]
    nl2, nl3 = nl + "  ", nl + "    "
    if pair:
        codes[-2:] = [f"[{nl3}{codes[-2]},{nl3}{codes[-1]}{nl2}]"]
    row = f"[{nl2}" + f",{nl2}".join(codes) + f"{nl}]"
    args = tuple(itertools.chain.from_iterable(zip(*(v for _, v in rendered))))
    return f",{nl}".join([row] * len(rows)) % args


def load_text(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# scalars and matrices


def _pairs(z) -> list:
    """Nested ``[re, im]`` lists of a complex array, in one conversion."""
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag], axis=-1).tolist()


def _complex_array(nested, shape: tuple, what: str) -> np.ndarray:
    """Decode ``[re, im]`` pairs nested with outer ``shape`` into one
    complex array, in one conversion.

    Every value must be an int or a float, not a boolean, and finite as
    a float; ragged nesting, a pair of the wrong length, any other value
    or an out-of-range literal is a :class:`SchemaError`."""
    want = shape + (2,)
    if 0 in want:  # numpy stops at the first empty axis
        want = want[: want.index(0) + 1]
    try:
        obj = np.array(nested, dtype=object)
    except ValueError:  # a raggedness numpy cannot even box
        obj = None
    _need(
        obj is not None and obj.shape == want,
        f"{what} must be [re, im] pairs nested as {shape}",
    )
    kinds = set(map(type, obj.ravel().tolist()))
    _need(
        all(issubclass(k, (int, float)) and not issubclass(k, bool) for k in kinds),
        f"{what} must be numbers, found {sorted(k.__name__ for k in kinds)}",
    )
    try:
        parts = obj.astype(float)
    except OverflowError as exc:
        raise SchemaError(f"{what} holds a number out of float range") from exc
    _need(np.isfinite(parts).all(), f"{what} must be finite")
    return parts.view(complex).reshape(shape)


def matrix_to_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    _need(m.ndim == 2, f"matrix must be 2-d, got shape {m.shape}")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": _pairs(m)}


def matrix_from_json(d) -> np.ndarray:
    _need(isinstance(d, dict), "matrix must be an object")
    for key in ("rows", "cols", "entries"):
        _need(key in d, f"matrix missing {key!r}")
    rows, cols = d["rows"], d["cols"]
    _need(
        isinstance(rows, int) and isinstance(cols, int) and rows >= 0 and cols >= 0,
        "matrix rows/cols must be non-negative integers",
    )
    _need(isinstance(d["entries"], list), "matrix entries must be a list")
    return _complex_array(d["entries"], (int(rows), int(cols)), "matrix entries")


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
    """Compose rows ``[left, right, result]`` sorted by name."""
    names = np.array(g.arrows, dtype=object)
    by_name = np.argsort(names)
    table = g.compose[np.ix_(by_name, by_name)]  # rows and columns by name
    x, y = np.nonzero(table >= 0)
    return {
        "objects": list(g.objects),
        "arrows": [
            {"id": a, "source": g.objects[s], "target": g.objects[t]}
            for a, s, t in zip(g.arrows, g.source.tolist(), g.target.tolist())
        ],
        "compose": np.stack(
            [names[by_name[x]], names[by_name[y]], names[table[x, y]]], axis=1
        ).tolist(),
        "identities": dict(zip(g.objects, names[g.identities].tolist())),
        "inverses": dict(zip(g.arrows, names[g.inverses].tolist())),
    }


def groupoid_from_json(d) -> FiniteGroupoid:
    """Names become indices here; a compose row given twice for the same
    ``(left, right)`` is a :class:`SchemaError`."""
    _need(isinstance(d, dict), "groupoid must be an object")
    _need(isinstance(d.get("objects"), list), "groupoid missing 'objects'")
    objects = tuple(d["objects"])
    _need(
        all(isinstance(o, str) for o in objects),
        "groupoid objects must be strings",
    )
    at_object = {o: i for i, o in enumerate(objects)}
    _need(len(at_object) == len(objects), "duplicate object ids")
    _need(isinstance(d.get("arrows"), list), "groupoid missing 'arrows'")
    for row in d["arrows"]:
        _need(
            isinstance(row, dict)
            and all(isinstance(row.get(k), str) for k in ("id", "source", "target")),
            f"arrow rows need string id/source/target: {row!r}",
        )
        _need(
            row["source"] in at_object and row["target"] in at_object,
            f"arrow {row['id']!r} references unknown objects",
        )
    arrows = tuple(row["id"] for row in d["arrows"])
    at = {a: i for i, a in enumerate(arrows)}
    _need(len(at) == len(arrows), "duplicate arrow ids")

    def known(a) -> bool:
        return isinstance(a, str) and a in at

    rows = d.get("compose")
    _need(isinstance(rows, list), "groupoid missing 'compose'")
    for row in rows:
        _need(
            isinstance(row, list) and len(row) == 3 and all(map(known, row)),
            f"compose rows must be [left, right, result] over known arrows: {row!r}",
        )
    x, y, z = _indices(at, itertools.chain.from_iterable(rows)).reshape(-1, 3).T
    second = _repeat(x * len(arrows) + y)
    if second is not None:
        raise SchemaError(f"duplicate compose row {rows[second][:2]!r}")
    compose = np.full((len(arrows), len(arrows)), -1, dtype=np.intp)
    compose[x, y] = z

    def arrow_map(key, domain, what):
        table = d.get(key, {})
        _need(
            isinstance(table, dict)
            and set(table) == set(domain)
            and all(map(known, table.values())),
            f"{key!r} must map every {what} to a known arrow",
        )
        return _indices(at, map(table.get, domain))

    return FiniteGroupoid(
        objects=objects,
        arrows=arrows,
        source=_indices(at_object, (row["source"] for row in d["arrows"])),
        target=_indices(at_object, (row["target"] for row in d["arrows"])),
        compose=compose,
        identities=arrow_map("identities", objects, "object"),
        inverses=arrow_map("inverses", arrows, "arrow"),
    )


# ---------------------------------------------------------------------------
# spaceoids and their morphisms


def _keyed_rows(rows, axes: tuple, shape: tuple, what: str, form: str):
    """Decode rows ``[l_1, ..., l_k, [re, im]]`` keyed by labels.

    ``axes`` maps each key column's labels to indices along one axis of
    a table of ``shape``.  Returns the rows' flat indices into that table
    and their complex values.  A malformed row, a label outside its axis
    and a key given twice are each a :class:`SchemaError`."""
    _need(isinstance(rows, list), f"{what!r} must be a list")
    k = len(axes)
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=complex)
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {k + 1}:
        bad = next(r for r in rows if type(r) is not list or len(r) != k + 1)
        raise SchemaError(f"{what} rows must be {form}: {bad!r}")
    columns = list(zip(*rows))
    try:
        index = [_indices(axis, labels) for axis, labels in zip(axes, columns)]
    except KeyError as exc:
        label = exc.args[0]
        raise SchemaError(f"{what} row names {label!r}, outside its axis") from exc
    except TypeError as exc:
        raise SchemaError(f"{what} row labels must be strings") from exc
    cells = np.ravel_multi_index(index, shape)
    second = _repeat(cells)
    if second is not None:
        raise SchemaError(f"duplicate {what} row {rows[second][:k]!r}")
    return cells, _complex_array(columns[k], (len(rows),), f"{what} values")


def spaceoid_to_json(e: SpaceoidData) -> dict:
    flat = e.table.ravel()
    keep = flat != 1
    keys = itertools.compress(
        itertools.product(e.base_points, *[e.objects] * 3), keep.tolist()
    )
    return {
        "base_points": list(e.base_points),
        "objects": list(e.objects),
        "lambda": [[*key, z] for key, z in zip(keys, _pairs(flat[keep]))],
    }


def spaceoid_from_json(d) -> SpaceoidData:
    """Rows omitted from ``lambda`` default to 1; a row given twice is a
    :class:`SchemaError`."""
    _need(isinstance(d, dict), "spaceoid must be an object")
    for key in ("base_points", "objects"):
        _need(
            isinstance(d.get(key), list)
            and all(isinstance(t, str) for t in d[key]),
            f"spaceoid needs a string list {key!r}",
        )
    points, objs = d["base_points"], d["objects"]
    pi = {p: i for i, p in enumerate(points)}
    oi = {a: i for i, a in enumerate(objs)}
    table = np.ones((len(points),) + (len(objs),) * 3, dtype=complex)
    cells, values = _keyed_rows(
        d.get("lambda", []), (pi, oi, oi, oi), table.shape,
        "lambda", "[p, A, B, C, [re, im]]",
    )
    table.ravel()[cells] = values
    try:
        return SpaceoidData(tuple(points), tuple(objs), table)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def morphism_to_json(m: SpaceoidMorphism) -> dict:
    keys = itertools.product(m.f_delta, m.f_r, m.f_r)
    return {
        "f_delta": {str(p): str(q) for p, q in m.f_delta.items()},
        "f_r": {str(a): str(b) for a, b in m.f_r.items()},
        # keys are distinct, so the sort never compares two values
        "fiber_scalars": sorted(
            [*key, z] for key, z in zip(keys, _pairs(m.fiber_scalars.ravel()))
        ),
    }


def morphism_from_json(d) -> SpaceoidMorphism:
    """The scalars' axes follow the key order of ``f_delta`` and ``f_r``;
    every ``(p, A, B)`` over those keys needs exactly one row."""
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
    pi = {p: i for i, p in enumerate(d["f_delta"])}
    oi = {a: i for i, a in enumerate(d["f_r"])}
    scal = np.empty((len(pi), len(oi), len(oi)), dtype=complex)
    cells, values = _keyed_rows(
        d.get("fiber_scalars", []), (pi, oi, oi), scal.shape,
        "fiber_scalars", "[p, A, B, [re, im]]",
    )
    # the cells are distinct, so they cover the table when they are as many
    _need(cells.size == scal.size, "fiber_scalars misses a (p, A, B) cell")
    scal.ravel()[cells] = values
    return SpaceoidMorphism(dict(d["f_delta"]), dict(d["f_r"]), scal)


# ---------------------------------------------------------------------------
# spectrum and verifier reports


@dataclass(frozen=True)
class SpectrumClass:
    """One unitary class: its id, rank and eigenvalue tuples per
    object."""

    point: str
    rank: int
    eigenvalues: dict  # object id -> tuple of complex values


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
    objs, table = value.spaceoid.objects, value.diag_table
    for i, p in enumerate(value.spaceoid.base_points):
        eigenvalues = {
            str(o): tuple(complex(z) for z in table[n, i])
            for n, o in enumerate(objs)
        }
        classes.append(SpectrumClass(str(p), int(value.ranks[i]), eigenvalues))
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
                "eigenvalues": {o: _pairs(vals) for o, vals in c.eigenvalues.items()},
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
        # files written before the anchor gauge also carry a per-class
        # "blocks" map; it is ignored
        ev = row.get("eigenvalues", {})
        _need(isinstance(ev, dict), "class eigenvalues must be an object")
        eigenvalues = {}
        for o, vals in ev.items():
            _need(isinstance(vals, list), f"eigenvalues of {o!r} must be a list")
            z = _complex_array(vals, (len(vals),), f"eigenvalues of {o!r}")
            eigenvalues[o] = tuple(z.tolist())
        classes.append(SpectrumClass(row["point"], rank, eigenvalues))
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
        residual, bound = row.get("residual", 0.0), row.get("bound")
        _need(
            all(isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in (residual, 0.0 if bound is None else bound)),
            f"check {row['name']!r} residual and bound must be numbers",
        )
        out.checks.append(Check(
            row["name"], row["passed"], float(residual), row.get("detail", ""),
            None if bound is None else float(bound),
        ))
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
