"""Matrix C*-categories.

A category here is concrete: finitely many objects, each carrying a
dimension, and for every ordered pair of objects a subspace of complex
``d_A x d_B`` matrices stored as a Hilbert-Schmidt orthonormal basis.
Composition is matrix multiplication (an element of ``blocks[(A, B)]``
maps the ``B`` space into the ``A`` space), the involution is the
conjugate transpose, and norms are operator norms.  ``close`` produces
such a category from generators; the remaining operations check the
axioms, decide commutativity and fullness, and build the standard
examples (linking categories of bijections-with-phases, groupoid
categories via the left regular representation, and the category
generated by a single rectangular matrix).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import resolve_tol
from .errors import (
    InvalidFunctor,
    InvalidGroupoid,
    NotNormal,
    SpectroidError,
)
from .numkit import (
    _combine,
    _project,
    _rows,
    adjoint,
    hs_member,
    hs_norm,
    hs_orthonormalize,
    op_norm,
)
from .reporting import Report

__all__ = [
    "CategoryPresentation",
    "MatrixCategory",
    "StarFunctor",
    "close",
    "check_axioms",
    "is_commutative",
    "is_full",
    "identity_functor",
    "compose_functors",
    "functor_image",
    "functor_from_images",
    "validate_functor",
    "generated_by",
    "linking_category",
    "linking_generator",
    "multi_linking",
    "multi_linking_generator",
    "FiniteGroupoid",
    "validate_groupoid",
    "groupoid_category",
    "GroupoidTraits",
    "groupoid_report",
]


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class CategoryPresentation:
    """Raw generators: ordered (id, dim) objects and per-pair matrices."""

    objects: tuple
    generators: dict

    def __post_init__(self):
        ids = [o for o, _ in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate object ids")


@dataclass
class MatrixCategory:
    """A closed block family: HS-orthonormal basis per ordered pair."""

    objects: tuple  # ordered (id, dim)
    blocks: dict  # (A, B) -> list of d_A x d_B arrays, possibly empty
    unital: bool

    @property
    def object_ids(self) -> tuple:
        return tuple(o for o, _ in self.objects)

    def dim(self, obj_id) -> int:
        for o, d in self.objects:
            if o == obj_id:
                return d
        raise KeyError(obj_id)

    def block(self, a, b) -> list:
        return self.blocks.get((a, b), [])

    def block_dim(self, a, b) -> int:
        return len(self.block(a, b))

    def identity(self, obj_id) -> np.ndarray:
        return np.eye(self.dim(obj_id), dtype=complex)

    def pairs(self):
        ids = self.object_ids
        return [(a, b) for a in ids for b in ids]


@dataclass
class StarFunctor:
    """Linear *-functor data between two matrix categories.

    ``object_map`` is a bijection of object ids; ``block_maps[(A, B)]``
    holds the matrix of the functor on block ``(A, B)`` in the stored
    HS coordinates (shape: target block dim x source block dim).
    """

    object_map: dict
    block_maps: dict


# ---------------------------------------------------------------------------
# closure


def close(
    presentation: CategoryPresentation,
    unitize: bool = False,
    tol: float | None = None,
) -> MatrixCategory:
    """Close generators under adjoints, products, and linear spans.

    With ``unitize`` the identity matrix of every object is adjoined
    first.  The result's ``unital`` flag is True when units were
    adjoined or when every object identity already lies in the closed
    diagonal span.
    """
    tol = resolve_tol(tol)
    objects = tuple((str(o), int(d)) for o, d in presentation.objects)
    dims = dict(objects)
    ids = [o for o, _ in objects]

    blocks: dict = {(a, b): [] for a in ids for b in ids}
    for (a, b), mats in presentation.generators.items():
        if (a, b) not in blocks:
            raise KeyError(f"generator block ({a}, {b}) names unknown objects")
        for m in mats:
            arr = np.asarray(m, dtype=complex)
            if arr.shape != (dims[a], dims[b]):
                raise ValueError(
                    f"generator in block ({a}, {b}) has shape {arr.shape}, "
                    f"expected {(dims[a], dims[b])}"
                )
            blocks[(a, b)].append(arr)
    if unitize:
        for o, d in objects:
            blocks[(o, o)].append(np.eye(d, dtype=complex))

    for pair in blocks:
        blocks[pair] = hs_orthonormalize(blocks[pair], tol).basis

    max_iters = sum(dims[a] * dims[b] for a in ids for b in ids) + 1
    for _ in range(max_iters):
        changed = False
        candidates: dict = {pair: [] for pair in blocks}
        for (a, b), basis in blocks.items():
            if basis:
                candidates[(b, a)].append(_adjoints(basis))
        for a, b, c in itertools.product(ids, ids, ids):
            left, right = blocks[(a, b)], blocks[(b, c)]
            if left and right:
                candidates[(a, c)].append(_products(left, right))
        for (a, b), basis in blocks.items():
            extra = candidates[(a, b)]
            if not extra:
                continue
            stack = np.concatenate(
                [np.reshape(basis, (-1, dims[a], dims[b]))] + extra
            )
            new_basis = hs_orthonormalize(stack, tol).basis
            if len(new_basis) > len(basis):
                blocks[(a, b)] = new_basis
                changed = True
        if not changed:
            break
    else:
        raise SpectroidError("closure did not stabilize (numerical drift?)")

    unital = unitize or all(
        hs_member(np.eye(d, dtype=complex), blocks[(o, o)], tol)[0]
        for o, d in objects
    )
    return MatrixCategory(objects=objects, blocks=blocks, unital=unital)


# ---------------------------------------------------------------------------
# axiom checks


def _stack(cat, a, b) -> np.ndarray:
    """Block (a, b)'s basis as one ``(n, d_a, d_b)`` array."""
    return np.reshape(cat.block(a, b), (-1, cat.dim(a), cat.dim(b)))


def _adjoints(mats) -> np.ndarray:
    """Conjugate transposes of a stack of matrices, as one stack."""
    return np.asarray(mats).conj().transpose(0, 2, 1)


def _products(left, right) -> np.ndarray:
    """Every product ``m @ n`` of two stacks, ``m``-major, as one stack."""
    prods = np.asarray(left)[:, None] @ np.asarray(right)[None, :]
    return prods.reshape((-1,) + prods.shape[2:])


def _worst_norm(stack) -> float:
    """Largest HS norm in a non-empty stack of matrices."""
    return float(np.linalg.norm(_rows(stack), axis=1).max())


def _block_products_in_span(cat, tol, report):
    worst = 0.0
    where = ""
    for a, b, c in itertools.product(*[cat.object_ids] * 3):
        left, right = cat.block(a, b), cat.block(b, c)
        if not left or not right:
            continue
        _, residual, _ = _project(cat.block(a, c), _products(left, right), tol)
        if residual.max() > worst:
            worst, where = float(residual.max()), f"({a},{b})x({b},{c})"
    report.add(
        "composition-closure",
        worst <= tol * 10.0,
        worst,
        where,
    )


def check_axioms(
    cat: MatrixCategory, tol: float | None = None, seed: int = 0
) -> Report:
    """Verify the concrete C*-category axioms; returns a named report.

    Checks basis orthonormality, adjoint and composition closure, the
    unit membership when the category claims to be unital, and the
    norm identities ``||x* x|| = ||x||^2`` and ``||x y|| <= ||x||
    ||y||`` on seeded random combinations.
    """
    tol = resolve_tol(tol)
    report = Report()
    rng = np.random.default_rng(seed)

    worst = 0.0
    for (a, b), basis in cat.blocks.items():
        if any(m.shape != (cat.dim(a), cat.dim(b)) for m in basis):
            report.add("shapes", False, detail=f"block ({a},{b})")
            return report
        if basis:
            q = _rows(basis)
            gram = q.conj() @ q.T
            worst = max(worst, float(np.linalg.norm(gram - np.eye(len(q)))))
    report.add("orthonormal-bases", worst <= tol * 100.0, worst)

    worst, where = 0.0, ""
    for (a, b), basis in cat.blocks.items():
        if not basis:
            continue
        _, residual, _ = _project(cat.block(b, a), _adjoints(basis), tol)
        if residual.max() > worst:
            worst, where = float(residual.max()), f"({a},{b})"
    report.add("adjoint-closure", worst <= tol * 10.0, worst, where)

    _block_products_in_span(cat, tol, report)

    if cat.unital:
        worst = 0.0
        for o, d in cat.objects:
            _, residual, _ = hs_member(
                np.eye(d, dtype=complex), cat.block(o, o), tol
            )
            worst = max(worst, residual)
        report.add("units", worst <= tol * 10.0, worst)

    worst_cstar, worst_sub = 0.0, 0.0
    for (a, b), basis in cat.blocks.items():
        if not basis:
            continue
        for _ in range(3):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(
                len(basis)
            )
            x = _combine(coeffs, basis, (cat.dim(a), cat.dim(b)))
            nx = op_norm(x)
            dev = abs(op_norm(adjoint(x) @ x) - nx**2)
            worst_cstar = max(worst_cstar, dev / (1.0 + nx**2))
            for cid in cat.object_ids:
                other = cat.block(b, cid)
                if not other:
                    continue
                y = other[0]
                excess = op_norm(x @ y) - nx * op_norm(y)
                worst_sub = max(worst_sub, excess / (1.0 + nx * op_norm(y)))
    report.add("cstar-norm-identity", worst_cstar <= tol * 100.0, worst_cstar)
    report.add("submultiplicativity", worst_sub <= tol * 100.0, worst_sub)
    return report


def is_commutative(cat: MatrixCategory, tol: float | None = None) -> bool:
    """True when every diagonal block is a commutative algebra."""
    tol = resolve_tol(tol)
    for o in cat.object_ids:
        basis = _stack(cat, o, o)
        i, j = np.triu_indices(len(basis), 1)
        if not len(i):
            continue
        comm = basis[i] @ basis[j] - basis[j] @ basis[i]
        dev = np.linalg.norm(_rows(comm), axis=1)
        norms = np.linalg.norm(_rows(basis), axis=1)
        if np.any(dev > tol * (1.0 + norms[i] * norms[j])):
            return False
    return True


def is_full(cat: MatrixCategory, tol: float | None = None) -> bool:
    """True when inner products of every block span both diagonals.

    For each ordered pair (A, B) the spans of ``{x* y}`` and
    ``{x y*}`` over ``x, y`` in block (A, B) must equal the full
    diagonal blocks at B and A respectively (compared by dimension;
    membership is part of closure).
    """
    tol = resolve_tol(tol)
    for a, b in cat.pairs():
        basis = _stack(cat, a, b)
        right = _products(_adjoints(basis), basis)
        left = _products(basis, _adjoints(basis))
        if hs_orthonormalize(right, tol).rank != cat.block_dim(b, b):
            return False
        if hs_orthonormalize(left, tol).rank != cat.block_dim(a, a):
            return False
    return True


# ---------------------------------------------------------------------------
# functors


def identity_functor(cat: MatrixCategory) -> StarFunctor:
    return StarFunctor(
        object_map={o: o for o in cat.object_ids},
        block_maps={
            pair: np.eye(len(basis), dtype=complex)
            for pair, basis in cat.blocks.items()
        },
    )


def compose_functors(phi2: StarFunctor, phi1: StarFunctor) -> StarFunctor:
    """The composite applying ``phi1`` first."""
    object_map = {a: phi2.object_map[b] for a, b in phi1.object_map.items()}
    block_maps = {}
    for (a, b), m1 in phi1.block_maps.items():
        mid = (phi1.object_map[a], phi1.object_map[b])
        m2 = phi2.block_maps[mid]
        block_maps[(a, b)] = m2 @ m1
    return StarFunctor(object_map, block_maps)


def _image(phi: StarFunctor, target: MatrixCategory, a, b, coeffs):
    """Target matrices of source-block (a, b) coordinates ``coeffs``
    (last axis), mapped through ``phi``'s block matrix."""
    a2, b2 = phi.object_map[a], phi.object_map[b]
    return _combine(
        coeffs @ phi.block_maps[(a, b)].T,
        target.block(a2, b2),
        (target.dim(a2), target.dim(b2)),
    )


def functor_image(
    phi: StarFunctor,
    source: MatrixCategory,
    target: MatrixCategory,
    a,
    b,
    x,
    tol: float | None = None,
) -> np.ndarray:
    """Materialize the image of ``x`` (an element of block (a, b))."""
    tol = resolve_tol(tol)
    member, residual, coeffs = hs_member(x, source.block(a, b), tol)
    if not member:
        raise InvalidFunctor(
            f"element not in source block ({a},{b}) (residual {residual:.3e})"
        )
    return _image(phi, target, a, b, coeffs)


def functor_from_images(
    source: MatrixCategory,
    target: MatrixCategory,
    object_map: dict,
    images: dict,
    tol: float | None = None,
) -> StarFunctor:
    """Build the coordinate form of a functor from basis images.

    ``images[(A, B)]`` lists, per source basis element, its image
    matrix in the target block; each must lie in the target span.
    """
    tol = resolve_tol(tol)
    block_maps = {}
    for (a, b), basis in source.blocks.items():
        tgt = target.block(object_map[a], object_map[b])
        if not basis:
            block_maps[(a, b)] = np.zeros((len(tgt), 0), dtype=complex)
            continue
        member, residual, coeffs = _project(tgt, images[(a, b)], tol)
        if not member.all():
            j = int(np.argmin(member))
            raise InvalidFunctor(
                f"image of basis {j} of ({a},{b}) is outside the target "
                f"block (residual {residual[j]:.3e})"
            )
        block_maps[(a, b)] = coeffs.T
    return StarFunctor(dict(object_map), block_maps)


def validate_functor(
    phi: StarFunctor,
    source: MatrixCategory,
    target: MatrixCategory,
    tol: float | None = None,
) -> Report:
    """Check *-functor axioms on all basis elements and pairs.

    Raises ``InvalidFunctor`` when a product of source basis elements
    falls outside its source block.
    """
    tol = resolve_tol(tol)
    report = Report()

    src_ids, tgt_ids = set(source.object_ids), set(target.object_ids)
    bijective = (
        set(phi.object_map) == src_ids
        and set(phi.object_map.values()) == tgt_ids
        and len(set(phi.object_map.values())) == len(phi.object_map)
    )
    report.add("object-bijection", bijective)
    if not bijective:
        return report

    images = {
        (a, b): _image(phi, target, a, b, np.eye(len(basis)))
        for (a, b), basis in source.blocks.items()
    }

    worst = 0.0
    for (a, b), basis in source.blocks.items():
        if not basis:
            continue
        member, residual, coeffs = _project(
            source.block(b, a), _adjoints(basis), tol
        )
        if not member.all():
            report.add("adjoint-closure-of-source", False, float(residual.max()))
            return report
        alt = _image(phi, target, b, a, coeffs)
        worst = max(worst, _worst_norm(_adjoints(images[(a, b)]) - alt))
    report.add("involution", worst <= tol * 100.0, worst)

    worst = 0.0
    for a, b, c in itertools.product(*[source.object_ids] * 3):
        left, right = source.block(a, b), source.block(b, c)
        if not left or not right:
            continue
        member, residual, coeffs = _project(
            source.block(a, c), _products(left, right), tol
        )
        if not member.all():
            raise InvalidFunctor(
                f"element not in source block ({a},{c}) "
                f"(residual {residual.max():.3e})"
            )
        img_mn = _image(phi, target, a, c, coeffs)
        img_m_img_n = _products(images[(a, b)], images[(b, c)])
        worst = max(worst, _worst_norm(img_mn - img_m_img_n))
    report.add("multiplicativity", worst <= tol * 100.0, worst)

    if source.unital and target.unital:
        worst = 0.0
        for o in source.object_ids:
            img = functor_image(
                phi, source, target, o, o, source.identity(o), tol
            )
            worst = max(
                worst,
                float(
                    np.linalg.norm(img - target.identity(phi.object_map[o]))
                ),
            )
        report.add("units", worst <= tol * 100.0, worst)
    return report


# ---------------------------------------------------------------------------
# constructions


def generated_by(
    x,
    a_id: str = "A",
    b_id: str = "B",
    tol: float | None = None,
) -> MatrixCategory:
    """The C*-category generated by one matrix placed in block (A, B).

    No units are adjoined.  When ``a_id == b_id`` the generator must be
    square and normal.
    """
    tol = resolve_tol(tol)
    arr = np.asarray(x, dtype=complex)
    if a_id == b_id:
        if arr.shape[0] != arr.shape[1]:
            raise ValueError("same-object generator must be square")
        comm = arr @ arr.conj().T - arr.conj().T @ arr
        if float(np.linalg.norm(comm)) > tol * (1.0 + hs_norm(arr) ** 2):
            raise NotNormal("same-object generator must be normal")
        objects = ((a_id, arr.shape[0]),)
    else:
        objects = ((a_id, arr.shape[0]), (b_id, arr.shape[1]))
    pres = CategoryPresentation(
        objects=objects, generators={(a_id, b_id): [arr]}
    )
    return close(pres, unitize=False, tol=tol)


def _check_phases(phases, k) -> np.ndarray:
    if phases is None:
        return np.ones(k, dtype=complex)
    arr = np.asarray(phases, dtype=complex)
    if arr.shape != (k,):
        raise ValueError(f"expected {k} phases, got shape {arr.shape}")
    if np.any(np.abs(np.abs(arr) - 1.0) > 1e-12):
        raise ValueError("phases must be unimodular")
    return arr


def _check_bijection(r, k) -> list[int]:
    r = [int(i) for i in r]
    if sorted(r) != list(range(k)):
        raise ValueError(f"not a bijection of range({k}): {r}")
    return r


def linking_generator(k: int, r, phases=None) -> np.ndarray:
    """The distinguished element sum_i phases[i] e_{i, r(i)}."""
    r = _check_bijection(r, k)
    phases = _check_phases(phases, k)
    out = np.zeros((k, k), dtype=complex)
    for i in range(k):
        out[i, r[i]] = phases[i]
    return out


def linking_category(
    k: int,
    r,
    phases=None,
    a_id: str = "A",
    b_id: str = "B",
    tol: float | None = None,
) -> MatrixCategory:
    """Two diagonal algebras of size ``k`` linked along a bijection.

    Diagonal blocks are the full diagonal algebras; the off-diagonal
    block is the span of the matrix units along the graph of ``r``
    (phases scale the distinguished generator but not the span).
    """
    tol = resolve_tol(tol)
    r = _check_bijection(r, k)
    units = [_unit_matrix(k, i, i) for i in range(k)]
    pres = CategoryPresentation(
        objects=((a_id, k), (b_id, k)),
        generators={
            (a_id, a_id): units,
            (b_id, b_id): units,
            (a_id, b_id): [linking_generator(k, r, phases)],
        },
    )
    return close(pres, unitize=False, tol=tol)


def _unit_matrix(k, i, j):
    m = np.zeros((k, k), dtype=complex)
    m[i, j] = 1.0
    return m


def multi_linking_generator(k: int, correspondences, phase_lists, j: int, l: int):
    """Distinguished generator of block (B_{j+1}, B_{l+1}), 0-indexed
    ``j < l``: matrix units along the composed bijection with phases
    multiplied along the way."""
    rs = [_check_bijection(r, k) for r in correspondences]
    ps = [_check_phases(p, k) for p in phase_lists]
    out = np.zeros((k, k), dtype=complex)
    for i in range(k):
        cur, phase = i, 1.0 + 0j
        for step in range(j, l):
            phase *= ps[step][cur]
            cur = rs[step][cur]
        out[i, cur] = phase
    return out


def multi_linking(
    k: int,
    correspondences,
    phase_lists=None,
    tol: float | None = None,
) -> MatrixCategory:
    """Chain of linked diagonal algebras: n-1 bijections, n objects.

    Objects are named ``B1 ... Bn``; block (B_j, B_l) ends up spanned
    by the matrix units of the composed bijection, with phases
    multiplying along composition.
    """
    tol = resolve_tol(tol)
    n = len(correspondences) + 1
    if phase_lists is None:
        phase_lists = [None] * (n - 1)
    if len(phase_lists) != n - 1:
        raise ValueError("need one phase list per correspondence")
    ids = [f"B{j + 1}" for j in range(n)]
    units = [_unit_matrix(k, i, i) for i in range(k)]
    generators = {(o, o): list(units) for o in ids}
    for j in range(n - 1):
        generators[(ids[j], ids[j + 1])] = [
            multi_linking_generator(k, correspondences, phase_lists, j, j + 1)
        ]
    pres = CategoryPresentation(
        objects=tuple((o, k) for o in ids), generators=generators
    )
    return close(pres, unitize=False, tol=tol)


# ---------------------------------------------------------------------------
# groupoids


@dataclass(frozen=True)
class FiniteGroupoid:
    """Explicit arrows-and-tables groupoid."""

    objects: tuple
    arrows: tuple
    source: dict
    target: dict
    compose: dict  # (g, h) -> g o h, defined iff source(g) == target(h)
    identities: dict  # object -> identity arrow
    inverses: dict

    def hom(self, a, b) -> list:
        """Arrows from ``b`` to ``a`` (the block-(a, b) index set)."""
        return [
            g
            for g in self.arrows
            if self.source[g] == b and self.target[g] == a
        ]


def validate_groupoid(g: FiniteGroupoid) -> Report:
    """Exhaustive axiom check (composability, associativity, units,
    inverses)."""
    report = Report()
    ok = all(
        g.source.get(a) in g.objects and g.target.get(a) in g.objects
        for a in g.arrows
    )
    report.add("source-target-defined", ok)
    if not ok:
        return report

    ok, detail = True, ""
    for x in g.arrows:
        for y in g.arrows:
            composable = g.source[x] == g.target[y]
            defined = (x, y) in g.compose
            if composable != defined:
                ok, detail = False, f"({x},{y})"
                break
            if defined:
                z = g.compose[(x, y)]
                if (
                    z not in g.arrows
                    or g.source[z] != g.source[y]
                    or g.target[z] != g.target[x]
                ):
                    ok, detail = False, f"({x},{y})->{z}"
                    break
        if not ok:
            break
    report.add("composition-table", ok, detail=detail)
    if not ok:
        return report

    ok, detail = True, ""
    for x in g.arrows:
        for y in g.arrows:
            if g.source[x] != g.target[y]:
                continue
            xy = g.compose[(x, y)]
            for z in g.arrows:
                if g.source[y] != g.target[z]:
                    continue
                if g.compose[(xy, z)] != g.compose[(x, g.compose[(y, z)])]:
                    ok, detail = False, f"({x},{y},{z})"
                    break
            if not ok:
                break
        if not ok:
            break
    report.add("associativity", ok, detail=detail)

    ok = True
    for o in g.objects:
        e = g.identities.get(o)
        if e is None or g.source.get(e) != o or g.target.get(e) != o:
            ok = False
            break
        if any(
            g.compose[(e, y)] != y for y in g.arrows if g.target[y] == o
        ) or any(g.compose[(x, e)] != x for x in g.arrows if g.source[x] == o):
            ok = False
            break
    report.add("identities", ok)

    ok = True
    for x in g.arrows:
        inv = g.inverses.get(x)
        if inv is None:
            ok = False
            break
        if (
            g.compose.get((x, inv)) != g.identities[g.target[x]]
            or g.compose.get((inv, x)) != g.identities[g.source[x]]
        ):
            ok = False
            break
    report.add("inverses", ok)
    return report


def groupoid_category(
    g: FiniteGroupoid, tol: float | None = None
) -> MatrixCategory:
    """The reduced groupoid C*-category via the left regular action.

    The space at object ``A`` has one basis vector per arrow with
    target ``A``; an arrow ``f: B -> A`` acts by post-composition as a
    0/1 partial permutation matrix from the ``B`` space to the ``A``
    space.  Blocks are the spans of these operators.
    """
    tol = resolve_tol(tol)
    rep = validate_groupoid(g)
    if not rep.passed:
        raise InvalidGroupoid(
            "; ".join(c.name for c in rep.failures())
        )
    spaces = {o: [h for h in g.arrows if g.target[h] == o] for o in g.objects}
    index = {o: {h: i for i, h in enumerate(spaces[o])} for o in g.objects}
    objects = tuple((o, len(spaces[o])) for o in g.objects)

    blocks: dict = {}
    for a in g.objects:
        for b in g.objects:
            arrows = g.hom(a, b)
            ops = np.zeros(
                (len(arrows), len(spaces[a]), len(spaces[b])), dtype=complex
            )
            for k, f in enumerate(arrows):
                for h in spaces[b]:
                    ops[k, index[a][g.compose[(f, h)]], index[b][h]] = 1.0
            blocks[(a, b)] = hs_orthonormalize(ops, tol).basis
    return MatrixCategory(objects=objects, blocks=blocks, unital=True)


class GroupoidTraits(NamedTuple):
    stabilizers_abelian: bool
    transitive: bool


def groupoid_report(g: FiniteGroupoid) -> GroupoidTraits:
    """Combinatorial classification used to cross-check the category:
    commutativity should match abelian stabilizers, fullness should
    match transitivity."""
    abelian = True
    for o in g.objects:
        stab = g.hom(o, o)
        for x in stab:
            for y in stab:
                if g.compose[(x, y)] != g.compose[(y, x)]:
                    abelian = False
    transitive = all(
        len(g.hom(a, b)) > 0 for a in g.objects for b in g.objects
    )
    return GroupoidTraits(abelian, transitive)
