"""Matrix C*-categories.

A category here is concrete: finitely many objects, each carrying a
dimension, and for every ordered pair of objects a subspace of complex
``d_A x d_B`` matrices stored as a Hilbert-Schmidt orthonormal basis.
Composition is matrix multiplication (an element of ``blocks[(A, B)]``
maps the ``B`` space into the ``A`` space), the involution is the
conjugate transpose, and norms are operator norms.  ``close`` produces
such a category from generators; the remaining operations check the
axioms, decide commutativity and fullness, and build the standard
examples (linking categories of bijections-with-phases, the category
generated by a single rectangular matrix, and groupoid categories via
the left regular representation of a ``groups.FiniteGroupoid``, whose
format and axiom check live in ``groups``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import groups
from .config import (
    AXIOM_SLACK, FULLNESS_RTOL, FUNCTOR_SLACK, GRAM_SLACK, PHASE_ATOL,
    resolve_tol,
)
from .errors import InvalidFunctor, InvalidGroupoid, SpectroidError
from .numkit import (
    _PAIR_CHUNK,
    _adjoints,
    _check_normal,
    _combine,
    _extend,
    _noncommuting_pair,
    _project,
    _rows,
    hs_member,
    hs_orthonormalize,
    joint_diagonalize,
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
    "validate_functor",
    "linking_category",
    "multi_linking",
    "multi_linking_generator",
    "groupoid_category",
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

    The span stays *-symmetric: block ``(B, A)`` is the adjoints of
    block ``(A, B)``, so only the blocks on or above the diagonal, in
    object order, grow.  Each starts as its generators followed by the
    adjoints of its mirror's, orthonormalized in that order.

    Rounds are semi-naive.  Spans only grow, so an adjoint or product
    of elements all present a round ago already lies in the span it was
    tested against then.  A round offers these blocks only the products
    with a new factor, from any blocks, and the diagonal blocks the
    adjoints of their new elements, in row-major order; ``_extend``
    appends their new directions to the kept basis, best-conditioned
    first: each step keeps the candidate whose residual is largest
    relative to its drop cut, so a direction that is nearly dependent
    on the basis is never taken while a cleaner candidate for it is on
    offer, and its rounding is not kept as a new direction.  The blocks
    below then follow their mirrors (``x y = (y* x*)*``).

    Rounds stop when the generators act on the span.  Let G be the
    starting blocks, which hold the generators and their adjoints, and
    call the elements added since the last round fresh.  Before every
    round, ``_generators_act`` tests that the adjoint of every fresh
    diagonal element and every product ``g y`` of ``g`` in G with ``y``
    fresh lie in the span, under ``_project``'s drop rule; when they
    all do, ``close`` stops without the round, which would add nothing.
    Proof: a span that contains G and is closed under adjoints and under
    left multiplication by G contains every word in the generators, so
    it is the closure.  Before round 0 every element is fresh, and G is
    the span.  Before round r >= 1, the elements that are not fresh
    were all there at round r - 1, so their adjoints and pairwise
    products lie in the span: offered on and above the diagonal, and
    mirrored below.  G is in their span, so their products with G are too.
    """
    tol = resolve_tol(tol)
    objects = tuple((str(o), int(d)) for o, d in presentation.objects)
    dims = dict(objects)
    ids = [o for o, _ in objects]
    rank = {o: i for i, o in enumerate(ids)}

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

    # every block is one (n, d_A, d_B) stack while it closes; row-major,
    # a block above the diagonal is set before its mirror below
    for a, b in blocks:
        if rank[a] > rank[b]:
            blocks[(a, b)] = _adjoints(blocks[(b, a)])
            continue
        mats = blocks[(a, b)] + [m.conj().T for m in blocks[(b, a)]]
        basis = hs_orthonormalize(mats, tol).basis
        blocks[(a, b)] = np.array(basis, complex).reshape(len(basis), dims[a], dims[b])
    gens = dict(blocks)

    # old[pair]: how many elements of the basis the last round multiplied.
    # A round that adds no direction leaves nothing fresh, so the stop
    # test passes before the next round: the loop ends within the
    # dimension count plus two rounds.
    old = dict.fromkeys(blocks, 0)
    max_iters = sum(dims[a] * dims[b] for a in ids for b in ids) + 2
    for _ in range(max_iters):
        if _generators_act(blocks, gens, old, ids, tol):
            break
        # blocks on or above the diagonal take candidates, unless full
        candidates: dict = {
            (a, b): [] for (a, b), basis in blocks.items()
            if rank[a] <= rank[b] and len(basis) < dims[a] * dims[b]
        }
        for (a, b), basis in blocks.items():  # off the diagonal, mirrors hold adjoints
            if a == b and len(basis) > old[(a, b)] and (a, b) in candidates:
                candidates[(a, b)].append(_adjoints(basis[old[(a, b)]:]))
        for a, b, c in itertools.product(ids, ids, ids):
            if (a, c) not in candidates:
                continue
            left, right = blocks[(a, b)], blocks[(b, c)]
            nl, nr = old[(a, b)], old[(b, c)]
            # row-major: old left x new right, then new left x all right
            if nl and len(right) > nr:
                candidates[(a, c)].append(_products(left[:nl], right[nr:]))
            if len(left) > nl and len(right):
                candidates[(a, c)].append(_products(left[nl:], right))
        old = {pair: len(basis) for pair, basis in blocks.items()}
        for pair, extra in candidates.items():
            if extra:
                new = _extend(blocks[pair], np.concatenate(extra), tol, best_first=True)
                if new:
                    blocks[pair] = np.concatenate([blocks[pair], new])
        for a, b in candidates:  # the mirrors follow once the round is done
            if a != b and len(blocks[(a, b)]) > old[(a, b)]:
                blocks[(b, a)] = _adjoints(blocks[(a, b)])
    else:
        raise SpectroidError("closure did not stabilize (numerical drift?)")

    unital = unitize or all(
        hs_member(np.eye(d, dtype=complex), blocks[(o, o)], tol)[0]
        for o, d in objects
    )
    blocks = {pair: list(basis) for pair, basis in blocks.items()}
    return MatrixCategory(objects=objects, blocks=blocks, unital=unital)


def _generators_act(blocks, gens, old, ids, tol) -> bool:
    """True when the adjoints of the fresh diagonal elements (those of
    block ``(a, a)`` past ``old[(a, a)]``) and the products ``g y`` of
    the generator stacks ``gens`` with the fresh elements of every block
    lie in the span of their target blocks, each within ``_project``'s
    drop rule; a full target block holds everything, and off the
    diagonal block ``(b, a)`` holds the adjoints of block ``(a, b)``.
    The candidates of a target block go through one ``_project``; the
    blocks are tested in increasing number of candidates, and the test
    stops at the first that fails, so a test that fails costs little."""
    fresh = {pair: basis[old[pair]:] for pair, basis in blocks.items()}

    def size(pair):  # the number of candidates of a target block
        a, c = pair
        return (a == c) * len(fresh[(a, a)]) + sum(
            len(gens[(a, b)]) * len(fresh[(b, c)]) for b in ids
        )

    for a, c in sorted(blocks, key=size):
        basis = blocks[(a, c)]
        if len(basis) == basis.shape[1] * basis.shape[2]:
            continue
        tests = []
        if a == c and len(fresh[(a, a)]):
            tests.append(_adjoints(fresh[(a, a)]))
        for b in ids:
            if len(gens[(a, b)]) and len(fresh[(b, c)]):
                tests.append(_products(gens[(a, b)], fresh[(b, c)]))
        if tests and not _project(basis, np.concatenate(tests), tol)[0].all():
            return False
    return True


# ---------------------------------------------------------------------------
# axiom checks


def _stack(cat, a, b) -> np.ndarray:
    """Block (a, b)'s basis as one ``(n, d_a, d_b)`` array."""
    return np.reshape(cat.block(a, b), (-1, cat.dim(a), cat.dim(b)))


def _products(left, right) -> np.ndarray:
    """Every product ``m @ n`` of two stacks, ``m``-major, as one stack."""
    prods = np.asarray(left)[:, None] @ np.asarray(right)[None, :]
    return prods.reshape((-1,) + prods.shape[2:])


def _product_chunks(left, right):
    """Every product ``left[i] @ right[j]`` of two stacks, ``i``-major,
    in chunks of about ``_PAIR_CHUNK`` matrix entries, so memory does
    not grow with the number of pairs: each chunk comes as ``(s,
    products)`` with ``s`` the slice of the pairs it covers, and the
    products come as one ``_products`` stack when they fit in a chunk."""
    size = left.shape[1] * right.shape[2]
    n = len(left) * len(right)
    if n * size <= _PAIR_CHUNK:
        yield slice(0, n), _products(left, right)
        return
    i, j = np.divmod(np.arange(n), len(right))
    step = max(1, _PAIR_CHUNK // max(1, size))
    for s in range(0, n, step):
        chunk = slice(s, s + step)
        yield chunk, left[i[chunk]] @ right[j[chunk]]


def _closure_residual(left, right, target, tol) -> float:
    """The largest HS residual of a product of an element of stack
    ``left`` and one of ``right`` projected on the HS-orthonormal stack
    ``target``, a NaN propagating; the products are formed in chunks."""
    return np.max([
        _project(target, prods, tol)[1].max()
        for _, prods in _product_chunks(left, right)
    ])


def check_axioms(
    cat: MatrixCategory, tol: float | None = None, *, _certified=None
) -> Report:
    """Verify the concrete C*-category axioms; returns a named report.

    Checks basis orthonormality, adjoint and composition closure, and
    the unit membership when the category claims to be unital.  The
    operator-norm identities ``||x* x|| = ||x||^2`` and ``||x y|| <=
    ||x|| ||y||`` are not checked: they hold for every matrix, so no
    defect of a category could make them fail.  The bases' Gram
    matrices, and the projections of the objects' identities on their
    diagonal blocks, are formed once per group of blocks of one shape
    (:func:`_by_shape`).

    ``_certified`` is private to ``duality.roundtrip_category``, which
    takes it from ``duality.gelfand``'s ``closure_bounds``: ``None``,
    or a pair of arrays, ``(o, o, n)`` and ``(o, o, o, n, n)`` indexed
    by object position, of proven upper bounds on the HS residuals
    outside their blocks of the adjoints of every block's basis
    elements and of the products of every triple's, each clearing the
    check with ``config.CERT_SLACK`` to spare.  When the bounds fit the
    category (:func:`_bounds_fit`), ``adjoint-closure`` and
    ``composition-closure`` report their maxima per pair and per triple
    and form no adjoint or product; otherwise they form every adjoint
    and product, block by block.
    """
    tol = resolve_tol(tol)
    report = Report()
    dims = dict(cat.objects)
    for (a, b), basis in cat.blocks.items():
        shape = (dims[a], dims[b])
        if any(m.shape != shape for m in basis):
            report.add("shapes", False, detail=f"block ({a},{b})")
            return report
    ids = cat.object_ids
    filled = [pair for pair, basis in cat.blocks.items() if basis]
    report.check(
        "orthonormal-bases", _by_shape(_gram_defects, cat, filled), GRAM_SLACK * tol
    )
    if _bounds_fit(cat, _certified):
        # every block holds n elements, so the triples are all of them,
        # in object order
        triples = list(itertools.product(ids, repeat=3))
        at = {obj: i for i, obj in enumerate(ids)}
        adj = _certified[0].max(axis=-1)
        adjoint = [adj[at[a], at[b]] for a, b in filled]
        closure = _certified[1].max(axis=(-2, -1)).ravel()
    else:
        triples = [
            (a, b, c)
            for a, b, c in itertools.product(ids, repeat=3)
            if cat.block(a, b) and cat.block(b, c)
        ]
        stacks = {pair: _stack(cat, *pair) for pair in cat.pairs()}
        adjoint = [
            _project(stacks[(b, a)], _adjoints(stacks[(a, b)]), tol)[1].max()
            for a, b in filled
        ]
        closure = [
            _closure_residual(stacks[(a, b)], stacks[(b, c)], stacks[(a, c)], tol)
            for a, b, c in triples
        ]
    report.check(
        "adjoint-closure",
        adjoint,
        AXIOM_SLACK * tol,
        lambda i: "({},{})".format(*filled[i]),
    )
    report.check(
        "composition-closure",
        closure,
        AXIOM_SLACK * tol,
        lambda i: "({0},{1})x({1},{2})".format(*triples[i]),
    )
    if cat.unital:
        units = _by_shape(
            lambda x: _identity_projections(x, tol)[1][:, 0], cat, [(i, i) for i in ids]
        )
        report.check("units", units, AXIOM_SLACK * tol)
    return report


def _bounds_fit(cat, certified) -> bool:
    """Whether ``certified`` has ``duality.gelfand``'s shapes for
    ``cat``, ``(o, o, n)`` and ``(o, o, o, n, n)``, with ``n`` elements
    in every block: only then are its bounds read."""
    if certified is None:
        return False
    o, sizes = len(cat.objects), {cat.block_dim(a, b) for a, b in cat.pairs()}
    return len(sizes) == 1 and [np.shape(x) for x in certified] == [
        (o, o, *sizes), (o, o, o, *sizes, *sizes)
    ]


def _by_shape(fn, cat, pairs) -> np.ndarray:
    """``fn``'s value on the basis of every block of ``pairs``, in input
    order: the bases of one shape go to ``fn`` together, as one ``(g,
    n, d_a, d_b)`` array, and ``fn`` returns their ``g`` values."""
    dims = dict(cat.objects)
    groups: dict = {}
    for i, (a, b) in enumerate(pairs):
        groups.setdefault((len(cat.block(a, b)), dims[a], dims[b]), []).append(i)
    out = np.empty(len(pairs))
    for shape, idx in groups.items():
        x = np.array([cat.block(*pairs[i]) for i in idx], dtype=complex)
        out[idx] = fn(x.reshape((len(idx),) + shape))
    return out


def _gram_defects(x) -> np.ndarray:
    """``||Q Q* - I||_HS`` of every basis of a ``(..., n, d_a, d_b)``
    stack, ``Q`` the basis as rows."""
    rows = _rows(x)
    gram = rows.conj() @ np.swapaxes(rows, -1, -2) - np.eye(rows.shape[-2])
    return np.linalg.norm(gram, axis=(-2, -1))


def _identity_projections(x, tol) -> tuple:
    """:func:`numkit._project` of the ``d x d`` identity on every basis
    of a ``(g, n, d, d)`` stack."""
    d = x.shape[-1]
    return _project(x, np.broadcast_to(np.eye(d), (len(x), 1, d, d)), tol)


def is_commutative(cat: MatrixCategory, tol: float | None = None) -> bool:
    """True when every diagonal block is a commutative algebra."""
    tol = resolve_tol(tol)
    return all(
        _noncommuting_pair(_stack(cat, o, o), tol) is None
        for o in cat.object_ids
    )


def _invertible(h: np.ndarray) -> bool:
    """Every positive matrix of a stack has its smallest eigenvalue
    above ``FULLNESS_RTOL`` times its largest (vacuously true for empty
    matrices)."""
    w = np.linalg.eigvalsh(h)
    return not w.shape[-1] or bool(np.all(w[..., 0] > FULLNESS_RTOL * w[..., -1]))


def _grams(basis) -> tuple:
    """``sum_i x_i* x_i`` and ``sum_i x_i x_i*`` over a ``(n, d_a,
    d_b)`` stack of matrices ``x_i``."""
    n, da, db = basis.shape
    rows = basis.reshape(n * da, db)  # the x_i stacked vertically
    cols = basis.transpose(1, 0, 2).reshape(da, n * db)
    return rows.conj().T @ rows, cols @ cols.conj().T


def is_full(cat: MatrixCategory, tol: float | None = None) -> bool:
    """True when inner products of every block span both diagonals.

    For each ordered pair (A, B) the spans of ``{x* y}`` and ``{x y*}``
    over ``x, y`` in block (A, B) must equal the diagonal blocks at B
    and A respectively.

    On a unital category, with ``x_i`` an HS-orthonormal basis of block
    (A, B), this holds at B exactly when ``h = sum_i x_i* x_i`` is
    invertible (and at A when ``sum_i x_i x_i*`` is; the bound is
    ``config.FULLNESS_RTOL``).  Proof: J = span{x* y} is a two-sided
    ideal of C_BB (``z x* y = (x z*)* y`` and ``x z*`` lies in the
    closed block (A, B)), and it contains ``h``.  If ``h`` is
    invertible, its inverse is a polynomial in ``h`` and lies in C_BB,
    so ``1 = h^-1 h`` lies in J and J = C_BB.  If ``h v = 0`` for some
    ``v != 0``, then ``sum_i |x_i v|^2 = <v, h v> = 0``, so every ``y
    v = 0`` for y in the block, every element of J kills ``v``, and the
    unit of C_BB is not in J.  The argument needs the unit and closure,
    not commutativity.  Each object's Gram matrices, over all its
    pairs, go through one stacked ``eigvalsh``.  Without units the
    spans' dimensions are compared directly (Gram-Schmidt rank against
    the diagonal block's dimension).
    """
    tol = resolve_tol(tol)
    if cat.unital:
        grams = {o: [] for o in cat.object_ids}  # per object, over its pairs
        for a, b in cat.pairs():
            at_b, at_a = _grams(_stack(cat, a, b))
            grams[b].append(at_b)
            grams[a].append(at_a)
        return all(_invertible(np.stack(h)) for h in grams.values())
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


def _check_block_maps(phi: StarFunctor, source, target) -> None:
    """Raise ``InvalidFunctor`` naming the first source block whose map
    is not (target block dim x source block dim); ``phi``'s object map
    is a bijection."""
    for a, b in source.pairs():
        a2, b2 = phi.object_map[a], phi.object_map[b]
        want = (target.block_dim(a2, b2), source.block_dim(a, b))
        got = np.shape(phi.block_maps.get((a, b)))
        if got != want:
            raise InvalidFunctor(
                f"block map ({a},{b}) has shape {got}, expected {want}"
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
    """Materialize the image of ``x``: one element of block (a, b), or
    a ``(n, d_a, d_b)`` stack of them."""
    tol = resolve_tol(tol)
    x = np.asarray(x, dtype=complex)
    member, residual, coeffs = _project(
        source.block(a, b), np.reshape(x, (-1,) + x.shape[-2:]), tol
    )
    if not member.all():
        raise InvalidFunctor(
            f"element not in source block ({a},{b}) "
            f"(residual {residual.max():.3e})"
        )
    img = _image(phi, target, a, b, coeffs)
    return img if x.ndim == 3 else img[0]


def _product_defects(phi, source, target, image, a, b, c, tol):
    """HS defects ``||phi(x y) - phi(x) phi(y)||`` of every pair of
    basis elements ``x = e_i`` of (a, b) and ``y = e_j`` of (b, c),
    ``i``-major, the products formed in chunks of ``_product_chunks``
    and mapped by :func:`functor_image`, which raises
    ``InvalidFunctor`` for the first chunk with a product outside
    source block (a, c); ``image(a, b)`` is the stack of the images of
    block (a, b)'s basis."""
    left, right = _stack(source, a, b), _stack(source, b, c)
    i, j = np.divmod(np.arange(len(left) * len(right)), len(right))
    return np.concatenate([
        np.linalg.norm(
            _rows(
                functor_image(phi, source, target, a, c, prods, tol)
                - image(a, b)[i[s]] @ image(b, c)[j[s]]
            ),
            axis=1,
        )
        for s, prods in _product_chunks(left, right)
    ])


def _bijective(phi: StarFunctor, source, target) -> bool:
    """True when ``phi``'s object map is a bijection from ``source``'s
    objects onto ``target``'s."""
    images = set(phi.object_map.values())
    return (
        set(phi.object_map) == set(source.object_ids)
        and images == set(target.object_ids)
        and len(images) == len(phi.object_map)
    )


def validate_functor(
    phi: StarFunctor,
    source: MatrixCategory,
    target: MatrixCategory,
    tol: float | None = None,
    *,
    _certified=None,
) -> Report:
    """Check *-functor axioms on all basis elements and pairs.

    Raises ``InvalidFunctor`` when a block map's shape is not (target
    block dim x source block dim), or when a product of source basis
    elements, or an object's identity, falls outside its source block.

    ``_certified`` is private to ``duality.gelfand``: ``None``, or a
    pair of arrays, ``(o, o, n)`` and ``(o, o, o, n, n)`` indexed by
    object position, of proven upper bounds on the involution defects of
    every block's basis elements and on the multiplicativity defects of
    the pairs of every triple's, each clearing the check with
    ``config.CERT_SLACK`` to spare.  When the bounds fit the source
    (:func:`_bounds_fit`), ``involution`` and ``multiplicativity``
    report them and form no adjoint or product; otherwise they form
    every adjoint and product.  It
    decides nothing else: ``units`` maps the identities through one
    batched projection per group of same-shaped diagonal blocks
    (:func:`_unit_defects`) either way.
    """
    tol = resolve_tol(tol)
    report = Report()

    bijective = _bijective(phi, source, target)
    report.add("object-bijection", bijective)
    if not bijective:
        return report
    _check_block_maps(phi, source, target)

    images = {}

    def image(a, b):  # the images of block (a, b)'s basis, formed on first use
        if (a, b) not in images:
            images[(a, b)] = _image(phi, target, a, b, np.eye(source.block_dim(a, b)))
        return images[(a, b)]

    if not _bounds_fit(source, _certified):
        inv = [np.zeros(0)]  # HS norms of the defects, block after block
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
            inv.append(np.linalg.norm(_rows(_adjoints(image(a, b)) - alt), axis=1))
        mult = [np.zeros(0)] + [
            _product_defects(phi, source, target, image, a, b, c, tol)
            for a, b, c in itertools.product(*[source.object_ids] * 3)
            if source.block(a, b) and source.block(b, c)
        ]
        inv, mult = np.concatenate(inv), np.concatenate(mult)
    else:
        inv, mult = _certified
    report.check("involution", inv, FUNCTOR_SLACK * tol)
    report.check("multiplicativity", mult, FUNCTOR_SLACK * tol)

    if source.unital and target.unital:
        units = _unit_defects(phi, source, target, tol)
        report.check("units", units, FUNCTOR_SLACK * tol)
    return report


def _unit_defects(phi, source, target, tol) -> np.ndarray:
    """``||phi(1_A) - 1_phi(A)||_HS`` for every source object ``A``, in
    object order: the identities are projected in one batch per group
    of objects whose diagonal blocks, and whose images' diagonal blocks,
    have one shape.  Raises ``InvalidFunctor`` as ``functor_image``
    does, for the first object in object order whose identity is not in
    its block."""
    ids, obj_map = source.object_ids, phi.object_map
    stacks = [
        (_stack(source, o, o), _stack(target, obj_map[o], obj_map[o])) for o in ids
    ]
    shapes: dict = {}
    for i, (src, tgt) in enumerate(stacks):
        shapes.setdefault((src.shape, tgt.shape), []).append(i)
    member = np.empty(len(ids), dtype=bool)
    residual, units = np.empty(len(ids)), np.empty(len(ids))
    for (_, (_, _, d)), idx in shapes.items():
        src = np.array([stacks[i][0] for i in idx], dtype=complex)
        tgt = np.array([stacks[i][1] for i in idx], dtype=complex)
        ok, res, coeffs = _identity_projections(src, tol)
        member[idx], residual[idx] = ok[:, 0], res[:, 0]
        maps = np.array([phi.block_maps[(ids[i], ids[i])] for i in idx])
        img = _combine(coeffs @ np.swapaxes(maps, -1, -2), tgt, (d, d))
        units[idx] = np.linalg.norm(img[:, 0] - np.eye(d), axis=(-2, -1))
    if not member.all():
        f = int(np.argmin(member))
        raise InvalidFunctor(
            f"element not in source block ({ids[f]},{ids[f]}) "
            f"(residual {residual[f]:.3e})"
        )
    return units


# ---------------------------------------------------------------------------
# constructions


def _from_classes(objects, classes) -> MatrixCategory:
    """The category on the ordered ``(id, dim)`` ``objects`` read off
    its classes, each a ``(sum d, r)`` array ``W`` whose rows at an
    object, in object order, are the class's isometry into it (or zero).
    Element ``p`` of block ``(A, B)`` is ``W_pA W_pB* / sqrt(r_p)``, an
    HS-orthonormal basis in class order: each class forms one product
    ``W W*``, sliced into its blocks.  It is unital when the ranks sum
    to every object's dimension; no classes give empty blocks."""
    rows, end = {}, 0
    for o, d in objects:
        rows[o], end = slice(end, end + d), end + d
    products = [w @ w.conj().T / np.sqrt(w.shape[1]) for w in classes]
    rank = sum(w.shape[1] for w in classes)
    return MatrixCategory(
        objects=objects,
        blocks={(a, b): [g[rows[a], rows[b]] for g in products] for a in rows for b in rows},
        unital=all(rank == d for _, d in objects),
    )


def _element_classes(x, a_id: str, b_id: str, tol: float, seed: int):
    """The ``(objects, kept)`` classes of one matrix placed in block
    (A, B), for :func:`_from_classes` or a direct read.

    Raises ``ValueError`` on non-finite input and on a non-square
    ``x`` on one object, and :class:`NotNormal` when that ``x`` is not
    normal.  By Gel'fand duality the closure is fixed by ``x``'s
    spectral data, so one :func:`numkit.joint_diagonalize` gives it,
    without ``close``'s product rounds.  Across two objects that is the
    Hermitian dilation ``D = [[0, x], [x*, 0]]``, whose eigenvalues are
    the ``+-s`` of ``x``'s singular values ``s``, so its classes follow
    the one ``CLUSTER_RTOL`` rule in ``s``; on one object it is ``x``
    itself.  A class is kept when its eigenvalue (on one object, its
    modulus) exceeds ``tol * (1 + ||x||_op)``, ``close``'s drop rule;
    that also drops the kernel and the mirrored classes ``-s``.  A kept
    class of rank ``r`` is its columns ``W``, scaled by ``sqrt(2)``
    across two objects, whose rows split into isometries ``U = W[:m]``
    and ``V = W[m:]`` (``U = V = W`` on one object); ``objects`` is
    ``((A, m), (B, n))``, or ``((A, m),)`` on one object.

    That one-input ``joint_diagonalize`` reads the classes off the
    input's own normal eigendecomposition; ``seed`` seeds the attempts
    it falls back to when that result misses its target, and its errors
    pass through.

    The limit near the cuts: a singular value ``s`` within
    the cluster cut of ``-s``, or of 0 when ``x`` has a kernel, shares
    one class with them.  That class has mean zero and is dropped.  At
    the default tolerance ``funcalc``'s zero cut drops ``s`` too; at a
    tighter ``tol`` (1e-10) the class raises ``DiagonalizationFailed``
    when it misses ``joint_diagonalize``'s fallback bound, and when it
    does not, ``x`` lies outside the closure's span by about ``s`` and
    ``funcalc``'s span certificate raises ``DiagonalizationFailed``.
    The cluster cut's floor is absolute, so for ``||x||`` from about
    10^-8.75 to 10^-7.75 it can join distinct singular values into one
    class that is not block-scalar, and ``joint_diagonalize`` raises.
    """
    arr = np.asarray(x, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite entries in generated_by input")
    m, n = arr.shape
    if a_id == b_id:
        if m != n:
            raise ValueError("same-object generator must be square")
        _check_normal(arr, tol)
        objects = ((a_id, m),)
        eig = joint_diagonalize([arr], tol, seed=seed)
        values, cols = np.abs(eig.eigenvalues[0]), eig.unitary
    else:
        objects = ((a_id, m), (b_id, n))
        dilation = np.zeros((m + n, m + n), dtype=complex)
        dilation[:m, m:] = arr
        dilation[m:, :m] = arr.conj().T
        eig = joint_diagonalize([dilation], tol, seed=seed)
        values, cols = eig.eigenvalues[0].real, np.sqrt(2.0) * eig.unitary
    cut = tol * (1.0 + np.abs(values).max(initial=0.0))
    kept = [cols[:, s:s + r] for s, r, v in zip(eig.starts, eig.sizes, values) if v > cut]
    return objects, kept


def generated_by(
    x,
    a_id: str = "A",
    b_id: str = "B",
    tol: float | None = None,
    seed: int = 0,
) -> MatrixCategory:
    """The C*-category generated by one matrix placed in block (A, B),
    with no units adjoined: :func:`_from_classes` of
    :func:`_element_classes`, so basis element ``i`` of every block
    belongs to kept class ``i``.  Nothing in the package calls it
    (``funcalc`` reads the same classes directly); it is the closure's
    constructor for the tests, and ``perfbench/tracer.py`` times it by
    name.
    """
    return _from_classes(*_element_classes(x, a_id, b_id, resolve_tol(tol), seed))


def _check_phases(phases, k) -> np.ndarray:
    if phases is None:
        return np.ones(k, dtype=complex)
    arr = np.asarray(phases, dtype=complex)
    if arr.shape != (k,):
        raise ValueError(f"expected {k} phases, got shape {arr.shape}")
    if not np.all(np.abs(np.abs(arr) - 1.0) <= PHASE_ATOL):
        raise ValueError("phases must be unimodular")
    return arr


def _check_bijection(r, k) -> list[int]:
    r = [int(i) for i in r]
    if sorted(r) != list(range(k)):
        raise ValueError(f"not a bijection of range({k}): {r}")
    return r


def linking_category(
    k: int, r, phases=None, a_id: str = "A", b_id: str = "B"
) -> MatrixCategory:
    """Two diagonal algebras of size ``k`` linked along a bijection.

    Diagonal blocks are the full diagonal algebras; the off-diagonal
    block is the span of the matrix units along the graph of ``r``
    (phases scale the basis elements but not the span).  Built in
    closed form by :func:`_linking_chain` on ``(a_id, b_id)``.
    """
    if a_id == b_id:
        raise ValueError("duplicate object ids")
    return _linking_chain(k, (a_id, b_id), [r], [phases])


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


def multi_linking(k: int, correspondences, phase_lists=None) -> MatrixCategory:
    """Chain of linked diagonal algebras: n-1 bijections, n objects.

    Objects are named ``B1 ... Bn``; block (B_j, B_l) is spanned by the
    matrix units of the composed bijection, with phases multiplying
    along composition.  Built in closed form by :func:`_linking_chain`.
    """
    n = len(correspondences) + 1
    if phase_lists is None:
        phase_lists = [None] * (n - 1)
    if len(phase_lists) != n - 1:
        raise ValueError("need one phase list per correspondence")
    ids = [f"B{j + 1}" for j in range(n)]
    return _linking_chain(k, ids, correspondences, phase_lists)


def _linking_chain(k, ids, correspondences, phase_lists) -> MatrixCategory:
    """The closure of a linking chain on objects ``ids``, without
    ``close``: its spectrum is ``k`` points joined across the objects
    by the composed bijections, with trivial holonomy, so every block
    is known outright.  Diagonal blocks hold ``E_00, E_11, ...``; block
    ``(ids[j], ids[l])``, ``j < l``, holds the nonzero entries of
    :func:`multi_linking_generator`, one element per row in row order
    (element ``i`` is ``phase * E_{i, pi(i)}``), and block ``(ids[l],
    ids[j])`` their adjoints in the same order.  Each block is an
    HS-orthonormal basis, and the diagonal units make it unital."""
    rows = np.arange(k)
    units = np.zeros((k, k, k), dtype=complex)
    units[rows, rows, rows] = 1.0
    blocks = {(o, o): list(units.copy()) for o in ids}
    for j, l in itertools.combinations(range(len(ids)), 2):
        gen = multi_linking_generator(k, correspondences, phase_lists, j, l)
        cols = np.nonzero(gen)[1]  # one per row, in row order
        up, down = np.zeros((2, k, k, k), dtype=complex)
        up[rows, rows, cols] = gen[rows, cols]
        down[rows, cols, rows] = gen[rows, cols].conj()
        blocks[(ids[j], ids[l])], blocks[(ids[l], ids[j])] = list(up), list(down)
    return MatrixCategory(objects=tuple((o, k) for o in ids), blocks=blocks, unital=True)


# ---------------------------------------------------------------------------
# groupoids


def groupoid_category(
    g: groups.FiniteGroupoid, tol: float | None = None
) -> MatrixCategory:
    """The reduced groupoid C*-category via the left regular action.

    The space at object ``A`` has one basis vector per arrow with
    target ``A``; an arrow ``f: B -> A`` acts by post-composition as a
    0/1 partial permutation matrix from the ``B`` space to the ``A``
    space.  Blocks are the spans of these operators.
    """
    tol = resolve_tol(tol)
    rep = groups.validate_groupoid(g)
    if not rep.passed:
        raise InvalidGroupoid(
            "; ".join(c.name for c in rep.failures())
        )
    spaces = [np.flatnonzero(g.target == o) for o in range(len(g.objects))]
    slot = np.empty(len(g.arrows), dtype=np.intp)  # position in its space
    for space in spaces:
        slot[space] = np.arange(len(space))

    blocks: dict = {}
    for a, space_a in enumerate(spaces):
        for b, space_b in enumerate(spaces):
            arrows = np.flatnonzero((g.source == b) & (g.target == a))
            ops = np.zeros(
                (len(arrows), len(space_a), len(space_b)), dtype=complex
            )
            ops[
                np.arange(len(arrows))[:, None],
                slot[g.compose[np.ix_(arrows, space_b)]],
                slot[space_b],
            ] = 1.0
            blocks[(g.objects[a], g.objects[b])] = hs_orthonormalize(ops, tol).basis
    objects = tuple(zip(g.objects, map(len, spaces)))
    return MatrixCategory(objects=objects, blocks=blocks, unital=True)
