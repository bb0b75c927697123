"""The two arrows of the finite commutative duality.

``spectrum`` turns a commutative, full, unital matrix category into a
spaceoid: its base points are the joint-eigenspace classes shared by
all objects, and the structure constants record how the canonical unit
frames of the one-dimensional fiber spaces compose.  ``sections``
turns any spaceoid back into a concrete diagonal matrix category.
``gelfand`` and ``evaluation`` are the comparison maps of the two
composites, and ``verify_duality`` checks naturality of both on
concrete instances.

Conventions fixed here (everything downstream depends on them):

* classes are ordered by the first object's canonical eigenvalue-tuple
  order and named ``w0, w1, ...``;
* the fiber frame of a diagonal pair is the class projection itself;
  off-diagonal frames have unit operator norm, are conjugate-symmetric
  under swapping the pair, and their first significant entry (first
  entry within a factor 10 of the largest modulus, row-major) is made
  real positive;
* both induced maps are contravariant: a functor ``C1 -> C2`` induces
  a spaceoid morphism ``spectrum(C2) -> spectrum(C1)`` and a spaceoid
  morphism ``E1 -> E2`` induces a functor ``sections(E2) ->
  sections(E1)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import (
    EQUIVALENCE_SLACK, ISOMETRY_SLACK, SPECTRAL_SLACK, VANISHING_ATOL,
    ZERO_ONE_CUT, resolve_tol,
)
from .cstarcat import (
    MatrixCategory,
    StarFunctor,
    _image,
    _stack,
    check_axioms,
    functor_image,
    is_full,
    validate_functor,
)
from .errors import (
    AmbiguousMatching,
    FullnessMismatch,
    InvalidFunctor,
    NotCommutative,
    NotCommuting,
    NotFull,
    NotOneDimensional,
    NotUnital,
    SpectrumMismatch,
)
from .numkit import _adjoints, _block_sums, joint_diagonalize
from .reporting import Report, worst
from .spaceoid import (
    PhaseFunctor,
    SpaceoidData,
    SpaceoidMorphism,
    _aligned,
    _base_bijective,
    _mul,
    _unit,
    compose,
    morphism_distance,
    require_morphism,
    require_valid,
    validate,
    validate_morphism,
    validate_phase_functor,
)

__all__ = [
    "SpectrumResult",
    "Character",
    "spectrum",
    "characters",
    "unitary_equivalence_gauge",
    "compression_functor",
    "one_dim_category",
    "sections",
    "sections_with_gauge",
    "sections_on_morphism",
    "spectrum_on_morphism",
    "GelfandResult",
    "gelfand",
    "Evaluation",
    "evaluation",
    "roundtrip_category",
    "roundtrip_spaceoid",
    "verify_duality",
    "classical_category",
]


# ---------------------------------------------------------------------------
# spectrum


@dataclass
class SpectrumResult:
    """Joint eigenspace classes of a commutative full category.

    Carries everything needed to move elements back and forth: the
    per-object eigenstructures, the class-to-eigenblock matching, the
    compressed unit frames, and the resulting spaceoid.  Every object
    has the same dimension ``d``, the sum of the class ranks; class
    ``i`` owns the columns ``starts[i] : starts[i] + ranks[i]`` of each
    object's class-ordered eigenbasis ``bases[o]``, and ``frames[(A,
    B)]`` is the ``d x d`` block-diagonal matrix, in the bases of A and
    B, whose i-th diagonal block is the unit frame of class ``i`` in
    block (A, B).
    """

    spaceoid: SpaceoidData
    category: MatrixCategory = field(repr=False)
    class_points: tuple
    ranks: tuple
    eigs: dict = field(repr=False)  # obj id -> JointEigenstructure
    class_block: dict = field(repr=False)  # obj id -> block idx per class
    bases: dict = field(repr=False)  # obj id -> d x d unitary, class order
    frames: dict = field(repr=False)  # (A, B) -> d x d block-diagonal frames
    diag_table: dict = field(repr=False)  # obj id -> (n_classes, n_AA basis)

    @property
    def n_classes(self) -> int:
        return len(self.class_points)

    @property
    def starts(self) -> np.ndarray:
        """First column of every class in the class-ordered bases."""
        ranks = np.asarray(self.ranks, dtype=int)
        return np.cumsum(ranks) - ranks

    def _span(self, i: int) -> slice:
        start = int(self.starts[i])
        return slice(start, start + self.ranks[i])

    def frame(self, i: int, a, b) -> np.ndarray:
        """The ``r x r`` unit frame of class ``i`` in block ``(a, b)``."""
        return self.frames[(a, b)][self._span(i), self._span(i)]

    def coefficients(self, a, b, x) -> np.ndarray:
        """Frame coefficients of ``x`` across all classes of block (a, b).

        ``x`` is one ``d_A x d_B`` matrix or a ``(..., d_A, d_B)``
        stack; the classes run along the last axis of the result.
        """
        t = self.bases[a].conj().T @ np.asarray(x, dtype=complex) @ self.bases[b]
        per_row = np.sum(self.frames[(a, b)].conj() * t, axis=-1)
        return np.add.reduceat(per_row, self.starts, axis=-1) / self.ranks

    def lift(self, a, b, coeffs) -> np.ndarray:
        """Inverse of :meth:`coefficients` on the block's image (classes
        along the last axis of ``coeffs``)."""
        coeffs = np.asarray(coeffs, dtype=complex)
        rows = np.repeat(coeffs, self.ranks, axis=-1)  # class value per row
        g = self.frames[(a, b)] * rows[..., :, None]
        return self.bases[a] @ g @ self.bases[b].conj().T

    def character_values(self, a, b, x) -> np.ndarray:
        """Every class's character applied to ``x`` in block (a, b)
        (one matrix or a stack; classes along the last axis): the frame
        coefficients times the conjugate trivializing gauge
        ``lam(w; a, anchor, b)``, the anchor being the first object."""
        objs = self.spaceoid.objects
        gauge = self.spaceoid.table[:, objs.index(a), 0, objs.index(b)]
        return self.coefficients(a, b, x) * np.conj(gauge)


def _match_blocks(c, eig0, eig_b, a0, b, tol) -> np.ndarray:
    """Match each class block of the anchor object to the unique block
    of ``b`` with a nonvanishing compression of the (a0, b) space.

    The whole basis is compressed into both eigenbases at once; the HS
    norm of every (basis element, class block, block of ``b``) slice
    is a segmented sum of ``|T|^2``.  Returns the block of ``b`` per
    class.
    """
    basis = _stack(c, a0, b)
    scale = np.linalg.norm(basis, axis=(1, 2)).max(initial=0.0)
    thresh = tol * (1.0 + scale)
    t = eig0.unitary.conj().T @ basis @ eig_b.unitary
    sums = _block_sums(np.abs(t) ** 2, eig0.starts, eig_b.starts)
    hits = np.sqrt(sums.max(axis=0, initial=0.0)) > thresh
    count = hits.sum(axis=1)
    match = np.argmax(hits, axis=1)
    bad = (count != 1) | (eig_b.sizes[match] != eig0.sizes)
    if bad.any():
        i = int(np.argmax(bad))
        if count[i] != 1:
            raise AmbiguousMatching(
                f"class {i} of {a0} meets {count[i]} blocks of {b}"
            )
        raise FullnessMismatch(
            f"rank mismatch between {a0} class {i} and {b} block {match[i]}"
        )
    if len(set(match.tolist())) != eig0.n_blocks:
        raise AmbiguousMatching(f"matching {a0} -> {b} is not a bijection")
    return match


def _canonical_frame(comp, tol):
    """Scale and phase-normalize one-dimensional block compressions.

    ``comp`` is one ``r x r`` matrix or a ``(..., r, r)`` stack; each
    is divided by its operator norm, must then be unitary, and is
    rotated so its first significant entry (first within a factor 10
    of the largest modulus, row-major) is real positive.
    """
    s = np.linalg.norm(comp, 2, axis=(-2, -1))
    f = comp / s[..., None, None]
    r = f.shape[-1]
    dev = np.linalg.norm(
        _adjoints(f) @ f - np.eye(r), axis=(-2, -1)
    )
    if not np.all(dev <= SPECTRAL_SLACK * tol * (1 + r)):
        raise NotOneDimensional(
            "block compression is not a scalar multiple of a unitary"
        )
    flat = f.reshape(f.shape[:-2] + (r * r,))
    mag = np.abs(flat)
    first = np.argmax(mag >= 0.1 * mag.max(axis=-1, keepdims=True), axis=-1)
    z = np.take_along_axis(flat, first[..., None], axis=-1)
    return f * np.conj(z / np.abs(z))[..., None]


def _rank_groups(ranks: np.ndarray):
    """Per distinct rank ``r``: the classes of that rank and the index
    array ``(n_classes_of_rank_r, r)`` of their columns."""
    starts = np.cumsum(ranks) - ranks
    for r in sorted(set(ranks.tolist())):
        cls = np.flatnonzero(ranks == r)
        yield cls, starts[cls][:, None] + np.arange(r)


def _class_frames(t, ranks, tol) -> np.ndarray:
    """Block-diagonal unit frames from a block's basis compressed into
    class-ordered eigenbases (``t``, shape ``(n, d, d)``): per class,
    the canonical frame of the basis element whose class slice has the
    largest HS norm."""
    starts = np.cumsum(ranks) - ranks
    sq = np.diagonal(_block_sums(np.abs(t) ** 2, starts, starts), axis1=1, axis2=2)
    best = np.argmax(sq, axis=0)
    out = np.zeros(t.shape[1:], dtype=complex)
    for cls, idx in _rank_groups(ranks):
        rows, cols = idx[:, :, None], idx[:, None, :]
        out[rows, cols] = _canonical_frame(t[best[cls][:, None, None], rows, cols], tol)
    return out


def spectrum(
    c: MatrixCategory, tol: float | None = None, seed: int = 0
) -> SpectrumResult:
    """Decompose a commutative full unital category into its spaceoid.

    Raises ``NotUnital`` / ``NotCommutative`` / ``NotFull`` when the
    hypotheses fail, ``FullnessMismatch`` when objects disagree on the
    class structure, ``AmbiguousMatching`` when classes cannot be put
    in bijection, and ``NotOneDimensional`` when a matched fiber is not
    a line (any of these means the input is outside the duality's
    domain).

    Each block's basis is compressed once, as a stack, into the
    class-ordered joint eigenbases of its two objects; frames, the
    structure constants and the completeness check are slices and
    segmented sums of those compressions.
    """
    tol = resolve_tol(tol)
    if not c.unital:
        raise NotUnital("spectrum needs identity elements in every C_AA")
    ids = c.object_ids
    # joint_diagonalize raises NotCommuting, naming the same pair as
    # is_commutative's search, before NotNormal or a failed
    # diagonalization, so a non-commutative category fails here, before
    # the fullness test
    try:
        eigs = {
            o: joint_diagonalize(c.block(o, o), tol, seed=seed, dim=c.dim(o))
            for o in ids
        }
    except NotCommuting as exc:
        raise NotCommutative("diagonal blocks do not commute") from exc
    if not is_full(c, tol):
        raise NotFull("inner products do not span the diagonal blocks")

    a0 = ids[0]
    k = eigs[a0].n_blocks
    for o in ids[1:]:
        if eigs[o].n_blocks != k:
            raise FullnessMismatch(
                f"{a0} has {k} classes but {o} has {eigs[o].n_blocks}"
            )

    class_block = {a0: np.arange(k)}
    for o in ids[1:]:
        class_block[o] = _match_blocks(c, eigs[a0], eigs[o], a0, o, tol)
    ranks = eigs[a0].sizes
    points = tuple(f"w{i}" for i in range(k))
    bases = {o: eigs[o].unitary[:, eigs[o].columns(class_block[o])] for o in ids}

    n_obj, d = len(ids), int(ranks.sum())
    table = np.zeros((n_obj, n_obj, d, d), dtype=complex)
    table[np.arange(n_obj), np.arange(n_obj)] = np.eye(d)
    for ai, bi in zip(*np.triu_indices(n_obj, 1)):
        a, b = ids[ai], ids[bi]
        t = bases[a].conj().T @ _stack(c, a, b) @ bases[b]
        table[ai, bi] = _class_frames(t, ranks, tol)
        table[bi, ai] = table[ai, bi].conj().T

    # lam(w_i; A, B, C) = tr(f_AC* f_AB f_BC) / r_i, one rank at a time
    lam = np.empty((k, n_obj, n_obj, n_obj), dtype=complex)
    for cls, idx in _rank_groups(ranks):
        f = table[:, :, idx[:, :, None], idx[:, None, :]]  # (A, B, class, r, r)
        lam[cls] = np.einsum(
            "acmjq,abmjl,bcmlq->mabc", f.conj(), f, f
        ) / idx.shape[1]
    spaceoid = SpaceoidData(points, ids, lam)
    require_valid(spaceoid, tol)

    diag_table = {
        o: eigs[o].eigenvalues[:, class_block[o]].T
        if c.block_dim(o, o)
        else np.zeros((k, 0), dtype=complex)
        for o in ids
    }

    result = SpectrumResult(
        spaceoid=spaceoid,
        category=c,
        class_points=points,
        ranks=tuple(ranks.tolist()),
        eigs=eigs,
        class_block=class_block,
        bases=bases,
        frames={
            (a, b): table[ai, bi]
            for ai, a in enumerate(ids)
            for bi, b in enumerate(ids)
        },
        diag_table=diag_table,
    )

    # completeness: every element must be recovered by its coefficients
    for a, b in c.pairs():
        x = _stack(c, a, b)
        err = np.linalg.norm(
            result.lift(a, b, result.coefficients(a, b, x)) - x, axis=(1, 2)
        )
        bound = SPECTRAL_SLACK * tol * (1 + np.linalg.norm(x, axis=(1, 2)))
        if not np.all(err <= bound):
            raise NotOneDimensional(
                f"block ({a},{b}) is not spanned by the class fibers"
            )
    return result


# ---------------------------------------------------------------------------
# characters


@dataclass
class Character:
    """A one-dimensional *-representation picked out by a class point."""

    point: str
    index: int
    spec: SpectrumResult = field(repr=False)

    def value(self, a, b, x) -> complex:
        """The character applied to ``x`` in block ``(a, b)`` (or to
        each matrix of a stack)."""
        return self.spec.character_values(a, b, x)[..., self.index]


def characters(
    c: MatrixCategory, tol: float | None = None, seed: int = 0
) -> list:
    """All characters of a commutative full unital category, in class
    order (one per spectrum point)."""
    spec = spectrum(c, tol, seed)
    return [
        Character(spec.class_points[i], i, spec)
        for i in range(spec.n_classes)
    ]


def _character_values(omega, a, b, basis):
    if not len(basis):
        return np.zeros(0, dtype=complex)
    if hasattr(omega, "value"):
        return np.asarray(omega.value(a, b, np.asarray(basis)), dtype=complex)
    return np.array([omega(a, b, x) for x in basis], dtype=complex)


def _match_classes(spec: SpectrumResult, values, n_chars: int, tol) -> np.ndarray:
    """Spectrum class of each of ``n_chars`` characters.

    ``values(o, basis)`` gives the characters' values on the stacked
    basis of ``C_oo``, one row per character.  A character fits a class
    when, on every object, its values lie within ``SPECTRAL_SLACK * tol
    * (1 + max |value|)`` of the class's diagonal eigenvalue table.  Raises
    ``SpectrumMismatch`` when the first character that does not fit
    exactly one class fits none, ``AmbiguousMatching`` when it fits
    several.
    """
    c = spec.category
    fits = np.ones((n_chars, spec.n_classes), dtype=bool)
    for o in c.object_ids:
        basis = _stack(c, o, o)
        if not len(basis):
            continue
        vals = values(o, basis)
        scale = 1.0 + np.max(np.abs(vals), axis=1, initial=0.0)
        dev = np.max(np.abs(spec.diag_table[o] - vals[:, None, :]), axis=2)
        fits &= dev <= SPECTRAL_SLACK * tol * scale[:, None]
    count = fits.sum(axis=1)
    bad = count != 1
    if bad.any():
        n = count[np.argmax(bad)]
        if not n:
            raise SpectrumMismatch("no spectrum class matches the character")
        raise AmbiguousMatching(f"{n} spectrum classes match the character")
    return np.argmax(fits, axis=1)


def unitary_equivalence_gauge(
    w1, w2, category: MatrixCategory | None = None, tol: float | None = None
) -> PhaseFunctor:
    """The multiplicative phase relating two equivalent characters.

    Requires equal diagonal restrictions; returns the functor ``psi``
    with ``w2 = psi * w1`` blockwise.  ``w1``/``w2`` may be
    ``Character`` objects or plain ``(a, b, x) -> complex`` callables;
    ``category`` defaults to the one ``w1`` was computed from.
    """
    tol = resolve_tol(tol)
    c = category if category is not None else w1.spec.category
    for o in c.object_ids:
        basis = c.block(o, o)
        if not basis:
            continue
        d1 = _character_values(w1, o, o, basis)
        d2 = _character_values(w2, o, o, basis)
        scale = 1.0 + float(np.max(np.abs(d1), initial=0.0))
        if not np.max(np.abs(d1 - d2)) <= EQUIVALENCE_SLACK * tol * scale:
            raise SpectrumMismatch(
                f"characters differ on block ({o},{o}); "
                "not unitarily equivalent"
            )
    psi = {}
    for a, b in c.pairs():
        basis = c.block(a, b)
        v1 = _character_values(w1, a, b, basis)
        v2 = _character_values(w2, a, b, basis)
        j = int(np.argmax(np.abs(v1)))
        if abs(v1[j]) < VANISHING_ATOL:
            # the block vanishes at this class on both sides
            psi[(a, b)] = 1.0 + 0j
            continue
        z = v2[j] / v1[j]
        psi[(a, b)] = z / abs(z)
    pf = PhaseFunctor(psi)
    rep = validate_phase_functor(pf, c.object_ids, SPECTRAL_SLACK * tol)
    if not rep.passed:
        raise SpectrumMismatch(
            "character ratio is not multiplicative: " + rep.summary()
        )
    return pf


def one_dim_category(object_ids) -> MatrixCategory:
    """Every object a line, every block spanned by ``[[1]]``."""
    one = np.ones((1, 1), dtype=complex)
    ids = tuple(object_ids)
    return MatrixCategory(
        objects=tuple((o, 1) for o in ids),
        blocks={(a, b): [one.copy()] for a in ids for b in ids},
        unital=True,
    )


def compression_functor(
    cat: MatrixCategory, spec: SpectrumResult, idx: int, tol=None
):
    """Quotient onto one spectrum class: the one-dimensional category
    on the same objects plus the evaluation *-functor onto it."""
    tol = resolve_tol(tol)
    target = one_dim_category(cat.object_ids)
    omega = Character(spec.class_points[idx], idx, spec)
    block_maps = {}
    for a, b in cat.pairs():
        block_maps[(a, b)] = omega.value(a, b, _stack(cat, a, b))[None, :]
    phi = StarFunctor(
        object_map={o: o for o in cat.object_ids}, block_maps=block_maps
    )
    rep = validate_functor(phi, cat, target, tol)
    if not rep.passed:
        raise SpectrumMismatch(
            "compression is not a *-functor: " + rep.summary()
        )
    return target, phi


# ---------------------------------------------------------------------------
# sections


class SectionsWithGauge(NamedTuple):
    category: MatrixCategory
    gauge: np.ndarray  # (points, objects, objects) trivializing phases


def sections_with_gauge(
    e: SpaceoidData, tol: float | None = None
) -> SectionsWithGauge:
    """Concrete diagonal realization of the section category.

    Objects keep their ids, each with dimension ``|base|``; the basis
    element for point ``p`` of block ``(A, B)`` is ``conj(g(p;A,B)) *
    e_pp`` with ``g`` the trivializing gauge, which makes the stored
    structure constants of the realization equal to the spaceoid's
    table exactly.
    """
    tol = resolve_tol(tol)
    require_valid(e, tol)
    gauge = e.table[:, :, 0, :].copy()
    n = len(e.base_points)
    k = np.arange(n)
    # diag[A, B, p] is the basis element of point p in block (A, B)
    diag = np.zeros(gauge.shape[1:] + (n, n, n), dtype=complex)
    diag[:, :, k, k, k] = gauge.conj().transpose(1, 2, 0)
    blocks = {
        (a, b): list(diag[i, j])
        for i, a in enumerate(e.objects)
        for j, b in enumerate(e.objects)
    }
    cat = MatrixCategory(
        objects=tuple((o, n) for o in e.objects), blocks=blocks, unital=True
    )
    return SectionsWithGauge(cat, gauge)


def sections(e: SpaceoidData, tol: float | None = None) -> MatrixCategory:
    """The matrix category of sections of a spaceoid."""
    return sections_with_gauge(e, tol).category


def sections_on_morphism(
    m: SpaceoidMorphism,
    dom: SpaceoidData,
    cod: SpaceoidData,
    tol: float | None = None,
) -> StarFunctor:
    """Induced *-functor sections(cod) -> sections(dom) (contravariant).

    On a section ``sigma`` of the codomain the image is ``p ->
    s(p) * sigma(f(p))``; in the stored bases that is the 0/1-pattern
    of the base map scaled by the fiber scalars.
    """
    tol = resolve_tol(tol)
    require_morphism(m, dom, cod, tol)
    inv_r = {v: k for k, v in m.f_r.items()}
    # scal[p, i, j]: the scalar at dom point p over cod objects i and j
    scal = _aligned(m, dom.base_points, [inv_r[o] for o in cod.objects])
    rows = np.arange(len(dom.base_points))
    cols = [cod.base_points.index(m.f_delta[p]) for p in dom.base_points]
    mats = np.zeros(scal.shape[1:] + (len(rows), len(cod.base_points)), dtype=complex)
    mats[:, :, rows, cols] = scal.transpose(1, 2, 0)
    block_maps = {
        (a2, b2): mats[i, j]
        for i, a2 in enumerate(cod.objects)
        for j, b2 in enumerate(cod.objects)
    }
    return StarFunctor(object_map=inv_r, block_maps=block_maps)


# ---------------------------------------------------------------------------
# induced morphisms and comparison maps


def spectrum_on_morphism(
    phi: StarFunctor,
    source: MatrixCategory,
    target: MatrixCategory,
    tol: float | None = None,
    seed: int = 0,
    source_spectrum: SpectrumResult | None = None,
    target_spectrum: SpectrumResult | None = None,
) -> SpaceoidMorphism:
    """Induced spaceoid morphism spectrum(target) -> spectrum(source)
    of a *-functor ``phi: source -> target`` (contravariant).

    Base points map by composing characters with the functor: every
    target character is evaluated at once on the images of each source
    diagonal basis.  Fiber scalars are the target-side frame
    coefficients of the images of the source frames, all classes of a
    pair in one lift, image and coefficient pass.
    """
    tol = resolve_tol(tol)
    spec1 = source_spectrum or spectrum(source, tol, seed)
    spec2 = target_spectrum or spectrum(target, tol, seed)
    if set(phi.object_map) != set(source.object_ids) or set(
        phi.object_map.values()
    ) != set(target.object_ids):
        raise InvalidFunctor("object map is not a bijection onto the target")
    inv_obj = {v: k for k, v in phi.object_map.items()}

    def composed(o1, basis):
        o2 = phi.object_map[o1]
        img = _image(phi, target, o1, o1, np.eye(len(basis)))
        return spec2.character_values(o2, o2, img).T

    match = _match_classes(spec1, composed, spec2.n_classes, tol)
    f_delta = {p: spec1.class_points[i] for p, i in zip(spec2.class_points, match)}
    f_r = {o2: inv_obj[o2] for o2 in target.object_ids}

    # z[j, pair]: class j's coefficient of the image of the source frame
    # of its matched class
    ids2 = target.object_ids
    pairs = list(itertools.product(ids2, ids2))
    cls = np.arange(spec2.n_classes)
    z = np.empty((spec2.n_classes, len(pairs)), dtype=complex)
    for n, (a2, b2) in enumerate(pairs):
        a1, b1 = inv_obj[a2], inv_obj[b2]
        frames = spec1.lift(a1, b1, np.eye(spec1.n_classes))
        img = functor_image(phi, source, target, a1, b1, frames, tol)
        z[:, n] = spec2.coefficients(a2, b2, img)[match, cls]
    small = ~(np.abs(z) >= ZERO_ONE_CUT)
    if small.any():
        j, n = np.unravel_index(np.argmax(small), small.shape)
        a2, b2 = pairs[n]
        raise SpectrumMismatch(
            f"image of the ({inv_obj[a2]},{inv_obj[b2]}) frame nearly vanishes "
            f"at class {spec2.class_points[j]}"
        )
    scal = _unit(z).reshape(spec2.n_classes, len(ids2), -1)
    return SpaceoidMorphism(f_delta=f_delta, f_r=f_r, fiber_scalars=scal)


class GelfandResult(NamedTuple):
    spectrum: SpectrumResult
    sections: MatrixCategory
    functor: StarFunctor
    report: Report


def gelfand(
    c: MatrixCategory, tol: float | None = None, seed: int = 0
) -> GelfandResult:
    """The comparison functor ``c -> sections(spectrum(c))``.

    The report certifies it is a *-functor, bijective on every block,
    and isometric for the operator norms.
    """
    tol = resolve_tol(tol)
    spec = spectrum(c, tol, seed)
    sec = sections(spec.spaceoid, tol)
    block_maps = {
        (a, b): spec.coefficients(a, b, _stack(c, a, b)).T
        for a, b in c.pairs()
    }
    phi = StarFunctor(
        object_map={o: o for o in c.object_ids}, block_maps=block_maps
    )

    report = Report()
    report.extend(validate_functor(phi, c, sec, tol), "functor-")
    # fullness forces every block to have exactly one dimension per
    # class, so bijectivity is squareness plus full rank
    bijective = all(
        c.block_dim(a, b) == spec.n_classes
        and np.linalg.matrix_rank(block_maps[(a, b)]) == spec.n_classes
        for a, b in c.pairs()
    )
    report.add("block-bijective", bijective)
    # isometry is checked on the operator norms directly, on three
    # seeded random combinations per block
    rng = np.random.default_rng(seed)
    devs = [np.zeros(0)]
    for a, b in c.pairs():
        basis = _stack(c, a, b)
        if not len(basis):
            continue
        z = rng.standard_normal((3, 2, len(basis)))
        x = np.tensordot(z[:, 0] + 1j * z[:, 1], basis, 1)
        xhat = spec.coefficients(a, b, x)
        devs.append(
            np.linalg.norm(x, 2, axis=(1, 2)) - np.abs(xhat).max(axis=1, initial=0.0)
        )
    report.check("isometric", np.abs(np.concatenate(devs)), ISOMETRY_SLACK * tol)
    return GelfandResult(spec, sec, phi, report)


class Evaluation(NamedTuple):
    morphism: SpaceoidMorphism
    sections: MatrixCategory
    spectrum: SpectrumResult


def evaluation(e: SpaceoidData, tol: float | None = None, seed: int = 0):
    """The comparison morphism ``e -> spectrum(sections(e))``.

    Every base point hosts the character "evaluate there"; the fiber
    scalars express the re-diagonalized frames in the original ones
    (for the canonical conventions they equal the trivializing gauge).
    """
    tol = resolve_tol(tol)
    sec, gauge = sections_with_gauge(e, tol)
    spec = spectrum(sec, tol, seed)
    if spec.n_classes != len(e.base_points):
        raise SpectrumMismatch(
            f"sections of {len(e.base_points)} points produced "
            f"{spec.n_classes} classes"
        )

    # class i is a point evaluation: rank one, its column of the anchor
    # basis concentrated (weight >= 1/2) on one point
    objs, pts = e.objects, e.base_points
    if any(r != 1 for r in spec.ranks):
        raise SpectrumMismatch("section class is not a point evaluation")
    v = np.stack([spec.bases[o] for o in objs])  # (object, point, class)
    pos = np.argmax(np.abs(v[0]) ** 2, axis=0)
    if not np.all(np.abs(v[0, pos, np.arange(len(pos))]) ** 2 >= ZERO_ONE_CUT):
        raise SpectrumMismatch("section class is not a point evaluation")
    if len(set(pos.tolist())) != len(pts):
        raise SpectrumMismatch("point evaluation classes collide")
    cls = np.argsort(pos)  # the class at each point
    f_delta = {p: spec.class_points[i] for p, i in zip(pts, cls)}

    # frame of class i at its point: v_A[q, i] f_AB[i, i] conj(v_B[q, i])
    at_point = v[:, np.arange(len(pts)), cls].T  # (point, object)
    f = np.array([[np.diagonal(spec.frames[(a, b)]) for b in objs] for a in objs])
    # times the gauge, one _mul at a time, left to right
    z = _mul(at_point[:, :, None], f[:, :, cls].transpose(2, 0, 1))
    z = _mul(_mul(z, at_point[:, None, :].conj()), gauge)
    m = SpaceoidMorphism(
        f_delta=f_delta, f_r={o: o for o in objs}, fiber_scalars=_unit(z)
    )
    return Evaluation(m, sec, spec)


# ---------------------------------------------------------------------------
# roundtrip and naturality verification


def roundtrip_category(
    c: MatrixCategory, tol: float | None = None, seed: int = 0
) -> Report:
    """Certify the comparison functor of one category."""
    tol = resolve_tol(tol)
    report = Report()
    report.extend(check_axioms(c, tol), "input-")
    out = gelfand(c, tol, seed)
    report.extend(out.report, "gelfand-")
    report.extend(validate(out.spectrum.spaceoid, tol), "spaceoid-")
    return report


def roundtrip_spaceoid(
    e: SpaceoidData, tol: float | None = None, seed: int = 0
) -> Report:
    """Certify the comparison morphism of one spaceoid."""
    tol = resolve_tol(tol)
    report = Report()
    report.extend(validate(e, tol), "input-")
    if not report.passed:
        # a broken table is a verification failure, not a crash; the
        # evaluation machinery assumes the cocycle identities
        return report
    ev = evaluation(e, tol, seed)
    rep = validate_morphism(ev.morphism, e, ev.spectrum.spaceoid, tol)
    report.extend(rep, "evaluation-")
    report.add(
        "evaluation-isomorphism",
        rep.passed and _base_bijective(ev.morphism, ev.spectrum.spaceoid),
    )
    report.check(
        "re-spectrum-trivial-constants", np.abs(ev.spectrum.spaceoid.table - 1.0), tol
    )
    return report


def _functor_naturality(phi, c1, c2, tol, seed) -> float:
    """Worst residual of the square gelfand o phi = sections(spectrum
    morphism) o gelfand on every basis element."""
    g1 = gelfand(c1, tol, seed)
    g2 = gelfand(c2, tol, seed)
    m = spectrum_on_morphism(
        phi, c1, c2, tol, seed,
        source_spectrum=g1.spectrum, target_spectrum=g2.spectrum,
    )
    gamma = sections_on_morphism(
        m, g2.spectrum.spaceoid, g1.spectrum.spaceoid, tol
    )
    # down then across (gelfand in C1, then the section functor) against
    # across then down (phi, then gelfand in C2), on every basis element
    devs = [
        gamma.block_maps[(a1, b1)] @ g1.functor.block_maps[(a1, b1)]
        - g2.functor.block_maps[(phi.object_map[a1], phi.object_map[b1])]
        @ phi.block_maps[(a1, b1)]
        for a1, b1 in c1.pairs()
    ]
    return worst(np.concatenate([np.abs(d).ravel() for d in devs]))[0]


def _morphism_naturality(m, e1, e2, tol, seed) -> float:
    """Worst distance in the square evaluation o m = spectrum(section
    functor) o evaluation."""
    ev1 = evaluation(e1, tol, seed)
    ev2 = evaluation(e2, tol, seed)
    gamma = sections_on_morphism(m, e1, e2, tol)
    sigma = spectrum_on_morphism(
        gamma, ev2.sections, ev1.sections, tol, seed,
        source_spectrum=ev2.spectrum, target_spectrum=ev1.spectrum,
    )
    left = compose(ev2.morphism, m)
    right = compose(sigma, ev1.morphism)
    return morphism_distance(left, right)


def verify_duality(
    functors=(),
    morphisms=(),
    tol: float | None = None,
    seed: int = 0,
) -> Report:
    """Naturality of both comparison maps on concrete instances.

    ``functors`` holds triples ``(phi, source_cat, target_cat)`` and
    ``morphisms`` holds triples ``(m, dom_spaceoid, cod_spaceoid)``.
    """
    tol = resolve_tol(tol)
    report = Report()
    for idx, (phi, c1, c2) in enumerate(functors):
        res = _functor_naturality(phi, c1, c2, tol, seed)
        report.check(f"functor-{idx}-naturality", res, tol)
    for idx, (m, e1, e2) in enumerate(morphisms):
        res = _morphism_naturality(m, e1, e2, tol, seed)
        report.check(f"morphism-{idx}-naturality", res, tol)
    return report


# ---------------------------------------------------------------------------
# the classical one-object case


def classical_category(k: int) -> MatrixCategory:
    """Diagonal functions on ``k`` points as a one-object category."""
    basis = []
    for i in range(k):
        m = np.zeros((k, k), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    return MatrixCategory(
        objects=(("A", k),), blocks={("A", "A"): basis}, unital=True
    )
