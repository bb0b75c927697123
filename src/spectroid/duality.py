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
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import (
    CERT_SLACK, EQUIVALENCE_SLACK, FUNCTOR_SLACK, ISOMETRY_SLACK,
    SPECTRAL_SLACK, VANISHING_ATOL, ZERO_ONE_CUT, resolve_tol,
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

    Carries everything needed to move elements back and forth, as dense
    arrays whose object axes follow ``spaceoid.objects``.  With ``o``
    objects and ``k`` classes, every object has the same dimension
    ``d``, the sum of the class ranks, and every block has one basis
    element per class:

    * ``ranks`` ``(k,)``: class ``i`` owns the columns ``starts[i] :
      starts[i] + ranks[i]`` of each class-ordered eigenbasis;
    * ``class_block`` ``(o, k)``: each object's eigenblock of each class;
    * ``bases`` ``(o, d, d)``: the class-ordered eigenbases;
    * ``frames`` ``(o, o, d, d)``: per block (A, B), the block-diagonal
      matrix, in the bases of A and B, whose i-th diagonal block is the
      unit frame of class ``i``;
    * ``diag_table`` ``(o, k, k)``: the eigenvalue on each class (rows)
      of each basis element of the object's diagonal block;
    * ``compressions`` ``(o, o, k, d, d)``: each block's basis compressed
      into those bases, ``bases[A]* e bases[B]`` per element.
    """

    spaceoid: SpaceoidData
    category: MatrixCategory = field(repr=False)
    ranks: np.ndarray
    class_block: np.ndarray = field(repr=False)
    bases: np.ndarray = field(repr=False)
    frames: np.ndarray = field(repr=False)
    diag_table: np.ndarray = field(repr=False)
    compressions: np.ndarray = field(repr=False)

    @property
    def n_classes(self) -> int:
        return len(self.ranks)

    @property
    def starts(self) -> np.ndarray:
        """First column of every class in the class-ordered bases."""
        return np.cumsum(self.ranks) - self.ranks

    def _index(self, a, b) -> tuple:
        objs = self.spaceoid.objects
        return objs.index(a), objs.index(b)

    def coefficients(self, a, b, x) -> np.ndarray:
        """Frame coefficients of ``x`` across all classes of block (a, b).

        ``x`` is one ``d_A x d_B`` matrix or a ``(..., d_A, d_B)``
        stack; the classes run along the last axis of the result.
        """
        return self._coefficients(*self._index(a, b), x)

    def _coefficients(self, i, j, x) -> np.ndarray:
        t = _adjoints(self.bases[i]) @ np.asarray(x, dtype=complex) @ self.bases[j]
        return self._frame_coefficients(self.frames[i, j], t)

    def _frame_coefficients(self, f, t) -> np.ndarray:
        """:meth:`coefficients` of matrices ``t`` already compressed into
        the class-ordered bases, against the block-diagonal frames ``f``
        (broadcast against ``t``)."""
        per_row = np.sum(f.conj() * t, axis=-1)
        return np.add.reduceat(per_row, self.starts, axis=-1) / self.ranks

    def lift(self, a, b, coeffs) -> np.ndarray:
        """Inverse of :meth:`coefficients` on the block's image (classes
        along the last axis of ``coeffs``)."""
        return self._lift(*self._index(a, b), coeffs)

    def _lift(self, i, j, coeffs) -> np.ndarray:
        """:meth:`lift` at object positions ``i`` and ``j``: ints, or
        index arrays broadcast against the leading axes of ``coeffs``."""
        rows = np.repeat(np.asarray(coeffs, dtype=complex), self.ranks, axis=-1)
        g = self.frames[i, j] * rows[..., :, None]
        return self.bases[i] @ g @ _adjoints(self.bases[j])

    def character_values(self, a, b, x) -> np.ndarray:
        """Every class's character applied to ``x`` in block (a, b)
        (one matrix or a stack; classes along the last axis): the frame
        coefficients times the conjugate trivializing gauge
        ``lam(w; a, anchor, b)``, the anchor being the first object."""
        i, j = self._index(a, b)
        return self._coefficients(i, j, x) * np.conj(self.spaceoid.table[:, i, 0, j])


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
    """Block-diagonal unit frames from blocks' bases compressed into
    class-ordered eigenbases (``t``, shape ``(pairs, n, d, d)``): per
    pair and class, the canonical frame of the basis element whose
    class slice has the largest HS norm."""
    starts = np.cumsum(ranks) - ranks
    sq = np.diagonal(_block_sums(np.abs(t) ** 2, starts, starts), axis1=-2, axis2=-1)
    best = np.argmax(sq, axis=-2)  # (pairs, classes)
    pair = np.arange(len(t))[:, None, None, None]
    out = np.zeros(t.shape[:1] + t.shape[2:], dtype=complex)
    for cls, idx in _rank_groups(ranks):
        rows, cols = idx[:, :, None], idx[:, None, :]
        best_t = t[pair, best[:, cls, None, None], rows, cols]
        out[:, rows, cols] = _canonical_frame(best_t, tol)
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

    Every block's basis is compressed, in one product over all pairs,
    into the class-ordered joint eigenbases of its two objects; frames,
    the structure constants and the completeness check are slices and
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
        eigs = [
            joint_diagonalize(c.block(o, o), tol, seed=seed, dim=c.dim(o)) for o in ids
        ]
    except NotCommuting as exc:
        raise NotCommutative("diagonal blocks do not commute") from exc
    if not is_full(c, tol):
        raise NotFull("inner products do not span the diagonal blocks")

    a0 = ids[0]
    k = eigs[0].n_blocks
    for o, eig in zip(ids[1:], eigs[1:]):
        if eig.n_blocks != k:
            raise FullnessMismatch(f"{a0} has {k} classes but {o} has {eig.n_blocks}")
    class_block = np.stack([np.arange(k)] + [
        _match_blocks(c, eigs[0], eig, a0, o, tol) for o, eig in zip(ids[1:], eigs[1:])
    ])
    # in a full category every class has a nonzero fiber in every block,
    # so a block whose dimension is not the class count has a fiber that
    # is not a line
    for a, b in c.pairs():
        if c.block_dim(a, b) != k:
            raise NotOneDimensional(
                f"block ({a},{b}) has dimension {c.block_dim(a, b)} for {k} classes"
            )
    ranks = eigs[0].sizes
    points = tuple(f"w{i}" for i in range(k))
    bases = np.stack(
        [eig.unitary[:, eig.columns(cb)] for eig, cb in zip(eigs, class_block)]
    )

    n_obj, d = len(ids), int(ranks.sum())
    x = np.reshape([_stack(c, a, b) for a, b in c.pairs()], (n_obj, n_obj, k, d, d))
    comp = _adjoints(bases)[:, None, None] @ x @ bases[None, :, None]
    frames = np.zeros((n_obj, n_obj, d, d), dtype=complex)
    frames[np.arange(n_obj), np.arange(n_obj)] = np.eye(d)
    upper = np.triu_indices(n_obj, 1)
    frames[upper] = _class_frames(comp[upper], ranks, tol)
    frames[upper[::-1]] = _adjoints(frames[upper])

    # lam(w_i; A, B, C) = tr(f_AC* f_AB f_BC) / r_i, one rank at a time
    lam = np.empty((k, n_obj, n_obj, n_obj), dtype=complex)
    for cls, idx in _rank_groups(ranks):
        f = frames[:, :, idx[:, :, None], idx[:, None, :]]  # (A, B, class, r, r)
        lam[cls] = np.einsum(
            "acmjq,abmjl,bcmlq->mabc", f.conj(), f, f
        ) / idx.shape[1]
    spaceoid = SpaceoidData(points, ids, lam)
    require_valid(spaceoid, tol)

    result = SpectrumResult(
        spaceoid=spaceoid,
        category=c,
        ranks=ranks,
        class_block=class_block,
        bases=bases,
        frames=frames,
        diag_table=np.stack(
            [eig.eigenvalues[:, cb].T for eig, cb in zip(eigs, class_block)]
        ),
        compressions=comp,
    )

    # completeness: every element must be recovered by its coefficients
    i, j, _ = np.ogrid[:n_obj, :n_obj, :1]  # the pair axes, broadcast over elements
    coeffs = result._frame_coefficients(frames[i, j], comp)
    err = np.linalg.norm(result._lift(i, j, coeffs) - x, axis=(-2, -1))
    bound = SPECTRAL_SLACK * tol * (1 + np.linalg.norm(x, axis=(-2, -1)))
    bad = ~np.all(err <= bound, axis=-1)
    if bad.any():
        a, b = np.unravel_index(np.argmax(bad), bad.shape)
        raise NotOneDimensional(
            f"block ({ids[a]},{ids[b]}) is not spanned by the class fibers"
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
    return [Character(p, i, spec) for i, p in enumerate(spec.spaceoid.base_points)]


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
    for o, table in zip(c.object_ids, spec.diag_table):
        vals = values(o, _stack(c, o, o))
        scale = 1.0 + np.max(np.abs(vals), axis=1, initial=0.0)
        dev = np.max(np.abs(table - vals[:, None, :]), axis=2)
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
    omega = Character(spec.spaceoid.base_points[idx], idx, spec)
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
    points1 = spec1.spaceoid.base_points
    f_delta = {p: points1[i] for p, i in zip(spec2.spaceoid.base_points, match)}
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
            f"at class {spec2.spaceoid.base_points[j]}"
        )
    scal = _unit(z).reshape(spec2.n_classes, len(ids2), -1)
    return SpaceoidMorphism(f_delta=f_delta, f_r=f_r, fiber_scalars=scal)


class GelfandResult(NamedTuple):
    spectrum: SpectrumResult
    sections: MatrixCategory
    functor: StarFunctor
    report: Report


_EPS = np.finfo(float).eps


class _Compressions(NamedTuple):
    """Per-element quantities of ``gelfand``'s certificates, object
    indices first; ``n`` = classes = basis elements per block, ``d`` =
    object dimension (see :func:`_product_bounds`)."""

    maps: np.ndarray  # (o, o, n, n) the functor's block maps c, classes first
    resid: np.ndarray  # (o, o, n, d*d) rows of T(e) - blockdiag_p(c_p(e) F_p)
    eta: np.ndarray  # (o, o, n) their HS norms
    nu: np.ndarray  # (o, o, n) max_p |c_p(e)|
    norm: np.ndarray  # (o, o, n) ||e||_HS
    delta: np.ndarray  # (o,) ||U*U - I||_HS of the class-ordered bases
    rho: np.ndarray  # (o, o) ||F*F - I||_HS of the block-diagonal frames
    gram: np.ndarray  # (o, o) ||Q Q* - I||_HS, Q the source basis rows
    sv: np.ndarray  # (o, o, n) singular values of the block maps, NaN if not finite


def _compressions(c, spec, maps) -> _Compressions:
    """Measure every basis element's compression into the class-ordered
    bases of its objects, ``T(e) = U_A* e U_B`` (as ``spectrum`` formed
    it), against the model ``blockdiag_p(c_p(e) F_p)`` built from the
    functor's own block maps ``maps``, ``(o, o, n, n)``."""
    u, f = spec.bases, spec.frames
    n, d = maps.shape[-1], u.shape[-1]
    rows = np.reshape(
        [_stack(c, a, b) for a, b in c.pairs()], maps.shape[:2] + (n, d * d)
    )
    cls = np.repeat(np.arange(n), spec.ranks)
    model = np.swapaxes(maps[:, :, cls], -1, -2)[..., None] * f[:, :, None]
    resid = (spec.compressions - model).reshape(rows.shape)
    finite = np.isfinite(maps).all(axis=(-2, -1))
    sv = np.full(maps.shape[:-1], np.nan)
    if finite.any():
        sv[finite] = np.linalg.svd(maps[finite], compute_uv=False)
    return _Compressions(
        maps=maps,
        resid=resid,
        eta=np.linalg.norm(resid, axis=-1),
        nu=np.abs(maps).max(axis=2),
        norm=np.linalg.norm(rows, axis=-1),
        delta=np.linalg.norm(_adjoints(u) @ u - np.eye(d), axis=(-2, -1)),
        rho=np.linalg.norm(_adjoints(f) @ f - np.eye(d), axis=(-2, -1)),
        gram=np.linalg.norm(rows @ _adjoints(rows) - np.eye(n), axis=(-2, -1)),
        sv=sv,
    )


def _product_bounds(q: _Compressions, spec, gauge):
    """Proven bounds ``(mult, outside)``, each ``(o, o, o, n, n)``, for
    every pair ``x = e_i`` of block (A, B) and ``y = e_j`` of (B, C):
    ``mult`` on the multiplicativity defect ``||phi(P xy) - phi(x)
    phi(y)||_HS`` and ``outside`` on the HS residual ``||xy - P xy||``,
    ``P`` the projection on block (A, C), as ``validate_functor`` forms
    them.  ``lam`` is the spectrum's table ``(n, A, B, C)``, ``F`` its
    frames and ``gauge`` the sections' ``(n, A, B)``, so ``phi(e) =
    sum_p c_p(e) conj(g_p^AB) E_pp``.

    Notation: ``T``, ``E_e = T(e) - M(e)`` with ``M(e) =
    blockdiag_p(c_p(e) F_p^AB)``, ``eta``, ``nu``, ``delta``, ``rho``
    and ``gram`` as in :class:`_Compressions`; ``zeta = ||F^AB F^BC -
    blockdiag_p(lam_p F_p^AC)||_HS``, the frames' cocycle defect;
    ``theta = max_p |lam_p - mu_p|``, the sections' gauge defect, with
    ``mu_p = conj(g_p^AB g_p^BC) / conj(g_p^AC)``; ``w_p = c_p(x) c_p(y)
    lam_p`` and ``v_p = c_p(x) c_p(y)``, whose norms per pair are one
    matrix product of the squared block maps.

    * ``U_B U_B* = I + D`` with ``||D||_HS = delta_B`` (U is square), so
      ``T(xy) = T(x) T(y) - U_A* x D y U_C``.  Expanding ``T = M + E``,
      ``M(x) M(y) = blockdiag(v_p F_p^AB F_p^BC)`` and ``||F_p||_op <= 1
      + rho``: ``T(xy) = blockdiag(w_p F_p^AC) + R`` with ``||R||_HS <=
      eps = nu_i nu_j zeta + (1 + rho_AB) nu_i eta_j + (1 + rho_BC)
      eta_i nu_j + eta_i eta_j + sqrt((1 + delta_A)(1 + delta_C)) ||x||
      ||y|| delta_B``.
    * Let the block map ``C`` of (A, C) be square with singular values
      in ``[s_min, s_max]``, ``s_min > 0``, and ``kappa = C^-1 w``, so
      ``||kappa|| <= ||w|| / s_min`` and ``sum_k kappa_k M(e_k) =
      blockdiag(w_p F_p^AC)``.  Then ``Delta = xy - sum_k kappa_k e_k``
      has ``T(Delta) = R - sum_k kappa_k E_k``, and for ``delta < 1``
      ``||Delta||_HS <= dist = (eps + ||kappa|| ||eta^AC||_2) / sqrt((1
      - delta_A)(1 - delta_C))``.
    * The projection's coefficients are ``kappa' = G kappa + Q Delta``,
      ``G`` the Gram matrix of block (A, C)'s basis and ``||Q||_op^2 <=
      1 + gram``, so ``||kappa' - kappa|| <= K = gram ||kappa|| + sqrt(1
      + gram) dist``, and the residual ``||Delta - sum_k (kappa' -
      kappa)_k e_k||`` is at most ``outside = dist + sqrt(1 + gram)
      K``.
    * The defect is ``diag_p(conj(g_p^AC) ((C (kappa' - kappa))_p + v_p
      (lam_p - mu_p)))``, of HS norm at most ``mult = max_p |g_p^AC|
      (s_max K + ||v|| theta)``.

    Both bounds also cover the rounding of the explicit check itself,
    ``(d^2 + n) eps`` relative to the sizes it multiplies, so each holds
    for the defect as computed.  A failed premise, a block map that is
    not bijective or ``delta >= 1``, makes both bounds NaN, and so does
    a NaN in any input they read; such a pair is not certified.
    Nothing assumes that ``c(e)`` is the compression's own coefficient
    vector: a defect of the functor's block maps shows in ``eta``.
    """
    lam, f = spec.spaceoid.table, spec.frames
    cls = np.repeat(np.arange(len(lam)), spec.ranks)  # class of each row of F
    sq = np.abs(q.maps) ** 2  # (A, B, p, i)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lam_rows = np.moveaxis(lam[cls], 0, -1)  # (A, B, C, d)
        zeta = np.linalg.norm(
            f[:, :, None] @ f[None] - lam_rows[..., None] * f[:, None], axis=(-2, -1)
        )
        mu = np.conj(gauge[:, :, :, None] * gauge[:, None]) / np.conj(
            gauge[:, :, None, :]
        )
        theta = np.abs(lam - mu).max(axis=0, initial=0.0)
        g_max = np.abs(gauge).max(axis=0, initial=0.0)
        w = np.sqrt(np.einsum("abpi,pabc,bcpj->abcij", sq, np.abs(lam) ** 2, sq))
        v = np.sqrt(np.einsum("abpi,bcpj->abcij", sq, sq))

        def at(x, axes):  # broadcast to (A, B, C, i, j)
            shape = [1] * 5
            for ax, size in zip(axes, x.shape):
                shape[ax] = size
            return x.reshape(shape)

        d_a, d_b, d_c = (at(q.delta, [ax]) for ax in range(3))
        gram = at(q.gram, [0, 2])
        s_min = at(q.sv.min(axis=-1, initial=np.inf), [0, 2])
        nu_i, nu_j = at(q.nu, [0, 1, 3]), at(q.nu, [1, 2, 4])
        eta_i, eta_j = at(q.eta, [0, 1, 3]), at(q.eta, [1, 2, 4])
        eps = (
            nu_i * nu_j * at(zeta, [0, 1, 2])
            + (1 + at(q.rho, [0, 1])) * nu_i * eta_j
            + (1 + at(q.rho, [1, 2])) * eta_i * nu_j
            + eta_i * eta_j
            + np.sqrt((1 + d_a) * (1 + d_c))
            * at(q.norm, [0, 1, 3]) * at(q.norm, [1, 2, 4]) * d_b
        )
        kappa = w / s_min
        dist = (eps + kappa * at(np.linalg.norm(q.eta, axis=-1), [0, 2])) / np.sqrt(
            (1 - d_a) * (1 - d_c)
        )
        coeff = gram * kappa + np.sqrt(1 + gram) * dist
        size = at(q.norm, [0, 1, 3]) * at(q.norm, [1, 2, 4])  # ||x|| ||y||
        s_max = at(q.sv.max(axis=-1, initial=0.0), [0, 2])
        rounding = (f.shape[-1] ** 2 + q.maps.shape[-1]) * _EPS
        outside = dist + np.sqrt(1 + gram) * coeff + rounding * (1 + size)
        mult = at(g_max, [0, 2]) * (
            s_max * coeff + v * at(theta, [0, 1, 2])
            + rounding * (1 + s_max * size + v)
        )
    premise = (d_a < 1) & (d_c < 1) & (s_min > 0)
    return np.where(premise, mult, np.nan), np.where(premise, outside, np.nan)


def _isometry_bounds(q: _Compressions, z, top):
    """Proven bounds, ``(o, o, t)``, on ``| ||x||_op - top |`` for the
    combinations ``x = sum_k z_k e_k`` of each block's basis (``z``:
    ``(o, o, t, n)``), where ``top = max_p |xhat_p|`` and ``xhat = C z``
    is the block map ``C`` applied to ``z``.

    ``T(x) = blockdiag_p(xhat_p F_p) + E_x`` with ``E_x = sum_k z_k
    E_k``, so ``eta_x = ||E_x||_HS`` is the norm of ``z`` times the
    stacked residual rows.  The block-diagonal model has operator norm
    ``max_p |xhat_p| ||F_p||_op``, within ``top rho`` of ``top`` for
    ``rho <= 1``, so ``| ||T(x)||_op - top | <= eta_x + top rho``.  With
    ``s = sqrt((1 - delta_A)(1 - delta_B))``, ``||x||_op`` lies within
    ``(1/s - 1) ||T(x)||_op`` of ``||T(x)||_op``, and ``||T(x)||_op <=
    top (1 + rho) + eta_x``.  The bound also covers the explicit
    check's rounding, ``(d + n) eps`` relative to ``1 + top + sum_k
    |z_k| ||e_k||`` (forming ``x`` and ``xhat``, and the SVD).
    Premises: ``delta < 1`` and ``rho <= 1``; a NaN certifies nothing.
    """
    o, d = len(q.delta), math.isqrt(q.resid.shape[-1])
    eta_x = np.linalg.norm(z @ q.resid, axis=-1)
    rho = q.rho[..., None]
    rounding = (d + z.shape[-1]) * _EPS * (
        1 + top + np.einsum("abtk,abk->abt", np.abs(z), q.norm)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt((1 - q.delta[:, None]) * (1 - q.delta[None, :]))[..., None]
        bound = eta_x + top * rho + (1 / s - 1) * (top * (1 + rho) + eta_x) + rounding
    delta_a, delta_b = q.delta.reshape(o, 1, 1), q.delta.reshape(1, o, 1)
    premise = (delta_a < 1) & (delta_b < 1) & (rho <= 1)
    return np.where(premise, bound, np.nan)


def _certified_products(c, q: _Compressions, spec, gauge, tol) -> dict:
    """``validate_functor``'s ``_certified`` argument: per triple of
    objects, the pairs whose bounds from :func:`_product_bounds` clear
    the multiplicativity and membership checks with ``config.CERT_SLACK``
    to spare, and those bounds."""
    mult, outside = _product_bounds(q, spec, gauge)
    done = (CERT_SLACK * mult <= FUNCTOR_SLACK * tol) & (
        CERT_SLACK * outside <= tol
    )
    ids = list(enumerate(c.object_ids))
    return {
        (a, b, e): (done[i, j, k], mult[i, j, k])
        for (i, a), (j, b), (k, e) in itertools.product(ids, repeat=3)
    }


def gelfand(
    c: MatrixCategory, tol: float | None = None, seed: int = 0
) -> GelfandResult:
    """The comparison functor ``c -> sections(spectrum(c))``.

    The report certifies it is a *-functor, bijective on every block,
    and isometric for the operator norms, on three seeded Gaussian
    combinations ``x`` per block with ``xhat`` the functor's block map
    applied to their coordinates.

    ``functor-multiplicativity`` and ``isometric`` are proven first from
    the basis elements' compressions into the spectrum's class-ordered
    bases (:func:`_product_bounds`, :func:`_isometry_bounds`).  Each
    item, a pair of basis elements or a combination, reports its proven
    upper bound where ``config.CERT_SLACK`` times it clears the check's
    bound, and its explicit defect elsewhere; only those products and
    operator norms are formed.  The block maps are the frame
    coefficients of the compressions ``spectrum`` kept.
    """
    tol = resolve_tol(tol)
    spec = spectrum(c, tol, seed)
    sec, gauge = sections_with_gauge(spec.spaceoid, tol)
    maps = np.swapaxes(
        spec._frame_coefficients(spec.frames[:, :, None], spec.compressions), -1, -2
    )
    ids = list(enumerate(c.object_ids))
    phi = StarFunctor(
        object_map={o: o for o in c.object_ids},
        block_maps={
            (a, b): maps[i, j] for (i, a), (j, b) in itertools.product(ids, repeat=2)
        },
    )
    q = _compressions(c, spec, maps)
    report = Report()
    report.extend(
        validate_functor(
            phi, c, sec, tol, _certified=_certified_products(c, q, spec, gauge, tol)
        ),
        "functor-",
    )
    # fullness forces every block to have exactly one dimension per
    # class, so bijectivity is squareness plus full rank (decided as
    # numpy.linalg.matrix_rank decides it)
    bijective = bool(
        np.all(q.sv > q.sv.max(axis=-1, keepdims=True) * q.sv.shape[-1] * _EPS)
    )
    report.add("block-bijective", bijective)
    report.check("isometric", _isometry_devs(c, q, tol, seed), ISOMETRY_SLACK * tol)
    return GelfandResult(spec, sec, phi, report)


def _isometry_devs(c, q: _Compressions, tol, seed) -> np.ndarray:
    """``gelfand``'s isometry deviations, ``(o, o, 3)``: the proven
    bound where it clears, else ``| ||x||_op - max_p |xhat_p| |``."""
    shape = q.maps.shape
    z = np.random.default_rng(seed).standard_normal(shape[:2] + (3, 2, shape[-1]))
    z = z[..., 0, :] + 1j * z[..., 1, :]
    tops = np.abs(z @ np.swapaxes(q.maps, -1, -2)).max(axis=-1, initial=0.0)
    bound = _isometry_bounds(q, z, tops)
    devs = np.where(CERT_SLACK * bound <= ISOMETRY_SLACK * tol, bound, np.nan)
    ids = c.object_ids
    for i, j, t in zip(*np.nonzero(np.isnan(devs))):
        x = np.tensordot(z[i, j, t], _stack(c, ids[i], ids[j]), 1)
        devs[i, j, t] = abs(np.linalg.norm(x, 2) - tops[i, j, t])
    return devs


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
    if np.any(spec.ranks != 1):
        raise SpectrumMismatch("section class is not a point evaluation")
    v = spec.bases  # (object, point, class)
    pos = np.argmax(np.abs(v[0]) ** 2, axis=0)
    if not np.all(np.abs(v[0, pos, np.arange(len(pos))]) ** 2 >= ZERO_ONE_CUT):
        raise SpectrumMismatch("section class is not a point evaluation")
    if len(set(pos.tolist())) != len(pts):
        raise SpectrumMismatch("point evaluation classes collide")
    cls = np.argsort(pos)  # the class at each point
    f_delta = {p: spec.spaceoid.base_points[i] for p, i in zip(pts, cls)}

    # frame of class i at its point: v_A[q, i] f_AB[i, i] conj(v_B[q, i])
    at_point = v[:, np.arange(len(pts)), cls].T  # (point, object)
    f = np.diagonal(spec.frames, axis1=-2, axis2=-1)
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
