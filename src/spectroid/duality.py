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

from .config import resolve_tol
from .cstarcat import (
    MatrixCategory,
    StarFunctor,
    check_axioms,
    functor_image,
    is_commutative,
    is_full,
    validate_functor,
)
from .errors import (
    AmbiguousMatching,
    FullnessMismatch,
    InvalidFunctor,
    NotCommutative,
    NotFull,
    NotOneDimensional,
    NotUnital,
    SpectrumMismatch,
)
from .numkit import hs_norm, joint_diagonalize, op_norm
from .reporting import Report
from .spaceoid import (
    PhaseFunctor,
    SpaceoidData,
    SpaceoidMorphism,
    compose,
    is_isomorphism,
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
    "match_character_class",
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
    compressed unit frames, and the resulting spaceoid.
    """

    spaceoid: SpaceoidData
    category: MatrixCategory = field(repr=False)
    class_points: tuple
    ranks: tuple
    eigs: dict = field(repr=False)  # obj id -> JointEigenstructure
    class_block: dict = field(repr=False)  # (class idx, obj id) -> block idx
    frames: dict = field(repr=False)  # (class idx, A, B) -> r x r unitary
    diag_table: dict = field(repr=False)  # obj id -> (n_classes, n_AA basis)

    @property
    def n_classes(self) -> int:
        return len(self.class_points)

    @property
    def anchor(self):
        return self.spaceoid.objects[0]

    def isometry(self, i: int, a) -> np.ndarray:
        return self.eigs[a].block_isometry(self.class_block[(i, a)])

    def frame_matrix(self, i: int, a, b) -> np.ndarray:
        """The full-size unit frame of class ``i`` in block ``(a, b)``."""
        va = self.isometry(i, a)
        vb = self.isometry(i, b)
        return va @ self.frames[(i, a, b)] @ vb.conj().T

    def coefficients(self, a, b, x) -> np.ndarray:
        """Frame coefficients of ``x`` across all classes of block (a, b)."""
        x = np.asarray(x, dtype=complex)
        out = np.zeros(self.n_classes, dtype=complex)
        for i in range(self.n_classes):
            va = self.isometry(i, a)
            vb = self.isometry(i, b)
            comp = va.conj().T @ x @ vb
            f = self.frames[(i, a, b)]
            out[i] = np.trace(f.conj().T @ comp) / self.ranks[i]
        return out

    def lift(self, a, b, coeffs) -> np.ndarray:
        """Inverse of :meth:`coefficients` on the block's image."""
        coeffs = np.asarray(coeffs, dtype=complex)
        out = np.zeros((self.category.dim(a), self.category.dim(b)), complex)
        for i in range(self.n_classes):
            if coeffs[i] != 0:
                out += coeffs[i] * self.frame_matrix(i, a, b)
        return out

    def character_gamma(self, i: int, a, b) -> complex:
        """Frame-to-character correction: conj of the trivializing gauge."""
        return np.conj(self.spaceoid.lam_at(self.class_points[i], a,
                                            self.anchor, b))


def _match_blocks(c, eig0, eig_b, a0, b, tol):
    """Match each class block of the anchor object to the unique block
    of ``b`` with a nonvanishing compression of the (a0, b) space."""
    basis = c.block(a0, b)
    scale = max((hs_norm(x) for x in basis), default=0.0)
    thresh = tol * (1.0 + scale)
    match = {}
    for i in range(eig0.n_blocks):
        vi = eig0.block_isometry(i)
        hits = []
        for j in range(eig_b.n_blocks):
            wj = eig_b.block_isometry(j)
            m = max(
                (hs_norm(vi.conj().T @ x @ wj) for x in basis), default=0.0
            )
            if m > thresh:
                hits.append((j, m))
        if len(hits) != 1:
            raise AmbiguousMatching(
                f"class {i} of {a0} meets {len(hits)} blocks of {b}"
            )
        j = hits[0][0]
        if len(eig_b.blocks[j]) != len(eig0.blocks[i]):
            raise FullnessMismatch(
                f"rank mismatch between {a0} class {i} and {b} block {j}"
            )
        match[i] = j
    if len(set(match.values())) != eig0.n_blocks:
        raise AmbiguousMatching(f"matching {a0} -> {b} is not a bijection")
    return match


def _canonical_frame(comp, tol):
    """Scale and phase-normalize a one-dimensional block compression."""
    s = op_norm(comp)
    f = comp / s
    r = f.shape[0]
    if hs_norm(f.conj().T @ f - np.eye(r)) > tol * 100 * (1 + r):
        raise NotOneDimensional(
            "block compression is not a scalar multiple of a unitary"
        )
    flat = f.ravel()
    mx = np.max(np.abs(flat))
    for z in flat:
        if abs(z) >= 0.1 * mx:
            return f * np.conj(z / abs(z))
    raise NotOneDimensional("empty frame")  # pragma: no cover


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
    """
    tol = resolve_tol(tol)
    if not c.unital:
        raise NotUnital("spectrum needs identity elements in every C_AA")
    if not is_commutative(c, tol):
        raise NotCommutative("diagonal blocks do not commute")
    if not is_full(c, tol):
        raise NotFull("inner products do not span the diagonal blocks")

    ids = c.object_ids
    eigs = {
        o: joint_diagonalize(c.block(o, o), tol, seed=seed, dim=c.dim(o))
        for o in ids
    }
    a0 = ids[0]
    k = eigs[a0].n_blocks
    for o in ids[1:]:
        if eigs[o].n_blocks != k:
            raise FullnessMismatch(
                f"{a0} has {k} classes but {o} has {eigs[o].n_blocks}"
            )

    class_block = {(i, a0): i for i in range(k)}
    for o in ids[1:]:
        match = _match_blocks(c, eigs[a0], eigs[o], a0, o, tol)
        for i in range(k):
            class_block[(i, o)] = match[i]
    ranks = tuple(len(eigs[a0].blocks[i]) for i in range(k))
    points = tuple(f"w{i}" for i in range(k))

    frames = {}
    for i in range(k):
        for a in ids:
            frames[(i, a, a)] = np.eye(ranks[i], dtype=complex)
    for ai, a in enumerate(ids):
        for b in ids[ai + 1:]:
            basis = c.block(a, b)
            for i in range(k):
                va = eigs[a].block_isometry(class_block[(i, a)])
                vb = eigs[b].block_isometry(class_block[(i, b)])
                comps = [va.conj().T @ x @ vb for x in basis]
                norms = [hs_norm(m) for m in comps]
                best = comps[int(np.argmax(norms))]
                f = _canonical_frame(best, tol)
                frames[(i, a, b)] = f
                frames[(i, b, a)] = f.conj().T

    lam = {}
    for i, p in enumerate(points):
        for a, b, cc in itertools.product(ids, repeat=3):
            z = (
                np.trace(
                    frames[(i, a, cc)].conj().T
                    @ frames[(i, a, b)]
                    @ frames[(i, b, cc)]
                )
                / ranks[i]
            )
            lam[(p, a, b, cc)] = z
    spaceoid = SpaceoidData(points, ids, lam)
    require_valid(spaceoid, tol)

    diag_table = {
        o: np.stack(
            [eigs[o].eigenvalues[:, class_block[(i, o)]] for i in range(k)]
        )
        if c.block_dim(o, o)
        else np.zeros((k, 0), dtype=complex)
        for o in ids
    }

    result = SpectrumResult(
        spaceoid=spaceoid,
        category=c,
        class_points=points,
        ranks=ranks,
        eigs=eigs,
        class_block=class_block,
        frames=frames,
        diag_table=diag_table,
    )

    # completeness: every element must be recovered by its coefficients
    for a, b in c.pairs():
        for x in c.block(a, b):
            rec = result.lift(a, b, result.coefficients(a, b, x))
            if hs_norm(rec - x) > tol * 100 * (1 + hs_norm(x)):
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
        """The character applied to ``x`` in block ``(a, b)``."""
        coeff = self.spec.coefficients(a, b, x)[self.index]
        return coeff * self.spec.character_gamma(self.index, a, b)


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
    if hasattr(omega, "value"):
        return np.array([omega.value(a, b, x) for x in basis], dtype=complex)
    return np.array([omega(a, b, x) for x in basis], dtype=complex)


def match_character_class(
    spec: SpectrumResult, omega, tol: float | None = None
) -> int:
    """Index of the spectrum class unitarily equivalent to ``omega``.

    Characters are equivalent exactly when they agree on every diagonal
    block, so the diagonal eigenvalue tables decide the match.  Raises
    ``SpectrumMismatch`` when no class fits and ``AmbiguousMatching``
    when several do.
    """
    tol = resolve_tol(tol)
    c = spec.category
    candidates = set(range(spec.n_classes))
    for o in c.object_ids:
        basis = c.block(o, o)
        if not basis:
            continue
        vals = _character_values(omega, o, o, basis)
        scale = 1.0 + float(np.max(np.abs(vals), initial=0.0))
        keep = set()
        for i in candidates:
            if np.max(np.abs(spec.diag_table[o][i] - vals)) <= tol * 100 * scale:
                keep.add(i)
        candidates = keep
    if not candidates:
        raise SpectrumMismatch("no spectrum class matches the character")
    if len(candidates) > 1:
        raise AmbiguousMatching(
            f"{len(candidates)} spectrum classes match the character"
        )
    return candidates.pop()


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
        if np.max(np.abs(d1 - d2)) > tol * 1000 * scale:
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
        if abs(v1[j]) < 1e-8:
            # the block vanishes at this class on both sides
            psi[(a, b)] = 1.0 + 0j
            continue
        z = v2[j] / v1[j]
        psi[(a, b)] = z / abs(z)
    pf = PhaseFunctor(psi)
    rep = validate_phase_functor(pf, c.object_ids, tol * 100)
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
        basis = cat.block(a, b)
        row = np.array(
            [[omega.value(a, b, x) for x in basis]], dtype=complex
        )
        block_maps[(a, b)] = row
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
    gauge: dict  # (p, A, B) -> trivializing phase used by the realization


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
    anchor = e.objects[0]
    n = len(e.base_points)
    gauge = {
        (p, a, b): e.lam_at(p, a, anchor, b)
        for p in e.base_points
        for a in e.objects
        for b in e.objects
    }
    blocks = {}
    for a in e.objects:
        for b in e.objects:
            basis = []
            for pos, p in enumerate(e.base_points):
                m = np.zeros((n, n), dtype=complex)
                m[pos, pos] = np.conj(gauge[(p, a, b)])
                basis.append(m)
            blocks[(a, b)] = basis
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
    block_maps = {}
    for a2 in cod.objects:
        for b2 in cod.objects:
            a1, b1 = inv_r[a2], inv_r[b2]
            mat = np.zeros(
                (len(dom.base_points), len(cod.base_points)), dtype=complex
            )
            for i, p in enumerate(dom.base_points):
                j = cod.base_points.index(m.f_delta[p])
                mat[i, j] = m.fiber_scalars[(p, a1, b1)]
            block_maps[(a2, b2)] = mat
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

    Base points map by composing characters with the functor; fiber
    scalars are the target-side frame coefficients of the images of the
    source frames.
    """
    tol = resolve_tol(tol)
    spec1 = source_spectrum or spectrum(source, tol, seed)
    spec2 = target_spectrum or spectrum(target, tol, seed)
    if set(phi.object_map) != set(source.object_ids) or set(
        phi.object_map.values()
    ) != set(target.object_ids):
        raise InvalidFunctor("object map is not a bijection onto the target")
    inv_obj = {v: k for k, v in phi.object_map.items()}

    f_delta = {}
    for j in range(spec2.n_classes):
        omega_j = Character(spec2.class_points[j], j, spec2)

        def composed(a1, b1, x, _w=omega_j):
            img = functor_image(phi, source, target, a1, b1, x, tol)
            return _w.value(phi.object_map[a1], phi.object_map[b1], img)

        i = match_character_class(spec1, composed, tol)
        f_delta[spec2.class_points[j]] = spec1.class_points[i]

    f_r = {o2: inv_obj[o2] for o2 in target.object_ids}

    scal = {}
    for j, pj in enumerate(spec2.class_points):
        i = spec1.class_points.index(f_delta[pj])
        for a2 in target.object_ids:
            for b2 in target.object_ids:
                a1, b1 = inv_obj[a2], inv_obj[b2]
                u1 = spec1.frame_matrix(i, a1, b1)
                img = functor_image(phi, source, target, a1, b1, u1, tol)
                z = spec2.coefficients(a2, b2, img)[j]
                if abs(z) < 0.5:
                    raise SpectrumMismatch(
                        f"image of the ({a1},{b1}) frame nearly vanishes "
                        f"at class {pj}"
                    )
                scal[(pj, a2, b2)] = z / abs(z)
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
    block_maps = {}
    for a, b in c.pairs():
        basis = c.block(a, b)
        mat = np.zeros((spec.n_classes, len(basis)), dtype=complex)
        for kk, x in enumerate(basis):
            mat[:, kk] = spec.coefficients(a, b, x)
        block_maps[(a, b)] = mat
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
    # isometry is checked on the operator norms directly
    rng = np.random.default_rng(seed)
    worst = 0.0
    for a, b in c.pairs():
        basis = c.block(a, b)
        if not basis:
            continue
        for _ in range(3):
            coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(
                len(basis)
            )
            x = sum(cz * m for cz, m in zip(coeffs, basis))
            xhat = spec.coefficients(a, b, x)
            worst = max(
                worst,
                abs(op_norm(x) - float(np.max(np.abs(xhat), initial=0.0))),
            )
    report.add("isometric", worst <= tol * 100 * 10, worst)
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

    a0 = e.objects[0]
    f_delta = {}
    for i in range(spec.n_classes):
        proj = np.real(np.diag(spec.eigs[a0].block_projection(
            spec.class_block[(i, a0)]
        )))
        pos = int(np.argmax(proj))
        if proj[pos] < 0.5 or spec.ranks[i] != 1:
            raise SpectrumMismatch(
                "section class is not a point evaluation"
            )
        f_delta[e.base_points[pos]] = spec.class_points[i]
    if len(f_delta) != len(e.base_points):
        raise SpectrumMismatch("point evaluation classes collide")

    scal = {}
    for p in e.base_points:
        i = spec.class_points.index(f_delta[p])
        pos = e.base_points.index(p)
        for a in e.objects:
            for b in e.objects:
                lifted = spec.frame_matrix(i, a, b)
                z = lifted[pos, pos] * gauge[(p, a, b)]
                scal[(p, a, b)] = z / abs(z)
    m = SpaceoidMorphism(
        f_delta=f_delta, f_r={o: o for o in e.objects}, fiber_scalars=scal
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
    report.extend(check_axioms(c, tol, seed=seed), "input-")
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
        is_isomorphism(ev.morphism, e, ev.spectrum.spaceoid, tol),
    )
    dev = max(
        abs(z - 1.0) for z in ev.spectrum.spaceoid.lam.values()
    ) if ev.spectrum.spaceoid.lam else 0.0
    report.add("re-spectrum-trivial-constants", dev <= tol, dev)
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
    worst = 0.0
    for a1, b1 in c1.pairs():
        basis = c1.block(a1, b1)
        if not basis:
            continue
        a2, b2 = phi.object_map[a1], phi.object_map[b1]
        for kk in range(len(basis)):
            unit = np.zeros(len(basis), dtype=complex)
            unit[kk] = 1.0
            # down then across: gelfand in C1, then the section functor
            left = gamma.block_maps[(a1, b1)] @ (
                g1.functor.block_maps[(a1, b1)] @ unit
            )
            # across then down: phi, then gelfand in C2
            right = g2.functor.block_maps[(a2, b2)] @ (
                phi.block_maps[(a1, b1)] @ unit
            )
            worst = max(worst, float(np.max(np.abs(left - right))))
    return worst


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
        report.add(f"functor-{idx}-naturality", res <= tol, res)
    for idx, (m, e1, e2) in enumerate(morphisms):
        res = _morphism_naturality(m, e1, e2, tol, seed)
        report.add(f"morphism-{idx}-naturality", res <= tol, res)
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
