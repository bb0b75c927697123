"""The two arrows of the finite commutative duality.

``spectrum`` turns a commutative full unital matrix category into a
spaceoid: its base points are the joint-eigenspace classes of the
anchor object, carried to every other object along the blocks that
join them, and the spaceoid comes out already trivialized.
``sections`` turns any spaceoid back into a concrete diagonal matrix
category.  ``gelfand`` and ``evaluation`` are the comparison maps of
the two composites, and ``verify_duality`` checks naturality of both on
concrete instances.

Conventions fixed here (everything downstream depends on them):

* the anchor is the first object; classes are ordered by its canonical
  eigenvalue-tuple order and named ``w0, w1, ...``;
* the spectrum is in the anchor's gauge: every object's basis is the
  anchor's joint eigenbasis transported along block (anchor, B), so
  every fiber frame is the identity on its class and every structure
  constant is exactly 1;
* both induced maps are contravariant: a functor ``C1 -> C2`` induces
  a spaceoid morphism ``spectrum(C2) -> spectrum(C1)`` and a spaceoid
  morphism ``E1 -> E2`` induces a functor ``sections(E2) ->
  sections(E1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import (
    AXIOM_SLACK, CERT_SLACK, EQUIVALENCE_SLACK, FULLNESS_RTOL, FUNCTOR_SLACK,
    ISOMETRY_SLACK, SPECTRAL_SLACK, VANISHING_ATOL, ZERO_ONE_CUT, resolve_tol,
)
from .cstarcat import (
    MatrixCategory,
    StarFunctor,
    _check_block_maps,
    _stack,
    check_axioms,
    is_commutative,
    is_full,
    validate_functor,
)
from .errors import (
    AmbiguousMatching,
    DiagonalizationFailed,
    InvalidFunctor,
    NotCommutative,
    NotFull,
    NotOneDimensional,
    NotUnital,
    SpectrumMismatch,
)
from .numkit import _adjoints, _noncommuting_pair, joint_diagonalize
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


_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# spectrum


@dataclass
class SpectrumResult:
    """Joint eigenspace classes of a commutative full category, in the
    anchor's gauge.

    Carries everything needed to move elements back and forth, as dense
    arrays whose object axes follow ``spaceoid.objects``.  With ``o``
    objects and ``k`` classes, every object has the same dimension
    ``d``, the sum of the class ranks, and every block has one basis
    element per class:

    * ``ranks`` ``(k,)``: class ``i`` owns the columns ``starts[i] :
      starts[i] + ranks[i]`` of every basis;
    * ``bases`` ``(o, d, d)``: the class-ordered bases, the anchor's
      joint eigenbasis and its transports to the other objects;
    * ``compressions`` ``(o, o, k, d, d)``: each block's basis
      compressed into those bases, ``bases[A]* e bases[B]`` per
      element, a multiple of the identity on every class;
    * ``block_maps`` ``(o, o, k, k)``: ``block_maps[A, B][p, j] =
      c_p(e_j)``, the class coefficients of block (A, B)'s basis
      element ``j``, which are also the characters' values on it.

    The frame of every class in every block is the identity, so the
    coefficient of ``x`` at a class is the mean of the diagonal of its
    compression over the class's columns.
    """

    spaceoid: SpaceoidData
    category: MatrixCategory = field(repr=False)
    ranks: np.ndarray
    bases: np.ndarray = field(repr=False)
    compressions: np.ndarray = field(repr=False)
    block_maps: np.ndarray = field(repr=False)

    @property
    def n_classes(self) -> int:
        return len(self.ranks)

    @property
    def starts(self) -> np.ndarray:
        """First column of every class in the class-ordered bases."""
        return np.cumsum(self.ranks) - self.ranks

    @property
    def diag_table(self) -> np.ndarray:
        """``(o, k, k)``: the diagonal blocks' block maps, the
        eigenvalue on each class (rows) of each diagonal basis element."""
        n = np.arange(len(self.bases))
        return self.block_maps[n, n]

    def _index(self, a, b) -> tuple:
        objs = self.spaceoid.objects
        return objs.index(a), objs.index(b)

    def coefficients(self, a, b, x) -> np.ndarray:
        """Class coefficients of ``x`` across all classes of block (a,
        b), which are also the characters' values on ``x``.

        ``x`` is one ``d_A x d_B`` matrix or a ``(..., d_A, d_B)``
        stack; the classes run along the last axis of the result.
        """
        i, j = self._index(a, b)
        # the diagonal of bases[i]* x bases[j], without the rest of it
        xu = np.asarray(x, dtype=complex) @ self.bases[j]
        return _class_means(np.sum(self.bases[i].conj() * xu, axis=-2), self.ranks)

    def lift(self, a, b, coeffs) -> np.ndarray:
        """Inverse of :meth:`coefficients` on the block's image (classes
        along the last axis of ``coeffs``)."""
        return self._lift(*self._index(a, b), coeffs)

    def _lift(self, i, j, coeffs) -> np.ndarray:
        """:meth:`lift` at object positions ``i`` and ``j``: ints, or
        index arrays broadcast against the leading axes of ``coeffs``."""
        rows = np.repeat(np.asarray(coeffs, dtype=complex), self.ranks, axis=-1)
        return (self.bases[i] * rows[..., None, :]) @ _adjoints(self.bases[j])


def _class_means(diag, ranks) -> np.ndarray:
    """Per class, the mean of ``diag`` (one entry per basis column,
    along the last axis) over the class's ``ranks`` columns."""
    return np.add.reduceat(diag, np.cumsum(ranks) - ranks, axis=-1) / ranks


def _residual_rows(comp, coeffs, ranks) -> np.ndarray:
    """``E(e) = T(e) - blockdiag_p(c_p(e) I)`` for a ``(..., d, d)``
    stack of compressions ``T(e)`` and their class coefficients
    ``coeffs`` ``(..., k)``, as rows ``(..., d*d)``: the compressions
    with the coefficients taken off their diagonals."""
    resid = comp.copy()
    i = np.arange(comp.shape[-1])
    resid[..., i, i] -= np.repeat(coeffs, ranks, axis=-1)
    return resid.reshape(comp.shape[:-2] + (-1,))


def _lift_bound(eta, norm, delta, d) -> np.ndarray:
    """Proven bounds, ``(o, o, n)``, on the lift residuals ``f_e = ||e -
    U_A M(e) U_B*||_HS`` of the basis elements ``e`` of every block (A,
    B), ``M(e) = blockdiag_p(c_p(e) I)`` over the ``k`` classes, from
    the HS norms ``eta`` of ``E(e) = T(e) - M(e)``, ``T(e) = U_A* e
    U_B``, the norms ``||e||_HS`` and the ``(o,)`` unitarity defects
    ``delta = ||U*U - I||_HS`` of the square ``d x d`` class-ordered
    bases.

    Lemma (an element within ``eta`` of its block-scalar model, in bases
    ``delta`` from unitary).  ``||U||_op^2 = ||U*U||_op <= 1 + delta``,
    so ``||U X V*||_HS <= sqrt((1 + delta_U)(1 + delta_V)) ||X||_HS``;
    and ``U U* = I + D`` with ``||D||_HS = delta``, since ``U U*`` and
    ``U*U`` are unitarily similar for square ``U``.  So ``U_A T(e) U_B*
    = (I + D_A) e (I + D_B)``, hence ``e - U_A M(e) U_B* = U_A E(e) U_B*
    - (D_A e + e D_B + D_A e D_B)`` and ``f_e <= sqrt((1 + delta_A)(1 +
    delta_B)) eta_e + (delta_A + delta_B + delta_A delta_B) ||e||_HS``.

    The lemma holds in exact arithmetic.  The bound adds ``(d^2 + k) eps
    (1 + ||e||_HS)``, the rounding margin of :func:`_product_bounds`,
    for the rounding of ``eta`` and of the explicit lift; it is a
    margin, not a proven allowance (the worst case of ``eta``'s product
    ``U_A* e U_B`` alone is about ``2 d^2 eps ||e||_HS``), and the
    ``CERT_SLACK`` factor by which a certified bound must clear the
    check covers rounding of that order.  A NaN in any input makes the
    bound NaN.
    """
    d_a, d_b = delta[:, None, None], delta[None, :, None]
    return (
        np.sqrt((1 + d_a) * (1 + d_b)) * eta
        + (d_a + d_b + d_a * d_b) * norm
        + (d * d + eta.shape[-1]) * _EPS * (1 + norm)
    )


def _rank_groups(ranks: np.ndarray):
    """Per distinct rank ``r``: the classes of that rank and the index
    array ``(n_classes_of_rank_r, r)`` of their columns."""
    starts = np.cumsum(ranks) - ranks
    for r in sorted(set(ranks.tolist())):
        cls = np.flatnonzero(ranks == r)
        yield cls, starts[cls][:, None] + np.arange(r)


def _transported_bases(c, eig, tol) -> tuple:
    """The anchor's class-ordered joint eigenbasis ``U`` and, for every
    other object B, its classes carried along block (anchor, B), as one
    ``(o, d, d)`` stack, and the ``(o,)`` HS norms of their unitarity
    defects ``V* V - I``.

    B's class-``i`` columns are the polar factor of ``e* U^i``, with
    ``e`` the first basis element whose class-``i`` slice ``U^i* e``
    has at least half the largest squared HS norm: then ``U^i* e`` is a
    positive multiple of the identity in B's columns.  Slices that tie,
    as every element's do in a group category, go to the first element,
    so rounding does not pick the gauge.  Raises ``AmbiguousMatching``
    when a transported basis's defect exceeds ``SPECTRAL_SLACK * tol *
    (1 + d)``.
    """
    ids, u = c.object_ids, eig.unitary
    d = u.shape[1]
    for o in ids[1:]:
        if c.dim(o) != d:
            raise AmbiguousMatching(
                f"the anchor's classes have total rank {d} but {o} has dimension {c.dim(o)}"
            )
    bases = np.broadcast_to(u, (len(ids), d, d)).copy()
    if len(ids) > 1:
        # t[b, e]: the elements of block (anchor, B) in the anchor's basis;
        # sq[b, e, i]: the squared norms of their class slices
        t = _adjoints(u) @ np.stack([_stack(c, ids[0], b) for b in ids[1:]])
        sq = np.add.reduceat(np.sum(np.abs(t) ** 2, axis=-1), eig.starts, axis=-1)
        pick = np.argmax(sq >= sq.max(axis=1, keepdims=True) / 2, axis=1)
        best = t[np.arange(len(t))[:, None], pick]  # (o - 1, k, d, d)
        for cls, idx in _rank_groups(eig.sizes):
            w, _, vh = np.linalg.svd(best[:, cls[:, None], idx], full_matrices=False)
            bases[1:, :, idx] = np.moveaxis((w @ vh).conj(), -1, 1)
    dev = np.linalg.norm(_adjoints(bases) @ bases - np.eye(d), axis=(-2, -1))
    bad = ~(dev <= SPECTRAL_SLACK * tol * (1 + d))
    if bad.any():
        raise AmbiguousMatching(
            f"the anchor's classes carried to {ids[np.argmax(bad)]} are not orthonormal"
        )
    return bases, dev


def spectrum(
    c: MatrixCategory, tol: float | None = None, seed: int = 0
) -> SpectrumResult:
    """Decompose a commutative full unital category into its spaceoid,
    in the anchor's gauge.

    Raises ``ValueError`` when a block has a non-finite entry,
    ``NotUnital`` when the category is not unital or a diagonal block
    is empty, and ``NotCommutative`` / ``NotFull`` when the other
    hypotheses fail, ``AmbiguousMatching`` when the anchor's classes do
    not carry over to an object as an orthonormal basis,
    ``NotOneDimensional`` when a fiber is not a line, and
    ``DiagonalizationFailed`` when the anchor's block commutes but its
    joint diagonalization does not verify (any of these means the input
    is outside the duality's domain).  A category that is not
    commutative raises ``NotCommutative`` whichever object is the
    anchor.

    Only the anchor's diagonal block is jointly diagonalized; the other
    objects' bases are transported from it (:func:`_transported_bases`).
    Every block's basis is compressed, in one product over all pairs,
    into those bases; their diagonals' class means are the
    ``block_maps``, and what is left of each compression, ``E(e) = T(e)
    - blockdiag_p(c_p(e) I)``, is one residual array.  The completeness
    check, over all pairs, the diagonal ones included, proves every
    element within ``SPECTRAL_SLACK * tol * (1 + ||e||_HS)`` of the
    multiple of the identity on every class that its coefficients give,
    so every frame is the identity, every structure constant is 1, and
    every C_BB is diagonalized without one of its own.  A pair is proved
    from the residual array (:func:`_lift_bound`) where ``CERT_SLACK``
    times every element's bound clears that; only the pairs left over
    lift their coefficients back explicitly.  Once completeness holds, a
    block is full exactly when no class vanishes in it, which its block
    map shows (``FULLNESS_RTOL``).  Every diagonal block, the anchor's
    included, is then proved commutative by one rule
    (:func:`_require_commuting`).  Only a failing input consults
    ``is_commutative`` and ``is_full``.
    """
    tol = resolve_tol(tol)
    if not c.unital:
        raise NotUnital("spectrum needs identity elements in every C_AA")
    for o in c.object_ids:
        if not c.block(o, o):
            raise NotUnital(f"block ({o},{o}) is empty, so it has no identity")
    for (a, b), basis in c.blocks.items():
        if not np.isfinite(basis).all():
            raise ValueError(f"block ({a},{b}) has non-finite entries")
    try:
        return _spectrum(c, tol, seed)
    except (DiagonalizationFailed, NotFull, NotOneDimensional, AmbiguousMatching) as exc:
        # only the anchor is diagonalized and fullness is read off the
        # block maps, so a category that is not commutative, or not
        # full, fails one of the later checks; both hypotheses are
        # consulted on this path only, commutativity first
        if not is_commutative(c, tol):
            raise NotCommutative("diagonal blocks do not commute") from exc
        if not isinstance(exc, NotFull) and not is_full(c, tol):
            raise NotFull("inner products do not span the diagonal blocks") from exc
        raise


def _spectrum(c: MatrixCategory, tol: float, seed: int) -> SpectrumResult:
    """:func:`spectrum` on a unital category, before the error contract."""
    ids = c.object_ids
    eig = joint_diagonalize(c.block(ids[0], ids[0]), tol, seed=seed)
    k = eig.n_blocks
    # in a full category every class has a nonzero fiber in every block,
    # so a block whose dimension is not the class count has a fiber that
    # is not a line, or the category is not full
    for a, b in c.pairs():
        if c.block_dim(a, b) != k:
            raise NotOneDimensional(
                f"block ({a},{b}) has dimension {c.block_dim(a, b)} for {k} classes"
            )
    bases, delta = _transported_bases(c, eig, tol)

    n_obj, d = bases.shape[:2]
    x = np.reshape([_stack(c, a, b) for a, b in c.pairs()], (n_obj, n_obj, k, d, d))
    comp = _adjoints(bases)[:, None, None] @ x @ bases[None, :, None]
    # coeffs[A, B, j, p] = c_p(e_j), the block maps with elements first
    coeffs = _class_means(np.diagonal(comp, axis1=-2, axis2=-1), eig.sizes)
    points = tuple(f"w{i}" for i in range(k))
    result = SpectrumResult(
        spaceoid=SpaceoidData(points, ids, np.ones((k, n_obj, n_obj, n_obj), dtype=complex)),
        category=c,
        ranks=eig.sizes,
        bases=bases,
        compressions=comp,
        block_maps=np.swapaxes(coeffs, -1, -2),
    )
    resid = _residual_rows(comp, coeffs, eig.sizes)
    eta = np.linalg.norm(resid, axis=-1)
    norms = np.linalg.norm(x.reshape(resid.shape), axis=-1)

    # completeness: every element must be recovered by its coefficients;
    # err holds the proven bound on each lift residual, or the residual
    # itself for the pairs whose bounds do not clear
    cut = SPECTRAL_SLACK * tol * (1 + norms)
    err = _lift_bound(eta, norms, delta, d)
    left = ~np.all(CERT_SLACK * err <= cut, axis=-1)
    if left.any():
        a, b = np.nonzero(left)
        lift = result._lift(a[:, None], b[:, None], coeffs[a, b])
        err[a, b] = np.linalg.norm(lift - x[a, b], axis=(-2, -1))
    bad = ~np.all(err <= cut, axis=-1)
    if bad.any():
        a, b = np.unravel_index(np.argmax(bad), bad.shape)
        raise NotOneDimensional(
            f"block ({ids[a]},{ids[b]}) is not spanned by the class fibers"
        )
    # fullness: a class whose row of the block map vanishes, next to the
    # largest, has no fiber in the block (with completeness proven, these
    # squared row norms are the eigenvalues is_full measures, up to the
    # bases' unitarity defects)
    sq = np.sum(np.abs(coeffs) ** 2, axis=-2)
    thin = ~(sq.min(axis=-1) > FULLNESS_RTOL * sq.max(axis=-1))
    if thin.any():
        a, b = np.unravel_index(np.argmax(thin), thin.shape)
        p = np.argmin(sq[a, b])
        raise NotFull(f"class {points[p]} vanishes in block ({ids[a]},{ids[b]})")
    n = np.arange(n_obj)
    _require_commuting(x[n, n], coeffs[n, n], err[n, n], norms[n, n], delta, tol, ids)
    return result


def _require_commuting(m, coeffs, err, norms, delta, tol, ids) -> None:
    """Raise ``NotCommutative`` for the first object whose diagonal
    block has a pair of basis elements ``m_i``, ``m_j`` (``i < j``, in
    row-major order) that ``numkit._noncommuting_pair`` finds not
    commuting: ``||[m_i, m_j]||_HS`` above ``tol * (1 + n_i n_j)``, ``n_i
    = ||m_i||_HS``.

    Arguments, per object: ``m`` ``(o, n, d, d)``, the diagonal block's
    basis; ``coeffs`` ``(o, n, k)``, its class coefficients ``c(m_i)``;
    ``err`` ``(o, n)``, upper bounds on the lift residuals ``f_i = ||m_i
    - U M_i U*||_HS``, with ``M_i = blockdiag_p(c_p(m_i) I)`` and ``U``
    the object's class-ordered basis (the completeness check's explicit
    residuals, or :func:`_lift_bound`'s proven bounds on them);
    ``norms`` ``(o, n)``, the ``n_i``; and ``delta`` ``(o,)``, ``||U*U -
    I||_HS``.  With ``mu_i = max_p |c_p(m_i)| = ||M_i||_op``:

    * By the lemma of :func:`_lift_bound`, ``||U A U*||_HS <= (1 +
      delta) ||A||_HS`` and ``||U M_i U*||_op <= (1 + delta) mu_i``.
    * ``M_i`` and ``M_j`` are diagonal, so they commute, and ``[U M_i
      U*, U M_j U*] = U (M_i D M_j - M_j D M_i) U*`` with ``D = U*U -
      I``.
    * With ``m_i = U M_i U* + F_i``, ``||F_i||_HS = f_i``, and ``||[X,
      Y]||_HS <= 2 ||X||_op ||Y||_HS``: ``||[m_i, m_j]||_HS <= 2 ((1 +
      delta)(delta mu_i mu_j + mu_i f_j + mu_j f_i) + f_i f_j)``.

    A pair is certified when that bound times ``config.CERT_SLACK`` is
    at most the explicit check's bound: the slack leaves room for the
    rounding of ``f`` and of the explicit commutator, so a certified
    pair passes that check.  A NaN certifies nothing.  Commutators are
    formed only for the pairs left over.
    """
    i, j = np.triu_indices(m.shape[1], 1)
    mu, dl = np.abs(coeffs).max(axis=-1), delta[:, None]
    bound = 2 * (
        (1 + dl) * (dl * mu[:, i] * mu[:, j] + mu[:, i] * err[:, j] + mu[:, j] * err[:, i])
        + err[:, i] * err[:, j]
    )
    left = ~(CERT_SLACK * bound <= tol * (1 + norms[:, i] * norms[:, j]))
    for o in np.flatnonzero(left.any(axis=1)):
        pair = _noncommuting_pair(m[o], tol, (i[left[o]], j[left[o]]))
        if pair is not None:
            a, b, res = pair
            raise NotCommutative(
                f"basis elements {a} and {b} of block ({ids[o]},{ids[o]}) "
                f"do not commute (residual {res:.3e})"
            )


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
        return self.spec.coefficients(a, b, x)[..., self.index]


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


def _match_classes(table, values, tol) -> np.ndarray:
    """Spectrum class of each of ``m`` characters.

    ``table`` ``(o, k, n)`` holds the ``k`` classes' values on each
    object's diagonal basis (the spectrum's diagonal block maps) and
    ``values`` ``(o, m, n)`` the characters' values on the same bases.
    A character fits a class when, on every object, its values lie
    within ``SPECTRAL_SLACK * tol * (1 + max |value|)`` of the class's
    row.  Raises ``SpectrumMismatch`` when the first character that does
    not fit exactly one class fits none, ``AmbiguousMatching`` when it
    fits several.
    """
    scale = 1.0 + np.max(np.abs(values), axis=-1, initial=0.0)
    dev = np.max(np.abs(table[:, None] - values[:, :, None]), axis=-1)
    fits = np.all(dev <= SPECTRAL_SLACK * tol * scale[..., None], axis=0)
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
    on the same objects plus the evaluation *-functor onto it, whose
    block maps are the class's rows of ``spec.block_maps``."""
    tol = resolve_tol(tol)
    target = one_dim_category(cat.object_ids)
    rows = spec.block_maps[:, :, idx]
    block_maps = {(a, b): rows[spec._index(a, b)][None, :] for a, b in cat.pairs()}
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
    e: SpaceoidData, tol: float | None = None, *, _valid: bool = False
) -> SectionsWithGauge:
    """Concrete diagonal realization of the section category.

    Objects keep their ids, each with dimension ``|base|``; the basis
    element for point ``p`` of block ``(A, B)`` is ``conj(g(p;A,B)) *
    e_pp`` with ``g`` the trivializing gauge, which makes the stored
    structure constants of the realization equal to the spaceoid's
    table exactly.  Raises ``InvalidSpaceoid`` when ``e`` does not
    validate.

    ``_valid`` is private to :func:`gelfand` and :func:`evaluation`: True
    when the caller has already validated ``e``, which is then not
    validated again.
    """
    tol = resolve_tol(tol)
    if not _valid:
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
    of a *-functor ``phi: source -> target`` (contravariant), read off
    the block maps ``C1``, ``C2`` of the spectra and ``Phi`` of the
    functor alone.  Raises ``InvalidFunctor`` before either spectrum is
    computed when the object map is not a bijection onto the target, or
    when a block map's shape is not (target block dim x source block
    dim).

    The target characters composed with ``phi`` take the values ``C2[phi
    A, phi B] Phi_AB`` on block (A, B)'s basis; on the diagonal blocks
    they are matched against ``C1[A, A]``.  Source class ``q``'s unit
    ``U_A E_q U_B*`` has the coordinates ``r_q conj(C1[A, B][q, :])``
    (``<e_j, U_A E_q U_B*>_HS = r_q conj(c_q(e_j))``), so its image's
    target class coefficients are column ``q`` of ``C2 Phi C1* diag(r)``,
    and each fiber scalar is ``spaceoid._unit`` of the entry at a target
    class and the source class it matches.
    """
    tol = resolve_tol(tol)
    inv_obj = {v: k for k, v in phi.object_map.items()}
    if len(inv_obj) != len(phi.object_map) or (set(phi.object_map), set(inv_obj)) != (
        set(source.object_ids), set(target.object_ids)
    ):
        raise InvalidFunctor("object map is not a bijection onto the target")
    _check_block_maps(phi, source, target)
    spec1 = source_spectrum or spectrum(source, tol, seed)
    spec2 = target_spectrum or spectrum(target, tol, seed)

    # every array in the target's object order
    ids2 = target.object_ids
    i1 = [spec1.spaceoid.objects.index(inv_obj[o]) for o in ids2]
    i2 = [spec2.spaceoid.objects.index(o) for o in ids2]
    c1, c2 = spec1.block_maps[np.ix_(i1, i1)], spec2.block_maps[np.ix_(i2, i2)]
    maps = np.reshape(
        [phi.block_maps[(inv_obj[a], inv_obj[b])] for a, b in target.pairs()],
        c2.shape[:-1] + c1.shape[-1:],
    )
    composed = c2 @ maps
    n = np.arange(len(ids2))
    match = _match_classes(c1[n, n], composed[n, n], tol)
    points1 = spec1.spaceoid.base_points
    f_delta = {p: points1[i] for p, i in zip(spec2.spaceoid.base_points, match)}
    f_r = {o2: inv_obj[o2] for o2 in ids2}

    # units[A, B][:, q]: the coordinates of source class q's unit;
    # z[p, A, B]: class p's coefficient of the image of its matched unit
    units = np.swapaxes(c1, -1, -2).conj() * spec1.ranks
    z = np.moveaxis((composed @ units)[..., np.arange(len(match)), match], -1, 0)
    small = ~(np.abs(z) >= ZERO_ONE_CUT)
    if small.any():
        j, a, b = np.unravel_index(np.argmax(small), small.shape)
        raise SpectrumMismatch(
            f"image of the ({f_r[ids2[a]]},{f_r[ids2[b]]}) class unit nearly vanishes "
            f"at class {spec2.spaceoid.base_points[j]}"
        )
    return SpaceoidMorphism(f_delta=f_delta, f_r=f_r, fiber_scalars=_unit(z))


class GelfandResult(NamedTuple):
    spectrum: SpectrumResult
    sections: MatrixCategory
    functor: StarFunctor
    report: Report


class _Compressions(NamedTuple):
    """Per-element quantities of ``gelfand``'s certificates, object
    indices first; ``n`` = classes = basis elements per block, ``d`` =
    object dimension (see :func:`_product_bounds`)."""

    maps: np.ndarray  # (o, o, n, n) the functor's block maps c, classes first
    resid: np.ndarray  # (o, o, n, d*d) rows of T(e) - blockdiag_p(c_p(e) I)
    eta: np.ndarray  # (o, o, n) their HS norms
    nu: np.ndarray  # (o, o, n) max_p |c_p(e)|
    norm: np.ndarray  # (o, o, n) ||e||_HS
    delta: np.ndarray  # (o,) ||U*U - I||_HS of the class-ordered bases
    gram: np.ndarray  # (o, o) ||Q Q* - I||_HS, Q the source basis rows
    sv: np.ndarray  # (o, o, n) singular values of the block maps, NaN if not finite


def _compressions(c, spec, maps) -> _Compressions:
    """Measure every basis element's compression into the class-ordered
    bases of its objects, ``T(e) = U_A* e U_B`` (as ``spectrum`` formed
    it), against the model ``blockdiag_p(c_p(e) I)`` built from the
    functor's own block maps ``maps``, ``(o, o, n, n)``."""
    u = spec.bases
    n, d = maps.shape[-1], u.shape[-1]
    rows = np.reshape(
        [_stack(c, a, b) for a, b in c.pairs()], maps.shape[:2] + (n, d * d)
    )
    resid = _residual_rows(spec.compressions, np.swapaxes(maps, -1, -2), spec.ranks)
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
        gram=np.linalg.norm(rows @ _adjoints(rows) - np.eye(n), axis=(-2, -1)),
        sv=sv,
    )


def _product_bounds(q: _Compressions):
    """Proven bounds ``(mult, outside)``, each ``(o, o, o, n, n)``, for
    every pair ``x = e_i`` of block (A, B) and ``y = e_j`` of (B, C):
    ``mult`` on the multiplicativity defect ``||phi(P xy) - phi(x)
    phi(y)||_HS`` and ``outside`` on the HS residual ``||xy - P xy||``,
    ``P`` the projection on block (A, C), as ``validate_functor`` forms
    them.  The spectrum's frames are the identity and its structure
    constants are 1, so the sections' basis element of point ``p`` is
    ``E_pp`` in every block, and ``phi(e) = sum_p c_p(e) E_pp``.

    Notation: ``T``, ``E_e = T(e) - M(e)`` with ``M(e) =
    blockdiag_p(c_p(e) I)``, ``eta``, ``nu``, ``delta`` and ``gram`` as
    in :class:`_Compressions`; ``v_p = c_p(x) c_p(y)``, whose norms per
    pair are one matrix product of the squared block maps.

    * ``U_B U_B* = I + D`` with ``||D||_HS = delta_B`` (the lemma of
      :func:`_lift_bound`), so ``T(xy) = T(x) T(y) - U_A* x D y U_C``.
      Expanding ``T = M + E``, ``M(x) M(y) = blockdiag(v_p I)`` and
      ``||M(x)||_op <= nu``:
      ``T(xy) = blockdiag(v_p I) + R`` with ``||R||_HS <= eps = nu_i
      eta_j + eta_i nu_j + eta_i eta_j + sqrt((1 + delta_A)(1 +
      delta_C)) ||x|| ||y|| delta_B``.
    * Let the block map ``C`` of (A, C) be square with singular values
      in ``[s_min, s_max]``, ``s_min > 0``, and ``kappa = C^-1 v``, so
      ``||kappa|| <= ||v|| / s_min`` and ``sum_k kappa_k M(e_k) =
      blockdiag(v_p I)``.  Then ``Delta = xy - sum_k kappa_k e_k`` has
      ``T(Delta) = R - sum_k kappa_k E_k``, and for ``delta < 1``
      ``||Delta||_HS <= dist = (eps + ||kappa|| ||eta^AC||_2) / sqrt((1
      - delta_A)(1 - delta_C))``.
    * The projection's coefficients are ``kappa' = G kappa + Q Delta``,
      ``G`` the Gram matrix of block (A, C)'s basis and ``||Q||_op^2 <=
      1 + gram``, so ``||kappa' - kappa|| <= K = gram ||kappa|| + sqrt(1
      + gram) dist``, and the residual ``||Delta - sum_k (kappa' -
      kappa)_k e_k||`` is at most ``outside = dist + sqrt(1 + gram)
      K``.
    * The defect is ``diag_p((C (kappa' - kappa))_p)``, of HS norm at
      most ``mult = s_max K``.

    Both bounds also cover the rounding of the explicit check itself,
    ``(d^2 + n) eps`` relative to the sizes it multiplies, so each holds
    for the defect as computed.  A failed premise, a block map that is
    not bijective or ``delta >= 1``, makes both bounds NaN, and so does
    a NaN in any input they read; such a pair is not certified.
    Nothing assumes that ``c(e)`` is the compression's own coefficient
    vector: a defect of the functor's block maps shows in ``eta``.
    """
    sq = np.abs(q.maps) ** 2  # (A, B, p, i)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
        size = at(q.norm, [0, 1, 3]) * at(q.norm, [1, 2, 4])  # ||x|| ||y||
        eps = (
            nu_i * eta_j + eta_i * nu_j + eta_i * eta_j
            + np.sqrt((1 + d_a) * (1 + d_c)) * size * d_b
        )
        kappa = v / s_min
        dist = (eps + kappa * at(np.linalg.norm(q.eta, axis=-1), [0, 2])) / np.sqrt(
            (1 - d_a) * (1 - d_c)
        )
        coeff = gram * kappa + np.sqrt(1 + gram) * dist
        s_max = at(q.sv.max(axis=-1, initial=0.0), [0, 2])
        rounding = (q.resid.shape[-1] + q.maps.shape[-1]) * _EPS
        outside = dist + np.sqrt(1 + gram) * coeff + rounding * (1 + size)
        mult = s_max * coeff + rounding * (1 + s_max * size + v)
    premise = (d_a < 1) & (d_c < 1) & (s_min > 0)
    return np.where(premise, mult, np.nan), np.where(premise, outside, np.nan)


def _isometry_bounds(q: _Compressions, z, top):
    """Proven bounds, ``(o, o, t)``, on ``| ||x||_op - top |`` for the
    combinations ``x = sum_k z_k e_k`` of each block's basis (``z``:
    ``(o, o, t, n)``), where ``top = max_p |xhat_p|`` and ``xhat = C z``
    is the block map ``C`` applied to ``z``.

    ``T(x) = blockdiag_p(xhat_p I) + E_x`` with ``E_x = sum_k z_k
    E_k``, so ``eta_x = ||E_x||_HS`` is the norm of ``z`` times the
    stacked residual rows.  The block-diagonal model has operator norm
    ``top``, so ``| ||T(x)||_op - top | <= eta_x``.  With ``s = sqrt((1
    - delta_A)(1 - delta_B))``, ``||x||_op`` lies within ``(1/s - 1)
    ||T(x)||_op`` of ``||T(x)||_op``, and ``||T(x)||_op <= top +
    eta_x``.  The bound also covers the explicit check's rounding, ``(d
    + n) eps`` relative to ``1 + top + sum_k |z_k| ||e_k||`` (forming
    ``x`` and ``xhat``, and the SVD).  Premise: ``delta < 1``; a NaN
    certifies nothing.
    """
    o, d = len(q.delta), math.isqrt(q.resid.shape[-1])
    eta_x = np.linalg.norm(z @ q.resid, axis=-1)
    rounding = (d + z.shape[-1]) * _EPS * (
        1 + top + np.einsum("abtk,abk->abt", np.abs(z), q.norm)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt((1 - q.delta[:, None]) * (1 - q.delta[None, :]))[..., None]
        bound = eta_x + (1 / s - 1) * (top + eta_x) + rounding
    premise = (q.delta.reshape(o, 1, 1) < 1) & (q.delta.reshape(1, o, 1) < 1)
    return np.where(premise, bound, np.nan)


def _adjoint_bounds(q: _Compressions):
    """Proven bounds ``(inv, outside)``, each ``(o, o, n)``, for every
    basis element ``e`` of block (A, B): ``inv`` on the involution defect
    ``||phi(P e*) - phi(e)*||_HS`` and ``outside`` on the HS residual
    ``||e* - P e*||``, ``P`` the projection on block (B, A), as
    ``validate_functor`` and ``check_axioms`` form them.

    This is :func:`_product_bounds`' argument with ``xy`` replaced by
    ``e*`` and block (A, C) by (B, A).  ``T(e*) = T(e)*`` exactly, so
    ``T(e*) = blockdiag_p(v_p I) + E_e*`` with ``v = conj(c(e))`` and
    ``eps = eta_e``: no unitarity defect enters in the middle.  With the
    block map ``C`` of (B, A), ``kappa = C^-1 v``, ``dist``, ``K`` and
    ``outside`` are as there, and ``phi(P e*) - phi(e)*`` is
    ``diag_p((C (kappa' - kappa))_p)``, of HS norm at most ``inv = s_max
    K``.  The rounding allowance, the premises (``delta < 1``, a
    bijective block map of (B, A)) and the NaN rule are those of
    :func:`_product_bounds`.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = np.linalg.norm(q.maps, axis=2)
        d_a, d_b = q.delta[:, None, None], q.delta[None, :, None]
        gram = q.gram.T[..., None]
        s_min = q.sv.min(axis=-1, initial=np.inf).T[..., None]
        s_max = q.sv.max(axis=-1, initial=0.0).T[..., None]
        kappa = v / s_min
        eta_ba = np.linalg.norm(q.eta, axis=-1).T[..., None]
        dist = (q.eta + kappa * eta_ba) / np.sqrt((1 - d_a) * (1 - d_b))
        coeff = gram * kappa + np.sqrt(1 + gram) * dist
        rounding = (q.resid.shape[-1] + q.maps.shape[-1]) * _EPS
        outside = dist + np.sqrt(1 + gram) * coeff + rounding * (1 + q.norm)
        inv = s_max * coeff + rounding * (1 + s_max * q.norm + v)
    premise = (d_a < 1) & (d_b < 1) & (s_min > 0)
    return np.where(premise, inv, np.nan), np.where(premise, outside, np.nan)


def _certificates(c, q: _Compressions, tol) -> tuple:
    """The ``_certified`` arguments ``(functor, axioms)`` of
    ``validate_functor`` and ``check_axioms``.  Each maps a pair ``(a,
    b)`` of objects to the bounds, ``(n,)``, on the adjoints of block
    (a, b)'s basis elements, and a triple ``(a, b, c)`` to those, ``(n,
    n)``, on the products of (a, b)'s with (b, c)'s, when every item's
    bounds from :func:`_adjoint_bounds` or :func:`_product_bounds` clear
    the checks with ``config.CERT_SLACK`` to spare: for
    ``validate_functor`` the defect's ``FUNCTOR_SLACK * tol`` and the
    residual's ``tol``, its membership cut; for ``check_axioms`` the
    residual's ``AXIOM_SLACK * tol``.  A key with an item that does not
    clear is left out, and the check forms the whole key: BLAS rounds a
    row of a product differently with the number of rows, so forming
    only the items left over could move a failing residual in its last
    bits, and a key formed whole reports what the explicit check
    reports."""
    mult, outside = _product_bounds(q)
    inv, adj_outside = _adjoint_bounds(q)
    ids = c.object_ids

    def clears(bound, check_bound):
        return CERT_SLACK * bound <= check_bound

    def keyed(bound, cleared):  # the keys whose items all clear
        n_obj = bound.ndim // 2 + 1  # (o, o, n) or (o, o, o, n, n)
        ok = cleared.all(axis=tuple(range(n_obj, bound.ndim)))
        return {tuple(ids[i] for i in key): bound[key] for key in zip(*np.nonzero(ok))}

    functor = keyed(inv, clears(inv, FUNCTOR_SLACK * tol) & clears(adj_outside, tol))
    functor.update(
        keyed(mult, clears(mult, FUNCTOR_SLACK * tol) & clears(outside, tol))
    )
    axioms = keyed(adj_outside, clears(adj_outside, AXIOM_SLACK * tol))
    axioms.update(keyed(outside, clears(outside, AXIOM_SLACK * tol)))
    return functor, axioms


def gelfand(
    c: MatrixCategory, tol: float | None = None, seed: int = 0, *, _axioms=None
) -> GelfandResult:
    """The comparison functor ``c -> sections(spectrum(c))``.

    The report certifies it is a *-functor, bijective on every block,
    and isometric for the operator norms, on three seeded Gaussian
    combinations ``x`` per block with ``xhat`` the functor's block map
    applied to their coordinates.

    ``functor-involution``, ``functor-multiplicativity`` and
    ``isometric`` are proven first from the basis elements' compressions
    into the spectrum's class-ordered bases (:func:`_adjoint_bounds`,
    :func:`_product_bounds`, :func:`_isometry_bounds`).  A block's
    adjoints, a triple's products or a combination report their proven
    upper bounds where ``config.CERT_SLACK`` times every one clears the
    check's bound, and their explicit defects elsewhere
    (:func:`_certificates`); only those adjoints, products and operator
    norms are formed.  The block maps are the spectrum's
    ``block_maps``.

    ``_axioms`` is private to :func:`roundtrip_category`: a dict that
    receives ``check_axioms``' ``_certified`` argument, the bounds on
    the adjoints' and products' residuals outside their blocks.
    """
    tol = resolve_tol(tol)
    spec = spectrum(c, tol, seed)
    # the spectrum's table is the constant 1, valid by construction
    sec = sections_with_gauge(spec.spaceoid, tol, _valid=True).category
    maps = spec.block_maps
    phi = StarFunctor(
        object_map={o: o for o in c.object_ids},
        block_maps={(a, b): maps[spec._index(a, b)] for a, b in c.pairs()},
    )
    q = _compressions(c, spec, maps)
    functor, axioms = _certificates(c, q, tol)
    if _axioms is not None:
        _axioms.update(axioms)
    report = Report()
    report.extend(validate_functor(phi, c, sec, tol, _certified=functor), "functor-")
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


def evaluation(
    e: SpaceoidData, tol: float | None = None, seed: int = 0, *, _valid: bool = False
):
    """The comparison morphism ``e -> spectrum(sections(e))``.

    Every base point hosts the character "evaluate there"; the fiber
    scalars express the re-diagonalized frames, which are the identity
    in the transported bases, in the original ones (they equal the
    trivializing gauge).  Raises ``InvalidSpaceoid`` when ``e`` does not
    validate.

    ``_valid`` is private to :func:`roundtrip_spaceoid`, which has
    validated ``e`` already: see :func:`sections_with_gauge`.
    """
    tol = resolve_tol(tol)
    sec, gauge = sections_with_gauge(e, tol, _valid=_valid)
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

    # unit of class i at its point, v_A[q, i] conj(v_B[q, i]), times the
    # gauge, one _mul at a time, left to right
    at_point = v[:, np.arange(len(pts)), cls].T  # (point, object)
    z = _mul(_mul(at_point[:, :, None], at_point[:, None, :].conj()), gauge)
    m = SpaceoidMorphism(
        f_delta=f_delta, f_r={o: o for o in objs}, fiber_scalars=_unit(z)
    )
    return Evaluation(m, sec, spec)


# ---------------------------------------------------------------------------
# roundtrip and naturality verification


def roundtrip_category(
    c: MatrixCategory, tol: float | None = None, seed: int = 0
) -> Report:
    """Certify the comparison functor of one category.

    The report holds ``check_axioms``' checks (prefix ``input-``), then
    ``gelfand``'s (``gelfand-``) and the spectrum's ``validate``
    (``spaceoid-``), the one validation of the spectrum's table.
    ``gelfand`` runs first, and ``input-adjoint-closure`` and
    ``input-composition-closure`` take its proven bounds on the
    adjoints' and products' residuals outside their blocks: a block's
    adjoints or a triple's products report their bounds where
    ``config.CERT_SLACK`` times every one clears ``AXIOM_SLACK * tol``,
    and their explicit residuals elsewhere, so only those adjoints and
    products are formed.  Check names and verdicts are those of the
    three calls made apart.
    """
    tol = resolve_tol(tol)
    axioms = {}
    out = gelfand(c, tol, seed, _axioms=axioms)
    report = Report()
    report.extend(check_axioms(c, tol, _certified=axioms), "input-")
    report.extend(out.report, "gelfand-")
    report.extend(validate(out.spectrum.spaceoid, tol), "spaceoid-")
    return report


def roundtrip_spaceoid(
    e: SpaceoidData, tol: float | None = None, seed: int = 0
) -> Report:
    """Certify the comparison morphism of one spaceoid.

    ``e`` is validated once: ``input-`` holds the checks, and
    ``evaluation`` runs only when they pass, without validating ``e``
    again."""
    tol = resolve_tol(tol)
    report = Report()
    report.extend(validate(e, tol), "input-")
    if not report.passed:
        # a broken table is a verification failure, not a crash; the
        # evaluation machinery assumes the cocycle identities
        return report
    ev = evaluation(e, tol, seed, _valid=True)
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
    morphism) o gelfand on every basis element; gelfand's block maps are
    the spectra's ``block_maps``."""
    s1, s2 = spectrum(c1, tol, seed), spectrum(c2, tol, seed)
    m = spectrum_on_morphism(
        phi, c1, c2, tol, seed, source_spectrum=s1, target_spectrum=s2
    )
    gamma = sections_on_morphism(m, s2.spaceoid, s1.spaceoid, tol)
    # down then across (gelfand in C1, then the section functor) against
    # across then down (phi, then gelfand in C2), on every basis element
    devs = [
        gamma.block_maps[(a1, b1)] @ s1.block_maps[s1._index(a1, b1)]
        - s2.block_maps[s2._index(phi.object_map[a1], phi.object_map[b1])]
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
