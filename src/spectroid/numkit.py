"""Dense complex linear algebra substrate.

Everything in the package works with plain ``numpy`` complex arrays.
This module wraps the handful of primitives the rest of the code is
allowed to use: adjoints, operator norms, Hermitian/normal spectral
decompositions, simultaneous diagonalization of commuting normal
families, and Hilbert-Schmidt (Frobenius) orthonormalization and
membership tests.

The joint diagonalizer is the workhorse: given pairwise commuting
normal matrices it produces one unitary, a partition of its columns
into the maximal common eigenspaces, and the table of eigenvalues per
(input, block).  Blocks are ordered canonically (lexicographically by
the rounded eigenvalue tuples, inputs in the order given) so results
are reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .config import resolve_tol
from .errors import (
    DiagonalizationFailed,
    NotCommuting,
    NotNormal,
    NotSelfAdjoint,
)

__all__ = [
    "adjoint",
    "op_norm",
    "hs_inner",
    "hs_norm",
    "hermitian_eig",
    "normal_eig",
    "svd",
    "JointEigenstructure",
    "joint_diagonalize",
    "OrthoBasis",
    "hs_orthonormalize",
    "hs_member",
]

_ROUND_DECIMALS = 8  # canonical ordering key resolution


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(m).conj().T


def op_norm(m) -> float:
    """Operator (spectral) norm; 0.0 for empty matrices."""
    a = _as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product ``tr(a* b)`` (linear in ``b``)."""
    return complex(np.vdot(_as_matrix(a), _as_matrix(b)))


def hs_norm(m) -> float:
    return float(np.linalg.norm(_as_matrix(m)))


def _normalize_column_phases(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    u = u.copy()
    for j in range(u.shape[1]):
        col = u[:, j]
        k = int(np.argmax(np.abs(col)))
        pivot = col[k]
        if abs(pivot) > 0:
            u[:, j] = col * (abs(pivot) / pivot)
    return u


def hermitian_eig(m, tol: float | None = None):
    """Eigendecomposition of a self-adjoint matrix.

    Returns ``(evals, u)`` with real eigenvalues ascending and ``u``
    unitary (columns are eigenvectors, phases fixed deterministically).
    Raises :class:`NotSelfAdjoint` when ``m`` deviates from ``m*``
    beyond ``tol`` relative to its size.
    """
    tol = resolve_tol(tol)
    a = _as_matrix(m)
    dev = float(np.linalg.norm(a - a.conj().T))
    if dev > tol * (1.0 + hs_norm(a)):
        raise NotSelfAdjoint(f"deviation from self-adjointness {dev:.3e}")
    w, u = np.linalg.eigh((a + a.conj().T) / 2.0)
    return w, _normalize_column_phases(u)


def _check_normal(a: np.ndarray, tol: float) -> None:
    comm = a @ a.conj().T - a.conj().T @ a
    dev = float(np.linalg.norm(comm))
    if dev > tol * (1.0 + hs_norm(a) ** 2):
        raise NotNormal(f"normality defect {dev:.3e}")


def normal_eig(m, tol: float | None = None, cluster_tol: float = 1e-8):
    """Unitary eigendecomposition of a normal matrix.

    Returns ``(evals, u)`` with complex eigenvalues in column order of
    ``u``; see :func:`_normal_eig_core` for the method.
    """
    tol = resolve_tol(tol)
    a = _as_matrix(m)
    _check_normal(a, tol)
    evals, u = _normal_eig_core(a, cluster_tol * (1.0 + op_norm(a)))
    return evals, _normalize_column_phases(u)


def _normal_eig_core(a: np.ndarray, threshold: float):
    """Unchecked eigendecomposition of a normal matrix.

    Diagonalizes the Hermitian part first, then rotates inside each of
    its eigenvalue clusters (gaps at most ``threshold``) to diagonalize
    the anti-Hermitian part — the two commute exactly when ``a`` is
    normal.
    """
    re_part = (a + a.conj().T) / 2.0
    im_part = (a - a.conj().T) / 2.0j
    wr, u = np.linalg.eigh(re_part)
    for grp in _gap_groups(wr, threshold):
        if len(grp) < 2:
            continue
        sub = u[:, grp]
        ki = sub.conj().T @ im_part @ sub
        _, v = np.linalg.eigh((ki + ki.conj().T) / 2.0)
        u[:, grp] = sub @ v
    evals = np.einsum("ij,jk,ki->i", u.conj().T, a, u)
    return evals, u


def svd(m):
    """Singular value decomposition ``(u, s, vh)``, values descending."""
    return np.linalg.svd(_as_matrix(m))


def _gap_groups(sorted_reals: np.ndarray, threshold: float):
    """Partition indices of an ascending real array at gaps > threshold."""
    n = len(sorted_reals)
    if n == 0:
        return []
    groups, current = [], [0]
    for i in range(1, n):
        if sorted_reals[i] - sorted_reals[i - 1] > threshold:
            groups.append(np.array(current))
            current = [i]
        else:
            current.append(i)
    groups.append(np.array(current))
    return groups


def _cluster_complex(values: np.ndarray, threshold: float):
    """Group indices of complex values by union-find on |difference|."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(g) for g in groups.values()]


@dataclass(frozen=True)
class JointEigenstructure:
    """Result of :func:`joint_diagonalize`.

    ``unitary`` holds the joint eigenbasis in its columns; ``blocks``
    is the ordered partition of column indices into maximal common
    eigenspaces; ``eigenvalues[i, b]`` is the eigenvalue of input ``i``
    on block ``b``.
    """

    unitary: np.ndarray
    blocks: tuple[tuple[int, ...], ...]
    eigenvalues: np.ndarray  # shape (n_inputs, n_blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_isometry(self, b: int) -> np.ndarray:
        """Column isometry spanning block ``b`` (shape d x block size)."""
        return self.unitary[:, list(self.blocks[b])]

    def block_projection(self, b: int) -> np.ndarray:
        v = self.block_isometry(b)
        return v @ v.conj().T

    def eigentuple(self, b: int) -> tuple[complex, ...]:
        return tuple(self.eigenvalues[:, b])


def _block_key(evals_per_input: Sequence[complex]):
    key = []
    for z in evals_per_input:
        key.append(round(float(np.real(z)), _ROUND_DECIMALS))
        key.append(round(float(np.imag(z)), _ROUND_DECIMALS))
    return tuple(key)


def joint_diagonalize(
    family,
    tol: float | None = None,
    *,
    seed: int = 0,
    cluster_tol: float = 1e-8,
    dim: int | None = None,
) -> JointEigenstructure:
    """Simultaneously diagonalize a commuting family of normal matrices.

    Parameters
    ----------
    family : sequence of square matrices, all the same size
        Must be pairwise commuting and individually normal (checked).
        The empty family is allowed when ``dim`` is given and yields
        the single full block (no eigenvalues).
    tol : float, optional
        Verification tolerance (scale-relative).
    seed : int
        Seed for the random self-adjoint combination; retries draw
        fresh streams derived from it.
    cluster_tol : float
        Eigenvalues of any single input closer than ``cluster_tol *
        (1 + scale)`` are treated as one point.

    Strategy: diagonalize a random real combination of the Hermitian
    and anti-Hermitian parts of all inputs, split the resulting blocks
    further against each input in turn, merge blocks whose eigenvalue
    tuples coincide after rounding, order blocks canonically, and
    verify the residuals.  Up to five seeds are attempted before
    :class:`DiagonalizationFailed` is raised.
    """
    tol = resolve_tol(tol)
    mats = [_as_matrix(m) for m in family]
    if not mats:
        if dim is None:
            raise ValueError("empty family needs an explicit dim")
        return trivial_eigenstructure(dim)
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("family members must be square and same size")

    for m in mats:
        _check_normal(m, tol)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            dev = float(np.linalg.norm(comm))
            bound = tol * (1.0 + hs_norm(mats[i]) * hs_norm(mats[j]))
            if dev > bound:
                raise NotCommuting(
                    f"inputs {i} and {j} do not commute (residual {dev:.3e})",
                    pair=(i, j),
                    residual=dev,
                )

    scales = [1.0 + op_norm(m) for m in mats]
    # aim for machine precision first (an unlucky combination can leave
    # inter-block mixing around 1e-9 that still sits under loose user
    # tolerances); fall back to the requested tolerance only when no
    # seed reaches the tight target
    precision_target = 1e-12
    best, best_residual = None, np.inf
    for attempt in range(5):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, attempt, 0x6A0D])
        result = _attempt_joint(mats, d, rng, cluster_tol, scales)
        residual = _verify_joint(mats, result, scales)
        if residual <= precision_target:
            return result
        if residual < best_residual:
            best, best_residual = result, residual
    if best_residual <= tol * 10.0 * max(scales):
        return best
    raise DiagonalizationFailed(
        f"joint diagonalization failed to verify after 5 seeds "
        f"(best residual {best_residual:.3e})"
    )


def trivial_eigenstructure(dim: int) -> JointEigenstructure:
    """The single-block structure for the empty family over ``dim``."""
    return JointEigenstructure(
        unitary=np.eye(dim, dtype=complex),
        blocks=(tuple(range(dim)),),
        eigenvalues=np.zeros((0, 1), dtype=complex),
    )


def _attempt_joint(mats, d, rng, cluster_tol, scales):
    re_parts = [(m + m.conj().T) / 2.0 for m in mats]
    im_parts = [(m - m.conj().T) / 2.0j for m in mats]
    coeffs = rng.standard_normal(2 * len(mats))
    h = np.zeros((d, d), dtype=complex)
    for c, p in zip(coeffs[: len(mats)], re_parts):
        h += c * p
    for c, p in zip(coeffs[len(mats):], im_parts):
        h += c * p
    w, u = np.linalg.eigh((h + h.conj().T) / 2.0)
    h_scale = 1.0 + float(np.abs(w).max(initial=0.0))
    # group generously: eigh vectors for gaps near the threshold carry
    # O(eps/gap) cross mixing, and the per-input refinement below
    # re-splits merged blocks with the inputs' own (true) separations
    blocks = [list(g) for g in _gap_groups(w, 1e-4 * h_scale)]

    # Refine against each input in turn: inside a block every input seen
    # so far acts as a scalar, so only the current one can split it.
    for m, scale in zip(mats, scales):
        threshold = cluster_tol * scale
        new_blocks = []
        for blk in blocks:
            cols = np.array(blk)
            sub = u[:, cols]
            comp = sub.conj().T @ m @ sub
            mean = np.trace(comp) / len(blk)
            if np.linalg.norm(comp - mean * np.eye(len(blk))) <= threshold:
                new_blocks.append(blk)
                continue
            evals, w_rot = _normal_eig_core(comp, threshold)
            u[:, cols] = sub @ w_rot
            for grp in _cluster_complex(evals, threshold):
                new_blocks.append([blk[g] for g in grp])
        blocks = new_blocks

    # Merge blocks whose rounded eigenvalue tuples coincide, compute the
    # canonical order, and rebuild the unitary with contiguous blocks.
    keyed: dict[tuple, list[int]] = {}
    for blk in blocks:
        cols = np.array(blk)
        sub = u[:, cols]
        evals = [np.trace(sub.conj().T @ m @ sub) / len(blk) for m in mats]
        keyed.setdefault(_block_key(evals), []).append(blk)
    merged = []
    for key, blks in keyed.items():
        cols = sorted(c for blk in blks for c in blk)
        merged.append((key, cols))
    merged.sort(key=lambda kc: (kc[0], kc[1]))

    perm = [c for _, cols in merged for c in cols]
    u_ordered = _normalize_column_phases(u[:, perm])
    blocks_out, eigs = [], []
    start = 0
    for _, cols in merged:
        size = len(cols)
        idx = tuple(range(start, start + size))
        blocks_out.append(idx)
        sub = u_ordered[:, start:start + size]
        eigs.append([np.trace(sub.conj().T @ m @ sub) / size for m in mats])
        start += size
    eigenvalues = np.array(eigs, dtype=complex).T.reshape(len(mats), -1)
    return JointEigenstructure(u_ordered, tuple(blocks_out), eigenvalues)


def _verify_joint(mats, result: JointEigenstructure, scales) -> float:
    u = result.unitary
    worst = 0.0
    unitary_dev = float(
        np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    )
    worst = max(worst, unitary_dev)
    for i, m in enumerate(mats):
        conj = u.conj().T @ m @ u
        model = np.zeros_like(conj)
        for b, blk in enumerate(result.blocks):
            cols = list(blk)
            model[np.ix_(cols, cols)] = result.eigenvalues[i, b] * np.eye(
                len(cols)
            )
        worst = max(worst, float(np.linalg.norm(conj - model)) / scales[i])
    return worst


class OrthoBasis(NamedTuple):
    basis: list
    rank: int


def _rows(mats) -> np.ndarray:
    """A non-empty stack of equal-shape matrices (a sequence, or one
    ``(n, d_A, d_B)`` array) as the rows of an ``(n, d_A*d_B)`` array."""
    x = np.asarray(mats, dtype=complex)
    if x.ndim != 3:
        raise ValueError(f"expected a stack of 2-d arrays, got shape {x.shape}")
    return x.reshape(x.shape[0], x.shape[1] * x.shape[2])


def _project(basis, mats, tol: float):
    """Batched :func:`hs_member`: every matrix of a non-empty stack
    against one HS-orthonormal basis of the same shape.

    Returns ``(member, residual, coeffs)`` arrays with one entry (one
    row of ``coeffs``) per matrix, ``coeffs[i, k] = <basis[k],
    mats[i]>``.
    """
    x = _rows(mats)
    if len(basis):
        q = _rows(basis)
        coeffs = x @ q.conj().T
        residual = np.linalg.norm(x - coeffs @ q, axis=1)
    else:
        coeffs = np.zeros((len(x), 0), dtype=complex)
        residual = np.linalg.norm(x, axis=1)
    member = residual <= tol * (1.0 + np.linalg.norm(x, axis=1))
    return member, residual, coeffs


def _combine(coeffs, basis, shape) -> np.ndarray:
    """Matrices ``sum_k coeffs[..., k] basis[k]``, each of ``shape``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if not len(basis):
        return np.zeros(coeffs.shape[:-1] + tuple(shape), dtype=complex)
    return (coeffs @ _rows(basis)).reshape(coeffs.shape[:-1] + tuple(shape))


def hs_orthonormalize(mats, tol: float | None = None) -> OrthoBasis:
    """Orthonormalize matrices under the Hilbert-Schmidt inner product.

    Gram-Schmidt over the flattened inputs, in order: each newly kept
    vector is projected out of all later candidates at once, twice.  An
    input whose residual falls to ``tol * (1 + input norm)`` or below
    is dependent on earlier ones and dropped, so the k-th basis element
    spans the first k independent inputs.  Returns the basis and its
    rank (the basis length).  Raises ``ValueError`` on non-finite input.
    """
    tol = resolve_tol(tol)
    if not len(mats):
        return OrthoBasis([], 0)
    stack = np.array(mats, dtype=complex)  # own copy: rows is updated in place
    shape = stack.shape[1:]
    rows = _rows(stack)
    if not np.isfinite(rows).all():
        raise ValueError("non-finite entries in hs_orthonormalize input")
    cut = tol * (1.0 + np.linalg.norm(rows, axis=1))
    basis: list[np.ndarray] = []
    while True:
        live = np.linalg.norm(rows, axis=1) > cut
        rows, cut = rows[live], cut[live]
        if not len(rows):
            return OrthoBasis(basis, len(basis))
        q = rows[0] / np.linalg.norm(rows[0])
        basis.append(q.reshape(shape))
        rows, cut = rows[1:], cut[1:]
        for _ in range(2):
            rows -= np.outer(rows @ q.conj(), q)


def hs_member(m, basis, tol: float | None = None):
    """Test membership of ``m`` in the HS-span of an orthonormal basis.

    Returns ``(member, residual, coeffs)`` where ``coeffs[i]`` is the
    HS coefficient against ``basis[i]`` and membership means the
    reconstruction residual is at most ``tol * (1 + ||m||_HS)``.
    """
    member, residual, coeffs = _project(basis, [_as_matrix(m)], resolve_tol(tol))
    return bool(member[0]), float(residual[0]), coeffs[0]
