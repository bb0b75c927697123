"""Dense complex linear algebra substrate.

Everything in the package works with plain ``numpy`` complex arrays.
This module wraps the handful of primitives the rest of the code is
allowed to use: adjoints, operator norms, normal spectral
decompositions, simultaneous diagonalization of commuting normal
families, and Hilbert-Schmidt (Frobenius) orthonormalization and
membership tests.

The joint diagonalizer is the workhorse: given pairwise commuting
normal matrices it produces one unitary, a partition of its columns
into the maximal common eigenspaces, and the table of eigenvalues per
(input, block).  One rule decides the blocks: eigenvalues of one input
within ``config.CLUSTER_RTOL`` times ``1 + ||m||_op`` are one class.
It takes one of three routes: a separated diagonal family is read off
its diagonals, a one-input family off that input's own normal
eigendecomposition, and any other family, or one whose result misses
the target, takes seeded attempts.  Blocks are ordered canonically (by
the rounded eigenvalue tuples, then by smallest column) so results are
reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import (
    CLUSTER_RTOL, JOINT_FALLBACK_SLACK, JOINT_TARGET_RTOL, PREGROUP_RTOL,
    resolve_tol,
)
from .errors import DiagonalizationFailed, NotNormal
from .reporting import worst

__all__ = [
    "op_norm",
    "hs_norm",
    "normal_eig",
    "svd",
    "JointEigenstructure",
    "joint_diagonalize",
    "OrthoBasis",
    "hs_orthonormalize",
    "hs_member",
]

_ROUND_DECIMALS = 8  # canonical ordering key resolution
_PAIR_CHUNK = 1 << 18  # matrix entries in one stack of a chunk of pairwise products


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a


def _adjoints(mats) -> np.ndarray:
    """Conjugate transposes of a stack of matrices, as one stack."""
    return np.swapaxes(np.asarray(mats).conj(), -1, -2)


def op_norm(m) -> float:
    """Operator (spectral) norm; 0.0 for empty matrices."""
    a = _as_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hs_norm(m) -> float:
    return float(np.linalg.norm(_as_matrix(m)))


def _column_phases(u: np.ndarray) -> np.ndarray:
    """Per column, the unimodular factor that makes its largest-modulus
    entry real positive (1 for a zero column)."""
    pivot = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    mag = np.abs(pivot)
    return np.where(mag > 0, mag / np.where(mag > 0, pivot, 1), 1)


def _normalize_column_phases(u: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    return u * _column_phases(u)


def _check_normal(a: np.ndarray, tol: float) -> None:
    """Raise :class:`NotNormal`, naming the defect, unless ``||a a* -
    a* a||_HS <= tol * (1 + ||a||_HS^2)``; a NaN fails."""
    ah = a.conj().T
    dev = np.linalg.norm(a @ ah - ah @ a)
    if not dev <= tol * (1.0 + hs_norm(a) ** 2):
        raise NotNormal(f"normality defect {dev:.3e}")


def normal_eig(m, tol: float | None = None):
    """Unitary eigendecomposition of a normal matrix.

    Returns ``(evals, u)`` with complex eigenvalues in column order of
    ``u``; see :func:`_normal_eig_core` for the method.  Raises
    :class:`NotNormal` as :func:`_check_normal` does.
    """
    tol = resolve_tol(tol)
    a = _as_matrix(m)
    _check_normal(a, tol)
    evals, u = _normal_eig_core(a, CLUSTER_RTOL * (1.0 + op_norm(a)))
    return evals, _normalize_column_phases(u)


def _normal_eig_core(a: np.ndarray, threshold: float):
    """Unchecked eigendecomposition of a normal matrix.

    Diagonalizes the Hermitian part first, then rotates inside each of
    its eigenvalue clusters (gaps at most ``threshold``) to diagonalize
    the anti-Hermitian part — the two commute exactly when ``a`` is
    normal.  :func:`_normal_joint` does not call it on a Hermitian
    input, whose one ``eigh`` needs no rotation pass.
    """
    re_part = (a + a.conj().T) / 2.0
    im_part = (a - a.conj().T) / 2.0j
    wr, u = np.linalg.eigh(re_part)
    cuts = [0, *(np.flatnonzero(np.diff(wr) > threshold) + 1).tolist(), len(wr)]
    for start, end in zip(cuts, cuts[1:]):
        if end - start < 2:
            continue
        grp = np.arange(start, end)
        sub = u[:, grp]
        ki = sub.conj().T @ im_part @ sub
        _, v = np.linalg.eigh((ki + ki.conj().T) / 2.0)
        u[:, grp] = sub @ v
    evals = (u.conj() * (a @ u)).sum(0)
    return evals, u


def svd(m):
    """Singular value decomposition ``(u, s, vh)``, values descending."""
    return np.linalg.svd(_as_matrix(m))


def _gap_starts(sorted_reals: np.ndarray, threshold: float) -> np.ndarray:
    """First index of every run of an ascending real array that is cut
    at gaps > threshold (empty for an empty array)."""
    if not len(sorted_reals):
        return np.zeros(0, dtype=int)
    cuts = np.flatnonzero(np.diff(sorted_reals) > threshold) + 1
    return np.concatenate([[0], cuts])


def _block_sums(p: np.ndarray, row_starts, col_starts) -> np.ndarray:
    """Sums of ``p`` over the blocks of its last two axes cut at the
    given (ascending, 0-first) row and column starts."""
    rows = np.add.reduceat(p, row_starts, axis=-2)
    return np.add.reduceat(rows, col_starts, axis=-1)


def _cluster_complex(values: np.ndarray, threshold: float):
    """Group indices of complex values by single linkage: values within
    ``threshold`` of each other (``|difference|``; a NaN is within it
    of nothing) are linked, and a group is a connected component.

    Each index takes the smallest label among itself and its links
    until no label changes, so every component ends labelled by its
    smallest index.  Groups come in order of their smallest index, each
    an ascending list of indices."""
    n = len(values)
    if not n:
        return []
    near = np.abs(values[:, None] - values) <= threshold
    labels = np.arange(n)
    while True:
        nxt = np.minimum(labels, np.where(near, labels, n).min(axis=1))
        if (nxt == labels).all():
            break
        labels = nxt
    groups: dict[int, list[int]] = {}
    for i, root in enumerate(labels.tolist()):
        groups.setdefault(root, []).append(i)
    return list(groups.values())


@dataclass(frozen=True)
class JointEigenstructure:
    """Result of :func:`joint_diagonalize`.

    ``unitary`` holds the joint eigenbasis in its columns, cut in order
    into the maximal common eigenspaces: block ``b`` is the ``sizes[b]``
    columns from ``starts[b]``.  ``eigenvalues[i, b]`` is the eigenvalue
    of input ``i`` on block ``b``.
    """

    unitary: np.ndarray
    sizes: np.ndarray  # (n_blocks,) positive ints summing to the column count
    eigenvalues: np.ndarray  # shape (n_inputs, n_blocks)

    def __post_init__(self):
        if not (np.all(self.sizes > 0) and self.sizes.sum() == self.unitary.shape[1]):
            raise ValueError("eigenblock sizes must be positive and sum to the columns")

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    @property
    def starts(self) -> np.ndarray:
        """First column of every block."""
        return np.cumsum(self.sizes) - self.sizes


def _noncommuting_pair(stack: np.ndarray, tol: float):
    """The first pair ``(i, j)``, ``i < j`` in row-major order, of a
    stack of square matrices whose commutator exceeds ``tol * (1 +
    ||m_i|| ||m_j||)`` (HS norms; NaN counts as exceeding), as ``(i, j,
    residual)``; ``None`` when every pair commutes.

    The commutators are formed in chunks of about ``_PAIR_CHUNK``
    matrix entries, and the search stops at the first chunk with a
    failing pair, so memory does not grow with the number of pairs."""
    i, j = np.triu_indices(len(stack), 1)
    norms = np.linalg.norm(stack, axis=(1, 2))
    step = max(1, _PAIR_CHUNK // max(1, stack.shape[-1] ** 2))
    for s in range(0, len(i), step):
        a, b = i[s:s + step], j[s:s + step]
        dev = np.linalg.norm(stack[a] @ stack[b] - stack[b] @ stack[a], axis=(1, 2))
        bad = ~(dev <= tol * (1.0 + norms[a] * norms[b]))
        if bad.any():
            f = int(np.argmax(bad))
            return int(a[f]), int(b[f]), float(dev[f])
    return None


def joint_diagonalize(
    family, tol: float | None = None, *, seed: int = 0
) -> JointEigenstructure:
    """Simultaneously diagonalize a commuting family of normal matrices.

    Parameters
    ----------
    family : non-empty sequence of square matrices, all the same size
        Must be finite (``ValueError`` otherwise).  Commutation and
        normality are not checked: a family without them does not
        verify and raises :class:`DiagonalizationFailed`, or comes back
        with a residual under the fallback bound.  A caller that needs
        them proves them from the result, as ``duality.spectrum`` does.
    tol : float, optional
        Verification tolerance (scale-relative).
    seed : int
        Seed for the random self-adjoint combination; retries draw
        fresh streams derived from it.

    Strategy: the classes are those of one rule on all three routes,
    single linkage of each input's eigenvalues at the cut
    ``config.CLUSTER_RTOL`` times ``1 + ||m||_op``.  A family whose
    off-diagonal entries are all exactly zero is read off its diagonals
    (:func:`_diagonal_joint`) when, in every input, any two distinct
    diagonal values lie more than the cut apart.  Any other family of
    one input is read off that input's own normal eigendecomposition
    (:func:`_normal_joint`): one ``eigh`` when the input is Hermitian,
    with ``||m||_op`` read off its eigenvalues, and otherwise an SVD for
    the scale, then an ``eigh`` and a rotation pass.  Neither route
    depends on ``seed``, and each returns only a result that meets
    ``JOINT_TARGET_RTOL``.  Any other family, and a family whose result
    misses it, takes the seeded route (a one-input family keeps the
    scale it has found): diagonalize a random real combination of the
    Hermitian and anti-Hermitian parts of all inputs, then split its
    blocks against each input in turn by the rule, keeping a block
    whole unsplit only when every input's compression lies within the
    cut over sqrt(2) of a scalar.  All routes order the classes by
    :func:`_class_order` and verify against ``JOINT_TARGET_RTOL``; up
    to five seeds are attempted before the best attempt is returned
    under the fallback bound or :class:`DiagonalizationFailed` is
    raised.
    """
    tol = resolve_tol(tol)
    mats = [_as_matrix(m) for m in family]
    if not mats:
        raise ValueError("joint_diagonalize needs a non-empty family")
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("family members must be square and same size")
    stack = np.stack(mats)
    if not np.isfinite(stack).all():
        raise ValueError("non-finite entries in joint_diagonalize input")
    if d == 0:
        return JointEigenstructure(
            stack[0], np.zeros(0, dtype=int), np.zeros((len(mats), 0), complex)
        )

    exact = _diagonal_joint(stack)
    if exact is not None:
        return exact
    if len(stack) == 1:
        own, scales = _normal_joint(stack)
        if own is not None:
            return own
    else:
        scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
    # aim for machine precision first (an unlucky combination can leave
    # inter-block mixing around 1e-9 that still sits under loose user
    # tolerances); fall back to the requested tolerance only when no
    # seed reaches the tight target
    best, best_residual = None, np.inf
    for attempt in range(5):
        rng = np.random.default_rng([seed & 0xFFFFFFFF, attempt, 0x6A0D])
        result, comp = _attempt_joint(stack, rng, scales)
        residual = _verify_joint(result, comp, scales)
        if residual <= JOINT_TARGET_RTOL:
            return result
        if residual < best_residual:
            best, best_residual = result, residual
    if best_residual <= JOINT_FALLBACK_SLACK * tol * scales.max():
        return best
    raise DiagonalizationFailed(
        f"joint diagonalization failed to verify after 5 seeds "
        f"(best residual {best_residual:.3e})"
    )


def _separated(values: np.ndarray, thresholds: np.ndarray) -> bool:
    """Whether, in every row of ``values``, any two distinct entries lie
    more than that row's threshold apart; the rows are compared in
    chunks of about ``_PAIR_CHUNK`` pairs."""
    n, k = values.shape
    step = max(1, _PAIR_CHUNK // max(1, k * k))
    for s in range(0, n, step):
        v = values[s:s + step]
        gap = np.abs(v[:, :, None] - v[:, None, :])
        if not np.all((gap == 0) | (gap > thresholds[s:s + step, None, None])):
            return False
    return True


def _diagonal_joint(stack: np.ndarray) -> JointEigenstructure | None:
    """The joint eigenstructure of a family whose off-diagonal entries
    are all zero, read off its diagonals; ``None`` when some entry off
    the diagonal is nonzero, when some input has two distinct diagonal
    values within ``CLUSTER_RTOL`` times its scale ``1 + max|diag|``
    (its operator norm), or when the result misses
    ``JOINT_TARGET_RTOL``.

    Otherwise the one rule, eigenvalues of one input within the cut are
    one class, makes the classes the columns with equal diagonal
    tuples, as the seeded route would; :func:`_class_order` orders
    them, and the unitary is the standard basis in that order.
    """
    dg = np.diagonal(stack, axis1=1, axis2=2)
    if np.count_nonzero(stack) != np.count_nonzero(dg):
        return None
    scales = 1.0 + np.abs(dg).max(axis=1)
    classes: dict[tuple, list[int]] = {}
    for p, col in enumerate(dg.T.tolist()):
        classes.setdefault(tuple(col), []).append(p)
    cols = list(classes.values())
    if not _separated(dg[:, [c[0] for c in cols]], CLUSTER_RTOL * scales):
        return None
    perm, sizes, eigenvalues = _class_order(dg, cols)
    u = np.eye(len(perm), dtype=complex)[:, perm]
    result = JointEigenstructure(u, sizes, eigenvalues)
    comp = stack[:, perm[:, None], perm]
    if _verify_joint(result, comp, scales) <= JOINT_TARGET_RTOL:
        return result
    return None


def _normal_joint(stack: np.ndarray) -> tuple:
    """The joint eigenstructure of a one-input family read off that
    input's own normal eigendecomposition, or ``None`` when the result
    misses ``JOINT_TARGET_RTOL``, with the input's scale ``1 +
    ||m||_op`` as a one-entry array, which the seeded route reuses.

    A Hermitian input, whose anti-Hermitian part is exactly zero (such
    as ``cstarcat.generated_by``'s dilation), is diagonalized by one
    ``eigh``, and its operator norm is read off the eigenvalues as
    ``max |w|``.  Any other input takes its operator norm by SVD first,
    because :func:`_normal_eig_core`'s rotation pass cuts at
    ``CLUSTER_RTOL`` times its scale.  The classes are the
    single-linkage groups of the eigenvalues at that cut, the one rule;
    :func:`_class_order` orders them and :func:`_column_phases` fixes
    the column phases, as on the seeded route.
    """
    a = stack[0]
    if np.array_equal(a, a.conj().T):
        w, u = np.linalg.eigh(a)
        evals, scales = w.astype(complex), 1.0 + np.abs(w).max(keepdims=True)
    else:
        scales = 1.0 + np.linalg.norm(stack, 2, axis=(1, 2))
        evals, u = _normal_eig_core(a, CLUSTER_RTOL * scales[0])
    blocks = _cluster_complex(evals, CLUSTER_RTOL * scales[0])
    perm, sizes, eigenvalues = _class_order(evals[None], blocks)
    u_perm = u[:, perm]
    result = JointEigenstructure(u_perm * _column_phases(u_perm), sizes, eigenvalues)
    comp = _compress(result.unitary, stack)
    if _verify_joint(result, comp, scales) <= JOINT_TARGET_RTOL:
        return result, scales
    return None, scales


def _class_order(dg: np.ndarray, blocks) -> tuple:
    """The canonical order of a partition of the columns into classes,
    given the compressed diagonals ``dg`` (one row per input).

    Each class, an ascending list of columns, has its diagonal means,
    summed in column order, as eigenvalues; the classes are ordered by
    them, real and imaginary parts per input rounded to
    ``_ROUND_DECIMALS``, and on equal keys by their smallest column.
    Returns the column order, the sizes and the eigenvalues ``(n_inputs,
    n_classes)`` in that order."""
    sizes = np.array([len(blk) for blk in blocks])
    starts = np.cumsum(sizes) - sizes
    means = np.add.reduceat(dg[:, np.concatenate(blocks)], starts, axis=1) / sizes
    parts = np.round(np.stack([means.real, means.imag], axis=1), _ROUND_DECIMALS)
    keys = parts.reshape(2 * len(means), -1).T.tolist()
    order = sorted(range(len(blocks)), key=lambda b: (keys[b], blocks[b][0]))
    perm = np.concatenate([blocks[b] for b in order])
    return perm, sizes[order], means[:, order]


def _diag(rows: np.ndarray) -> np.ndarray:
    """Diagonal matrices with the given diagonals (last axis)."""
    out = np.zeros(rows.shape + rows.shape[-1:], dtype=complex)
    idx = np.arange(rows.shape[-1])
    out[..., idx, idx] = rows
    return out


def _compress(u: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``u* m u`` for every matrix of the stack."""
    return u.conj().T @ stack @ u


def _scalar_defects(comp: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """HS distance of each diagonal block of each compressed input from
    its mean scalar; blocks are the contiguous ranges cut at
    ``starts``.  Returns ``(n_inputs, n_blocks)``."""
    sizes = np.diff(np.append(starts, comp.shape[-1]))
    dg = np.diagonal(comp, axis1=-2, axis2=-1)
    means = np.add.reduceat(dg, starts, axis=-1) / sizes
    resid = comp - _diag(np.repeat(means, sizes, axis=-1))
    sq = _block_sums(np.abs(resid) ** 2, starts, starts)
    return np.sqrt(np.diagonal(sq, axis1=-2, axis2=-1))


def _attempt_joint(stack, rng, scales):
    """One seeded diagonalization; returns the result and the inputs
    compressed into its unitary (for :func:`_verify_joint`)."""
    n = len(stack)
    coeffs = rng.standard_normal(2 * n)
    herm = (stack + _adjoints(stack)) / 2.0
    anti = (stack - _adjoints(stack)) / 2.0j
    h = np.tensordot(coeffs[:n], herm, 1) + np.tensordot(coeffs[n:], anti, 1)
    w, u = np.linalg.eigh((h + h.conj().T) / 2.0)
    h_scale = 1.0 + float(np.abs(w).max(initial=0.0))
    thresholds = CLUSTER_RTOL * scales
    # a block is kept whole only when each input's compression lies
    # within threshold / sqrt(2) (HS) of a scalar: by Schur's inequality
    # its eigenvalues are then all within the threshold of each other
    whole = thresholds / np.sqrt(2.0)
    # group generously: eigh vectors for gaps near the threshold carry
    # O(eps/gap) cross mixing, and the per-input refinement below
    # re-splits merged blocks with the inputs' own (true) separations
    starts = _gap_starts(w, PREGROUP_RTOL * h_scale)
    ends = np.append(starts[1:], len(w))
    comp = _compress(u, stack)
    final = np.all(
        _scalar_defects(comp, starts) <= whole[:, None], axis=0
    )
    blocks = [list(range(a, b)) for a, b, f in zip(starts, ends, final) if f]
    todo = [list(range(a, b)) for a, b, f in zip(starts, ends, final) if not f]

    # Refine the remaining blocks against each input in turn: inside a
    # block every input seen so far acts as a scalar, so only the
    # current one can split it.  Refinement only rotates the columns of
    # the block it splits, so blocks on which every input is already
    # scalar are final, and only the rows and columns of ``comp`` at
    # rotated columns are compressed again.
    if todo:
        rotated = np.zeros(len(w), dtype=bool)
        for m, threshold, bound in zip(stack, thresholds, whole):
            new_blocks = []
            for blk in todo:
                cols = np.array(blk)
                sub = u[:, cols]
                c = sub.conj().T @ m @ sub
                mean = np.trace(c) / len(blk)
                if np.linalg.norm(c - mean * np.eye(len(blk))) <= bound:
                    new_blocks.append(blk)
                    continue
                evals, w_rot = _normal_eig_core(c, threshold)
                u[:, cols] = sub @ w_rot
                rotated[cols] = True
                for grp in _cluster_complex(evals, threshold):
                    new_blocks.append([blk[g] for g in grp])
            todo = new_blocks
        blocks += todo
        moved = np.flatnonzero(rotated)
        if len(moved):
            u_moved = u[:, moved]
            comp[:, moved, :] = (u_moved.conj().T @ stack) @ u
            comp[:, :, moved] = u.conj().T @ (stack @ u_moved)

    perm, sizes, eigenvalues = _class_order(np.diagonal(comp, axis1=1, axis2=2), blocks)
    u_perm = u[:, perm]
    phases = _column_phases(u_perm)
    comp = phases.conj()[:, None] * comp[:, perm[:, None], perm] * phases
    return JointEigenstructure(u_perm * phases, sizes, eigenvalues), comp


def _verify_joint(result: JointEigenstructure, comp, scales) -> float:
    """The residual of one attempt: the worst of the HS norm of the
    unitarity defect ``U*U - I`` and, per input, the HS distance of
    ``comp[i]`` (input ``i`` compressed into ``result.unitary``) from
    its block-scalar model over the input's scale, a NaN counting as
    +inf."""
    u = result.unitary
    model = _diag(np.repeat(result.eigenvalues, result.sizes, axis=1))
    defects = np.linalg.norm(comp - model, axis=(1, 2))
    delta = np.linalg.norm(u.conj().T @ u - np.eye(len(u)))
    return worst(np.append(defects / scales, delta))[0]


class OrthoBasis(NamedTuple):
    basis: list
    rank: int


def _rows(mats) -> np.ndarray:
    """A stack of equal-shape matrices (a sequence, or one ``(..., n,
    d_A, d_B)`` array) as the rows of an ``(..., n, d_A*d_B)`` array."""
    x = np.asarray(mats, dtype=complex)
    if x.ndim < 3:
        raise ValueError(f"expected a stack of 2-d arrays, got shape {x.shape}")
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norms of ``x`` along its last axis: the expression
    ``np.linalg.norm(x, axis=-1)`` evaluates, without its wrapper."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _project(basis, mats, tol: float):
    """Batched :func:`hs_member`: every matrix of a stack against one
    HS-orthonormal basis of the same shape, or, with leading axes, every
    stack against its own basis (the leading axes broadcast).

    Returns ``(member, residual, coeffs)`` arrays with one entry (one
    row of ``coeffs``) per matrix, ``coeffs[..., i, k] = <basis[...,
    k], mats[..., i]>``.
    """
    x = _rows(mats)
    if len(basis):
        q = _rows(basis)
        coeffs = x @ np.swapaxes(q.conj(), -1, -2)
        residual = _row_norms(x - coeffs @ q)
    else:
        coeffs = np.zeros(x.shape[:-1] + (0,), dtype=complex)
        residual = _row_norms(x)
    member = residual <= tol * (1.0 + _row_norms(x))
    return member, residual, coeffs


def _combine(coeffs, basis, shape) -> np.ndarray:
    """Matrices ``sum_k coeffs[..., k] basis[k]``, each of ``shape``."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if not len(basis):
        return np.zeros(coeffs.shape[:-1] + tuple(shape), dtype=complex)
    return (coeffs @ _rows(basis)).reshape(coeffs.shape[:-1] + tuple(shape))


def _extend(basis, mats, tol: float, best_first: bool = False) -> list:
    """New HS-orthonormal directions of ``mats`` beyond the
    HS-orthonormal ``basis`` (possibly empty).

    All inputs are projected off ``basis`` in one matrix product, done
    twice; the survivors then run Gram-Schmidt, each kept vector
    projected out of all remaining ones at once, twice.  An input whose
    residual is at most its cut ``tol * (1 + input norm)`` is dropped.
    Each step keeps the first survivor in input order, or with
    ``best_first`` the survivor whose residual is largest relative to
    its cut (column pivoting, Businger & Golub 1965): a direction whose
    residual is a small fraction of its input would amplify that
    input's rounding by the inverse fraction, so it is taken only after
    every better-conditioned candidate has been projected out of it.
    Stops once the ``d_A x d_B`` space is spanned: any residual left
    then is rounding.  Raises ``ValueError`` on non-finite input.
    """
    if not len(mats):
        return []
    stack = np.array(mats, dtype=complex)  # own copy: rows is updated in place
    shape = stack.shape[1:]
    rows = _rows(stack)
    if not np.isfinite(rows).all():
        raise ValueError("non-finite entries in Gram-Schmidt input")
    cut = tol * (1.0 + _row_norms(rows))
    room = rows.shape[1] - len(basis)
    if len(basis):
        old = _rows(basis)
        old_h = old.conj().T
        for _ in range(2):
            rows -= (rows @ old_h) @ old
    new: list[np.ndarray] = []
    while len(new) < room:
        norms = _row_norms(rows)
        live = norms > cut
        if not live.all():
            rows, cut, norms = rows[live], cut[live], norms[live]
        if not len(rows):
            break
        k = (norms / cut).argmax() if best_first else 0
        q = rows[k] / np.linalg.norm(rows[k])
        new.append(q.reshape(shape))
        if k:  # row 0 fills the chosen slot, so rows[1:] drops the chosen row
            rows[k], cut[k] = rows[0], cut[0]
        rows, cut = rows[1:], cut[1:]
        q_conj = q.conj()
        for _ in range(2):
            rows -= (rows @ q_conj)[:, None] * q
    return new


def hs_orthonormalize(mats, tol: float | None = None) -> OrthoBasis:
    """Orthonormalize matrices under the Hilbert-Schmidt inner product.

    ``_extend`` from the empty basis, the one Gram-Schmidt kernel, which
    ``cstarcat.close`` shares: the k-th basis element spans the first k
    independent inputs.  Returns the basis and its rank (the basis
    length).  Raises ``ValueError`` on non-finite input.
    """
    basis = _extend([], mats, resolve_tol(tol))
    return OrthoBasis(basis, len(basis))


def hs_member(m, basis, tol: float | None = None):
    """Test membership of ``m`` in the HS-span of an orthonormal basis.

    Returns ``(member, residual, coeffs)`` where ``coeffs[i]`` is the
    HS coefficient against ``basis[i]`` and membership means the
    reconstruction residual is at most ``tol * (1 + ||m||_HS)``.
    """
    member, residual, coeffs = _project(basis, [_as_matrix(m)], resolve_tol(tol))
    return bool(member[0]), float(residual[0]), coeffs[0]
