"""Continuous functional calculus for rectangular matrix elements.

A single matrix ``x`` placed in a block between objects ``A`` and
``B`` generates a small commutative full category (for ``A == B`` the
element must be normal).  Its class decomposition indexes the distinct
nonzero singular values of ``x`` (eigenvalues in the square
same-object case), and applying a scalar function means rescaling each
class component:

    x = sum_i p_i * u_i   ->   f[x] = sum_i f(p_i) * u_i,

with ``u_i`` the unit partial isometries cut out of ``x`` itself by
the class projections.  ``funcalc`` computes this through the
generated category's joint eigenstructures, on whole eigenbases and
along one path for both cases: ``x`` is compressed once into the
eigenbases of its two objects, the classes and their pairing are read
from segmented norms of that compression, and ``f`` is applied as one
block-diagonal rescale of it.  ``svd_oracle`` computes the same thing
directly from a singular value decomposition (or a normal
eigendecomposition) and exists to cross-check it.

The zero classes — where every generated element vanishes — belong to
the unitization, carry no part of ``x``, and are discarded, so ``f``
is only ever evaluated on the nonzero spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CLUSTER_RTOL, ZERO_SLACK, resolve_tol
from .cstarcat import generated_by
from .errors import FullnessMismatch, SpectrumMismatch
from .numkit import _block_sums, joint_diagonalize, normal_eig, op_norm, svd

__all__ = [
    "SpectralFunction",
    "spectrum_of_element",
    "funcalc",
    "svd_oracle",
]


@dataclass(frozen=True)
class SpectralFunction:
    """A scalar function given as a value table or a polynomial.

    Exactly one of ``table`` (spectrum point -> value) and ``coeffs``
    (polynomial in the spectral variable, constant term first) must be
    provided.  Table keys are matched against computed spectra up to
    the clustering tolerance; keys must cover the spectrum exactly,
    otherwise ``SpectrumMismatch`` is raised at application time.
    """

    table: tuple = ()  # ((point, value), ...)
    coeffs: tuple = ()  # polynomial coefficients, low order first

    def __post_init__(self):
        if self.table and self.coeffs:
            raise ValueError("provide a table or coefficients, not both")
        # neither is fine: the empty table, defined only on an empty
        # spectrum (the zero element)

    @staticmethod
    def from_table(mapping) -> "SpectralFunction":
        items = mapping.items() if hasattr(mapping, "items") else mapping
        return SpectralFunction(
            table=tuple((complex(k), complex(v)) for k, v in items)
        )

    @staticmethod
    def from_coeffs(coeffs) -> "SpectralFunction":
        return SpectralFunction(coeffs=tuple(complex(c) for c in coeffs))

    def __call__(self, s: complex, scale: float = 1.0) -> complex:
        if self.coeffs:
            return complex(np.polyval(self.coeffs[::-1], s))
        tol = CLUSTER_RTOL * (1.0 + scale)
        hits = [v for k, v in self.table if abs(k - s) <= tol]
        if not hits:
            raise SpectrumMismatch(
                f"table has no value within {tol:.1e} of spectral point {s}"
            )
        return hits[0]

    def max_abs(self) -> float:
        if self.coeffs:
            return float(sum(abs(c) for c in self.coeffs))
        return float(max((abs(v) for _, v in self.table), default=0.0))


def _call(f, s, scale):
    if isinstance(f, SpectralFunction):
        return f(s, scale)
    return complex(f(s))


def _check_table_covers(f, points, scale) -> None:
    """Every table key must sit on a computed spectrum point."""
    if not isinstance(f, SpectralFunction) or not f.table:
        return
    tol = CLUSTER_RTOL * (1.0 + scale)
    for key, _ in f.table:
        if not any(abs(key - p) <= tol for p in points):
            raise SpectrumMismatch(
                f"table key {key} is not a spectrum point"
            )


def spectrum_of_element(x, a_id="A", b_id="B", tol=None) -> np.ndarray:
    """Distinct nonzero spectral points of one matrix element.

    Distinct nonzero singular values when the objects differ; distinct
    nonzero eigenvalues of a normal element on a single object.
    Values within the clustering tolerance are merged; the result is
    sorted by (real, imaginary).
    """
    x = np.asarray(x, dtype=complex)
    tol = resolve_tol(tol)
    scale = op_norm(x)
    if scale == 0.0:
        return np.array([], dtype=complex)
    if a_id == b_id:
        if x.shape[0] != x.shape[1]:
            raise ValueError("same-object element must be square")
        w, _ = normal_eig(x, tol)  # raises NotNormal when it must
        vals = [complex(z) for z in w if abs(z) > ZERO_SLACK * tol * (1 + scale)]
    else:
        vals = [
            complex(v)
            for v in svd(x)[1]
            if v > ZERO_SLACK * tol * (1 + scale)
        ]
    vals.sort(key=lambda z: (z.real, z.imag))
    out: list = []
    for z in vals:
        if out and abs(z - out[-1]) <= CLUSTER_RTOL * (1 + scale):
            continue
        out.append(z)
    return np.array(out, dtype=complex)


def _surviving(eig, generators, thresh) -> np.ndarray:
    """Per eigenblock: whether some generated diagonal element acts
    there with HS norm above ``thresh * sqrt(rank)``.  The generators
    are compressed into the eigenbasis once; the per-block norms are
    segmented sums of the squared compressions."""
    t = eig.unitary.conj().T @ generators @ eig.unitary
    sq = _block_sums(np.abs(t) ** 2, eig.starts, eig.starts)
    norms = np.sqrt(np.diagonal(sq, axis1=-2, axis2=-1))
    return np.any(norms > thresh * np.sqrt(eig.sizes), axis=0)


def _block_index(eig_a, rows, eig_b, cols):
    """Index arrays ``(r, c)`` that pick the blocks ``(rows[k],
    cols[k])`` of a matrix cut at the two eigenstructures' blocks, as
    one ``(k, R, C)`` stack padded to the largest block shape.  Padding
    points at index -1: a zero row and column appended to the matrix."""

    def index(eig, blocks):
        span = np.arange(eig.sizes[blocks].max(initial=0))
        inside = span < eig.sizes[blocks][:, None]
        return np.where(inside, eig.starts[blocks][:, None] + span, -1)

    return index(eig_a, rows)[:, :, None], index(eig_b, cols)[:, None, :]


def funcalc(x, a_id="A", b_id="B", f=None, tol=None, seed: int = 0):
    """Apply a scalar function to a matrix element through the
    category it generates.

    The element's block is decomposed along the generated category's
    joint eigenspace classes; classes belonging to the unitization
    (all generators vanish there) are dropped, and ``f`` — a
    :class:`SpectralFunction` or plain callable — rescales the
    surviving components.  The identity function returns ``x`` itself
    to machine precision.

    One path serves both cases: ``x`` is compressed once into the two
    joint eigenbases, ``T = U_A* x U_B`` (the same basis twice when
    ``A == B``), and every class component is a block of ``T``.  Across
    two objects each surviving class of ``A`` must meet exactly one
    surviving class of ``B`` (``FullnessMismatch`` otherwise) and its
    point is the operator norm of that block; on one object a class is
    its own partner, its point is the block's trace over its rank, and
    classes whose point vanishes are dropped.  ``f`` then rescales
    ``T`` block by block, ``out = U_A G U_B*``.
    """
    x = np.asarray(x, dtype=complex)
    tol = resolve_tol(tol)
    scale = op_norm(x)
    if scale == 0.0:
        if isinstance(f, SpectralFunction) and f.table:
            raise SpectrumMismatch(
                "zero element has empty spectrum; only the empty table applies"
            )
        return np.zeros_like(x)

    cat = generated_by(x, a_id, b_id, tol)  # NotNormal guard lives here
    thresh = ZERO_SLACK * tol * (1 + scale)

    def diagonalize(o, d):
        fam = np.reshape(cat.block(o, o), (-1, d, d))
        eig = joint_diagonalize(
            list(fam) + [np.eye(d, dtype=complex)], tol, seed=seed
        )
        return eig, np.flatnonzero(_surviving(eig, fam, tol * (1 + scale)))

    eig_a, keep_a = diagonalize(a_id, x.shape[0])
    eig_b, keep_b = (
        (eig_a, keep_a) if a_id == b_id else diagonalize(b_id, x.shape[1])
    )
    if len(keep_a) != len(keep_b):
        raise FullnessMismatch(
            "row and column sides disagree on the nonzero classes"
        )
    t = eig_a.unitary.conj().T @ x @ eig_b.unitary
    if a_id != b_id:
        sq = _block_sums(np.abs(t) ** 2, eig_a.starts, eig_b.starts)
        hits = np.sqrt(sq[np.ix_(keep_a, keep_b)]) > thresh
        if np.any(hits.sum(axis=1) != 1) or np.any(hits.sum(axis=0) != 1):
            raise FullnessMismatch(
                "class matching between the two sides is not a bijection"
            )
        keep_b = keep_b[np.argmax(hits, axis=1)]

    r, c = _block_index(eig_a, keep_a, eig_b, keep_b)
    padded = np.zeros((t.shape[0] + 1, t.shape[1] + 1), dtype=complex)
    padded[:-1, :-1] = t
    comps = padded[r, c]
    if a_id == b_id:
        points = np.trace(comps, axis1=1, axis2=2) / eig_a.sizes[keep_a]
        live = np.abs(points) > thresh
        r, c, comps, points = r[live], c[live], comps[live], points[live]
    else:
        points = np.linalg.norm(comps, 2, axis=(1, 2))
    points = points.astype(complex).tolist()
    _check_table_covers(f, points, scale)
    gain = np.array([_call(f, p, scale) for p in points], dtype=complex)
    g = np.zeros_like(padded)
    g[r, c] = comps * (gain / points)[:, None, None]
    return eig_a.unitary @ g[:-1, :-1] @ eig_b.unitary.conj().T


def svd_oracle(x, a_id="A", b_id="B", f=None, tol=None):
    """Independent reference for :func:`funcalc` via a plain SVD (or a
    normal eigendecomposition on a single object)."""
    x = np.asarray(x, dtype=complex)
    tol = resolve_tol(tol)
    scale = op_norm(x)
    if scale == 0.0:
        return np.zeros_like(x)
    if a_id == b_id:
        w, u = normal_eig(x, tol)
        out = np.zeros_like(x)
        for i, s in enumerate(w):
            if abs(s) <= ZERO_SLACK * tol * (1 + scale):
                continue
            v = u[:, i: i + 1]
            out += _call(f, complex(s), scale) * (v @ v.conj().T)
        return out
    u, s, vh = svd(x)
    out = np.zeros_like(x)
    for i, si in enumerate(s):
        if si <= ZERO_SLACK * tol * (1 + scale):
            continue
        out += _call(f, complex(si), scale) * np.outer(u[:, i], vh[i, :])
    return out
