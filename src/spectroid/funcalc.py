"""Continuous functional calculus for rectangular matrix elements.

A single matrix ``x`` placed in a block between objects ``A`` and
``B`` generates a small commutative category (for ``A == B`` the
element must be normal), and by Gel'fand duality ``x`` is a section
of that category's spectrum: one coefficient ``xhat_i`` per class,
whose modulus is a distinct nonzero singular value of ``x`` (an
eigenvalue itself, in the square same-object case).  Applying a scalar
function rescales each class with its phase kept:

    f[x] = lift(f(|xhat|) * xhat / |xhat|),

with ``f(xhat)`` in its place on one object.  The classes come from
one eigendecomposition (of the Hermitian dilation ``[[0, x], [x*,
0]]`` across two objects, of ``x`` on one), and ``funcalc`` reads
``xhat`` and the lift off their kept columns, with no second spectrum
and without building the generated category
(``cstarcat.generated_by`` builds it from the same classes).
``svd_oracle`` computes the same thing directly from a singular value
decomposition (or a normal eigendecomposition) and exists to
cross-check it.

A class whose coefficient is under the zero cut carries no part of
``x`` and is discarded, as the oracle discards such singular values,
so ``f`` is only ever evaluated on the nonzero spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CLUSTER_RTOL, ZERO_SLACK, resolve_tol
from .cstarcat import _element_classes
from .errors import DiagonalizationFailed, SpectrumMismatch
from .numkit import _as_matrix, _cluster_complex, normal_eig, op_norm, svd

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
        if self.coeffs:  # Horner's rule, highest order first
            s, value = complex(s), 0j
            for c in reversed(self.coeffs):
                value = value * s + c
            return value
        tol = CLUSTER_RTOL * (1.0 + scale)
        hits = [v for k, v in self.table if abs(k - s) <= tol]
        if not hits:
            raise SpectrumMismatch(
                f"table has no value within {tol:.1e} of spectral point {s}"
            )
        return hits[0]


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
    Values are grouped by single linkage at ``CLUSTER_RTOL * (1 +
    ||x||_op)``, the one class rule; each group is its smallest value
    by (real, imaginary), and the points come sorted so.
    """
    x = np.asarray(x, dtype=complex)
    tol = resolve_tol(tol)
    if a_id == b_id:
        if not x.any():
            return np.array([], dtype=complex)
        if x.shape[0] != x.shape[1]:
            raise ValueError("same-object element must be square")
        w, _ = normal_eig(x, tol)  # raises NotNormal when it must
        scale = float(np.abs(w).max())  # ||x||_op for a normal x
    else:
        w = np.linalg.svd(x, compute_uv=False)
        scale = float(w.max(initial=0.0))  # 0.0 for an empty x
        if scale == 0.0:
            return np.array([], dtype=complex)
    vals = w[np.abs(w) > ZERO_SLACK * tol * (1 + scale)].astype(complex)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    groups = _cluster_complex(vals, CLUSTER_RTOL * (1 + scale))
    return vals[[g[0] for g in groups]]


def _under_zero_cut(x: np.ndarray, tol: float) -> bool:
    """Whether ``||x||_op <= ZERO_SLACK * tol * (1 + ||x||_op)``, the
    zero rule, without an SVD where the HS norm decides it.

    The rule holds for every norm up to one bound and for none above
    it, and ``||x||_HS / sqrt(min(m, n)) <= ||x||_op <= ||x||_HS``; when
    both ends of that band, widened by 1e-12 for rounding, fall on one
    side of the bound, so does ``||x||_op``.  Only inside the band is
    :func:`op_norm` taken."""
    def under(s):
        return s <= ZERO_SLACK * tol * (1 + s)

    hs = float(np.linalg.norm(x))
    low = hs * (1 - 1e-12) / np.sqrt(max(1, min(x.shape)))
    if under(hs * (1 + 1e-12)) == under(low):
        return under(low)
    return under(op_norm(x))


def _read_classes(x, objects, kept):
    """``(c, xhat, lift)`` of ``x`` read off the kept columns ``W = [U;
    V]`` of :func:`cstarcat._element_classes` (``U = V = W`` on one
    object), without forming the closure's basis ``b_i = U_i V_i* /
    sqrt(r_i)``: ``c_i = <b_i, x>_HS = tr(U_i* x V_i) / sqrt(r_i)``,
    ``xhat_i = c_i / tr d_i`` with ``tr d_i = ||U_i||_HS^2 / sqrt(r_i)``,
    and ``lift(g) = sum_i g_i b_i = U diag(g_i / sqrt(r_i)) V*``."""
    m = x.shape[0]
    w = np.concatenate(kept, axis=1) if kept else np.zeros((sum(d for _, d in objects), 0))
    u, v = (w, w) if len(objects) == 1 else (w[:m], w[m:])
    ranks = np.array([k.shape[1] for k in kept], dtype=int)
    starts, root = np.cumsum(ranks) - ranks, np.sqrt(ranks)
    uc, vh = u.conj(), v.conj().T
    c = np.add.reduceat((uc * (x @ v)).sum(0), starts) / root
    xhat = c / (np.add.reduceat((uc * u).real.sum(0), starts) / root)

    def lift(g):
        return (u * np.repeat(g / root, ranks)) @ vh

    return c, xhat, lift


def funcalc(x, a_id="A", b_id="B", f=None, tol=None, seed: int = 0):
    """Apply a scalar function to a matrix element through its
    Gel'fand transform over the category it generates.

    ``cstarcat._element_classes`` gives the kept classes of the category
    ``x`` generates from one eigendecomposition (its checks raise first,
    ``NotNormal`` among them), and :func:`_read_classes` reads the
    transform ``xhat = c / tr d`` off them without forming that
    category: ``c_i = <b_i, x>_HS = s_i sqrt(r_i)`` and ``tr d_i =
    sqrt(r_i)``.  The points are ``xhat`` on one object and ``|xhat|``
    across two; classes with ``|xhat|`` at most ``ZERO_SLACK * tol * (1
    + ||x||_op)`` are dropped, and ``f`` (a :class:`SpectralFunction` or
    plain callable) rescales the others with their phase kept: ``f[x] =
    sum_i c_i f(p_i) / p_i b_i``, with dropped classes set to zero.
    The identity function returns ``x`` itself to machine precision.
    ``||x||_op``, for that cut and for the table's matching tolerance,
    is read off the same eigendecomposition as ``max |xhat|``, the
    value of the top class.

    An ``x`` under the zero rule, ``||x||_op`` at most that cut, has
    every point under it and returns zeros (raises ``SpectrumMismatch``
    for a non-empty table) before any eigendecomposition.  The rule is
    decided from ``||x||_HS``, which bounds ``||x||_op`` within a factor
    ``sqrt(min(m, n))``; only inside that band is ``op_norm`` taken.

    ``x`` must lie in its closure's span: ``||x - sum_i c_i b_i||_HS``
    above the zero cut raises ``DiagonalizationFailed``, so no part of
    ``x`` above the cut is dropped without an error.  A missing ``f``
    and a non-finite ``x`` raise ``ValueError`` before any work, a
    same-object ``x`` that is not normal ``NotNormal``, a table that
    does not cover the points ``SpectrumMismatch``, and
    ``joint_diagonalize``'s ``DiagonalizationFailed`` passes through.
    """
    if f is None:
        raise ValueError("f is required: a SpectralFunction or a callable")
    x = np.asarray(x, dtype=complex)
    if not np.isfinite(x).all():
        raise ValueError("element has non-finite entries")
    x = _as_matrix(x)
    tol = resolve_tol(tol)
    if _under_zero_cut(x, tol):  # so is every point; the closure may be empty
        if isinstance(f, SpectralFunction) and f.table:
            raise SpectrumMismatch(
                "zero element has empty spectrum; only the empty table applies"
            )
        return np.zeros_like(x)

    c, xhat, lift = _read_classes(x, *_element_classes(x, a_id, b_id, tol, seed))
    scale = float(np.abs(xhat).max(initial=0.0))  # ||x||_op: the top class's value
    cut = ZERO_SLACK * tol * (1 + scale)
    residual = np.linalg.norm(x - lift(c))
    if residual > cut:
        raise DiagonalizationFailed(
            f"element is {residual:.3e} outside its closure's span (cut {cut:.3e})"
        )
    live = np.abs(xhat) > cut
    points = xhat[live] if a_id == b_id else np.abs(xhat[live]).astype(complex)
    points = points.tolist()
    _check_table_covers(f, points, scale)
    g = np.zeros_like(c)
    g[live] = c[live] * [_call(f, p, scale) / p for p in points]
    return lift(g)


def svd_oracle(x, a_id="A", b_id="B", f=None, tol=None):
    """Independent reference for :func:`funcalc` via a plain SVD (or a
    normal eigendecomposition on a single object), rejecting a missing
    ``f`` as :func:`funcalc` does."""
    if f is None:
        raise ValueError("f is required: a SpectralFunction or a callable")
    x = np.asarray(x, dtype=complex)
    tol = resolve_tol(tol)
    if a_id == b_id:
        if not x.any():
            return np.zeros_like(x)
        w, u = normal_eig(x, tol)
        scale = float(np.abs(w).max())  # ||x||_op for a normal x
        vh = u.conj().T
    else:
        u, w, vh = svd(x)
        scale = float(w.max(initial=0.0))  # 0.0 for an empty x
        if scale == 0.0:
            return np.zeros_like(x)
    live = np.flatnonzero(np.abs(w) > ZERO_SLACK * tol * (1 + scale))
    fw = np.array([_call(f, complex(w[i]), scale) for i in live], dtype=complex)
    return (u[:, live] * fw) @ vh[live]
