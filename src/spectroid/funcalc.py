"""Continuous functional calculus for rectangular matrix elements.

A single matrix ``x`` placed in a block between objects ``A`` and
``B`` generates a small commutative category (for ``A == B`` the
element must be normal).  Cut to the supports of its diagonal blocks,
that category is unital and full, so it has a spectrum, and ``x`` has
a Gel'fand transform over it: one coefficient ``xhat_i`` per class,
whose modulus is a distinct nonzero singular value of ``x`` (an
eigenvalue itself, in the square same-object case).  Applying a scalar
function rescales each class with its phase kept:

    f[x] = lift(f(|xhat|) * xhat / |xhat|),

with ``f(xhat)`` in its place on one object.  ``funcalc`` computes
this through :func:`duality.spectrum` of that corner and inherits its
error contract.  ``svd_oracle`` computes the same thing directly from
a singular value decomposition (or a normal eigendecomposition) and
exists to cross-check it.

A class whose coefficient is under the zero cut carries no part of
``x`` and is discarded, as the oracle discards such singular values,
so ``f`` is only ever evaluated on the nonzero spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CLUSTER_RTOL, ZERO_SLACK, resolve_tol
from .cstarcat import MatrixCategory, _grams, _stack, generated_by
from .duality import spectrum
from .errors import SpectrumMismatch
from .numkit import normal_eig, op_norm, svd

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


def _support(basis, d) -> np.ndarray:
    """Isometry onto the support of a diagonal block, from its
    HS-orthonormal basis, a ``(n, d, d)`` stack.

    ``sum_b b b*`` does not depend on which orthonormal basis is used:
    with class projections ``P_i`` of ranks ``r_i`` it is ``sum_i P_i /
    r_i``, so its eigenvalues are ``1/r_i >= 1/d`` on the support and
    rounding off it, and a cut at ``1/(2d)`` separates the two."""
    w, v = np.linalg.eigh(_grams(basis)[1])
    return v[:, w > 0.5 / d]


def funcalc(x, a_id="A", b_id="B", f=None, tol=None, seed: int = 0):
    """Apply a scalar function to a matrix element through its
    Gel'fand transform over the category it generates.

    Every block of ``generated_by(x)`` is cut to the supports ``W`` of
    the diagonal blocks (:func:`_support`); that corner is unital and
    full, and :func:`duality.spectrum` decomposes it.  ``xhat =
    spec.coefficients(A, B, W_A* x W_B)`` has one coefficient per
    class.  The points are ``xhat`` on one object and ``|xhat|`` across
    two; classes with ``|xhat|`` at most ``ZERO_SLACK * tol * (1 +
    ||x||_op)`` are dropped, and ``f`` (a :class:`SpectralFunction` or
    plain callable) rescales the others with their phase kept, ``g =
    xhat * f(p) / p``.  The result is ``W_A lift(g) W_B*``; the
    identity function returns ``x`` itself to machine precision.

    ``spectrum``'s errors pass through: a closure that is not
    commutative raises ``NotCommutative``.  As ``spectrum`` does, a
    non-finite ``x`` raises ``ValueError`` before any norm is taken.
    """
    x = np.asarray(x, dtype=complex)
    if not np.isfinite(x).all():
        raise ValueError("element has non-finite entries")
    tol = resolve_tol(tol)
    scale = op_norm(x)
    cut = ZERO_SLACK * tol * (1 + scale)
    if scale <= cut:  # every point is under the zero cut; the closure may be empty
        if isinstance(f, SpectralFunction) and f.table:
            raise SpectrumMismatch(
                "zero element has empty spectrum; only the empty table applies"
            )
        return np.zeros_like(x)

    cat = generated_by(x, a_id, b_id, tol)  # NotNormal guard lives here
    w = {o: _support(_stack(cat, o, o), d) for o, d in cat.objects}
    corner = MatrixCategory(
        objects=tuple((o, w[o].shape[1]) for o in w),
        blocks={
            (a, b): list(w[a].conj().T @ _stack(cat, a, b) @ w[b])
            for a, b in cat.pairs()
        },
        unital=True,
    )
    spec = spectrum(corner, tol, seed)
    xhat = spec.coefficients(a_id, b_id, w[a_id].conj().T @ x @ w[b_id])
    live = np.abs(xhat) > cut
    points = xhat[live] if a_id == b_id else np.abs(xhat[live]).astype(complex)
    points = points.tolist()
    _check_table_covers(f, points, scale)
    g = np.zeros_like(xhat)
    g[live] = xhat[live] * [_call(f, p, scale) / p for p in points]
    return w[a_id] @ spec.lift(a_id, b_id, g) @ w[b_id].conj().T


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
