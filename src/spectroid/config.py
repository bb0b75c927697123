"""Global numeric configuration.

A single default tolerance is used across the package wherever the
caller does not pass one explicitly.  Checks are scale-relative where a
natural scale exists (residuals are compared against ``tol * (1 +
scale)``).
"""

__all__ = ["DEFAULT_TOL", "FULLNESS_RTOL", "resolve_tol"]

DEFAULT_TOL = 1e-9

# ``cstarcat.is_full`` on unital categories: the positive matrix
# ``h = sum_i x_i* x_i`` over an HS-orthonormal basis of a block (and
# likewise ``sum_i x_i x_i*``) counts as invertible when its smallest
# eigenvalue exceeds FULLNESS_RTOL times its largest.  The scale is
# ``lambda_max(h)``; for a full block the ratio is at least about one
# over the object dimension, for a non-full one it is rounding noise
# (about 1e-16), so the bound sits far from both and does not follow
# ``tol``.
FULLNESS_RTOL = 1e-8


def resolve_tol(tol: float | None) -> float:
    """Return ``tol`` itself, or ``DEFAULT_TOL`` when ``tol`` is None."""
    return DEFAULT_TOL if tol is None else float(tol)
