"""Global numeric configuration.

A single default tolerance is used across the package wherever the
caller does not pass one explicitly.  Checks are scale-relative where a
natural scale exists (residuals are compared against ``tol * (1 +
scale)``).
"""

__all__ = ["DEFAULT_TOL", "resolve_tol"]

DEFAULT_TOL = 1e-9


def resolve_tol(tol: float | None) -> float:
    """Return ``tol`` itself, or ``DEFAULT_TOL`` when ``tol`` is None."""
    return DEFAULT_TOL if tol is None else float(tol)
