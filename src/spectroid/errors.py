"""Exception hierarchy.

Every failure mode that callers are expected to branch on gets its own
class; all of them derive from :class:`SpectroidError` so CLI code can
catch the lot in one clause.
"""

__all__ = [
    "SpectroidError",
    "NotNormal",
    "DiagonalizationFailed",
    "NotCommutative",
    "NotFull",
    "NotUnital",
    "AmbiguousMatching",
    "InvalidFunctor",
    "InvalidGroupoid",
    "InvalidSpaceoid",
    "InvalidPhaseFunctor",
    "InvalidMorphism",
    "NotOneDimensional",
    "SpectrumMismatch",
    "SchemaError",
]


class SpectroidError(Exception):
    """Base class for all library errors."""


class NotNormal(SpectroidError):
    """A matrix expected to be normal is not (beyond tolerance)."""


class DiagonalizationFailed(SpectroidError):
    """Joint diagonalization did not verify after the retry budget."""


class NotCommutative(SpectroidError):
    """A category expected to have commutative diagonals does not."""


class NotFull(SpectroidError):
    """A category expected to be full (inner-product spans fill the
    diagonals) is not."""


class NotUnital(SpectroidError):
    """An operation requiring units was given a non-unital category."""


class AmbiguousMatching(SpectroidError):
    """A fiber compression matched zero or several partner classes."""


class InvalidFunctor(SpectroidError):
    """Claimed *-functor data fails linearity/involution/composition."""


class InvalidGroupoid(SpectroidError):
    """Groupoid data violates the composition/inverse/identity axioms."""


class InvalidSpaceoid(SpectroidError):
    """Structure constants violate a bundle invariant."""


class InvalidPhaseFunctor(SpectroidError):
    """Phase data is not unimodular/multiplicative."""


class InvalidMorphism(SpectroidError):
    """Bundle morphism data violates the functoriality constraint."""


class NotOneDimensional(SpectroidError):
    """An operation requiring one-dimensional blocks saw a bigger one."""


class SpectrumMismatch(SpectroidError):
    """A spectral function's table does not cover the computed points."""


class SchemaError(SpectroidError):
    """A JSON document does not match the wire schema."""
