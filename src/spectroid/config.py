"""Global numeric configuration: the default tolerance and the named
bounds beside it.  A numeric check passes when its residual, a NaN
counting as +inf, is at most ``*_SLACK * tol`` times the scale the
constant names (``reporting.Report.check``); ``*_RTOL`` and ``*_ATOL``
are relative and absolute cuts that do not follow ``tol``.  The README's
"Tolerances" table lists every constant with the checks that use it.
"""

__all__ = [
    "DEFAULT_TOL", "GRAM_SLACK", "AXIOM_SLACK", "FUNCTOR_SLACK",
    "SPECTRAL_SLACK", "EQUIVALENCE_SLACK", "ISOMETRY_SLACK", "ZERO_SLACK",
    "JOINT_FALLBACK_SLACK", "JOINT_TARGET_RTOL", "PREGROUP_RTOL",
    "CLUSTER_RTOL", "CERT_SLACK", "FULLNESS_RTOL", "PHASE_ATOL",
    "VANISHING_ATOL", "ZERO_ONE_CUT", "resolve_tol",
]

DEFAULT_TOL = 1e-9

# check_axioms orthonormal-bases: HS norm of G - I, G a block basis's
# Gram matrix.  Absolute.
GRAM_SLACK = 100.0
# check_axioms adjoint-closure, composition-closure, units: HS residual
# of an adjoint, a product of two basis elements, or a unit, projected
# on its block.  Absolute (basis elements have HS norm 1).
AXIOM_SLACK = 10.0
# validate_functor involution, multiplicativity, units: HS norm of the
# image defect of a basis element, a product of two, or a unit.  Absolute.
FUNCTOR_SLACK = 100.0
# duality, values read off joint eigenbases: a transported basis's
# unitarity defect (scale 1 + d), a character against a class's eigenvalues (scale
# 1 + max|value|), spectrum's lift-back residual or its proven bound
# (scale 1 + ||x||_HS), and the recovered phases' multiplicativity
# (absolute).
SPECTRAL_SLACK = 100.0
# unitary_equivalence_gauge: two characters' values on the diagonal
# bases.  Scale 1 + max|value|.
EQUIVALENCE_SLACK = 1000.0
# gelfand isometric: | ||x||_op - max_i |xhat_i| | on seeded Gaussian
# combinations x of a block's basis.  Absolute.
ISOMETRY_SLACK = 1000.0
# funcalc: a singular value, eigenvalue or class coefficient's modulus
# that is at most this is zero.  Scale 1 + ||x||_op.
ZERO_SLACK = 10.0
# joint_diagonalize accepts its best attempt when none met
# JOINT_TARGET_RTOL.  Scale max_i (1 + ||m_i||_op) over the inputs.
JOINT_FALLBACK_SLACK = 10.0

# joint_diagonalize returns a diagonal or one-input route's result, or
# stops at the first seeded attempt, whose residual (unitarity defect;
# per input, the block-scalar model's HS residual over 1 + ||m_i||_op)
# is at most this, so a loose tol hides no mixing.
JOINT_TARGET_RTOL = 1e-12
# joint_diagonalize first groups its random Hermitian combination's
# eigenvalues w at gaps above this times 1 + max|w|.
PREGROUP_RTOL = 1e-4
# One spectral point: eigenvalues of one input closer than this times
# 1 + ||m||_op (normal_eig; joint_diagonalize's one class rule, single
# linkage per input on all its routes), or spectral points of one
# element (funcalc, which also matches table keys so).
CLUSTER_RTOL = 1e-8
# A certificate clears an explicit check, without forming the products
# that check would, when this times the bound it proves is at most the
# check's bound.  spectrum takes its completeness bounds whole when the
# compressions' residuals and the class-ordered bases bound every basis
# element's lift-back residual so against SPECTRAL_SLACK * tol * (1 +
# ||x||_HS), and its commutation bounds whole when the completeness
# bounds and the bases bound every pair of basis elements of every
# diagonal block so against tol * (1 + ||m_i||_HS ||m_j||_HS).  gelfand's
# functor checks take their bounds whole when the compressions bound
# every pair of basis elements' multiplicativity defect and every basis
# element's involution defect so against FUNCTOR_SLACK * tol, and each
# product's and adjoint's HS residual outside its block against tol;
# its isometry check, without an SVD, when they bound every seeded
# combination's | ||x||_op - max_p |xhat_p| | so against
# ISOMETRY_SLACK * tol.  roundtrip_category's check_axioms takes the
# same residual bounds whole for adjoint-closure and
# composition-closure when every one clears AXIOM_SLACK * tol.
# Otherwise the check is formed whole.  The bounds are exact
# arithmetic; the slack leaves 90% of each check's bound for rounding,
# O(d eps) relative to the sizes multiplied, so a certified item passes
# the explicit check for any tol above about 100 d eps.
CERT_SLACK = 10.0
# is_full on unital categories: h = sum_i x_i* x_i over a block's
# HS-orthonormal basis (likewise sum_i x_i x_i*) is invertible when its
# smallest eigenvalue exceeds this times its largest.  The ratio is at
# least about 1/dim for a full block and rounding (1e-16) otherwise.
# spectrum, once completeness is proven, applies the same cut to the
# squared norms of the classes' rows of each block map, which are
# those eigenvalues up to the bases' unitarity defects.
FULLNESS_RTOL = 1e-8
# Input phases (linking generators and spaceoids, phase-functor
# assignments) must satisfy | |z| - 1 | <= PHASE_ATOL.
PHASE_ATOL = 1e-12
# unitary_equivalence_gauge: a block whose largest character value on
# its HS-orthonormal basis is below this vanishes at the class.
VANISHING_ATOL = 1e-8
# Cut for a quantity that is 0 or 1 in exact arithmetic: an induced
# class unit's coefficient modulus (spectrum_on_morphism), a section class's
# squared weight on its point (evaluation).
ZERO_ONE_CUT = 0.5


def resolve_tol(tol: float | None) -> float:
    """Return ``tol`` itself, or ``DEFAULT_TOL`` when ``tol`` is None."""
    return DEFAULT_TOL if tol is None else float(tol)
