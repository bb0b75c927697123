"""spectroid: matrix C*-categories, their spectral bundle data, and the
duality between the two pictures.

Subpackage map:

- ``numkit``    dense complex linear algebra substrate
- ``cstarcat``  matrix C*-categories (closure, checks, constructions)
- ``groups``    finite groups and groupoids as index tables, their axiom check
- ``spaceoid``  rank-one bundle data over a finite base, gauges, morphisms
- ``duality``   characters, spectrum/sections functors, the two transforms
- ``funcalc``   continuous functional calculus for rectangular matrices
- ``serial``    JSON wire formats
- ``selftest``  randomized verification battery behind the acceptance gate
- ``cli``       command-line entry point
"""

from .config import DEFAULT_TOL

__version__ = "0.1.0"

__all__ = ["DEFAULT_TOL", "__version__"]
