"""reflekt: exact invariant theory of finite complex reflection groups.

Submodules map onto the functional areas:

  exact    cyclotomic scalars, polynomials in T, multivariate polynomials
  groups   Shephard-Todd constructors, enumeration, reflections, classes, degrees,
           coinvariant graded traces per class, polynomial substitution
  chars    exact character tables (Burnside-Dixon) and local restriction data
  fake     fake degrees as class sums of graded traces; the identity verifiers
  minmat   minimal equivariant polynomial matrices
  kz       numerical monodromy of the KZ connection
  cli      command-line front end: canonical JSON on stdout, nothing stored on disk
"""

ALGORITHM_VERSION = "reflekt-0.1.0/alg1"

from .exact import CycNum, PolyT, MultiPoly  # noqa: F401,E402
