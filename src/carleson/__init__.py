"""Numerical laboratory for discrete Carleson-type operators.

Subpackages cover the pipeline from arithmetic to operators:

  rationals    reduced fractions, Farey sets, arc windows and families
  expsums      complete Weyl sums, orthogonality and decay scans
  kernels      truncated kernel families and dyadic pieces
  oscint       oscillatory integrals of the dyadic pieces
  multipliers  lattice symbols, cutoffs, arc-localized approximants
  operators    the maximal operator, rational-block pair sums, chaining
  cli          deterministic command-line experiments

Every primitive has one implementation, in numpy.
"""

BACKEND = "numpy"

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]
