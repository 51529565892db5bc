"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
budget/tolerance failures exit 3, verification failures exit 1.  Any
other exception is a defect in the program; it is not caught, so the
command exits 1 with a traceback.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid or inconsistent configuration input."""


class BudgetExceededError(RuntimeError):
    """A declared work budget (lattice points, quadrature nodes, set sizes)
    would be exceeded; the computation refuses to start or continue."""


class ToleranceNotReachedError(RuntimeError):
    """Adaptive refinement hit its depth limit before the requested
    tolerance.  Carries the best value and the achieved error estimate."""

    def __init__(self, message: str, value: complex, estimate: float):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class VerificationError(AssertionError):
    """An internal cross-check (for instance the two closed forms of the
    quadratic-pair kernel) disagreed beyond tolerance, or an invariant
    broke (for instance two arc windows holding the same point)."""
