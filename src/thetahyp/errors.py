"""Exception types shared across the package."""


class ThetaDomainError(ValueError):
    """Input outside the admissible domain (nome on/outside unit circle, z=0, ...)."""


class PoleError(ZeroDivisionError):
    """A structurally vanishing factor ended up in a denominator unresolved."""


class NonConvergenceError(RuntimeError):
    """An infinite sum or product failed to reach its tail tolerance in max_terms."""


class BranchError(ValueError):
    """A square-root branch prescription is undefined for the given input."""


class FloatRangeError(OverflowError):
    """A value left the float64 range: a theta value or a side that is not
    finite, or a division by a factorial value that underflowed to 0."""
