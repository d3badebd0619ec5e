"""Exception types raised across the package."""


class ParameterError(ValueError):
    """Invalid distribution parameter or function argument (e.g. sigma <= 0, u outside (0, 1))."""


class DataError(ValueError):
    """A censored sample violates an invariant required for fitting."""


class DegenerateDataError(DataError):
    """An M-step produced a nonpositive variance estimate."""


class NumericRangeError(ArithmeticError):
    """A computation left the floating-point range it is accurate in; only its
    subclass :class:`TailUnderflowError`, from the truncated normal sampler, is raised."""


class TailUnderflowError(NumericRangeError):
    """Truncation point leaves too little tail mass for stable sampling."""
