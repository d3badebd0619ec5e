"""Exception types raised across the package."""


class ParameterError(ValueError):
    """Invalid distribution parameter or function argument (e.g. sigma <= 0, u outside (0, 1))."""


class DataError(ValueError):
    """A censored sample violates an invariant required for fitting."""
