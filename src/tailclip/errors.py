"""Exception types shared across the library."""


class ConfigurationError(ValueError):
    """A parameter, spec, or config file is invalid or inconsistent."""


class DomainError(ValueError):
    """A query point lies outside the feasible domain of a problem."""
