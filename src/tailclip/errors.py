"""Exception types shared across the library."""


class ConfigurationError(ValueError):
    """A parameter, spec, or config file is invalid or inconsistent."""

