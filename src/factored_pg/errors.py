"""Exception types shared across the package."""


class NotEnumerableError(ValueError):
    """Exhaustive enumeration requested on an environment that cannot support it."""


class EnumerationSizeError(ValueError):
    """Exact enumeration would exceed the supported outcome budget."""


class SingularSystemError(ValueError):
    """A linear solve has no unique finite solution: a ridge fit on non-finite
    inputs or one that fails numerically, or a natural-gradient curvature
    solve whose Fisher is not positive along a search direction."""


class ZeroScoreNormError(ValueError):
    """An optimal-baseline denominator E[z'z] vanishes (degenerate factor)."""


class ConfigError(ValueError):
    """Invalid experiment configuration: unknown names or bad field values."""


class NonFiniteError(ValueError):
    """A training quantity (batch rewards, advantages, gradient or step) is NaN or infinite."""
