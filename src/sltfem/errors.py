"""Exception types shared across the package."""


class SltfemError(Exception):
    """Base class for all package errors."""


class InvalidParameter(SltfemError, ValueError):
    """A parameter lies outside the range of the type it configures; field
    names that parameter."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(message)


class NotPositiveDefinite(SltfemError):
    """A stiffness (or derived) matrix failed the SPD check."""


class InadmissibleStrain(SltfemError):
    """A strain state violates the limiting bound b*t < 1.

    Carries the offending energy-norm value and, when known, a location.
    """

    def __init__(self, t, location=None):
        self.t = t
        self.location = location
        msg = f"strain energy norm t={t:.6g} violates the admissibility bound"
        if location is not None:
            msg += f" at {location}"
        super().__init__(msg)


class MisalignedCrack(SltfemError):
    """Crack line or tip does not coincide with mesh lines."""


class EmptyDirichlet(SltfemError):
    """The Dirichlet dofs leave a rigid motion free, or there are none: the
    reduced system would be singular. The message names the free motion."""


class SolverBreakdown(SltfemError):
    """Linear solver failed (non-SPD matrix or residual tolerance not met)."""


class ConfigError(SltfemError):
    """Base class for configuration parsing errors."""

    def __init__(self, key, line, message):
        self.key = key
        self.line = line
        super().__init__(f"line {line}: key '{key}': {message}")


class UnknownKey(ConfigError):
    pass


class TypeMismatch(ConfigError):
    pass


class InvariantViolation(ConfigError):
    pass
