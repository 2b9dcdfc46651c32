"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class UnsupportedStencilError(ConfigError):
    """Requested (c, d) pair is not in the supported set, or the mesh is too small for it."""


class QuadratureError(RuntimeError):
    """A certified quadrature failed to reach its requested tolerance.

    Carries the achieved tolerance so callers can decide whether the
    partial answer is still useful.
    """

    def __init__(self, msg, achieved=None):
        super().__init__(msg)
        self.achieved = achieved


class SolverError(RuntimeError):
    """Linear solve failed or produced an unusable residual."""


class CflViolationError(ConfigError):
    """Time step exceeds the stability bound for the given data; the fix is a larger J."""


class NegativeBracketError(RuntimeError):
    """Pressure-update bracket went genuinely negative (not roundoff)."""

    def __init__(self, msg, step=None, index=None, value=None):
        super().__init__(msg)
        self.step = step
        self.index = index
        self.value = value


class MaxPrincipleError(SolverError):
    """Discrete solution left the [0, max(initial data)] band."""
