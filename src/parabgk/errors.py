"""Exception types shared across the solver stack."""


class SolverError(Exception):
    """Base class for every failure raised by this package."""


class ConfigurationError(SolverError):
    """A run configuration or discretization request is malformed."""


class DegenerateStateError(SolverError):
    """Moment data lost physical validity: a density, temperature or internal
    energy that is not a finite positive number."""


class BlowUpError(SolverError):
    """A propagator produced NaN/Inf or a nonphysical state mid-run."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class CorrectionOvershootError(SolverError):
    """A parareal correction pushed a snapshot out of the physical regime."""

    def __init__(self, message: str, slice_index: int | None = None):
        super().__init__(message)
        self.slice_index = slice_index
