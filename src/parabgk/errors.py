"""Exception types shared across the solver stack."""


class SolverError(Exception):
    """Base class for every failure raised by this package."""


class ConfigurationError(SolverError):
    """A run configuration or discretization request is malformed."""


class DegenerateStateError(SolverError):
    """A state a step, a lift or a correction cannot use: a density,
    temperature, pressure, amplitude or internal energy that is not a finite
    positive number, a velocity that is not finite, or a relaxation rate or
    transport step outside [0, inf)."""


class BlowUpError(SolverError):
    """A propagator step met a state it cannot use; the message names the
    step and the cell, and step holds the 1-based step."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class CorrectionOvershootError(SolverError):
    """A parareal correction pushed a snapshot out of the physical regime."""

    def __init__(self, message: str, slice_index: int | None = None):
        super().__init__(message)
        self.slice_index = slice_index
