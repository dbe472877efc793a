"""Exception types shared across the simulator modules."""


class SimulationError(Exception):
    """Base class for all simulator-specific failures."""


class OrthogonalPostselection(SimulationError):
    """Post-selection state is orthogonal to the pre-selected state; the weak value is undefined."""


class NonUnitary(SimulationError):
    """A matrix passed as a polarization unitary deviates from unitarity beyond tolerance."""


class OutOfFloatRange(SimulationError):
    """A calculus kernel's squared width or shift leaves the double-precision range."""


class WrongSpace(SimulationError):
    """A grid operation was applied in the wrong representation (position vs momentum)."""


class AliasingRisk(SimulationError):
    """A grating mask would wrap its phase by more than pi per pixel."""


class ShiftTooLarge(SimulationError):
    """A requested spectral shift exceeds a quarter of the grid extent."""


class GridTooCoarse(SimulationError):
    """The pixel pitch is too large to resolve the requested beam waist."""


class GridTooSmall(SimulationError):
    """The grid extent cannot contain the requested beam at the required margin."""


class EmptyImage(SimulationError):
    """An intensity image with zero total power has no defined moments."""


class NoSignChange(SimulationError):
    """A sweep holds no sign change of the joint deflection, so no zero crossing exists."""


class NoInteriorExtremum(SimulationError):
    """A sweep holds no interior extremum of the joint deflection."""


class SweepEngineError(SimulationError):
    """An engine failed while sweeping; carries the offending coupling strength."""

    def __init__(self, delta_mm: float, message: str):
        super().__init__(f"engine failure at delta = {delta_mm:g} mm: {message}")
        self.delta_mm = delta_mm
