"""Discretized Fourier-optics engine on a polarized 2-D grid.

Both polarization planes live on one square pixel raster.  Pixel (i, j)
sits at position ((j - nx/2) * pixel, (ny/2 - i) * pixel) in millimetres,
so row 0 is the top of the camera image (largest y).  The lens transform
is the centered unitary DFT with synthesis kernel exp(-i eta x); a blazed
grating in the lens focal plane multiplies the H plane by a linear phase
exp(i delta eta) and realizes the polarization-conditioned displacement
delta = SLM_MM_PER_UNIT * alpha once the relay returns the field upright.
A conditional shift applies the same displacement directly: a 1-D DFT
along the shift axis only, with the spectral phase in natural (unshifted)
frequency order, so the centered DFT serves only the lens.  Norms are
tracked against the position-space pixel area throughout.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingRisk,
    EmptyImage,
    GridTooCoarse,
    GridTooSmall,
    ShiftTooLarge,
    WrongSpace,
)
from .pointer import Axis, DeflectionTriple, checked_unitary
from .qubit import QubitState

SLM_MM_PER_UNIT = 0.0237
MIN_GRID_SIDE = 64
WAIST_PIXELS_MIN = 4.0
WAIST_EXTENT_FACTOR = 6.0


class Space(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class GridSpec:
    """Raster geometry: power-of-two sides, square pixels in micrometres."""

    nx: int
    ny: int
    pixel_um: float

    def __post_init__(self):
        for side in (self.nx, self.ny):
            if side < MIN_GRID_SIDE or side & (side - 1):
                raise ValueError(f"grid sides must be powers of two >= {MIN_GRID_SIDE}")
        if not self.pixel_um > 0.0:
            raise ValueError("pixel pitch must be positive")

    @property
    def pixel_mm(self) -> float:
        return self.pixel_um / 1000.0

    @property
    def extent_x_mm(self) -> float:
        return self.nx * self.pixel_mm

    @property
    def extent_y_mm(self) -> float:
        return self.ny * self.pixel_mm

    @property
    def pixel_area_mm2(self) -> float:
        return self.pixel_mm**2


@dataclass(frozen=True)
class PolarizedField:
    """Two complex planes (H, V) plus the representation they live in."""

    grid: GridSpec
    h_plane: np.ndarray
    v_plane: np.ndarray
    space: Space

    def __post_init__(self):
        shape = (self.grid.ny, self.grid.nx)
        for name in ("h_plane", "v_plane"):
            plane = np.asarray(getattr(self, name), dtype=complex)
            if plane.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {plane.shape}")
            plane.setflags(write=False)
            object.__setattr__(self, name, plane)


@dataclass(frozen=True)
class IntensityImage:
    """Nonnegative camera image on the same raster as the field."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("image shape must match the grid")
        if values.min() < 0.0:
            raise ValueError("intensity values must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def position_coords(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates in mm: x per column, y per row (row 0 on top)."""
    x = (np.arange(grid.nx) - grid.nx // 2) * grid.pixel_mm
    y = (grid.ny // 2 - np.arange(grid.ny)) * grid.pixel_mm
    return x, y


def momentum_coords(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Conjugate coordinates in rad/mm, oriented like the position axes."""
    step_x = 2.0 * np.pi / (grid.nx * grid.pixel_mm)
    step_y = 2.0 * np.pi / (grid.ny * grid.pixel_mm)
    eta_x = (np.arange(grid.nx) - grid.nx // 2) * step_x
    eta_y = (grid.ny // 2 - np.arange(grid.ny)) * step_y
    return eta_x, eta_y


def field_norm(field: PolarizedField) -> float:
    """Total power against the position-space pixel area."""
    return float(intensity(field).values.sum() * field.grid.pixel_area_mm2)


def init_gaussian(grid: GridSpec, sigma_mm: float, pol: QubitState) -> PolarizedField:
    """Centered Gaussian beam of intensity width sigma in the given polarization."""
    if not sigma_mm > 0.0:
        raise ValueError("sigma must be positive")
    if sigma_mm < WAIST_PIXELS_MIN * grid.pixel_mm:
        raise GridTooCoarse(
            f"sigma {sigma_mm:g} mm needs a pixel below {sigma_mm / WAIST_PIXELS_MIN:g} mm"
        )
    if WAIST_EXTENT_FACTOR * sigma_mm > min(grid.extent_x_mm, grid.extent_y_mm):
        raise GridTooSmall(
            f"grid extent cannot hold {WAIST_EXTENT_FACTOR:g} sigma of the beam"
        )
    x, y = position_coords(grid)
    envelope = np.exp(-(x[None, :] ** 2 + y[:, None] ** 2) / (4.0 * sigma_mm**2))
    envelope = envelope / np.sqrt((envelope**2).sum() * grid.pixel_area_mm2)
    return PolarizedField(
        grid=grid,
        h_plane=pol.amp_h * envelope,
        v_plane=pol.amp_v * envelope,
        space=Space.POSITION,
    )


def _centered_forward(plane: np.ndarray) -> np.ndarray:
    """Unitary centered DFT with synthesis kernel exp(-i eta x)."""
    out = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(plane)))
    return out * np.sqrt(plane.size)


def fourier_lens(field: PolarizedField) -> PolarizedField:
    """One ideal lens: centered unitary DFT of both planes.

    Applying it twice returns the coordinate-inverted field; four
    applications are the identity.
    """
    return PolarizedField(
        grid=field.grid,
        h_plane=_centered_forward(field.h_plane),
        v_plane=_centered_forward(field.v_plane),
        space=Space.MOMENTUM if field.space is Space.POSITION else Space.POSITION,
    )


def _linear_phase(grid: GridSpec, delta_mm: float, axis: Axis) -> np.ndarray:
    eta_x, eta_y = momentum_coords(grid)
    if axis is Axis.X:
        return np.exp(1j * delta_mm * eta_x)[None, :]
    return np.exp(1j * delta_mm * eta_y)[:, None]


def apply_slm_mask(field: PolarizedField, alpha: int, axis: Axis) -> PolarizedField:
    """Blazed grating of strength alpha on the H plane, in the grating plane.

    The grating tilts the H component by a linear phase exp(i delta eta)
    with delta = SLM_MM_PER_UNIT * alpha, which the downstream relay turns
    into a displacement of delta along the chosen axis.
    """
    if field.space is not Space.MOMENTUM:
        raise WrongSpace("the grating sits in a lens focal plane")
    if alpha != int(alpha) or alpha < 0:
        raise ValueError(f"grating parameter must be a nonnegative integer, got {alpha!r}")
    delta = SLM_MM_PER_UNIT * int(alpha)
    side = field.grid.nx if axis is Axis.X else field.grid.ny
    extent = field.grid.extent_x_mm if axis is Axis.X else field.grid.extent_y_mm
    if delta * (2.0 * np.pi / (side * field.grid.pixel_mm)) >= np.pi:
        raise AliasingRisk(
            f"grating phase would step by >= pi per pixel (delta {delta:g} mm, extent {extent:g} mm)"
        )
    return PolarizedField(
        grid=field.grid,
        h_plane=field.h_plane * _linear_phase(field.grid, delta, axis),
        v_plane=field.v_plane,
        space=field.space,
    )


def apply_conditional_shift(
    field: PolarizedField, delta_mm: float, axis: Axis
) -> PolarizedField:
    """Displace the H plane by +delta along the axis via a spectral phase.

    Equivalent to a lens, a grating of matching strength, and the rest of
    the relay; the V plane passes through untouched.  Only the shift axis
    is transformed: a 1-D DFT, the phase exp(i delta eta) with eta in
    natural frequency order (negated for y, whose rows run downwards), and
    the inverse DFT.  The phases are those of momentum_coords, Nyquist bin
    included, so this is the same operator as the centered 2-D relay.
    """
    if field.space is not Space.POSITION:
        raise WrongSpace("conditional shifts act on the position-space field")
    extent = field.grid.extent_x_mm if axis is Axis.X else field.grid.extent_y_mm
    if not abs(delta_mm) < extent / 4.0:
        raise ShiftTooLarge(
            f"|delta| = {abs(delta_mm):g} mm exceeds a quarter of the {extent:g} mm extent"
        )
    if delta_mm == 0.0:
        return field
    side, dim = (field.grid.nx, 1) if axis is Axis.X else (field.grid.ny, 0)
    # Integer wavenumbers in natural order times the momentum step.
    eta = np.fft.fftfreq(side, 1.0 / side) * (2.0 * np.pi / (side * field.grid.pixel_mm))
    if axis is Axis.Y:
        eta = -eta  # rows run downwards
    spectrum = np.fft.ifft(field.h_plane, axis=dim)
    spectrum *= np.expand_dims(np.exp(1j * delta_mm * eta), 1 - dim)
    return PolarizedField(
        grid=field.grid,
        h_plane=np.fft.fft(spectrum, axis=dim),
        v_plane=field.v_plane,
        space=field.space,
    )


def apply_polarization_unitary(field: PolarizedField, u) -> PolarizedField:
    """Mix the H and V planes with a 2x2 unitary."""
    a, b, c, d = checked_unitary(u)
    return PolarizedField(
        grid=field.grid,
        h_plane=a * field.h_plane + b * field.v_plane,
        v_plane=c * field.h_plane + d * field.v_plane,
        space=field.space,
    )


def intensity(field: PolarizedField) -> IntensityImage:
    """Polarization-summed intensity |H|^2 + |V|^2."""
    values = np.abs(field.h_plane) ** 2 + np.abs(field.v_plane) ** 2
    return IntensityImage(grid=field.grid, values=values)


def discrete_means(image: IntensityImage) -> DeflectionTriple:
    """Intensity-weighted <x>, <y>, <x y> in mm from the grid center.

    The single means come from the column and row marginals, the joint
    mean from y @ I @ x; no full-size weighted product is formed.
    """
    values = image.values
    total = values.sum()
    if total <= 0.0:
        raise EmptyImage("image carries no power")
    x, y = position_coords(image.grid)
    x_mean = float(values.sum(axis=0) @ x / total)
    y_mean = float(y @ values.sum(axis=1) / total)
    xy_mean = float(y @ values @ x / total)
    return DeflectionTriple(x_mm=x_mean, y_mm=y_mean, xy_mm2=xy_mean)


def render_pgm(image: IntensityImage) -> bytes:
    """16-bit binary PGM, values scaled so the brightest pixel is 65535."""
    peak = image.values.max()
    if peak > 0.0:
        scaled = np.rint(image.values * (65535.0 / peak))
    else:
        scaled = np.zeros_like(image.values)
    header = f"P5\n{image.grid.nx} {image.grid.ny}\n65535\n".encode("ascii")
    return header + scaled.astype(">u2").tobytes()


def render_raw(image: IntensityImage) -> bytes:
    """Raw dump: magic, u32 sides, f64 pixel pitch, then row-major f64 values."""
    header = b"WMGRID01" + struct.pack(
        "<IId", image.grid.nx, image.grid.ny, image.grid.pixel_um
    )
    return header + image.values.astype("<f8").tobytes()
