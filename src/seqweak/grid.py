"""Discretized Fourier-optics engine on a polarized 2-D grid.

Both polarization planes live on one square pixel raster.  Pixel (i, j)
sits at position ((j - nx/2) * pixel, (ny/2 - i) * pixel) in millimetres,
so row 0 is the top of the camera image (largest y).  The lens transform
is the centered unitary DFT with synthesis kernel exp(-i eta x); a blazed
grating in the lens focal plane multiplies the H part by a linear phase
exp(i delta eta) and realizes the polarization-conditioned displacement
delta = SLM_MM_PER_UNIT * alpha once the relay returns the field upright.
A conditional shift applies the same displacement directly: a 1-D DFT
along the shift axis only, with the spectral phase in natural (unshifted)
frequency order.  Norms are tracked against the position-space pixel area
throughout.

A field is a sum of rank-1 factors (FactoredField), pol (x) y-profile (x)
x-profile, tagged with the space it lives in.  Plates mix each factor's
(H, V) amplitudes; a shift or a grating splits each factor into its H
part, whose x or y profile moves, and its V part; a lens is the 1-D
centered DFT of every profile, since the 2-D DFT of a product is the
product of the 1-D DFTs.  So a Gaussian beam stays a few factors through
the whole train and the relay, and sweeps read the moments off the factors.
A full ny x nx plane is formed only when something reads h_plane or
v_plane.  The detector image forms its planes in bands of rows that stay
in cache (BAND_BYTES), straight into the one full-size intensity array;
each pixel takes the same operations as on whole planes, so the same bits.
Each grid's pixel coordinates and shift wavenumbers are built once, in small
caches keyed by the frozen GridSpec, and shared read-only.
"""

from __future__ import annotations

import enum
import functools
import numbers
import struct
import sys
from dataclasses import dataclass, replace
from decimal import Decimal

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
# Bytes of one band of a complex128 plane in intensity and render_pgm: 16
# rows at 1024^2, so a band's scratch buffers stay in a core's L2 cache.
BAND_BYTES = 256 * 1024


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
        for name, side in (("nx", self.nx), ("ny", self.ny)):
            if not isinstance(side, numbers.Integral):
                raise ValueError(f"grid side {name} must be an integer, got {side!r}")
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
class FactoredField:
    """Field sum_k pol_k (x) rows_k (x) cols_k in position or momentum space;
    pol (H, V) is k x 2, rows (y profiles, row 0 on top) k x ny, cols
    (x profiles) k x nx.  A shift by a block of d couplings gives the profiles
    it moves a leading axis, d x k x ny or d x k x nx: one field per coupling,
    sharing pol and every profile no coupling moved."""

    grid: GridSpec
    pol: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    space: Space = Space.POSITION

    def _plane(self, p: int, band: slice = slice(None), out: np.ndarray | None = None) -> np.ndarray:
        """rows^T diag(pol[:, p]) cols over the band's rows, into out if given:
        the one place factors become an ny x nx plane or a band of one."""
        return np.matmul(self.rows.T[band] * self.pol[:, p], self.cols, out=out)

    @property
    def h_plane(self) -> np.ndarray:
        return self._plane(0)

    @property
    def v_plane(self) -> np.ndarray:
        return self._plane(1)


@dataclass(frozen=True)
class IntensityImage:
    """Nonnegative camera image on the same raster as the field."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.ny, self.grid.nx):
            raise ValueError("image shape must match the grid")
        if not (values.min() >= 0.0 and np.isfinite(values.max())):  # NaN fails the first test
            raise ValueError("intensity values must be finite and nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _check_sides(grid: GridSpec) -> None:
    """A side's 8-byte coordinate array must fit numpy's array size limit,
    sys.maxsize bytes (numpy's intp is Py_ssize_t), which lies beyond any
    memory.  Checked on the ints, before numpy or a float meets the side;
    Decimal prints a side of any length."""
    if max(grid.nx, grid.ny) > sys.maxsize // 8:
        raise MemoryError(
            f"a {Decimal(grid.nx)}x{Decimal(grid.ny)} grid exceeds numpy's array size limit"
        )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.lru_cache(maxsize=8)
def _coords(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    x = (np.arange(grid.nx) - grid.nx // 2) * grid.pixel_mm
    y = (grid.ny // 2 - np.arange(grid.ny)) * grid.pixel_mm
    return _read_only(x), _read_only(y)


def position_coords(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center coordinates in mm: x per column, y per row (row 0 on top).
    Built once per grid and shared, so read-only."""
    _check_sides(grid)
    return _coords(grid)


def _check_beam(grid: GridSpec, sigma_mm: float) -> None:
    """The grid must fit numpy's arrays, resolve the beam and hold its tails."""
    _check_sides(grid)
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


def factored_gaussian(grid: GridSpec, sigma_mm: float, pol: QubitState) -> FactoredField:
    """Centered Gaussian beam of intensity width sigma in the given polarization,
    as one rank-1 factor normalized on the pixel area."""
    _check_beam(grid, sigma_mm)
    x, y = position_coords(grid)
    cols = np.exp(-(x[None, :] ** 2) / (4.0 * sigma_mm**2))
    rows = np.exp(-(y[None, :] ** 2) / (4.0 * sigma_mm**2))
    scale = 1.0 / np.sqrt((cols**2).sum() * (rows**2).sum() * grid.pixel_area_mm2)
    return FactoredField(grid, np.array([[pol.amp_h, pol.amp_v]]) * scale, rows, cols)


def _centered_dft(profiles: np.ndarray) -> np.ndarray:
    """Unitary centered 1-D DFT of each row, synthesis kernel exp(-i eta x)."""
    out = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(profiles, axes=-1)), axes=-1)
    return out * np.sqrt(profiles.shape[-1])


def fourier_lens(field: FactoredField) -> FactoredField:
    """One ideal lens: the centered unitary 2-D DFT of both planes, which on
    a rank-1 factor is the 1-D DFT of its rows times that of its cols.

    Applying it twice returns the coordinate-inverted field; four
    applications are the identity.
    """
    space = Space.MOMENTUM if field.space is Space.POSITION else Space.POSITION
    return replace(
        field, rows=_centered_dft(field.rows), cols=_centered_dft(field.cols), space=space
    )


@functools.lru_cache(maxsize=8)
def _wavenumbers(grid: GridSpec, axis: Axis) -> np.ndarray:
    """eta along the axis in natural (unshifted) frequency order: integer
    wavenumbers times the momentum step, negated for y, whose rows run
    downwards.  Built once per grid and axis and shared, so read-only."""
    side = grid.nx if axis is Axis.X else grid.ny
    eta = np.fft.fftfreq(side, 1.0 / side) * (2.0 * np.pi / (side * grid.pixel_mm))
    return _read_only(eta if axis is Axis.X else -eta)


def _phase(grid: GridSpec, delta_mm, axis: Axis) -> np.ndarray:
    """exp(i delta eta) along the axis, one row per coupling of a block."""
    return np.exp(1j * np.multiply.outer(delta_mm, _wavenumbers(grid, axis)))


def _act_on_h(field: FactoredField, axis: Axis, act) -> FactoredField:
    """Each factor splits into its H part, whose x (cols) or y (rows) profile
    goes through act, and its V part, which stays; the V part takes any
    leading coupling axis act gave the H part."""
    pol = np.concatenate([field.pol * [1.0, 0.0], field.pol * [0.0, 1.0]])
    rows, cols = (field.rows, field.rows), (field.cols, field.cols)
    if axis is Axis.X:
        moved = act(field.cols)
        cols = (moved, np.broadcast_to(field.cols, moved.shape))
    else:
        moved = act(field.rows)
        rows = (moved, np.broadcast_to(field.rows, moved.shape))
    return FactoredField(
        field.grid, pol, np.concatenate(rows, axis=-2), np.concatenate(cols, axis=-2), field.space
    )


def apply_slm_mask(field: FactoredField, alpha: int, axis: Axis) -> FactoredField:
    """Blazed grating of strength alpha on the H part, in the grating plane.

    The grating tilts the H component by a linear phase exp(i delta eta)
    with delta = SLM_MM_PER_UNIT * alpha, which the downstream relay turns
    into a displacement of delta along the chosen axis.
    """
    if field.space is not Space.MOMENTUM:
        raise WrongSpace("the grating sits in a lens focal plane")
    if not 0 <= alpha < np.inf or alpha != int(alpha):  # NaN fails the first test
        raise ValueError(f"grating parameter must be a nonnegative integer, got {alpha!r}")
    extent = field.grid.extent_x_mm if axis is Axis.X else field.grid.extent_y_mm
    # The phase steps by delta 2 pi / extent per pixel: pi once delta reaches
    # half the extent.  Compared on alpha, before a huge one meets a float.
    limit = extent / (2.0 * SLM_MM_PER_UNIT)
    if not alpha < limit:
        raise AliasingRisk(
            f"grating phase would step by >= pi per pixel (alpha must stay below "
            f"{limit:g} at extent {extent:g} mm)"
        )
    centered = np.fft.fftshift(_phase(field.grid, SLM_MM_PER_UNIT * int(alpha), axis))
    return _act_on_h(field, axis, lambda profiles: profiles * centered)


def _check_shift(grid: GridSpec, delta_mm, axis: Axis) -> None:
    extent = grid.extent_x_mm if axis is Axis.X else grid.extent_y_mm
    size = np.abs(delta_mm)
    if not np.all(size < extent / 4.0):  # NaN fails too
        raise ShiftTooLarge(
            f"|delta| = {np.max(size):g} mm exceeds a quarter of the {extent:g} mm extent"
        )


def apply_factored_shift(field: FactoredField, delta_mm, axis: Axis) -> FactoredField:
    """Displace the H part by +delta along the axis: a 1-D DFT of its x (cols)
    or y (rows) profiles, the axis's spectral phase, the inverse DFT; the V
    part stays.  The same operator, Nyquist bin included, as a lens, a
    matching grating and the rest of the relay.

    delta may be a 1-D array, a block of couplings: the moved profiles then
    take a leading axis, one entry per coupling, while the DFT of profiles
    that carry no such axis runs once for the block.  A zero coupling is the
    identity and keeps the factor count; a block that mixes it with nonzero
    ones sends it through a unit phase, so run Delta = 0 on its own."""
    if field.space is not Space.POSITION:
        raise WrongSpace("conditional shifts act on the position-space field")
    _check_shift(field.grid, delta_mm, axis)
    if not np.any(delta_mm):
        return field
    phase = _phase(field.grid, delta_mm, axis)[..., None, :]
    return _act_on_h(field, axis, lambda profiles: np.fft.fft(np.fft.ifft(profiles) * phase))


def apply_factored_unitary(field: FactoredField, u) -> FactoredField:
    """Mix the H and V amplitudes of every factor with a 2x2 unitary."""
    a, b, c, d = checked_unitary(u)
    h, v = field.pol[:, 0], field.pol[:, 1]
    return replace(field, pol=np.stack([a * h + b * v, c * h + d * v], axis=1))


def init_gaussian(grid: GridSpec, sigma_mm: float, pol: QubitState) -> FactoredField:
    """factored_gaussian, under the name the benchmark's relay op calls and its
    tracer looks up; it goes with ROADMAP item 1."""
    return factored_gaussian(grid, sigma_mm, pol)


def apply_conditional_shift(field: FactoredField, delta_mm: float, axis: Axis) -> FactoredField:
    """apply_factored_shift, under the name the benchmark's relay op calls and
    its tracer looks up; it goes with ROADMAP item 1."""
    return apply_factored_shift(field, delta_mm, axis)


def apply_polarization_unitary(field: FactoredField, u) -> FactoredField:
    """apply_factored_unitary, under the name the benchmark's tracer looks up;
    it goes with ROADMAP item 1."""
    return apply_factored_unitary(field, u)


def _bands(grid: GridSpec) -> list[slice]:
    """Row bands of BAND_BYTES of complex plane (at least one row) covering 0..ny."""
    rows = max(1, BAND_BYTES // (16 * grid.nx))
    return [slice(start, min(start + rows, grid.ny)) for start in range(0, grid.ny, rows)]


def intensity(field: FactoredField) -> IntensityImage:
    """Polarization-summed intensity |H|^2 + |V|^2 of the field's planes,
    formed band by band into the one full-size array through two band-sized
    scratch buffers."""
    bands = _bands(field.grid)
    values = np.empty((field.grid.ny, field.grid.nx))
    shape = (bands[0].stop, field.grid.nx)
    plane_rows = np.empty(shape, np.result_type(field.pol, field.rows, field.cols))
    h_power_rows = np.empty(shape)
    for band in bands:
        n = band.stop - band.start
        plane, h_power, out = plane_rows[:n], h_power_rows[:n], values[band]
        field._plane(0, band, plane)
        np.square(np.abs(plane, out=h_power), out=h_power)
        field._plane(1, band, plane)
        np.square(np.abs(plane, out=out), out=out)
        np.add(h_power, out, out=out)
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


def factored_means(field: FactoredField) -> DeflectionTriple:
    """discrete_means of the factored field's intensity without forming it:
    each pixel sum is sum_kl (pol_k^H pol_l)(rows_k^H Y rows_l)(cols_k^H X cols_l),
    with Y and X the coordinate or one.  Floats for a field; for a block of
    couplings (profiles with a leading axis), arrays with one entry each."""
    if field.space is not Space.POSITION:
        raise WrongSpace("moments are read off the position-space field")
    x, y = position_coords(field.grid)
    pols = field.pol.conj() @ field.pol.T
    # Weighting by 1.0 too keeps the bra a new array: conj() of real profiles
    # is the array itself, and matmul of an array with its own transpose takes
    # BLAS's symmetric product, whose last bits differ.
    rows = [pols * ((field.rows.conj() * w) @ field.rows.mT) for w in (1.0, y)]
    cols = [(field.cols.conj() * w) @ field.cols.mT for w in (1.0, x)]
    (total, x_sum), (y_sum, xy_sum) = [[(r * c).sum(axis=(-2, -1)).real for c in cols] for r in rows]
    if np.any(total <= 0.0):
        raise EmptyImage("image carries no power")
    means = [s / total for s in (x_sum, y_sum, xy_sum)]
    return DeflectionTriple(*(means if np.ndim(total) else map(float, means)))


def render_pgm(image: IntensityImage) -> bytes:
    """16-bit binary PGM, values scaled so the brightest pixel is 65535:
    scaled and rounded band by band, cast into one big-endian u16 buffer."""
    peak = image.values.max()
    pixels = np.zeros(image.values.shape, ">u2")
    if peak > 0.0:
        scale, bands = 65535.0 / peak, _bands(image.grid)
        scaled_rows = np.empty((bands[0].stop, image.grid.nx))
        for band in bands:
            scaled = scaled_rows[: band.stop - band.start]
            np.rint(np.multiply(image.values[band], scale, out=scaled), out=scaled)
            pixels[band] = scaled
    header = f"P5\n{image.grid.nx} {image.grid.ny}\n65535\n".encode("ascii")
    return b"".join((header, pixels))


def render_raw(image: IntensityImage) -> tuple[bytes, np.ndarray]:
    """Raw dump as (header, payload), to be written one after the other:
    magic, u32 sides, f64 pixel pitch, then the row-major f64 values
    themselves, not a copy."""
    header = b"WMGRID01" + struct.pack(
        "<IId", image.grid.nx, image.grid.ny, image.grid.pixel_um
    )
    return header, image.values.astype("<f8", order="C", copy=False)
