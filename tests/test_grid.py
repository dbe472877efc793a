"""Checks for the Fourier-optics grid engine.

The exact Gaussian calculus acts as the oracle for every deflection read off
the grid.  The dense engine the factors replaced is kept here as the oracle
for the factored train and relay: full planes, the 2-D centered DFT for the
lens and the grating on the H plane.  Image formats are checked by
independent byte-level reparsing.
"""

import struct
from typing import NamedTuple

import numpy as np
import pytest

from seqweak import grid as grid_module
from seqweak.errors import (
    AliasingRisk,
    EmptyImage,
    GridTooCoarse,
    GridTooSmall,
    NonUnitary,
    ShiftTooLarge,
    WrongSpace,
)
from seqweak.grid import (
    SLM_MM_PER_UNIT,
    GridSpec,
    FactoredField,
    IntensityImage,
    Space,
    apply_conditional_shift,
    apply_slm_mask,
    apply_factored_shift,
    apply_factored_unitary,
    discrete_means,
    factored_gaussian,
    factored_means,
    fourier_lens,
    init_gaussian,
    intensity,
    position_coords,
    render_pgm,
    render_raw,
)
from seqweak.pointer import (
    Axis,
    apply_coupling,
    apply_polarization,
    closed_form_sequential,
    initial_pointer_state,
)
from seqweak.qubit import HORIZONTAL, PLUS_SIXTY, QubitState, waveplate_hwp

GRID = GridSpec(nx=256, ny=256, pixel_um=13.5)
SIGMA = 0.1116


def field_norm(field):
    """Total power against the position-space pixel area."""
    return float(intensity(field).values.sum() * field.grid.pixel_area_mm2)


def momentum_coords(grid):
    """Centered conjugate coordinates in rad/mm, oriented like the position axes."""
    step_x = 2.0 * np.pi / (grid.nx * grid.pixel_mm)
    step_y = 2.0 * np.pi / (grid.ny * grid.pixel_mm)
    eta_x = (np.arange(grid.nx) - grid.nx // 2) * step_x
    eta_y = (grid.ny // 2 - np.arange(grid.ny)) * step_y
    return eta_x, eta_y


def parse_pgm(data):
    assert data.startswith(b"P5\n")
    dims, rest = data[3:].split(b"\n", 1)
    width, height = map(int, dims.split())
    maxval, payload = rest.split(b"\n", 1)
    assert int(maxval) == 65535
    return np.frombuffer(payload, dtype=">u2").reshape(height, width)


class DenseField(NamedTuple):
    """The dense engine's field: full H and V planes on the grid."""

    grid: GridSpec
    h_plane: np.ndarray
    v_plane: np.ndarray


def dense_intensity(field):
    """The dense engine's readout: |H|^2 + |V|^2 of the whole planes at once."""
    values = np.abs(field.h_plane) ** 2 + np.abs(field.v_plane) ** 2
    return IntensityImage(grid=field.grid, values=values)


def dense_gaussian(grid, sigma, pol):
    """Centered Gaussian beam of intensity width sigma, normalized on the pixel area."""
    x, y = position_coords(grid)
    plane = np.exp(-(y[:, None] ** 2 + x[None, :] ** 2) / (4.0 * sigma**2))
    plane /= np.sqrt((plane**2).sum() * grid.pixel_area_mm2)
    return DenseField(grid, pol.amp_h * plane, pol.amp_v * plane)


def dense_unitary(field, u):
    (a, b), (c, d) = np.asarray(u, dtype=complex)
    h, v = field.h_plane, field.v_plane
    return field._replace(h_plane=a * h + b * v, v_plane=c * h + d * v)


def dense_shift(field, delta, axis):
    """The H plane moved by delta: a 1-D DFT along the axis, the phase
    exp(i delta eta) in natural frequency order, the inverse DFT."""
    if delta == 0.0:
        return field
    eta_x, eta_y = momentum_coords(field.grid)
    dim = 1 if axis is Axis.X else 0
    phase = np.exp(1j * delta * np.fft.ifftshift(eta_x if axis is Axis.X else eta_y))
    spectrum = np.fft.ifft(field.h_plane, axis=dim) * np.expand_dims(phase, 1 - dim)
    return field._replace(h_plane=np.fft.fft(spectrum, axis=dim))


def centered_dft(plane):
    """The lens: unitary centered 2-D DFT with synthesis kernel exp(-i eta x)."""
    return np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(plane))) * np.sqrt(plane.size)


def grating_phase(grid, delta, axis):
    """exp(i delta eta) on momentum_coords, shaped to multiply a plane."""
    eta_x, eta_y = momentum_coords(grid)
    if axis is Axis.X:
        return np.exp(1j * delta * eta_x)[None, :]
    return np.exp(1j * delta * eta_y)[:, None]


def dense_relay(field, alpha, axis):
    """A lens, the grating of strength alpha on the H plane, three more lenses."""
    h = centered_dft(field.h_plane) * grating_phase(field.grid, SLM_MM_PER_UNIT * alpha, axis)
    v = centered_dft(field.v_plane)
    for _ in range(3):
        h, v = centered_dft(h), centered_dft(v)
    return DenseField(field.grid, h, v)


def run_grid_chain(grid, sigma, delta, *elements):
    """Half-wave plates (angles in degrees) and conditional shifts by delta
    (axes), in order, on a horizontally polarized Gaussian beam, on the
    dense engine."""
    field = dense_gaussian(grid, sigma, HORIZONTAL)
    for element in elements:
        if isinstance(element, Axis):
            field = dense_shift(field, delta, element)
        else:
            field = dense_unitary(field, waveplate_hwp(element))
    return field


def run_grid_train(grid, sigma, delta):
    """The sequential train on the factored engine."""
    field = apply_factored_unitary(factored_gaussian(grid, sigma, HORIZONTAL), waveplate_hwp(30.0))
    field = apply_factored_shift(field, delta, Axis.X)
    field = apply_factored_unitary(field, waveplate_hwp(-30.0))
    return apply_factored_shift(field, delta, Axis.Y)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=100, ny=256, pixel_um=13.5)
    with pytest.raises(ValueError):
        GridSpec(nx=32, ny=32, pixel_um=13.5)
    with pytest.raises(ValueError):
        GridSpec(nx=256, ny=256, pixel_um=0.0)
    with pytest.raises(ValueError, match="grid side nx must be an integer, got 256.0"):
        GridSpec(256.0, 256, 13.5)
    with pytest.raises(ValueError, match="grid side ny must be an integer"):
        GridSpec(256, np.float64(128.0), 13.5)
    assert GridSpec(np.int64(256), np.int32(128), 13.5).ny == 128
    assert GRID.extent_x_mm == pytest.approx(256 * 0.0135)


def test_coordinate_conventions():
    x, y = position_coords(GRID)
    assert x[GRID.nx // 2] == 0.0
    assert x[GRID.nx // 2 + 1] == pytest.approx(0.0135)
    assert y[0] == pytest.approx(GRID.ny // 2 * 0.0135)
    assert y[1] < y[0]
    ex, ey = momentum_coords(GRID)
    assert ex[GRID.nx // 2] == 0.0
    step = 2.0 * np.pi / (GRID.nx * 0.0135)
    assert ex[GRID.nx // 2 + 1] == pytest.approx(step)
    assert ey[0] == pytest.approx(GRID.ny // 2 * step)


def test_init_gaussian_norm_and_width():
    field = factored_gaussian(GRID, SIGMA, PLUS_SIXTY)
    assert field.space is Space.POSITION
    assert field_norm(field) == pytest.approx(1.0, abs=1e-9)

    image = intensity(field)
    x, y = position_coords(GRID)
    total = image.values.sum()
    var_x = (image.values * x[None, :] ** 2).sum() / total
    assert np.sqrt(var_x) == pytest.approx(SIGMA, rel=5e-3)
    var_y = (image.values * (y[:, None] ** 2)).sum() / total
    assert np.sqrt(var_y) == pytest.approx(SIGMA, rel=5e-3)


def test_init_gaussian_rejects_bad_grids():
    with pytest.raises(GridTooCoarse):
        factored_gaussian(GridSpec(256, 256, 54.0), SIGMA, HORIZONTAL)
    with pytest.raises(GridTooSmall):
        factored_gaussian(GridSpec(64, 64, 13.5), 0.2, HORIZONTAL)


@pytest.mark.parametrize("power", [60, 63, 64, 1024])
def test_sides_beyond_numpy_array_size_are_refused_on_the_ints(power):
    # At 2^63 np.arange returns an empty array, and at 2^1024 the extent
    # overflows the float conversion; the refusal precedes both.
    grid = GridSpec(2**power, 64, 13.5)
    for call in (lambda: position_coords(grid), lambda: factored_gaussian(grid, SIGMA, HORIZONTAL)):
        with pytest.raises(MemoryError, match=f"a {2**power}x64 grid exceeds numpy's array size limit"):
            call()


def test_coordinates_and_wavenumbers_are_built_once_per_grid_and_read_only():
    # Equal GridSpecs share one set of arrays; another pitch or axis has its
    # own, and a refused grid never reaches the cache.
    wavenumbers = grid_module._wavenumbers
    same, other = GridSpec(256, 256, 13.5), GridSpec(256, 256, 27.0)
    assert all(a is b for a, b in zip(position_coords(GRID), position_coords(same)))
    assert not any(a is b for a, b in zip(position_coords(GRID), position_coords(other)))
    assert wavenumbers(GRID, Axis.X) is wavenumbers(same, Axis.X)
    assert wavenumbers(GRID, Axis.X) is not wavenumbers(other, Axis.X)
    assert wavenumbers(GRID, Axis.Y) is not wavenumbers(GRID, Axis.X)
    np.testing.assert_array_equal(wavenumbers(GRID, Axis.Y), -wavenumbers(GRID, Axis.X))
    for array in (*position_coords(GRID), wavenumbers(GRID, Axis.X), wavenumbers(GRID, Axis.Y)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    misses = grid_module._coords.cache_info().misses
    with pytest.raises(MemoryError):
        position_coords(GridSpec(2**63, 64, 13.5))
    assert grid_module._coords.cache_info().misses == misses


def test_fourier_lens_unitary_and_reciprocal_width():
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    far = fourier_lens(field)
    assert far.space is Space.MOMENTUM
    assert field_norm(far) == pytest.approx(1.0, abs=1e-9)

    ex, _ = momentum_coords(GRID)
    profile = np.abs(far.h_plane) ** 2
    var = (profile * ex[None, :] ** 2).sum() / profile.sum()
    assert np.sqrt(var) == pytest.approx(1.0 / (2.0 * SIGMA), rel=1e-3)


def test_fourier_lens_double_is_coordinate_inversion():
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    field = apply_factored_shift(field, 0.4, Axis.X)
    field = apply_factored_shift(field, 0.2, Axis.Y)
    twice = fourier_lens(fourier_lens(field))
    assert twice.space is Space.POSITION
    flipped = np.roll(field.h_plane[::-1, ::-1], shift=(1, 1), axis=(0, 1))
    assert np.abs(twice.h_plane - flipped).max() < 1e-9


def test_fourier_lens_four_times_is_identity():
    field = factored_gaussian(GRID, SIGMA, PLUS_SIXTY)
    field = apply_factored_shift(field, 0.3, Axis.X)
    out = field
    for _ in range(4):
        out = fourier_lens(out)
    assert out.space is Space.POSITION
    assert np.abs(out.h_plane - field.h_plane).max() < 1e-9
    assert np.abs(out.v_plane - field.v_plane).max() < 1e-9


def test_slm_mask_requires_momentum_space():
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    with pytest.raises(WrongSpace):
        apply_slm_mask(field, 5, Axis.X)


def test_slm_mask_validates_grating_parameter():
    far = fourier_lens(factored_gaussian(GRID, SIGMA, HORIZONTAL))
    for bad in (-3, 2.5, float("nan"), float("inf"), float("-inf")):
        for axis in (Axis.X, Axis.Y):
            with pytest.raises(ValueError, match="grating parameter"):
                apply_slm_mask(far, bad, axis)
    # The pi-per-pixel bound sits at alpha = extent / (2 * 0.0237 mm) = 72.9;
    # an alpha past the float range is refused like one just past the bound.
    for axis in (Axis.X, Axis.Y):
        assert apply_slm_mask(far, 72, axis).space is Space.MOMENTUM
        for alpha in (73, 100, 10**400):
            with pytest.raises(AliasingRisk, match="alpha must stay below 72.9114"):
                apply_slm_mask(far, alpha, axis)


def test_intensity_image_checks_its_shape_and_sign():
    with pytest.raises(ValueError, match="shape must match the grid"):
        IntensityImage(grid=GRID, values=np.zeros((GRID.ny, GRID.nx // 2)))
    values = np.zeros((GRID.ny, GRID.nx))
    values[3, 5] = -1e-300
    with pytest.raises(ValueError, match="nonnegative"):
        IntensityImage(grid=GRID, values=values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_intensity_image_refuses_non_finite_pixels(bad):
    # min() < 0 is false for NaN, and inf is nonnegative: both need their own test.
    values = np.ones((GRID.ny, GRID.nx))
    values[7, 11] = bad
    with pytest.raises(ValueError, match="finite and nonnegative"):
        IntensityImage(grid=GRID, values=values)


def test_slm_mask_equals_conditional_shift():
    # One lens into the grating plane plus three more to finish the relay
    # upright equals the direct conditional shift with delta = k * alpha.
    alpha = 10
    start = factored_gaussian(GRID, SIGMA, PLUS_SIXTY)
    start = apply_factored_shift(start, 0.15, Axis.X)  # make it asymmetric

    via_mask = fourier_lens(start)
    via_mask = apply_slm_mask(via_mask, alpha, Axis.X)
    for _ in range(3):
        via_mask = fourier_lens(via_mask)

    direct = apply_factored_shift(start, SLM_MM_PER_UNIT * alpha, Axis.X)
    assert via_mask.space is Space.POSITION
    assert np.abs(via_mask.h_plane - direct.h_plane).max() < 1e-9
    assert np.abs(via_mask.v_plane - direct.v_plane).max() < 1e-9


def test_conditional_shift_zero_is_identity():
    field = factored_gaussian(GRID, SIGMA, PLUS_SIXTY)
    out = apply_factored_shift(field, 0.0, Axis.X)
    assert np.abs(out.h_plane - field.h_plane).max() < 1e-12
    assert np.abs(out.v_plane - field.v_plane).max() < 1e-12


def test_conditional_shift_moves_h_only():
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    out = apply_factored_shift(field, 0.2, Axis.X)
    assert field_norm(out) == pytest.approx(1.0, abs=1e-9)
    means = discrete_means(intensity(out))
    assert means.x_mm == pytest.approx(0.2, abs=1e-4)
    assert means.y_mm == pytest.approx(0.0, abs=1e-6)

    mixed = factored_gaussian(GRID, SIGMA, PLUS_SIXTY)
    shifted = apply_factored_shift(mixed, 0.3, Axis.X)
    assert np.array_equal(shifted.v_plane, mixed.v_plane)
    assert discrete_means(intensity(shifted)).x_mm == pytest.approx(0.3 / 4.0, abs=1e-4)


def test_conditional_shift_positive_y_moves_up():
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    out = apply_factored_shift(field, 0.5, Axis.Y)
    means = discrete_means(intensity(out))
    assert means.y_mm == pytest.approx(0.5, abs=1e-4)
    row = np.unravel_index(np.argmax(intensity(out).values), (GRID.ny, GRID.nx))[0]
    assert row < GRID.ny // 2


def test_conditional_shift_guards():
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    with pytest.raises(ShiftTooLarge):
        apply_factored_shift(field, GRID.extent_x_mm / 4.0 + 0.01, Axis.X)
    with pytest.raises(WrongSpace):
        apply_factored_shift(fourier_lens(field), 0.1, Axis.X)


def reference_shift(grid, plane, delta_mm, axis):
    """The centered 2-D relay the 1-D shift replaced: the lens, the phase
    exp(i delta eta) on momentum_coords, the inverse lens."""
    spectrum = centered_dft(plane) * grating_phase(grid, delta_mm, axis)
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(spectrum))) / np.sqrt(plane.size)


@pytest.mark.parametrize("axis", [Axis.X, Axis.Y])
@pytest.mark.parametrize("delta", [0.37, -0.21, 3 * 0.0135, -1e-3])
def test_conditional_shift_matches_centered_relay(axis, delta):
    # Non-square grid and random rank-3 factors of white noise: every
    # frequency, the Nyquist bins included, carries power, and a swapped
    # axis cannot pass.
    grid = GridSpec(nx=256, ny=128, pixel_um=13.5)
    rng = np.random.default_rng(20190)

    def noise(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    field = FactoredField(grid, noise(3, 2), noise(3, grid.ny), noise(3, grid.nx))
    out = apply_factored_shift(field, delta, axis)
    want = reference_shift(grid, field.h_plane, delta, axis)
    assert np.abs(out.h_plane.real - want.real).max() <= 1e-13
    assert np.abs(out.h_plane.imag - want.imag).max() <= 1e-13
    assert np.array_equal(out.v_plane, field.v_plane)
    assert out.space is Space.POSITION


def test_conditional_shift_rejects_nan():
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    for axis in (Axis.X, Axis.Y):
        with pytest.raises(ShiftTooLarge):
            apply_factored_shift(field, float("nan"), axis)
        with pytest.raises(ShiftTooLarge):
            apply_factored_shift(field, float("-inf"), axis)


def test_polarization_unitary_on_grid():
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    rotated = apply_factored_unitary(field, waveplate_hwp(30.0))
    assert field_norm(rotated) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(rotated.h_plane - 0.5 * field.h_plane).max() < 1e-12
    assert np.abs(rotated.v_plane - np.sqrt(3.0) / 2.0 * field.h_plane).max() < 1e-12
    with pytest.raises(NonUnitary):
        apply_factored_unitary(field, np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_discrete_means_empty_image():
    zeros = IntensityImage(grid=GRID, values=np.zeros((GRID.ny, GRID.nx)))
    with pytest.raises(EmptyImage):
        discrete_means(zeros)


def test_discrete_means_matches_weighted_products():
    grid = GridSpec(nx=128, ny=64, pixel_um=13.5)
    x, y = position_coords(grid)
    rng = np.random.default_rng(3)
    blob = np.exp(-((x[None, :] - 0.3) ** 2 + (y[:, None] + 0.2) ** 2) / 0.1)
    values = rng.random((grid.ny, grid.nx)) * blob
    weights = values / values.sum()
    means = discrete_means(IntensityImage(grid=grid, values=values))
    assert means.x_mm == pytest.approx((weights * x[None, :]).sum(), rel=1e-14)
    assert means.y_mm == pytest.approx((weights * y[:, None]).sum(), rel=1e-14)
    assert means.xy_mm2 == pytest.approx((weights * (x[None, :] * y[:, None])).sum(), rel=1e-14)


def test_grid_train_matches_calculus():
    for delta in (0.0, 0.15, 0.331, 0.6):
        means = discrete_means(intensity(run_grid_train(GRID, SIGMA, delta)))
        want = closed_form_sequential(delta, SIGMA)
        assert means.x_mm == pytest.approx(want.x_mm, abs=1e-3)
        assert means.y_mm == pytest.approx(want.y_mm, abs=1e-3)
        assert means.xy_mm2 == pytest.approx(want.xy_mm2, abs=1e-4)


def test_grid_train_norm_preserved():
    field = run_grid_train(GRID, SIGMA, 0.4)
    assert field_norm(field) == pytest.approx(1.0, abs=1e-9)


def test_four_lobe_weights_at_strong_coupling():
    sigma, delta = 0.06, 0.6
    image = intensity(run_grid_train(GRID, sigma, delta))
    x, y = position_coords(GRID)
    col_hi = x[None, :] > delta / 2.0
    row_hi = y[:, None] > delta / 2.0
    total = image.values.sum()
    weights = {
        (1, 1): image.values[row_hi & col_hi].sum() / total,
        (0, 1): image.values[row_hi & ~col_hi].sum() / total,
        (1, 0): image.values[~row_hi & col_hi].sum() / total,
        (0, 0): image.values[~row_hi & ~col_hi].sum() / total,
    }
    assert weights[(1, 1)] == pytest.approx(1.0 / 16.0, abs=0.01)
    assert weights[(0, 1)] == pytest.approx(9.0 / 16.0, abs=0.01)
    assert weights[(1, 0)] == pytest.approx(3.0 / 16.0, abs=0.01)
    assert weights[(0, 0)] == pytest.approx(3.0 / 16.0, abs=0.01)


def test_refinement_improves_or_hits_float_floor():
    sigma, delta = 0.22, 0.3
    want = closed_form_sequential(delta, sigma).xy_mm2
    coarse = discrete_means(intensity(run_grid_train(GridSpec(128, 128, 54.0), sigma, delta)))
    fine = discrete_means(intensity(run_grid_train(GridSpec(256, 256, 27.0), sigma, delta)))
    err_coarse = abs(coarse.xy_mm2 - want)
    err_fine = abs(fine.xy_mm2 - want)
    assert err_fine <= err_coarse / 2.0 or max(err_fine, err_coarse) < 1e-12


def test_render_pgm_round_trip():
    field = apply_factored_shift(factored_gaussian(GRID, SIGMA, HORIZONTAL), 0.4, Axis.Y)
    image = intensity(field)
    data = render_pgm(image)
    parsed = parse_pgm(data)
    assert parsed.shape == (GRID.ny, GRID.nx)
    assert parsed.max() == 65535

    scale = 65535.0 / image.values.max()
    expected = np.rint(image.values * scale).astype(np.uint16)
    assert np.array_equal(parsed, expected)

    # Beam sits at +y, so the brightest pixel must land in the upper rows.
    row = np.unravel_index(np.argmax(parsed), parsed.shape)[0]
    assert row < GRID.ny // 2


def test_render_pgm_all_dark_image():
    zeros = IntensityImage(grid=GRID, values=np.zeros((GRID.ny, GRID.nx)))
    parsed = parse_pgm(render_pgm(zeros))
    assert parsed.max() == 0


@pytest.mark.parametrize("band_bytes", [None, 1, 3 * 16 * 128], ids=["default", "1-row", "3-row"])
def test_render_pgm_is_the_whole_image_scaled_at_once(band_bytes, monkeypatch):
    # Bands of 1 row and of 3 rows (which do not divide 64) on a non-square
    # grid: the banded scaling must give the bytes of the one-shot expression.
    if band_bytes is not None:
        monkeypatch.setattr(grid_module, "BAND_BYTES", band_bytes)
    grid = GridSpec(nx=128, ny=64, pixel_um=13.5)
    rng = np.random.default_rng(11)
    header = b"P5\n128 64\n65535\n"
    for values in (rng.random((64, 128)) ** 3, np.zeros((64, 128))):
        image = IntensityImage(grid=grid, values=values)
        peak = values.max()
        if peak > 0.0:
            want = np.rint(values * (65535.0 / peak)).astype(">u2")
        else:
            want = np.zeros(values.shape, ">u2")
        assert render_pgm(image) == header + want.tobytes()


def test_render_raw_round_trip():
    image = intensity(factored_gaussian(GRID, SIGMA, HORIZONTAL))
    header, payload = render_raw(image)
    assert np.shares_memory(payload, image.values)  # written as it is, not copied
    blob = header + bytes(payload)
    assert blob[:8] == b"WMGRID01"
    nx, ny, pixel_um = struct.unpack("<IId", blob[8:24])
    assert (nx, ny) == (GRID.nx, GRID.ny)
    assert pixel_um == 13.5
    payload = np.frombuffer(blob[24:], dtype="<f8").reshape(ny, nx)
    assert np.array_equal(payload, image.values)


def random_chain(rng, count):
    """Random complex 2x2 unitaries (not symmetric, unlike a half-wave plate)
    and shifts of either sign along random axes."""
    chain = []
    for _ in range(count):
        if rng.random() < 0.5:
            chain.append(np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0])
        else:
            chain.append((Axis.X if rng.random() < 0.5 else Axis.Y, float(rng.uniform(-0.4, 0.4))))
    return chain


@pytest.mark.parametrize("seed", range(6))
def test_factored_engine_matches_dense_planes(seed):
    # Non-square grid, PLUS_SIXTY input and random chains: the factors must
    # stand for the dense engine's planes, and the factored moments must be
    # its discrete_means.
    grid = GridSpec(nx=256, ny=128, pixel_um=13.5)
    rng = np.random.default_rng(seed)
    dense = dense_gaussian(grid, SIGMA, PLUS_SIXTY)
    factored = factored_gaussian(grid, SIGMA, PLUS_SIXTY)
    for element in random_chain(rng, 7):
        if isinstance(element, tuple):
            dense = dense_shift(dense, element[1], element[0])
            factored = apply_factored_shift(factored, element[1], element[0])
        else:
            dense = dense_unitary(dense, element)
            factored = apply_factored_unitary(factored, element)
    assert np.abs(factored.h_plane - dense.h_plane).max() <= 1e-14
    assert np.abs(factored.v_plane - dense.v_plane).max() <= 1e-14
    got, want = factored_means(factored), discrete_means(dense_intensity(dense))
    for a, b in zip((got.x_mm, got.y_mm, got.xy_mm2), (want.x_mm, want.y_mm, want.xy_mm2)):
        assert a == pytest.approx(b, abs=1e-15)


# The factored relay against the dense one, relative to the peak amplitude:
# a bound stated before it was measured, a few ulps of log2(N) FFT stages.
RELAY_AGREEMENT = 1e-14


@pytest.mark.parametrize(
    "grid, axis",
    [
        (GridSpec(256, 128, 13.5), Axis.X),
        (GridSpec(256, 128, 13.5), Axis.Y),
        (GridSpec(1024, 1024, 13.5), Axis.X),
        (GridSpec(1024, 1024, 13.5), Axis.Y),
    ],
    ids=["256x128-x", "256x128-y", "1024-x", "1024-y"],
)
def test_factored_relay_matches_dense_relay(grid, axis):
    # An asymmetric start (already shifted along both axes) on a non-square
    # grid: a lens or a grating on the wrong profile cannot pass.
    start = apply_factored_shift(factored_gaussian(grid, SIGMA, PLUS_SIXTY), 0.15, Axis.X)
    start = apply_factored_shift(start, -0.1, Axis.Y)
    routed = apply_slm_mask(fourier_lens(start), 10, axis)
    for _ in range(3):
        routed = fourier_lens(routed)
    assert routed.space is Space.POSITION
    want = dense_relay(DenseField(grid, start.h_plane, start.v_plane), 10, axis)
    peak = np.abs(want.h_plane).max()
    assert np.abs(routed.h_plane - want.h_plane).max() <= RELAY_AGREEMENT * peak
    assert np.abs(routed.v_plane - want.v_plane).max() <= RELAY_AGREEMENT * peak


def test_relay_never_forms_a_plane(monkeypatch):
    # A 65536^2 plane of complex128 is 64 GiB; the relay must run on factors.
    def refuse(*args, **kwargs):
        raise AssertionError("the relay must not form a full plane")

    monkeypatch.setattr(FactoredField, "_plane", refuse)
    huge = GridSpec(65536, 65536, 13.5)
    beam = factored_gaussian(huge, SIGMA, PLUS_SIXTY)
    for axis in (Axis.X, Axis.Y):
        routed = apply_slm_mask(fourier_lens(beam), 10, axis)
        for _ in range(3):
            routed = fourier_lens(routed)
        shifted = apply_factored_shift(beam, SLM_MM_PER_UNIT * 10, axis)
        assert routed.space is Space.POSITION
        for got, want in zip((routed.pol, routed.rows, routed.cols), (shifted.pol, shifted.rows, shifted.cols)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        means = factored_means(routed)
        moved = (means.x_mm, means.y_mm)[axis is Axis.Y]
        assert moved == pytest.approx(SLM_MM_PER_UNIT * 10 / 4.0, abs=1e-12)


def test_moments_need_the_position_space_field():
    far = fourier_lens(factored_gaussian(GRID, SIGMA, PLUS_SIXTY))
    with pytest.raises(WrongSpace):
        factored_means(far)
    with pytest.raises(WrongSpace):
        apply_factored_shift(far, 0.1, Axis.Y)


def test_factored_shift_splits_each_factor_once():
    beam = apply_factored_unitary(factored_gaussian(GRID, SIGMA, HORIZONTAL), waveplate_hwp(30.0))
    assert apply_factored_shift(beam, 0.0, Axis.X) is beam
    once = apply_factored_shift(beam, 0.2, Axis.X)
    twice = apply_factored_shift(once, 0.2, Axis.Y)
    assert [len(f.pol) for f in (beam, once, twice)] == [1, 2, 4]
    assert (once.rows.shape, once.cols.shape) == ((2, GRID.ny), (2, GRID.nx))
    assert np.array_equal(once.rows[0], beam.rows[0]) and np.array_equal(once.cols[1], beam.cols[0])


def test_calculus_terms_are_the_grid_factors():
    # Both engines run one algebra: after every element of the (25, -35) deg
    # sequential train, the calculus's nonzero (h, v) pairs are the factored
    # field's nonzero polarization rows, up to the beam's normalization.
    state = initial_pointer_state(HORIZONTAL, SIGMA)
    field = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    scale = field.pol[0, 0]
    counts = []
    for element in (25.0, Axis.X, -35.0, Axis.Y):
        if isinstance(element, Axis):
            state = apply_coupling(state, 0.2, element)
            field = apply_factored_shift(field, 0.2, element)
        else:
            state = apply_polarization(state, waveplate_hwp(element))
            field = apply_factored_unitary(field, waveplate_hwp(element))
        calculus = [(h, v) for h, v, _, _ in state.terms if h or v]
        rows = [row / scale for row in field.pol if row.any()]
        assert len(calculus) == len(rows)
        for h, v in calculus:
            matches = [i for i, row in enumerate(rows) if np.abs(row - [h, v]).max() <= 1e-12]
            assert matches, (h, v)
            rows.pop(matches[0])
        counts.append(len(calculus))
    assert counts == [1, 2, 2, 4]


def test_factored_means_of_an_empty_field():
    beam = factored_gaussian(GRID, SIGMA, HORIZONTAL)
    dark = type(beam)(beam.grid, np.zeros_like(beam.pol), beam.rows, beam.cols)
    with pytest.raises(EmptyImage):
        factored_means(dark)


def test_both_engines_refuse_the_same_inputs_alike():
    # The names the benchmark calls (init_gaussian, apply_conditional_shift)
    # refuse what the factored verbs they stand for refuse, word for word.
    cases = [
        (GridSpec(256, 256, 54.0), SIGMA, 0.1, GridTooCoarse),
        (GridSpec(64, 64, 13.5), 0.2, 0.1, GridTooSmall),
        (GRID, 0.0, 0.1, ValueError),
        (GRID, SIGMA, GRID.extent_x_mm / 4.0 + 0.01, ShiftTooLarge),
        (GRID, SIGMA, float("nan"), ShiftTooLarge),
        (GRID, SIGMA, float("-inf"), ShiftTooLarge),
    ]
    for grid, sigma, delta, error in cases:
        for axis in (Axis.X, Axis.Y):
            messages = []
            for start, shift in (
                (init_gaussian, apply_conditional_shift),
                (factored_gaussian, apply_factored_shift),
            ):
                with pytest.raises(error) as raised:
                    shift(start(grid, sigma, HORIZONTAL), delta, axis)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
