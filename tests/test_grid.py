"""Checks for the Fourier-optics grid engine.

The exact Gaussian calculus acts as the oracle for every deflection read off
the grid; image formats are checked by independent byte-level reparsing.
"""

import struct

import numpy as np
import pytest

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
    IntensityImage,
    PolarizedField,
    Space,
    apply_conditional_shift,
    apply_polarization_unitary,
    apply_slm_mask,
    apply_factored_shift,
    apply_factored_unitary,
    discrete_means,
    factored_gaussian,
    factored_means,
    fourier_lens,
    init_gaussian,
    intensity,
    planes,
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


def run_grid_chain(grid, sigma, delta, *elements):
    """Half-wave plates (angles in degrees) and conditional shifts by delta
    (axes), in order, on a horizontally polarized Gaussian beam."""
    field = init_gaussian(grid, sigma, HORIZONTAL)
    for element in elements:
        if isinstance(element, Axis):
            field = apply_conditional_shift(field, delta, element)
        else:
            field = apply_polarization_unitary(field, waveplate_hwp(element))
    return field


def run_grid_train(grid, sigma, delta):
    return run_grid_chain(grid, sigma, delta, 30.0, Axis.X, -30.0, Axis.Y)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=100, ny=256, pixel_um=13.5)
    with pytest.raises(ValueError):
        GridSpec(nx=32, ny=32, pixel_um=13.5)
    with pytest.raises(ValueError):
        GridSpec(nx=256, ny=256, pixel_um=0.0)
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
    field = init_gaussian(GRID, SIGMA, PLUS_SIXTY)
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
        init_gaussian(GridSpec(256, 256, 54.0), SIGMA, HORIZONTAL)
    with pytest.raises(GridTooSmall):
        init_gaussian(GridSpec(64, 64, 13.5), 0.2, HORIZONTAL)


def test_fourier_lens_unitary_and_reciprocal_width():
    field = init_gaussian(GRID, SIGMA, HORIZONTAL)
    far = fourier_lens(field)
    assert far.space is Space.MOMENTUM
    assert field_norm(far) == pytest.approx(1.0, abs=1e-9)

    ex, _ = momentum_coords(GRID)
    profile = np.abs(far.h_plane) ** 2
    var = (profile * ex[None, :] ** 2).sum() / profile.sum()
    assert np.sqrt(var) == pytest.approx(1.0 / (2.0 * SIGMA), rel=1e-3)


def test_fourier_lens_double_is_coordinate_inversion():
    field = init_gaussian(GRID, SIGMA, HORIZONTAL)
    field = apply_conditional_shift(field, 0.4, Axis.X)
    field = apply_conditional_shift(field, 0.2, Axis.Y)
    twice = fourier_lens(fourier_lens(field))
    assert twice.space is Space.POSITION
    flipped = np.roll(field.h_plane[::-1, ::-1], shift=(1, 1), axis=(0, 1))
    assert np.abs(twice.h_plane - flipped).max() < 1e-9


def test_fourier_lens_four_times_is_identity():
    field = init_gaussian(GRID, SIGMA, PLUS_SIXTY)
    field = apply_conditional_shift(field, 0.3, Axis.X)
    out = field
    for _ in range(4):
        out = fourier_lens(out)
    assert out.space is Space.POSITION
    assert np.abs(out.h_plane - field.h_plane).max() < 1e-9
    assert np.abs(out.v_plane - field.v_plane).max() < 1e-9


def test_slm_mask_requires_momentum_space():
    field = init_gaussian(GRID, SIGMA, HORIZONTAL)
    with pytest.raises(WrongSpace):
        apply_slm_mask(field, 5, Axis.X)


def test_slm_mask_validates_grating_parameter():
    far = fourier_lens(init_gaussian(GRID, SIGMA, HORIZONTAL))
    with pytest.raises(ValueError):
        apply_slm_mask(far, -3, Axis.X)
    with pytest.raises(AliasingRisk):
        apply_slm_mask(far, 100, Axis.X)


def test_slm_mask_equals_conditional_shift():
    # One lens into the grating plane plus three more to finish the relay
    # upright equals the direct conditional shift with delta = k * alpha.
    alpha = 10
    start = init_gaussian(GRID, SIGMA, PLUS_SIXTY)
    start = apply_conditional_shift(start, 0.15, Axis.X)  # make it asymmetric

    via_mask = fourier_lens(start)
    via_mask = apply_slm_mask(via_mask, alpha, Axis.X)
    for _ in range(3):
        via_mask = fourier_lens(via_mask)

    direct = apply_conditional_shift(start, SLM_MM_PER_UNIT * alpha, Axis.X)
    assert via_mask.space is Space.POSITION
    assert np.abs(via_mask.h_plane - direct.h_plane).max() < 1e-9
    assert np.abs(via_mask.v_plane - direct.v_plane).max() < 1e-9


def test_conditional_shift_zero_is_identity():
    field = init_gaussian(GRID, SIGMA, PLUS_SIXTY)
    out = apply_conditional_shift(field, 0.0, Axis.X)
    assert np.abs(out.h_plane - field.h_plane).max() < 1e-12
    assert np.abs(out.v_plane - field.v_plane).max() < 1e-12


def test_conditional_shift_moves_h_only():
    field = init_gaussian(GRID, SIGMA, HORIZONTAL)
    out = apply_conditional_shift(field, 0.2, Axis.X)
    assert field_norm(out) == pytest.approx(1.0, abs=1e-9)
    means = discrete_means(intensity(out))
    assert means.x_mm == pytest.approx(0.2, abs=1e-4)
    assert means.y_mm == pytest.approx(0.0, abs=1e-6)

    mixed = init_gaussian(GRID, SIGMA, PLUS_SIXTY)
    shifted = apply_conditional_shift(mixed, 0.3, Axis.X)
    assert np.array_equal(shifted.v_plane, mixed.v_plane)
    assert discrete_means(intensity(shifted)).x_mm == pytest.approx(0.3 / 4.0, abs=1e-4)


def test_conditional_shift_positive_y_moves_up():
    field = init_gaussian(GRID, SIGMA, HORIZONTAL)
    out = apply_conditional_shift(field, 0.5, Axis.Y)
    means = discrete_means(intensity(out))
    assert means.y_mm == pytest.approx(0.5, abs=1e-4)
    row = np.unravel_index(np.argmax(intensity(out).values), (GRID.ny, GRID.nx))[0]
    assert row < GRID.ny // 2


def test_conditional_shift_guards():
    field = init_gaussian(GRID, SIGMA, HORIZONTAL)
    with pytest.raises(ShiftTooLarge):
        apply_conditional_shift(field, GRID.extent_x_mm / 4.0 + 0.01, Axis.X)
    with pytest.raises(WrongSpace):
        apply_conditional_shift(fourier_lens(field), 0.1, Axis.X)


def reference_shift(field, delta_mm, axis):
    """The centered 2-D relay the 1-D shift replaced: unitary centered DFT,
    phase exp(i delta eta) on momentum_coords, centered inverse DFT."""
    n = field.h_plane.size
    spectrum = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(field.h_plane))) * np.sqrt(n)
    eta_x, eta_y = momentum_coords(field.grid)
    if axis is Axis.X:
        spectrum = spectrum * np.exp(1j * delta_mm * eta_x)[None, :]
    else:
        spectrum = spectrum * np.exp(1j * delta_mm * eta_y)[:, None]
    return np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(spectrum))) / np.sqrt(n)


@pytest.mark.parametrize("axis", [Axis.X, Axis.Y])
@pytest.mark.parametrize("delta", [0.37, -0.21, 3 * 0.0135, -1e-3])
def test_conditional_shift_matches_centered_relay(axis, delta):
    # Non-square grid and white-noise planes: every frequency, the Nyquist
    # bins included, carries power, and a swapped axis cannot pass.
    grid = GridSpec(nx=256, ny=128, pixel_um=13.5)
    rng = np.random.default_rng(20190)
    shape = (grid.ny, grid.nx)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    field = PolarizedField(grid=grid, h_plane=h, v_plane=v, space=Space.POSITION)
    out = apply_conditional_shift(field, delta, axis)
    want = reference_shift(field, delta, axis)
    assert np.abs(out.h_plane.real - want.real).max() <= 1e-13
    assert np.abs(out.h_plane.imag - want.imag).max() <= 1e-13
    assert np.array_equal(out.v_plane, field.v_plane)
    assert out.space is Space.POSITION


def test_conditional_shift_rejects_nan():
    field = init_gaussian(GRID, SIGMA, HORIZONTAL)
    for axis in (Axis.X, Axis.Y):
        with pytest.raises(ShiftTooLarge):
            apply_conditional_shift(field, float("nan"), axis)
        with pytest.raises(ShiftTooLarge):
            apply_conditional_shift(field, float("-inf"), axis)


def test_polarization_unitary_on_grid():
    field = init_gaussian(GRID, SIGMA, HORIZONTAL)
    rotated = apply_polarization_unitary(field, waveplate_hwp(30.0))
    assert field_norm(rotated) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(rotated.h_plane - 0.5 * field.h_plane).max() < 1e-12
    assert np.abs(rotated.v_plane - np.sqrt(3.0) / 2.0 * field.h_plane).max() < 1e-12
    with pytest.raises(NonUnitary):
        apply_polarization_unitary(field, np.array([[1.0, 0.0], [0.0, 0.5]]))


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
    field = apply_conditional_shift(init_gaussian(GRID, SIGMA, HORIZONTAL), 0.4, Axis.Y)
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


def test_render_raw_round_trip():
    image = intensity(init_gaussian(GRID, SIGMA, HORIZONTAL))
    blob = render_raw(image)
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
    dense = init_gaussian(grid, SIGMA, PLUS_SIXTY)
    factored = factored_gaussian(grid, SIGMA, PLUS_SIXTY)
    for element in random_chain(rng, 7):
        if isinstance(element, tuple):
            dense = apply_conditional_shift(dense, element[1], element[0])
            factored = apply_factored_shift(factored, element[1], element[0])
        else:
            dense = apply_polarization_unitary(dense, element)
            factored = apply_factored_unitary(factored, element)
    formed = planes(factored)
    assert np.abs(formed.h_plane - dense.h_plane).max() <= 1e-14
    assert np.abs(formed.v_plane - dense.v_plane).max() <= 1e-14
    got, want = factored_means(factored), discrete_means(intensity(dense))
    for a, b in zip((got.x_mm, got.y_mm, got.xy_mm2), (want.x_mm, want.y_mm, want.xy_mm2)):
        assert a == pytest.approx(b, abs=1e-15)


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
