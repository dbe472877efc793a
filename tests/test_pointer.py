"""Checks for the Gaussian pointer calculus.

Oracles used here, all independent of the library internals:
  - trapezoid quadrature of the Gaussian kernels for overlaps and moments,
  - a brute-force term-bookkeeping expansion of the two-coupling chain,
  - scipy root finding for the threshold and stationarity conditions,
  - the calculus's pair sums as first written (numpy scalars, one np.exp per
    overlap), which the package must match bit for bit; its two Gaussian
    kernels are checked against quadrature here.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from seqweak.errors import NonUnitary, OutOfFloatRange
from seqweak.grid import (
    GridSpec,
    apply_factored_unitary,
    apply_polarization_unitary,
    factored_gaussian,
    init_gaussian,
)
from seqweak.pointer import (
    Axis,
    DeflectionTriple,
    GaussianSuperposition,
    anomaly_threshold,
    apply_coupling,
    apply_polarization,
    closed_form_sequential,
    closed_form_single_coupling,
    closed_form_two_qubit,
    initial_pointer_state,
    max_reversal_delta,
    moments,
    stationary_t,
)
from seqweak.qubit import HORIZONTAL, waveplate_hwp

SQ3 = np.sqrt(3.0)

sigmas = st.floats(min_value=0.02, max_value=3.0, allow_nan=False)
ratios = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)


def gauss_amp(x, shift, sigma):
    """Normalized Gaussian amplitude, intensity standard deviation sigma."""
    norm = (2.0 * np.pi * sigma**2) ** -0.25
    return norm * np.exp(-((x - shift) ** 2) / (4.0 * sigma**2))


def quad_overlap(a, b, sigma, weight=None):
    lim = max(abs(a), abs(b)) + 12.0 * sigma
    x = np.linspace(-lim, lim, 4001)
    w = np.ones_like(x) if weight is None else weight(x)
    return np.trapezoid(gauss_amp(x, a, sigma) * w * gauss_amp(x, b, sigma), x)


def overlap(a, b, sigma):
    """Overlap <phi_a|phi_b> of two width-sigma Gaussians."""
    return float(np.exp(-((a - b) ** 2) / (8.0 * sigma**2)))


def first_moment(a, b, sigma):
    """Matrix element <phi_a|x|phi_b> of two width-sigma Gaussians."""
    return 0.5 * (a + b) * overlap(a, b, sigma)


def brute_chain_terms(delta):
    """Term bookkeeping for HWP(30) -> X coupling -> HWP(-30) -> Y coupling."""
    hwp30 = np.array([[0.5, SQ3 / 2], [SQ3 / 2, -0.5]])
    hwp_m30 = np.array([[0.5, -SQ3 / 2], [-SQ3 / 2, -0.5]])

    def pol(terms, u):
        out = {}
        for (p, sx, sy), c in terms.items():
            col = 0 if p == "H" else 1
            for row, q in enumerate("HV"):
                out[(q, sx, sy)] = out.get((q, sx, sy), 0j) + c * u[row, col]
        return {k: v for k, v in out.items() if abs(v) > 1e-14}

    def shift_h(terms, axis, d):
        out = {}
        for (p, sx, sy), c in terms.items():
            if p == "H":
                sx, sy = (sx + d, sy) if axis == "x" else (sx, sy + d)
            out[(p, sx, sy)] = out.get((p, sx, sy), 0j) + c
        return out

    terms = {("H", 0.0, 0.0): 1.0 + 0j}
    terms = pol(terms, hwp30)
    terms = shift_h(terms, "x", delta)
    terms = pol(terms, hwp_m30)
    terms = shift_h(terms, "y", delta)
    return terms


def quad_moments(terms, sigma, delta):
    """2-D trapezoid quadrature of <x>, <y>, <xy> for a term dictionary."""
    lim = delta + 10.0 * sigma
    x = np.linspace(-lim, lim, 701)
    y = np.linspace(-lim, lim, 701)
    xg, yg = np.meshgrid(x, y, indexing="xy")
    planes = {"H": np.zeros_like(xg, dtype=complex), "V": np.zeros_like(xg, dtype=complex)}
    for (p, sx, sy), c in terms.items():
        planes[p] += c * gauss_amp(xg, sx, sigma) * gauss_amp(yg, sy, sigma)
    density = abs(planes["H"]) ** 2 + abs(planes["V"]) ** 2

    def integrate(values):
        return np.trapezoid(np.trapezoid(values, x, axis=1), y)

    total = integrate(density)
    return (
        integrate(density * xg) / total,
        integrate(density * yg) / total,
        integrate(density * xg * yg) / total,
    )


def run_chain(sigma, delta, *elements):
    """Half-wave plates (angles in degrees) and couplings of strength delta
    (axes), in order, on the horizontally polarized pointer of width sigma."""
    state = initial_pointer_state(HORIZONTAL, sigma)
    for element in elements:
        if isinstance(element, Axis):
            state = apply_coupling(state, delta, element)
        else:
            state = apply_polarization(state, waveplate_hwp(element))
    return state


def run_sequential_chain(sigma, delta, prep_deg=30.0, mid_deg=-30.0):
    return run_chain(sigma, delta, prep_deg, Axis.X, mid_deg, Axis.Y)


def test_overlap_against_quadrature():
    for a, b, sigma in [(0.0, 0.0, 0.3), (0.1, -0.2, 0.25), (1.0, 0.2, 0.5), (0.0, 0.7, 0.1116)]:
        assert overlap(a, b, sigma) == pytest.approx(quad_overlap(a, b, sigma), abs=1e-9)


def test_overlap_special_values():
    assert overlap(0.4, 0.4, 0.2) == pytest.approx(1.0, abs=1e-12)
    gap = 0.37 * np.sqrt(8.0 * np.log(3.0))
    assert overlap(0.0, gap, 0.37) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_first_moment_against_quadrature():
    for a, b, sigma in [(0.0, 0.0, 0.3), (0.1, -0.2, 0.25), (1.0, 0.2, 0.5), (0.3, 0.0, 0.1116)]:
        want = quad_overlap(a, b, sigma, weight=lambda x: x)
        assert first_moment(a, b, sigma) == pytest.approx(want, abs=1e-9)
    assert first_moment(0.6, 0.6, 0.2) == pytest.approx(0.6, abs=1e-12)


def test_chain_matches_brute_force_expansion():
    delta = 0.29
    want = brute_chain_terms(delta)
    assert want[("H", delta, delta)] == pytest.approx(0.25, abs=1e-12)
    assert want[("H", 0.0, delta)] == pytest.approx(-0.75, abs=1e-12)
    assert want[("V", delta, 0.0)] == pytest.approx(-SQ3 / 4, abs=1e-12)
    assert want[("V", 0.0, 0.0)] == pytest.approx(-SQ3 / 4, abs=1e-12)

    state = run_sequential_chain(0.1116, delta)
    assert len(state.terms) == 4
    got = {}
    for h, v, sx, sy in state.terms:
        for name, coeff in (("H", h), ("V", v)):
            if coeff:
                got[(name, sx, sy)] = coeff
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], abs=1e-12)


def test_moments_against_quadrature():
    for delta, sigma in [(0.1, 0.2), (0.3, 0.2), (0.45, 0.1116), (0.0, 0.3)]:
        got = moments(run_sequential_chain(sigma, delta))
        want = quad_moments(brute_chain_terms(delta), sigma, delta)
        assert got.x_mm == pytest.approx(want[0], abs=1e-8)
        assert got.y_mm == pytest.approx(want[1], abs=1e-8)
        assert got.xy_mm2 == pytest.approx(want[2], abs=1e-8)


def test_closed_form_sequential_formulas():
    delta, sigma = 0.31, 0.1116
    damp = np.exp(-(delta**2) / (8.0 * sigma**2))
    triple = closed_form_sequential(delta, sigma)
    assert triple.x_mm == pytest.approx(delta / 4.0, abs=1e-12)
    assert triple.y_mm == pytest.approx(delta / 8.0 * (5.0 - 3.0 * damp), abs=1e-12)
    assert triple.xy_mm2 == pytest.approx(delta**2 / 16.0 * (1.0 - 3.0 * damp), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(sigmas, ratios)
def test_calculus_agrees_with_closed_form(sigma, ratio):
    delta = ratio * sigma
    got = moments(run_sequential_chain(sigma, delta))
    want = closed_form_sequential(delta, sigma)
    assert got.x_mm == pytest.approx(want.x_mm, abs=1e-10)
    assert got.y_mm == pytest.approx(want.y_mm, abs=1e-10)
    assert got.xy_mm2 == pytest.approx(want.xy_mm2, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(sigmas, ratios)
def test_first_marginal_is_width_independent(sigma, ratio):
    delta = ratio * sigma
    got = moments(run_sequential_chain(sigma, delta))
    assert got.x_mm == pytest.approx(delta / 4.0, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(sigmas, ratios)
def test_chain_preserves_norm(sigma, ratio):
    state = run_sequential_chain(sigma, ratio * sigma)
    assert reference_pairwise_sums(state)[0].real == pytest.approx(1.0, abs=1e-10)


def test_two_plates_return_the_single_term_to_horizontal():
    state = initial_pointer_state(HORIZONTAL, 0.2)
    state = apply_polarization(state, waveplate_hwp(30.0))
    assert len(state.terms) == 1
    state = apply_polarization(state, waveplate_hwp(30.0))
    assert len(state.terms) == 1
    h, v, sx, sy = state.terms[0]
    assert h == pytest.approx(1.0 + 0j, abs=1e-12)
    assert v == pytest.approx(0j, abs=1e-12)
    assert (sx, sy) == (0.0, 0.0)


def test_apply_coupling_requires_nonnegative_shift():
    state = initial_pointer_state(HORIZONTAL, 0.2)
    with pytest.raises(ValueError):
        apply_coupling(state, -0.1, Axis.X)


def test_apply_coupling_rejects_non_finite_shift():
    state = initial_pointer_state(HORIZONTAL, 0.2)
    for bad in (np.nan, np.inf, -np.inf):
        for axis in Axis:
            with pytest.raises(ValueError, match="finite"):
                apply_coupling(state, bad, axis)


def test_a_state_needs_a_positive_width():
    for bad in (0.0, -0.1, np.nan, -np.inf):
        with pytest.raises(ValueError, match="sigma must be positive"):
            initial_pointer_state(HORIZONTAL, bad)


def test_calculus_outside_the_float_range_raises_a_simulation_error():
    # 8 sigma^2 underflows to 0 or to a subnormal, sigma^2 overflows,
    # (a - b)^2 overflows.
    for state, cause in (
        (initial_pointer_state(HORIZONTAL, 1e-200), "underflows"),
        (initial_pointer_state(HORIZONTAL, 1e-160), r"8 sigma\^2 underflows at sigma = 1e-160 mm"),
        (initial_pointer_state(HORIZONTAL, 1e200), "overflows"),
        (run_sequential_chain(0.1116, 1e200), "overflows"),
    ):
        with pytest.raises(OutOfFloatRange, match=cause):
            moments(state)


def test_apply_polarization_rejects_nonunitary():
    # One NaN or infinite entry must fail the check on its own: Python's
    # max() drops a NaN depending on argument order, numpy's .max() does not.
    nan, inf = np.nan, np.inf
    state = initial_pointer_state(HORIZONTAL, 0.15)
    field = init_gaussian(GridSpec(64, 64, 20.0), 0.15, HORIZONTAL)
    factored = factored_gaussian(GridSpec(64, 64, 20.0), 0.15, HORIZONTAL)
    for bad in (
        [[1.0, 0.0], [0.0, 0.5]],
        [[1.0, 1.0], [0.0, 0.0]],  # unit columns, not orthogonal
        [[nan, nan], [nan, nan]],
        [[1.0, 0.0], [0.0, nan]],
        [[1.0, nan], [0.0, 1.0]],
        [[1.0, 0.0], [nan, 1.0]],
        [[nan, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.0, inf]],
        [[1.0, inf * 1j], [0.0, 1.0]],
        np.eye(3),
    ):
        with pytest.raises(NonUnitary):
            apply_polarization(state, np.array(bad))
        with pytest.raises(NonUnitary):
            apply_polarization_unitary(field, np.array(bad))
        with pytest.raises(NonUnitary):
            apply_factored_unitary(factored, np.array(bad))


def reference_pairwise_sums(state):
    """The pair sums as first written, over each term's nonzero H and V parts
    in term order: a numpy-scalar np.exp for each of four overlaps per
    same-polarization pair, accumulated in numpy scalars."""
    sigma = state.sigma
    parts = []
    for h, v, sx, sy in state.terms:
        parts += [(coeff, sx, sy, pol) for pol, coeff in (("H", h), ("V", v)) if coeff != 0]
    norm = x_acc = y_acc = xy_acc = np.complex128(0)
    for bra_coeff, bra_x, bra_y, bra_pol in parts:
        for ket_coeff, ket_x, ket_y, ket_pol in parts:
            if bra_pol != ket_pol:
                continue
            w = np.conj(bra_coeff) * ket_coeff
            ox = overlap(bra_x, ket_x, sigma)
            oy = overlap(bra_y, ket_y, sigma)
            fx = first_moment(bra_x, ket_x, sigma)
            fy = first_moment(bra_y, ket_y, sigma)
            norm += w * ox * oy
            x_acc += w * fx * oy
            y_acc += w * ox * fy
            xy_acc += w * fx * fy
    return norm, x_acc, y_acc, xy_acc


def bits(value):
    return struct.pack("<d", value)


shift_values = st.sampled_from([0.0, 0.0, 0.25, -0.4]) | st.floats(-2.0, 2.0)
coefficients = st.builds(
    lambda re, im, scale, numpy_scalar: (np.complex128 if numpy_scalar else complex)(
        complex(re, im) * scale
    ),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from([1.0, 1e-7, 2e-14, 1e-14, 5e-15, 0.0]),
    st.booleans(),
)
superpositions = st.builds(
    lambda terms, sigma: GaussianSuperposition(terms=tuple(terms), sigma=sigma),
    st.lists(
        st.tuples(coefficients, coefficients, shift_values, shift_values),
        min_size=1,
        max_size=8,
    ),
    sigmas,
)


@settings(max_examples=400, deadline=None)
@given(superpositions)
def test_calculus_matches_reference_bit_for_bit(state):
    with np.errstate(all="ignore"):  # a cancelled state has norm 0: NaN on both sides
        got = moments(state)
        norm, x_acc, y_acc, xy_acc = reference_pairwise_sums(state)
        want = [(acc / norm).real for acc in (x_acc, y_acc, xy_acc)]
    assert [bits(v) for v in (got.x_mm, got.y_mm, got.xy_mm2)] == [bits(v) for v in want]


def test_two_qubit_closed_form():
    triple = closed_form_two_qubit(0.3)
    assert triple.x_mm == pytest.approx(0.075, abs=1e-12)
    assert triple.y_mm == pytest.approx(0.075, abs=1e-12)
    assert triple.xy_mm2 == pytest.approx(0.075**2, abs=1e-12)


def test_two_qubit_matches_product_chain():
    # Particle A: prep, X coupling, second plate.  Particle B: prep, Y coupling.
    delta, sigma = 0.4, 0.17
    a_state = initial_pointer_state(HORIZONTAL, sigma)
    a_state = apply_polarization(a_state, waveplate_hwp(30.0))
    a_state = apply_coupling(a_state, delta, Axis.X)
    a_state = apply_polarization(a_state, waveplate_hwp(-30.0))
    b_state = initial_pointer_state(HORIZONTAL, sigma)
    b_state = apply_polarization(b_state, waveplate_hwp(30.0))
    b_state = apply_coupling(b_state, delta, Axis.Y)
    x_a = moments(a_state).x_mm
    y_b = moments(b_state).y_mm
    want = closed_form_two_qubit(delta)
    assert x_a == pytest.approx(want.x_mm, abs=1e-10)
    assert y_b == pytest.approx(want.y_mm, abs=1e-10)
    assert x_a * y_b == pytest.approx(want.xy_mm2, abs=1e-10)


@settings(max_examples=200)
@given(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), sigmas)
def test_two_qubit_joint_never_negative(delta, sigma):
    triple = closed_form_two_qubit(delta)
    assert triple.xy_mm2 >= 0.0
    assert triple.xy_mm2 == pytest.approx(triple.x_mm * triple.y_mm, abs=1e-12)


def test_single_coupling_closed_form():
    triple = closed_form_single_coupling(0.237)
    assert triple.x_mm == pytest.approx(0.237 / 4.0, abs=1e-12)
    assert triple.y_mm == 0.0
    assert triple.xy_mm2 == 0.0


def test_anomaly_threshold_is_damping_root():
    for sigma in (0.1116, 1.0, 0.4):
        want = brentq(
            lambda d: closed_form_sequential(d, sigma).xy_mm2,
            0.5 * sigma,
            5.0 * sigma,
            xtol=1e-12,
        )
        got = anomaly_threshold(sigma)
        assert got == pytest.approx(sigma * np.sqrt(8.0 * np.log(3.0)), abs=1e-12)
        assert got == pytest.approx(want, abs=1e-9)


def test_joint_sign_structure_around_threshold():
    sigma = 0.1116
    star = anomaly_threshold(sigma)
    for frac in (0.2, 0.5, 0.9):
        assert closed_form_sequential(frac * star, sigma).xy_mm2 < 0.0
    for frac in (1.1, 2.0, 5.0):
        assert closed_form_sequential(frac * star, sigma).xy_mm2 > 0.0


def test_max_reversal_matches_stationarity_root():
    # d/dt [t (1 - 3 e^-t)] = 0  <=>  3 e^-t (1 - t) = 1, with t = delta^2/(8 sigma^2).
    t_root = brentq(lambda t: 3.0 * np.exp(-t) * (1.0 - t) - 1.0, 0.1, 0.9, xtol=1e-14)
    for sigma in (1.0, 0.1116):
        want = sigma * np.sqrt(8.0 * t_root)
        got = max_reversal_delta(sigma)
        assert got == pytest.approx(want, abs=1e-12)
        assert closed_form_sequential(got, sigma).xy_mm2 == pytest.approx(
            -0.20562999526589 * sigma**2, abs=1e-9 * sigma**2
        )
    assert round(max_reversal_delta(1.0), 3) == 1.935


def test_stationary_t_on_both_branches_and_at_the_bracket_ends():
    # t (a + b e^-t) is least where its slope a + b (1 - t) e^-t rises
    # through 0: below t = 1 for b < 0 < a, past t = 2 for 0 < a < b e^-2.
    def root(a, b, lo, hi):
        return brentq(lambda t: a + b * (1.0 - t) * math.exp(-t), lo, hi, xtol=1e-15)

    assert stationary_t(1.0, -3.0, 0.0, 1.0) == pytest.approx(root(1.0, -3.0, 0.0, 1.0), abs=1e-12)
    assert stationary_t(0.05, 1.0, 2.0, 10.0) == pytest.approx(root(0.05, 1.0, 2.0, 10.0), abs=1e-12)
    assert stationary_t(0.05, 1.0, 3.5, 4.5) == pytest.approx(root(0.05, 1.0, 2.0, 10.0), abs=1e-12)
    # Brackets that also hold the slope's other root, across t = 2 where
    # t (a + b e^-t) is concave: a local maximum near t = 1.29 for b > 0, a
    # local maximum past t = 2 for b < 0 < -a, beyond which it falls to hi.
    assert stationary_t(0.08, 1.0, 1.094, 9.846) == pytest.approx(root(0.08, 1.0, 2.0, 10.0), abs=1e-12)
    assert stationary_t(-0.05, -1.0, 0.5, 6.0) == pytest.approx(root(-0.05, -1.0, 0.5, 2.0), abs=1e-12)
    assert stationary_t(-0.05, -1.0, 0.5, 20.0) == 20.0
    # A slope of one sign, flat (b = 0) or with e^-t underflowed, ends at the
    # end where t (a + b e^-t) is less.
    assert stationary_t(1.0, 0.0, 0.3, 0.7) == pytest.approx(0.3, abs=1e-15)
    assert stationary_t(-1.0, 0.0, 0.3, 0.7) == pytest.approx(0.7, abs=1e-15)
    assert stationary_t(-1.0, 1.0, 800.0, 900.0) == pytest.approx(900.0, abs=1e-12)
    assert stationary_t(1.0, -3.0, 0.6, 1.0) == pytest.approx(0.6, abs=1e-15)


@pytest.mark.parametrize("length", [anomaly_threshold, max_reversal_delta])
def test_a_width_whose_length_overflows_is_refused(length):
    # sigma times sqrt(8 ln 3) or sqrt(8 t*) leaves the double range from
    # about 6e307 mm up: the length names the width instead of warning or
    # returning inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfFloatRange, match=r"overflows at sigma = 1e\+308 mm"):
            length(1e308)
        assert math.isfinite(length(5e307))


def test_superposition_requires_terms():
    with pytest.raises(ValueError):
        GaussianSuperposition(terms=(), sigma=0.2)


def test_term_tuple_shape():
    state = GaussianSuperposition(terms=((1.0, 0.0, 0.0, 0.0),), sigma=0.2)
    triple = moments(state)
    assert isinstance(triple, DeflectionTriple)
    assert triple.x_mm == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_closed_forms_refuse_non_finite_inputs(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: closed_form_sequential(0.2, bad),
            lambda: anomaly_threshold(bad),
            lambda: max_reversal_delta(bad),
        ):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                call()
        for call in (
            lambda: closed_form_sequential(bad, 0.1),
            lambda: closed_form_two_qubit(bad),
            lambda: closed_form_single_coupling(bad),
        ):
            with pytest.raises(ValueError, match="coupling must be finite"):
                call()
    for sigma in (0.0, -0.1):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            closed_form_sequential(0.2, sigma)


def test_closed_forms_return_python_floats():
    delta, sigma = 0.31, 0.1116
    damp = np.exp(-(delta**2) / (8.0 * sigma**2))
    triple = closed_form_sequential(delta, sigma)
    # The same bits as with numpy's scalar, only the type changes.
    assert triple.y_mm == delta / 8.0 * (5.0 - 3.0 * damp)
    assert triple.xy_mm2 == delta**2 / 16.0 * (1.0 - 3.0 * damp)
    for got in (triple, closed_form_two_qubit(delta), closed_form_single_coupling(delta)):
        assert {type(v) for v in (got.x_mm, got.y_mm, got.xy_mm2)} == {float}
