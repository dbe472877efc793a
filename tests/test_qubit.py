"""Checks for the two-level weak-value algebra.

Expected values are frozen from brute-force 2x2 matrix arithmetic done
directly with numpy in this file, independent of the library code.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqweak.errors import OrthogonalPostselection
from seqweak.qubit import (
    HORIZONTAL,
    MINUS_SIXTY,
    PLUS_SIXTY,
    VERTICAL,
    Observable,
    QubitState,
    expectation,
    inner,
    is_anomalous,
    linear_polarization,
    postselected_decomposition,
    product_eigen_range,
    sequential_weak_value,
    waveplate_hwp,
    weak_value,
)

SQ3 = np.sqrt(3.0)

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def states(draw):
    parts = [draw(finite) for _ in range(4)]
    vec = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.array([1.0 + 0j, 0j])
        norm = 1.0
    vec = vec / norm
    return QubitState(vec[0], vec[1])


@st.composite
def hermitians(draw):
    scale = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    a, b, c, d = (draw(scale) for _ in range(4))
    return Observable(np.array([[a, c + 1j * d], [c - 1j * d, b]]))


@st.composite
def unitaries(draw):
    angle = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)
    phi, theta, alpha, beta = (draw(angle) for _ in range(4))
    ct, s = np.cos(theta), np.sin(theta)
    u = np.array(
        [
            [ct * np.exp(1j * alpha), s * np.exp(1j * beta)],
            [-s * np.exp(-1j * beta), ct * np.exp(-1j * alpha)],
        ]
    )
    return np.exp(1j * phi) * u


def brute_weak_value(pre, post, matrix):
    num = np.vdot(post, matrix @ pre)
    den = np.vdot(post, pre)
    return num / den


def test_state_requires_normalization():
    with pytest.raises(ValueError):
        QubitState(1.0, 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            QubitState(bad, 0.0)


def test_observable_requires_hermitian():
    with pytest.raises(ValueError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 1), (1, 0)])
def test_observable_rejects_non_finite_entries(bad, entry):
    # Equal infinities must not pass as a Hermitian residual of zero, and a
    # lone NaN must fail whichever entry it sits in.
    m = np.eye(2, dtype=complex)
    m[entry] = bad
    if entry == (0, 1):
        m[1, 0] = bad
    with pytest.raises(ValueError):
        Observable(m)


def test_named_states():
    assert HORIZONTAL.vector() == pytest.approx([1, 0])
    assert VERTICAL.vector() == pytest.approx([0, 1])
    assert PLUS_SIXTY.vector() == pytest.approx([0.5, SQ3 / 2])
    assert MINUS_SIXTY.vector() == pytest.approx([0.5, -SQ3 / 2])
    assert linear_polarization(60.0).vector() == pytest.approx(PLUS_SIXTY.vector())


def test_weak_value_of_orthogonal_projector_is_zero():
    pre = QubitState(1 / np.sqrt(2), 1 / np.sqrt(2))
    value = weak_value(pre, HORIZONTAL, Observable.projector(VERTICAL))
    assert value == pytest.approx(0.0, abs=1e-12)


def test_weak_value_orthogonal_postselection_raises():
    with pytest.raises(OrthogonalPostselection):
        weak_value(HORIZONTAL, VERTICAL, Observable.projector(HORIZONTAL))


@given(states(), states(), hermitians())
def test_weak_value_matches_brute_force(pre, post, obs):
    den = np.vdot(post.vector(), pre.vector())
    if abs(den) <= 1e-6:
        return
    got = weak_value(pre, post, obs)
    want = brute_weak_value(pre.vector(), post.vector(), obs.matrix)
    assert got == pytest.approx(want, abs=1e-9)


def test_expectation_sixty_degree_overlap():
    # |<-60deg|+60deg>|^2 = (1/4 - 3/4)^2 = 1/4, by direct arithmetic:
    want = abs(np.vdot(MINUS_SIXTY.vector(), PLUS_SIXTY.vector())) ** 2
    assert want == pytest.approx(0.25, abs=1e-12)
    got = expectation(PLUS_SIXTY, Observable.projector(MINUS_SIXTY))
    assert got.real == pytest.approx(0.25, abs=1e-12)
    assert abs(got.imag) <= 1e-12


@given(states(), hermitians())
def test_expectation_real_and_inside_eigenrange(pre, obs):
    value = expectation(pre, obs)
    assert abs(value.imag) <= 1e-12
    lo, hi = obs.eigenvalues()
    assert lo - 1e-10 <= value.real <= hi + 1e-10


def test_sequential_weak_value_central_anomaly():
    # <a|P2 P1|a> with a = (1/2, r3/2), P1 = |H><H|, P2 = |b><b|, b = (1/2, -r3/2):
    # <a|b><b|H><H|a> = (-1/2)(1/2)(1/2) = -1/8, while projector products span [0, 1].
    a = PLUS_SIXTY.vector()
    b = MINUS_SIXTY.vector()
    oracle = np.vdot(a, b) * np.vdot(b, HORIZONTAL.vector()) * np.vdot(HORIZONTAL.vector(), a)
    assert oracle == pytest.approx(-0.125, abs=1e-12)

    result = sequential_weak_value(
        PLUS_SIXTY, Observable.projector(HORIZONTAL), Observable.projector(MINUS_SIXTY)
    )
    assert result.value == pytest.approx(-0.125 + 0j, abs=1e-12)
    assert result.interval == pytest.approx((0.0, 1.0), abs=1e-12)
    assert result.anomalous


@given(states(), hermitians(), hermitians())
def test_sequential_value_is_second_times_first(pre, first, second):
    result = sequential_weak_value(pre, first, second)
    vec = pre.vector()
    want = np.vdot(vec, second.matrix @ (first.matrix @ vec))
    assert result.value == pytest.approx(want, abs=1e-10)


@given(hermitians())
def test_sequential_on_eigenstate_gives_eigenvalue_squared(obs):
    values, vectors = np.linalg.eigh(obs.matrix)
    for k in range(2):
        pre = QubitState(vectors[0, k], vectors[1, k])
        result = sequential_weak_value(pre, obs, obs)
        assert result.value == pytest.approx(values[k] ** 2, abs=1e-9)
        assert not result.anomalous


def test_product_eigen_range_of_projectors():
    lo, hi = product_eigen_range(
        Observable.projector(HORIZONTAL), Observable.projector(MINUS_SIXTY)
    )
    assert (lo, hi) == pytest.approx((0.0, 1.0), abs=1e-12)


@given(hermitians(), hermitians())
def test_product_eigen_range_matches_enumeration(a, b):
    ea = np.linalg.eigvalsh(a.matrix)
    eb = np.linalg.eigvalsh(b.matrix)
    products = [x * y for x in ea for y in eb]
    lo, hi = product_eigen_range(a, b)
    assert lo == pytest.approx(min(products), abs=1e-10)
    assert hi == pytest.approx(max(products), abs=1e-10)


@settings(max_examples=200)
@given(states(), unitaries(), finite, finite, finite, finite)
def test_commuting_pairs_are_never_anomalous(pre, u, a1, a2, b1, b2):
    # Observables diagonal in a common basis commute; their sequential weak
    # value is an expectation of a Hermitian product and stays in range.
    first = Observable(u @ np.diag([a1, a2]) @ u.conj().T)
    second = Observable(u @ np.diag([b1, b2]) @ u.conj().T)
    result = sequential_weak_value(pre, first, second)
    assert abs(result.value.imag) <= 1e-9
    assert not result.anomalous


def test_hwp_rotates_horizontal_to_sixty_degree_states():
    assert waveplate_hwp(30.0).matrix @ HORIZONTAL.vector() == pytest.approx(
        PLUS_SIXTY.vector(), abs=1e-12
    )
    assert waveplate_hwp(-30.0).matrix @ HORIZONTAL.vector() == pytest.approx(
        MINUS_SIXTY.vector(), abs=1e-12
    )


@given(st.floats(min_value=-360.0, max_value=360.0, allow_nan=False))
def test_hwp_is_hermitian_unitary_involution(theta):
    m = waveplate_hwp(theta).matrix
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.allclose(m @ m, np.eye(2), atol=1e-12)


def test_decomposition_of_horizontal_projector():
    terms = postselected_decomposition(
        PLUS_SIXTY, Observable.projector(HORIZONTAL), (HORIZONTAL, VERTICAL)
    )
    # Brute force: p_H = |<H|a>|^2 = 1/4 with weak value <H|P_H|a>/<H|a> = 1;
    # p_V = 3/4 with weak value <V|P_H|a>/<V|a> = 0.
    assert terms[0].probability == pytest.approx(0.25, abs=1e-12)
    assert terms[0].weak_value == pytest.approx(1.0 + 0j, abs=1e-12)
    assert terms[1].probability == pytest.approx(0.75, abs=1e-12)
    assert terms[1].weak_value == pytest.approx(0j, abs=1e-12)


def test_decomposition_flags_orthogonal_branch():
    terms = postselected_decomposition(
        HORIZONTAL, Observable.projector(HORIZONTAL), (HORIZONTAL, VERTICAL)
    )
    assert terms[1].probability == 0.0
    assert terms[1].weak_value is None


def test_decomposition_rejects_skewed_basis():
    with pytest.raises(ValueError):
        postselected_decomposition(
            HORIZONTAL, Observable.projector(HORIZONTAL), (HORIZONTAL, PLUS_SIXTY)
        )


@given(states(), hermitians(), unitaries())
def test_decomposition_averages_to_expectation(pre, obs, u):
    basis = (QubitState(u[0, 0], u[1, 0]), QubitState(u[0, 1], u[1, 1]))
    terms = postselected_decomposition(pre, obs, basis)
    total = sum(t.probability for t in terms)
    acc = sum(t.probability * t.weak_value for t in terms if t.weak_value is not None)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert acc == pytest.approx(expectation(pre, obs), abs=1e-10)


@given(states(), states())
def test_inner_is_conjugate_symmetric(a, b):
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-12)


def test_anomaly_verdict_margin():
    assert is_anomalous(-0.125 + 0j, 0.0, 1.0)
    assert is_anomalous(1.0 + 1e-9, 0.0, 1.0)
    assert not is_anomalous(1.0 + 1e-13, 0.0, 1.0)
    assert not is_anomalous(-1e-13 + 5j, 0.0, 1.0)


@pytest.mark.parametrize("shape", [(3, 3), (2,), (4,), (2, 3)])
def test_observable_must_be_2x2(shape):
    with pytest.raises(ValueError, match="observable must be 2x2"):
        Observable(np.zeros(shape))
