"""Two-level polarization states, observables, and weak-value algebra.

The weak value of an observable A for pre-selection |psi> and post-selection
|phi> is <phi|A|psi> / <phi|psi>.  Without post-selection the pointer reads
the plain expectation <psi|A|psi>; reading two couplings jointly yields the
sequential value <psi|B A|psi> with the first-coupled observable rightmost.
A joint reading is anomalous when its real part leaves the interval spanned
by all pairwise eigenvalue products of the two observables.  A reading or
interval that leaves the float range raises OutOfFloatRange.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalPostselection, OutOfFloatRange

NORMALIZATION_TOL = 1e-12
HERMITICITY_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-12
ANOMALY_MARGIN = 1e-12


@dataclass(frozen=True)
class QubitState:
    """Normalized two-component state in the {|H>, |V>} basis."""

    amp_h: complex
    amp_v: complex

    def __post_init__(self):
        object.__setattr__(self, "amp_h", complex(self.amp_h))
        object.__setattr__(self, "amp_v", complex(self.amp_v))
        total = abs(self.amp_h) ** 2 + abs(self.amp_v) ** 2
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"state must be normalized, got |psi|^2 = {total!r}")

    def vector(self) -> np.ndarray:
        return np.array([self.amp_h, self.amp_v])


@dataclass(frozen=True)
class Observable:
    """Hermitian 2x2 operator on the polarization qubit."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"observable must be 2x2, got shape {m.shape}")
        # m - m^H on Python scalars: its lower off-diagonal entry is minus the
        # conjugate of the upper one, and a NaN or infinite entry fails.
        a, b, c, d = m.ravel().tolist()
        skew = (a - a.conjugate(), b - c.conjugate(), d - d.conjugate())
        if not all(math.hypot(e.real, e.imag) <= HERMITICITY_TOL for e in skew):
            raise ValueError("observable must be Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def projector(cls, state: QubitState) -> "Observable":
        v = state.vector()
        return cls(np.outer(v, v.conj()))

    def eigenvalues(self) -> tuple[float, float]:
        """Real eigenvalues in ascending order."""
        lo, hi = np.linalg.eigvalsh(self.matrix)
        _check_finite("an eigenvalue of the observable", lo, hi)
        return float(lo), float(hi)

    def __array__(self, dtype=None, copy=None):
        if copy:
            return np.array(self.matrix, dtype=dtype if dtype is not None else complex)
        return self.matrix if dtype is None else self.matrix.astype(dtype, copy=False)


@dataclass(frozen=True)
class WeakValueResult:
    """Sequential joint reading with its classical eigenvalue-product range."""

    value: complex
    interval: tuple[float, float]
    anomalous: bool


@dataclass(frozen=True)
class DecompositionTerm:
    """One post-selected branch: outcome probability and conditional weak value.

    ``weak_value`` is None when the branch has zero probability, where the
    conditional value is undefined.
    """

    probability: float
    weak_value: complex | None


def _check_finite(what: str, *values: complex) -> None:
    if not all(map(cmath.isfinite, values)):
        raise OutOfFloatRange(f"{what} overflows the float range")


def inner(a: QubitState, b: QubitState) -> complex:
    """Inner product <a|b>."""
    return complex(np.vdot(a.vector(), b.vector()))


def linear_polarization(angle_deg: float) -> QubitState:
    """Linear polarization at the given angle from horizontal."""
    rad = np.deg2rad(angle_deg)
    return QubitState(np.cos(rad), np.sin(rad))


HORIZONTAL = QubitState(1.0, 0.0)
VERTICAL = QubitState(0.0, 1.0)
PLUS_SIXTY = linear_polarization(60.0)
MINUS_SIXTY = linear_polarization(-60.0)


def waveplate_hwp(theta_deg: float) -> Observable:
    """Half-wave plate at fast-axis angle theta from horizontal.

    Returns [[cos 2t, sin 2t], [sin 2t, -cos 2t]]: Hermitian, unitary, and
    involutory, so it doubles as an observable with eigenvalues +-1.
    """
    if not math.isfinite(theta_deg):
        raise ValueError(f"plate angle must be finite, got {theta_deg!r}")
    two_theta = 2.0 * np.deg2rad(theta_deg)
    c, s = np.cos(two_theta), np.sin(two_theta)
    return Observable(np.array([[c, s], [s, -c]]))


def weak_value(pre: QubitState, post: QubitState, observable: Observable) -> complex:
    """Post-selected weak value <post|A|pre> / <post|pre>."""
    den = inner(post, pre)
    if abs(den) <= ORTHOGONALITY_TOL:
        raise OrthogonalPostselection(
            "post-selection is orthogonal to the pre-selected state"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.vdot(post.vector(), observable.matrix @ pre.vector()) / den)
    _check_finite("the weak value", value)
    return value


def expectation(pre: QubitState, observable: Observable) -> complex:
    """No-post-selection pointer reading <pre|A|pre>."""
    vec = pre.vector()
    return complex(np.vdot(vec, observable.matrix @ vec))


def is_anomalous(value: complex, lo: float, hi: float) -> bool:
    """Whether the real part of a reading leaves its classical interval [lo, hi]."""
    return value.real < lo - ANOMALY_MARGIN or value.real > hi + ANOMALY_MARGIN


def product_eigen_range(first: Observable, second: Observable) -> tuple[float, float]:
    """Extreme products of one eigenvalue from each observable."""
    products = [x * y for x in first.eigenvalues() for y in second.eigenvalues()]
    return min(products), max(products)


def sequential_weak_value(
    pre: QubitState, first: Observable, second: Observable
) -> WeakValueResult:
    """Joint reading <pre|second . first|pre> of two sequential couplings.

    The first-coupled observable sits rightmost.  The reading is anomalous
    when its real part leaves the eigenvalue-product interval, which no
    classical mixture of outcomes can do.
    """
    vec = pre.vector()
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.vdot(vec, second.matrix @ (first.matrix @ vec)))
    lo, hi = product_eigen_range(first, second)
    _check_finite("the sequential reading or its interval", value, lo, hi)
    return WeakValueResult(value=value, interval=(lo, hi), anomalous=is_anomalous(value, lo, hi))


def postselected_decomposition(
    pre: QubitState, observable: Observable, basis: tuple[QubitState, QubitState]
) -> list[DecompositionTerm]:
    """Split the expectation into post-selected branches over an orthonormal basis.

    The probability-weighted sum of branch weak values reproduces
    ``expectation(pre, observable)``; zero-probability branches are flagged
    with an undefined (None) weak value rather than NaN.
    """
    if abs(inner(basis[0], basis[1])) > ORTHOGONALITY_TOL:
        raise ValueError("decomposition basis must be orthonormal")
    terms = []
    for post in basis:
        amp = inner(post, pre)
        if abs(amp) <= ORTHOGONALITY_TOL:
            terms.append(DecompositionTerm(probability=0.0, weak_value=None))
            continue
        terms.append(DecompositionTerm(abs(amp) ** 2, weak_value(pre, post, observable)))
    return terms
