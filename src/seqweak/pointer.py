"""Exact pointer calculus for Gaussian beams under polarization-conditioned shifts.

A pointer state is a finite superposition of shifted 2-D Gaussians, one
polarization label per term, all sharing one transverse width.  Amplitudes
follow the convention

    phi_s(x) = (2 pi sigma^2)^(-1/4) exp(-(x - s)^2 / (4 sigma^2)),

so the intensity |phi|^2 has standard deviation sigma.  Every expectation
value reduces to two closed-form kernels:

    <phi_a|phi_b>   = exp(-(a - b)^2 / (8 sigma^2))
    <phi_a|x|phi_b> = (a + b)/2 * exp(-(a - b)^2 / (8 sigma^2))

which makes the calculus exact; no quadrature or discretization enters.
All lengths are millimetres.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitary
from .qubit import QubitState

UNITARITY_TOL = 1e-10
MERGE_SHIFT_TOL = 1e-12
DROP_COEFF_TOL = 1e-14


class Pol(enum.Enum):
    H = 0
    V = 1


class Axis(enum.Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class PointerTerm:
    """One shifted Gaussian component with a polarization label."""

    coeff: complex
    shift_x: float
    shift_y: float
    pol: Pol


@dataclass(frozen=True)
class GaussianSuperposition:
    """Finite superposition of polarization-labelled shifted Gaussians."""

    terms: tuple[PointerTerm, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("superposition needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class DeflectionTriple:
    """Marginal means <x>, <y> and the joint mean <x y>."""

    x_mm: float
    y_mm: float
    xy_mm2: float


def initial_pointer_state(pol: QubitState) -> GaussianSuperposition:
    """Centered Gaussian carrying the given polarization."""
    terms = []
    for amp, label in ((pol.amp_h, Pol.H), (pol.amp_v, Pol.V)):
        if abs(amp) > DROP_COEFF_TOL:
            terms.append(PointerTerm(coeff=complex(amp), shift_x=0.0, shift_y=0.0, pol=label))
    return GaussianSuperposition(terms=tuple(terms))


def apply_coupling(
    state: GaussianSuperposition, axis: Axis, delta: float
) -> GaussianSuperposition:
    """Translate the H-labelled components by +delta along the given axis.

    Implements exp(-i delta p (x) |H><H|): term count and norm are unchanged.
    """
    if delta < 0.0:
        raise ValueError(f"coupling shift must be nonnegative, got {delta!r}")
    moved = []
    for term in state.terms:
        if term.pol is Pol.H:
            sx = term.shift_x + delta if axis is Axis.X else term.shift_x
            sy = term.shift_y + delta if axis is Axis.Y else term.shift_y
            moved.append(PointerTerm(term.coeff, sx, sy, term.pol))
        else:
            moved.append(term)
    return GaussianSuperposition(terms=tuple(moved))


def checked_unitary(u) -> tuple[complex, complex, complex, complex]:
    """The entries (a, b, c, d) of a 2x2 polarization unitary [[a, b], [c, d]]
    as Python complex numbers; NonUnitary otherwise.

    The check runs on Python scalars: U^H U - 1 has the three distinct
    entries below (the fourth is the conjugate of the off-diagonal one), and
    any NaN or infinite entry of U makes one of them fail the tolerance.
    """
    m = np.asarray(u, dtype=complex)
    if m.shape != (2, 2):
        raise NonUnitary(f"polarization unitary must be 2x2, got shape {m.shape}")
    a, b, c, d = m.ravel().tolist()
    gram = (
        a.conjugate() * a + c.conjugate() * c - 1.0,
        a.conjugate() * b + c.conjugate() * d,
        b.conjugate() * b + d.conjugate() * d - 1.0,
    )
    if not all(math.hypot(g.real, g.imag) <= UNITARITY_TOL for g in gram):
        with np.errstate(invalid="ignore", over="ignore"):
            defect = np.abs(m.conj().T @ m - np.eye(2)).max()
        raise NonUnitary(f"matrix deviates from unitarity by {defect:g}")
    return a, b, c, d


def apply_polarization(
    state: GaussianSuperposition, u: np.ndarray
) -> GaussianSuperposition:
    """Apply a 2x2 polarization unitary, merging terms with matching shifts."""
    a, b, c, d = checked_unitary(u)
    columns = ((a, c), (b, d))

    merged: list[PointerTerm] = []

    def add(coeff, sx, sy, pol):
        for i, other in enumerate(merged):
            if (
                other.pol is pol
                and abs(other.shift_x - sx) <= MERGE_SHIFT_TOL
                and abs(other.shift_y - sy) <= MERGE_SHIFT_TOL
            ):
                merged[i] = PointerTerm(other.coeff + coeff, other.shift_x, other.shift_y, pol)
                return
        merged.append(PointerTerm(coeff, sx, sy, pol))

    for term in state.terms:
        to_h, to_v = columns[term.pol.value]
        add(term.coeff * to_h, term.shift_x, term.shift_y, Pol.H)
        add(term.coeff * to_v, term.shift_x, term.shift_y, Pol.V)

    kept = tuple(t for t in merged if abs(t.coeff) > DROP_COEFF_TOL)
    return GaussianSuperposition(terms=kept)


def _pairwise_sums(state: GaussianSuperposition, sigma: float):
    """<psi|psi>, <x>, <y> and <x y> sums over same-polarization term pairs.

    Each pair's two overlaps exp(-(a - b)^2 / (8 sigma^2)) come from one
    np.exp call over all pairs, with the exponents built in Python floats;
    the sums accumulate in Python complex in bra-major pair order.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    width = 8.0 * sigma**2
    pairs = [(bra, ket) for bra in state.terms for ket in state.terms if bra.pol is ket.pol]
    exponents = []
    for bra, ket in pairs:
        exponents.append(-((bra.shift_x - ket.shift_x) ** 2) / width)
        exponents.append(-((bra.shift_y - ket.shift_y) ** 2) / width)
    damps = np.exp(exponents).tolist()
    norm = x_acc = y_acc = xy_acc = 0j
    for (bra, ket), ox, oy in zip(pairs, damps[0::2], damps[1::2]):
        w = bra.coeff.conjugate() * ket.coeff
        fx = 0.5 * (bra.shift_x + ket.shift_x) * ox
        fy = 0.5 * (bra.shift_y + ket.shift_y) * oy
        norm += w * ox * oy
        x_acc += w * fx * oy
        y_acc += w * ox * fy
        xy_acc += w * fx * fy
    return norm, x_acc, y_acc, xy_acc


def moments(state: GaussianSuperposition, sigma: float) -> DeflectionTriple:
    """Exact <x>, <y>, <x y> of the pointer state at width sigma."""
    norm, x_acc, y_acc, xy_acc = _pairwise_sums(state, sigma)
    # numpy's complex division, which rounds differently from Python's: with a
    # complex128 divisor, complex128's reflected division runs first.
    norm = np.complex128(norm)
    return DeflectionTriple(
        x_mm=float((x_acc / norm).real),
        y_mm=float((y_acc / norm).real),
        xy_mm2=float((xy_acc / norm).real),
    )


def closed_form_sequential(delta: float, sigma: float) -> DeflectionTriple:
    """Deflections for the standard two-coupling chain at equal strength delta.

    <x>    = delta / 4
    <y>    = delta / 8 * (5 - 3 exp(-delta^2 / 8 sigma^2))
    <x y>  = delta^2 / 16 * (1 - 3 exp(-delta^2 / 8 sigma^2))

    The joint mean starts at -delta^2/8 in sign-scaled form (weak regime,
    matching the anomalous joint reading -1/8) and crosses to +delta^2/16
    once the couplings separate the lobes.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    damp = np.exp(-(delta**2) / (8.0 * sigma**2))
    return DeflectionTriple(
        x_mm=delta / 4.0,
        y_mm=delta / 8.0 * (5.0 - 3.0 * damp),
        xy_mm2=delta**2 / 16.0 * (1.0 - 3.0 * damp),
    )


def closed_form_two_qubit(delta: float) -> DeflectionTriple:
    """Deflections when the couplings act on two separate photons.

    Both marginals are delta/4, width-independent, and the joint mean is
    their plain product delta^2/16: never negative.
    """
    return DeflectionTriple(x_mm=delta / 4.0, y_mm=delta / 4.0, xy_mm2=delta**2 / 16.0)


def closed_form_single_coupling(delta: float) -> DeflectionTriple:
    """Deflections after the preparation plate and a single X coupling."""
    return DeflectionTriple(x_mm=delta / 4.0, y_mm=0.0, xy_mm2=0.0)


def anomaly_threshold(sigma: float) -> float:
    """Coupling strength where the sequential joint mean crosses zero.

    Solves 1 = 3 exp(-delta^2 / 8 sigma^2), i.e. delta = sigma sqrt(8 ln 3).
    Below this strength the joint mean is negative although both couplings
    shift the beam in the positive direction.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return float(sigma * np.sqrt(8.0 * np.log(3.0)))


def golden_section_minimize(f, lo: float, hi: float, tol: float = 1e-9) -> float:
    """Golden-section minimum of a unimodal function, absolute bracket tolerance."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def bisect(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by bisection, step for step as scipy.optimize.bisect:
    at most 100 halvings, the half-step stops below xtol + 4 eps |x|, and an
    interval whose ends share a sign raises scipy's ValueError."""
    fa, fb = f(a), f(b)
    if fa * fb > 0.0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    rtol = 4.0 * np.finfo(float).eps
    dm = b - a
    for _ in range(100):
        dm *= 0.5
        xm = a + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise RuntimeError("Failed to converge after 100 iterations.")


def max_reversal_delta(sigma: float, tol: float = 1e-9) -> float:
    """Coupling strength minimizing the sequential joint mean.

    Golden-section search over (0, anomaly_threshold); the joint mean
    vanishes at both bracket ends and is negative between them, so the
    minimum is interior.  Stationarity is equivalent to
    3 exp(-t) (1 - t) = 1 with t = delta^2 / (8 sigma^2), t ~ 0.4678.
    """

    def joint(delta):
        return closed_form_sequential(delta, sigma).xy_mm2

    return golden_section_minimize(joint, 0.0, anomaly_threshold(sigma), tol)
