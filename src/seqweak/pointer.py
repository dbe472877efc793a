"""Exact pointer calculus for Gaussian beams under polarization-conditioned shifts.

A pointer state is a finite superposition of shifted 2-D Gaussians sharing
one width, which the state carries; each term carries its (H, V) polarization
amplitudes, as the grid engine's factors do.  Amplitudes follow the convention

    phi_s(x) = (2 pi sigma^2)^(-1/4) exp(-(x - s)^2 / (4 sigma^2)),

so the intensity |phi|^2 has standard deviation sigma.  Every expectation
value reduces to two closed-form kernels:

    <phi_a|phi_b>   = exp(-(a - b)^2 / (8 sigma^2))
    <phi_a|x|phi_b> = (a + b)/2 * exp(-(a - b)^2 / (8 sigma^2))

which makes the calculus exact; no quadrature or discretization enters.
moments runs in two steps: kernel_pairs lists the same-polarization part
pairs with their weights and their (bra, ket) shifts, and pair_moments
evaluates the kernels and the sums over that list at given shifts.  A
coupling's strength enters only through the shifts, so a scenario keeps
its pair lists and a point of a sweep evaluates only the sums.
All lengths are millimetres.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitary, OutOfFloatRange
from .qubit import QubitState

UNITARITY_TOL = 1e-10


class Axis(enum.Enum):
    X = "x"
    Y = "y"


@dataclass(frozen=True)
class GaussianSuperposition:
    """Finite superposition of shifted Gaussians of width sigma; each term is
    a tuple (h, v, shift_x, shift_y) of its H and V amplitudes and its shift."""

    terms: tuple[tuple[complex, complex, float, float], ...]
    sigma: float

    def __post_init__(self):
        if not self.terms:
            raise ValueError("superposition needs at least one term")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class DeflectionTriple:
    """Marginal means <x>, <y> and the joint mean <x y>."""

    x_mm: float
    y_mm: float
    xy_mm2: float


def initial_pointer_state(pol: QubitState, sigma: float) -> GaussianSuperposition:
    """Centered Gaussian of width sigma carrying the given polarization."""
    return GaussianSuperposition(terms=((pol.amp_h, pol.amp_v, 0.0, 0.0),), sigma=sigma)


def check_coupling(delta: float) -> None:
    """A coupling shift is finite and nonnegative; ValueError otherwise."""
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"coupling shift must be finite and nonnegative, got {delta!r}")


def apply_coupling(
    state: GaussianSuperposition, delta: float, axis: Axis
) -> GaussianSuperposition:
    """Translate the H components by +delta along the given axis.

    Implements exp(-i delta p (x) |H><H|), norm-preserving: each term splits
    into its H part, which moves, followed by its V part, which stays.
    """
    check_coupling(delta)
    if delta == 0.0:
        return state
    split = []
    for h, v, sx, sy in state.terms:
        moved = (sx + delta, sy) if axis is Axis.X else (sx, sy + delta)
        split += [(h, 0j, *moved), (0j, v, sx, sy)]
    return GaussianSuperposition(terms=tuple(split), sigma=state.sigma)


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
    for g in gram:
        if not math.hypot(g.real, g.imag) <= UNITARITY_TOL:
            with np.errstate(invalid="ignore", over="ignore"):
                defect = np.abs(m.conj().T @ m - np.eye(2)).max()
            raise NonUnitary(f"matrix deviates from unitarity by {defect:g}")
    return a, b, c, d


def apply_polarization(
    state: GaussianSuperposition, u: np.ndarray
) -> GaussianSuperposition:
    """Mix the H and V amplitudes of every term with a 2x2 polarization unitary."""
    a, b, c, d = checked_unitary(u)
    terms = tuple((a * h + b * v, c * h + d * v, sx, sy) for h, v, sx, sy in state.terms)
    return GaussianSuperposition(terms=terms, sigma=state.sigma)


def kernel_pairs(state: GaussianSuperposition):
    """The same-polarization part pairs of the state as (pairs, lobes).

    Each term contributes its nonzero H and V parts, in term order; pairs
    holds (w, i, j) per pair in bra-major order, with w = conj(ca) cb, and
    lobes[i] and lobes[j] are the pair's (bra, ket) shifts along x and y.
    Equal lobes share one entry.
    """
    parts = [
        (amp, sx, sy, pol)
        for h, v, sx, sy in state.terms
        for pol, amp in ((0, h), (1, v))
        if amp
    ]
    lobes = {}
    pairs = [
        (
            ca.conjugate() * cb,
            lobes.setdefault((ax, bx), len(lobes)),
            lobes.setdefault((ay, by), len(lobes)),
        )
        for ca, ax, ay, bra_pol in parts
        for cb, bx, by, ket_pol in parts
        if bra_pol == ket_pol
    ]
    return pairs, list(lobes)


def pair_moments(pairs, lobes, sigma: float) -> DeflectionTriple:
    """<x>, <y> and <x y> over a kernel_pairs list at the given lobe shifts.

    Each lobe (a, b) has the overlap o = exp(-(a - b)^2 / (8 sigma^2)), all
    from one np.exp call with the exponents built in Python floats, and the
    first moment (a + b)/2 o.  The <psi|psi>, <x>, <y> and <x y> sums
    accumulate in Python complex in pair order.
    """
    try:
        width = 8.0 * sigma**2
        if width < sys.float_info.min:  # subnormal or 0: a few bits, or none
            raise OutOfFloatRange(f"kernel width 8 sigma^2 underflows at sigma = {sigma:g} mm")
        exponents = [-((a - b) ** 2) / width for a, b in lobes]
    except OverflowError as exc:
        raise OutOfFloatRange(f"a squared shift or width overflows at sigma = {sigma:g} mm") from exc
    kernels = [(o, 0.5 * (a + b) * o) for (a, b), o in zip(lobes, np.exp(exponents).tolist())]
    norm = x_acc = y_acc = xy_acc = 0j
    for w, i, j in pairs:
        ox, fx = kernels[i]
        oy, fy = kernels[j]
        wo, wf = w * ox, w * fx  # each term is w * (x kernel) * (y kernel)
        norm += wo * oy
        x_acc += wf * oy
        y_acc += wo * fy
        xy_acc += wf * fy
    # Each ratio is numpy's complex division, which rounds differently from
    # Python's: with a complex128 divisor, complex128's reflected division
    # runs first.  Three scalar divisions take less time than one np.divide
    # over the three sums, and warn by the same name.
    norm = np.complex128(norm)
    return DeflectionTriple(
        float((x_acc / norm).real), float((y_acc / norm).real), float((xy_acc / norm).real)
    )


def moments(state: GaussianSuperposition) -> DeflectionTriple:
    """Exact <x>, <y>, <x y> of the pointer state."""
    return pair_moments(*kernel_pairs(state), state.sigma)


def _check_closed_form(delta: float = 0.0, sigma: float = 1.0) -> None:
    """A closed form takes a finite coupling and a positive, finite width."""
    if not 0.0 < sigma < math.inf:  # NaN fails too
        raise ValueError("sigma must be positive and finite")
    if not math.isfinite(delta):
        raise ValueError(f"coupling must be finite, got {delta!r}")


def closed_form_sequential(delta: float, sigma: float) -> DeflectionTriple:
    """Deflections for the standard two-coupling chain at equal strength delta.

    <x>    = delta / 4
    <y>    = delta / 8 * (5 - 3 exp(-delta^2 / 8 sigma^2))
    <x y>  = delta^2 / 16 * (1 - 3 exp(-delta^2 / 8 sigma^2))

    The joint mean starts at -delta^2/8 in sign-scaled form (weak regime,
    matching the anomalous joint reading -1/8) and crosses to +delta^2/16
    once the couplings separate the lobes.
    """
    _check_closed_form(delta, sigma)
    damp = float(np.exp(-(delta**2) / (8.0 * sigma**2)))
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
    _check_closed_form(delta)
    return DeflectionTriple(x_mm=delta / 4.0, y_mm=delta / 4.0, xy_mm2=delta**2 / 16.0)


def closed_form_single_coupling(delta: float) -> DeflectionTriple:
    """Deflections after the preparation plate and a single X coupling."""
    _check_closed_form(delta)
    return DeflectionTriple(x_mm=delta / 4.0, y_mm=0.0, xy_mm2=0.0)


def _finite_length(value: float, name: str, sigma: float) -> float:
    """A coupling strength, sigma times a constant; OutOfFloatRange once it
    overflows, from sigma of about 6e307 mm up."""
    if not math.isfinite(value):
        raise OutOfFloatRange(f"the {name} overflows at sigma = {sigma:g} mm")
    return float(value)


def anomaly_threshold(sigma: float) -> float:
    """Coupling strength where the sequential joint mean crosses zero.

    Solves 1 = 3 exp(-delta^2 / 8 sigma^2), i.e. delta = sigma sqrt(8 ln 3).
    Below this strength the joint mean is negative although both couplings
    shift the beam in the positive direction.
    """
    _check_closed_form(sigma=sigma)
    return _finite_length(sigma * math.sqrt(8.0 * math.log(3.0)), "anomaly threshold", sigma)


def stationary_t(a: float, b: float, lo: float, hi: float) -> float:
    """Where t (a + b e^-t) is least in [lo, hi]: the end on the side of t = 2
    where its curvature b (t - 2) e^-t is negative, or the least point on the
    other side, where its slope a + b (1 - t) e^-t rises, found by Newton steps
    bisected where one would leave the bracket or the curvature is 0."""
    two = min(max(2.0, lo), hi)
    far, (lo, hi) = (lo, (two, hi)) if b > 0.0 else (hi, (lo, two))
    t = 0.5 * (lo + hi)
    for _ in range(100):
        damp = math.exp(-t)
        slope = a + b * (1.0 - t) * damp
        lo, hi = (t, hi) if slope < 0.0 else (lo, t)
        curvature = b * (t - 2.0) * damp
        step = t - slope / curvature if curvature else math.nan
        if step == t:
            break
        t = step if lo < step < hi else 0.5 * (lo + hi)
    return min(t, far, key=lambda s: s * (a + b * math.exp(-s)))


def max_reversal_delta(sigma: float) -> float:
    """Coupling strength minimizing the sequential joint mean.

    With t = delta^2 / (8 sigma^2) the joint mean is sigma^2 t (1 - 3 e^-t) / 2,
    least in [0, 1] at stationary_t(1, -3, 0, 1), where 3 (1 - t) e^-t = 1:
    t* ~ 0.4678, and delta = sigma sqrt(8 t*).
    """
    _check_closed_form(sigma=sigma)
    t = stationary_t(1.0, -3.0, 0.0, 1.0)
    return _finite_length(sigma * math.sqrt(8.0 * t), "deepest reversal", sigma)
