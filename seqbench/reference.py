"""Reference values the benchmark checks seqweak's outputs against.

Everything here is written from the physics, not imported from seqweak, so a
defect in the package cannot hide behind the same defect in its check:

- the closed forms of the three standard trains at plate angles 30/-30 deg;
- a small Gaussian-superposition calculus for any plate angles, with the
  overlap kernels <a|b> = exp(-(a-b)^2 / 8 sigma^2) and
  <a|x|b> = (a+b)/2 <a|b> (amplitude width convention of seqweak.pointer);
- a bisection and a golden-section search on that calculus.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_PREP_DEG = 30.0
DEFAULT_MID_DEG = -30.0


def closed_form(scenario: str, delta: float, sigma: float) -> tuple[float, float, float]:
    """(<x>, <y>, <xy>) of a standard train at the default plate angles."""
    if scenario == "sequential":
        damp = math.exp(-(delta**2) / (8.0 * sigma**2))
        return delta / 4.0, delta / 8.0 * (5.0 - 3.0 * damp), delta**2 / 16.0 * (1.0 - 3.0 * damp)
    if scenario == "two-qubit":
        return delta / 4.0, delta / 4.0, delta**2 / 16.0
    if scenario == "single":
        return delta / 4.0, 0.0, 0.0
    raise ValueError(f"unknown scenario {scenario!r}")


def _hwp(theta_deg: float) -> np.ndarray:
    two = 2.0 * math.radians(theta_deg)
    return np.array([[math.cos(two), math.sin(two)], [math.sin(two), -math.cos(two)]])


class _Beam:
    """Terms (coefficient, x shift, y shift, polarization 0=H / 1=V) of one beam."""

    def __init__(self):
        self.coeff = np.array([1.0 + 0j])
        self.sx = np.zeros(1)
        self.sy = np.zeros(1)
        self.pol = np.zeros(1, dtype=int)

    def plate(self, theta_deg: float) -> "_Beam":
        m = _hwp(theta_deg)
        self.coeff = np.concatenate([self.coeff * m[0, self.pol], self.coeff * m[1, self.pol]])
        self.sx = np.tile(self.sx, 2)
        self.sy = np.tile(self.sy, 2)
        self.pol = np.repeat([0, 1], self.pol.size)
        return self

    def couple(self, axis: str, delta: float) -> "_Beam":
        moved = self.pol == 0
        if axis == "x":
            self.sx = self.sx + delta * moved
        else:
            self.sy = self.sy + delta * moved
        return self

    def moments(self, sigma: float) -> tuple[float, float, float]:
        same = self.pol[:, None] == self.pol[None, :]
        w = np.conj(self.coeff)[:, None] * self.coeff[None, :] * same
        ox = np.exp(-((self.sx[:, None] - self.sx[None, :]) ** 2) / (8.0 * sigma**2))
        oy = np.exp(-((self.sy[:, None] - self.sy[None, :]) ** 2) / (8.0 * sigma**2))
        fx = 0.5 * (self.sx[:, None] + self.sx[None, :]) * ox
        fy = 0.5 * (self.sy[:, None] + self.sy[None, :]) * oy
        norm = (w * ox * oy).sum()
        return (
            float(((w * fx * oy).sum() / norm).real),
            float(((w * ox * fy).sum() / norm).real),
            float(((w * fx * fy).sum() / norm).real),
        )


def calculus(
    scenario: str,
    delta: float,
    sigma: float,
    prep_deg: float = DEFAULT_PREP_DEG,
    mid_deg: float = DEFAULT_MID_DEG,
) -> tuple[float, float, float]:
    """(<x>, <y>, <xy>) of a train at any plate angles, from the Gaussian calculus."""
    first = _Beam().plate(prep_deg).couple("x", delta)
    if scenario == "single":
        return first.moments(sigma)
    if scenario == "sequential":
        return first.plate(mid_deg).couple("y", delta).moments(sigma)
    if scenario == "two-qubit":
        x_a = first.plate(mid_deg).moments(sigma)[0]
        y_b = _Beam().plate(prep_deg).couple("y", delta).moments(sigma)[1]
        return x_a, y_b, x_a * y_b
    raise ValueError(f"unknown scenario {scenario!r}")


def sweep_deltas(start: float, stop: float, steps: int) -> list[float]:
    """The couplings of an inclusive uniform sweep, as seqweak spaces them."""
    return [float(d) for d in np.linspace(start, stop, steps)]


def bisect_root(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Root of f in a sign-changing bracket."""
    f_lo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Minimiser of a unimodal f on [lo, hi]."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def zero_crossing(joint, deltas: list[float]) -> float | None:
    """First sign change of the joint mean between sweep points, refined; None if none."""
    values = [joint(d) for d in deltas]
    for (d_lo, y_lo), (d_hi, y_hi) in zip(zip(deltas, values), zip(deltas[1:], values[1:])):
        if y_lo * y_hi < 0.0:
            return bisect_root(joint, d_lo, d_hi)
    return None


def interior_minimum(joint, deltas: list[float]) -> tuple[float, float] | None:
    """First interior dip of the joint mean between sweep points, refined; None if none."""
    values = [joint(d) for d in deltas]
    for i in range(1, len(deltas) - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            where = golden_min(joint, deltas[i - 1], deltas[i + 1])
            return where, joint(where)
    return None
