"""Output checks: each op's result against an independent reference.

A check returns None when the output is right, or a one-line reason.  It
runs after the op returns, outside the op's timed interval.  Tolerances are
the ones ``seqweak verify`` states for the same comparison.

Two reasons are marked as the signature of a known seed defect: grid moments
off the reference (``GridMomentsOff``) and a feature refined to the wrong
coupling (``FeatureOff``).  ``check`` counts them as failures like any other
and only notes that they are known when the op's input is in the defect's
class.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from workloads import PIXEL_MM, RISK_FEATURE_ANGLES, RISK_GRID_EDGE, Op

from seqweak.experiments import parse_csv

CALCULUS_TOL = 1e-10  # verify: calculus-agreement
SWEEP_DELTA_TOL = 1e-15
GRID_TOL = {256: (1e-2, 1e-2), 1024: (1e-3, 1e-4)}  # verify: engine-equivalence (marginal, joint)
FEATURE_DELTA_TOL = 1e-6
FEATURE_VALUE_TOL = 1e-10
WEAK_LIMIT_RTOL = 1e-6
WEAK_VALUE_TOL = 1e-9  # the CLI prints weak values rounded to 12 decimals
RELAY_TOL = 1e-9  # verify: slm-calibration
PRINTED_MEANS_RTOL = 1e-5  # the CLI prints image means to 6 significant digits
# What scipy's bisect raises when the closed form it refines on has no sign
# change in the bracket the records found.
SCIPY_NO_BRACKET = "f(a) and f(b) must have different signs"


class GridMomentsOff(str):
    """Reason: grid moments off the reference, as beam tails wrapping around the grid make them."""


class FeatureOff(str):
    """Reason: a crossing or extremum refined to another coupling than the calculus gives."""


@dataclass(frozen=True)
class Failure:
    """A failed op: ``kind`` is raised, exit or check; ``known`` names the seed
    defect whose own signature it is, or is empty."""

    kind: str
    reason: str
    known: str = ""


@dataclass
class Outcome:
    """What one op produced: a return value or exit code, an exception, captured output."""

    files: dict[str, Path]
    value: object = None
    error: Exception | None = None
    stdout: str = ""
    stderr: str = ""


def _gap(got, want) -> float:
    return max(abs(g - w) for g, w in zip(got, want))


def _reference(op: Op, scenario: str, delta: float) -> tuple[float, float, float]:
    params = dict(op.params)
    if "prep" in params:
        return reference.calculus(scenario, delta, params["sigma"], params["prep"], params["mid"])
    return reference.closed_form(scenario, delta, params["sigma"])


def _check_records(op: Op, records, scenario: str) -> str | None:
    """Sweep records against the reference deflections at the op's couplings."""
    p = dict(op.params)
    deltas = reference.sweep_deltas(p["start"], p["stop"], p["steps"])
    if len(records) != len(deltas):
        return f"{len(records)} records for {len(deltas)} couplings"
    engines = p.get("engines", ("analytic",))
    for record, delta in zip(records, deltas):
        if abs(record.delta_mm - delta) > SWEEP_DELTA_TOL:
            return f"coupling {record.delta_mm!r} where {delta!r} was asked"
        want = _reference(op, scenario, delta)
        if "analytic" in engines:
            gap = _gap((record.analytic.x_mm, record.analytic.y_mm, record.analytic.xy_mm2), want)
            if not gap <= CALCULUS_TOL:
                return f"calculus off by {gap:.3g} at delta {delta:.6g} mm (tol {CALCULUS_TOL:g})"
        elif record.analytic is not None:
            return "analytic columns filled without the analytic engine"
        if "grid" in engines:
            marginal_tol, joint_tol = GRID_TOL[p["side"]]
            grid = record.grid
            marginal = _gap((grid.x_mm, grid.y_mm), want[:2])
            joint = abs(grid.xy_mm2 - want[2])
            if not (marginal <= marginal_tol and joint <= joint_tol):
                return GridMomentsOff(f"grid off by {marginal:.3g} mm / {joint:.3g} mm^2 at delta {delta:.6g} mm, "
                        f"sigma {p['sigma']:g} mm (tol {marginal_tol:g} / {joint_tol:g})")
            if record.analytic is not None and record.xy_discrepancy_mm2 != abs(grid.xy_mm2 - record.analytic.xy_mm2):
                return "xy_discrepancy_mm2 is not |xy_grid - xy_analytic|"
        elif record.grid is not None:
            return "grid columns filled without the grid engine"
    return None


def _check_sweep_cli(op: Op, out: Outcome) -> str | None:
    p = dict(op.params)
    csv_path = out.files["csv"]
    records = parse_csv(csv_path.read_bytes())
    if out.stdout.strip() != f"wrote {p['steps']} rows to {csv_path}":
        return f"unexpected stdout {out.stdout.strip()!r}"
    problem = _check_records(op, records, p["scenario"])
    if problem:
        return problem
    meta = dict(line.split("=", 1) for line in Path(str(csv_path) + ".meta").read_text().splitlines())
    grid_text = f"{p['side']}x{p['side']}@13.5um" if "grid" in p["engines"] else ""
    expected = {"scenario": p["scenario"], "grid": grid_text, "engines": "+".join(sorted(p["engines"]))}
    for key, value in expected.items():
        if meta.get(key) != value:
            return f".meta has {key}={meta.get(key)!r}, expected {value!r}"
    if float(meta["sigma_mm"]) != p["sigma"]:
        return f".meta sigma_mm={meta['sigma_mm']} for sigma {p['sigma']!r}"
    return None


def _parse_state(text: str) -> np.ndarray:
    if text.startswith("proj:"):
        text = text[len("proj:"):]
    vec = np.array([complex(part.replace("i", "j")) for part in text.split(",")])
    return vec / np.hypot(abs(vec[0]), abs(vec[1]))


def _parse_observable(text: str) -> np.ndarray:
    if text.startswith("proj:"):
        vec = _parse_state(text)
        return np.outer(vec, vec.conj())
    return np.array([complex(part.replace("i", "j")) for part in text.split(",")]).reshape(2, 2)


_NUMBER = r"[0-9.]+(?:e[+-]?[0-9]+)?"
_VALUE_LINE = re.compile(
    rf"value = (-?{_NUMBER})([+-])({_NUMBER})i  interval=\[(-?{_NUMBER}),(-?{_NUMBER})\]  (ANOMALOUS|not anomalous)$"
)


def _check_weak_value(op: Op, out: Outcome) -> str | None:
    p = dict(op.params)
    pre = _parse_state(p["pre"])
    if "post" in p:
        post, matrix = _parse_state(p["post"]), _parse_observable(p["a"])
        value = np.vdot(post, matrix @ pre) / np.vdot(post, pre)
        lo, hi = np.linalg.eigvalsh(matrix)
    else:
        first, second = _parse_observable(p["first"]), _parse_observable(p["second"])
        value = np.vdot(pre, second @ (first @ pre))
        products = [a * b for a in np.linalg.eigvalsh(first) for b in np.linalg.eigvalsh(second)]
        lo, hi = min(products), max(products)
    match = _VALUE_LINE.match(out.stdout.strip())
    if not match:
        return f"unexpected stdout {out.stdout.strip()!r}"
    re_text, sign, im_text, lo_text, hi_text, verdict = match.groups()
    got = complex(float(re_text), float(im_text) * (1.0 if sign == "+" else -1.0))
    scale = max(1.0, abs(value))
    if abs(got - value) > WEAK_VALUE_TOL * scale:
        return f"weak value {got} where {value} is right"
    if max(abs(float(lo_text) - lo), abs(float(hi_text) - hi)) > WEAK_VALUE_TOL:
        return f"interval [{lo_text},{hi_text}] where [{lo:.12g},{hi:.12g}] is right"
    distance = min(abs(value.real - lo), abs(value.real - hi))
    anomalous = value.real < lo or value.real > hi
    if distance > WEAK_VALUE_TOL * scale and (verdict == "ANOMALOUS") != anomalous:
        return f"verdict {verdict!r} for value {value.real:.12g} in [{lo:.12g},{hi:.12g}]"
    return None


def _image_means(values: np.ndarray, side: int) -> tuple[float, float, float]:
    x = (np.arange(side) - side // 2) * PIXEL_MM
    y = (side // 2 - np.arange(side)) * PIXEL_MM
    weights = values / values.sum()
    col = weights.sum(axis=0)
    row = weights.sum(axis=1)
    return float(col @ x), float(row @ y), float(y @ weights @ x)


def _check_image(op: Op, out: Outcome) -> str | None:
    p = dict(op.params)
    side = p["side"]
    pgm = out.files["pgm"].read_bytes()
    header = f"P5\n{side} {side}\n65535\n".encode("ascii")
    if not pgm.startswith(header) or len(pgm) != len(header) + 2 * side * side:
        return f"PGM has header {pgm[:20]!r} and {len(pgm)} bytes"
    raw = out.files["raw"].read_bytes()
    raw_header = struct.Struct("<8sIId")
    if len(raw) != raw_header.size + 8 * side * side:
        return f"raw dump has {len(raw)} bytes"
    magic, nx, ny, pixel_um = raw_header.unpack_from(raw)
    if (magic, nx, ny, pixel_um) != (b"WMGRID01", side, side, 13.5):
        return f"raw header {(magic, nx, ny, pixel_um)!r}"
    values = np.frombuffer(raw, dtype="<f8", offset=raw_header.size).reshape(side, side)
    if not values.min() >= 0.0:
        return "raw intensity has negative or NaN pixels"
    pixels = np.frombuffer(pgm, dtype=">u2", offset=len(header)).reshape(side, side)
    if not np.array_equal(pixels, np.rint(values * (65535.0 / values.max()))):
        return "PGM pixels are not the raw intensity scaled to 65535"
    means = _image_means(values, side)
    printed = re.search(r"means: x = (\S+) mm, y = (\S+) mm$", out.stdout.strip())
    if not printed:
        return f"unexpected stdout {out.stdout.strip()!r}"
    for got, want in zip(map(float, printed.groups()), means):
        if abs(got - want) > PRINTED_MEANS_RTOL * max(abs(want), 1e-6):
            return f"printed mean {got} but the raw dump gives {want:.6g}"
    want = reference.closed_form("sequential", p["delta"], p["sigma"])
    marginal_tol, joint_tol = GRID_TOL[side]
    marginal, joint = _gap(means[:2], want[:2]), abs(means[2] - want[2])
    if not (marginal <= marginal_tol and joint <= joint_tol):
        return GridMomentsOff(f"image moments off by {marginal:.3g} mm / {joint:.3g} mm^2 at delta {p['delta']:.6g} mm, "
                f"sigma {p['sigma']:g} mm (tol {marginal_tol:g} / {joint_tol:g})")
    return None


def _check_features(op: Op, value, error) -> str | None:
    p = dict(op.params)
    deltas = reference.sweep_deltas(p["start"], p["stop"], p["steps"])

    def joint(delta):
        return reference.calculus("sequential", delta, p["sigma"], p["prep"], p["mid"])[2]

    if op.kind == "lib.find_zero_crossing":
        want = reference.zero_crossing(joint, deltas)
        if want is None:
            return None if type(error).__name__ == "NoSignChange" else f"{value!r} where no sign change exists"
        if error is not None:
            return f"raised {type(error).__name__} where the joint mean crosses zero at {want:.9g} mm"
        if abs(value - want) > FEATURE_DELTA_TOL:
            return FeatureOff(f"crossing {value:.9g} mm, calculus gives {want:.9g} mm")
        return None
    want = reference.interior_minimum(joint, deltas)
    if want is None:
        return None if type(error).__name__ == "NoInteriorExtremum" else f"{value!r} where no interior dip exists"
    if error is not None:
        return f"raised {type(error).__name__} where the joint mean dips at {want[0]:.9g} mm"
    delta, xy = value
    if abs(delta - want[0]) > FEATURE_DELTA_TOL or abs(xy - want[1]) > FEATURE_VALUE_TOL:
        return FeatureOff(f"extremum ({delta:.6g} mm, {xy:.6g} mm^2), calculus gives ({want[0]:.6g} mm, {want[1]:.6g} mm^2)")
    return None


def _check_weak_limit(op: Op, value) -> str | None:
    p = dict(op.params)
    deltas = [d for d in reference.sweep_deltas(p["start"], p["stop"], p["steps"]) if d > 0.0][:5]
    want = sum(
        reference.calculus("sequential", d, p["sigma"], p["prep"], p["mid"])[2] / d**2 for d in deltas
    ) / len(deltas)
    return None if abs(value - want) <= WEAK_LIMIT_RTOL * abs(want) else f"ratio {value!r}, calculus gives {want!r}"


def _check_relay(value) -> str | None:
    routed, shifted = value
    deviation = max(
        float(np.abs(routed.h_plane - shifted.h_plane).max()),
        float(np.abs(routed.v_plane - shifted.v_plane).max()),
    )
    if not deviation <= RELAY_TOL:
        return f"relay and conditional shift differ by {deviation:.3g} (tol {RELAY_TOL:g})"
    return None


def _known(op: Op, failure: Failure) -> str:
    """The seed defect a failure is the signature of, or "" for any other failure."""
    if op.at_risk == RISK_GRID_EDGE and isinstance(failure.reason, GridMomentsOff):
        return RISK_GRID_EDGE
    if op.at_risk == RISK_FEATURE_ANGLES:
        if isinstance(failure.reason, FeatureOff):
            return RISK_FEATURE_ANGLES
        if (op.kind == "lib.find_zero_crossing" and failure.kind == "raised"
                and failure.reason == f"ValueError: {SCIPY_NO_BRACKET}"):
            return RISK_FEATURE_ANGLES
    return ""


def check(op: Op, out: Outcome) -> Failure | None:
    """None when the op's output is right, else the failure.

    Failure kinds: ``raised`` (an exception escaped), ``exit`` (non-zero exit
    code) and ``check`` (wrong output).  Every one is a failure; ``known`` is
    set only for a seed defect's own signature on an input of its class.
    """
    failure = _failure(op, out)
    if failure is None:
        return None
    return Failure(failure.kind, failure.reason, _known(op, failure))


def _failure(op: Op, out: Outcome) -> Failure | None:
    expected_errors = {"lib.find_zero_crossing", "lib.find_extremum"}
    if out.error is not None and op.kind not in expected_errors:
        return Failure("raised", f"{type(out.error).__name__}: {out.error}")
    try:
        if op.kind.startswith("cli."):
            if out.value != 0:
                return Failure("exit", f"exit code {out.value}: {out.stderr.strip()}")
            if op.kind.startswith("cli.sweep"):
                problem = _check_sweep_cli(op, out)
            elif op.kind == "cli.weak-value":
                problem = _check_weak_value(op, out)
            else:
                problem = _check_image(op, out)
        elif op.kind == "lib.run_sweep":
            problem = _check_records(op, out.value, "sequential")
        elif op.kind in expected_errors:
            known = out.error is None or type(out.error).__name__ in ("NoSignChange", "NoInteriorExtremum")
            if not known:
                return Failure("raised", f"{type(out.error).__name__}: {out.error}")
            problem = _check_features(op, out.value, out.error)
        elif op.kind == "lib.weak_limit_ratio":
            problem = _check_weak_limit(op, out.value)
        elif op.kind == "lib.relay":
            problem = _check_relay(out.value)
        elif op.kind == "lib.check":
            problem = None if out.value.passed else f"check failed: {out.value.detail}"
        else:
            raise ValueError(f"no check for op kind {op.kind!r}")
    except (OSError, ValueError, KeyError, AttributeError, TypeError) as exc:
        problem = f"output unreadable: {type(exc).__name__}: {exc}"
    return None if problem is None else Failure("check", problem)
