"""Sweep harness tying the analytic calculus and the grid engine together.

A scenario fixes the optical train; a sweep runs it over a range of coupling
strengths with one or both engines and exports the deflections as CSV plus a
key=value metadata sidecar.  The default beam width 0.1116 mm is derived by
inverting the 0.331 mm zero crossing of the joint deflection, not measured.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import bisect

from . import __version__
from .errors import NoInteriorExtremum, NoSignChange, SimulationError, SweepEngineError
from .grid import (
    GridSpec,
    IntensityImage,
    PolarizedField,
    apply_conditional_shift,
    apply_polarization_unitary,
    discrete_means,
    init_gaussian,
    intensity,
)
from .pointer import (
    Axis,
    DeflectionTriple,
    apply_coupling,
    apply_polarization,
    closed_form_sequential,
    golden_section_minimize,
    initial_pointer_state,
    moments,
)
from .qubit import HORIZONTAL, waveplate_hwp

DEFAULT_SIGMA_MM = 0.1116
ZERO_CROSSING_TOL_MM = 1e-9
EXTREMUM_TOL_MM = 1e-9

CSV_HEADER = (
    "delta_mm,x_analytic_mm,y_analytic_mm,xy_analytic_mm2,"
    "x_grid_mm,y_grid_mm,xy_grid_mm2,xy_discrepancy_mm2"
)


class ScenarioKind(enum.Enum):
    SEQUENTIAL = "sequential"
    TWO_QUBIT = "two-qubit"
    SINGLE = "single"


class Engine(enum.Enum):
    ANALYTIC = "analytic"
    GRID = "grid"


@dataclass(frozen=True)
class Scenario:
    """Optical train selection plus beam width and waveplate angles."""

    kind: ScenarioKind
    sigma_mm: float = DEFAULT_SIGMA_MM
    prep_angle_deg: float = 30.0
    mid_angle_deg: float = -30.0

    def __post_init__(self):
        if not 0.0 < self.sigma_mm < math.inf:
            raise ValueError("sigma must be positive and finite")


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive, uniformly spaced coupling-strength sweep."""

    scenario: Scenario
    delta_start_mm: float = 0.0
    delta_stop_mm: float = 0.711
    steps: int = 31
    engines: frozenset[Engine] = frozenset({Engine.ANALYTIC})
    grid: GridSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "engines", frozenset(self.engines))
        if self.steps < 2:
            raise ValueError("a sweep needs at least two points")
        if not (math.isfinite(self.delta_start_mm) and math.isfinite(self.delta_stop_mm)):
            raise ValueError("sweep endpoints must be finite")
        if self.delta_start_mm < 0.0:
            raise ValueError("sweep must start at a nonnegative coupling")
        if not self.delta_stop_mm > self.delta_start_mm:
            raise ValueError("sweep must stop above its start")
        if not self.engines:
            raise ValueError("select at least one engine")
        if Engine.GRID in self.engines and self.grid is None:
            raise ValueError("the grid engine needs a GridSpec")


@dataclass(frozen=True)
class SweepRecord:
    """One sweep point: per-engine deflections and their joint-mean gap."""

    delta_mm: float
    analytic: DeflectionTriple | None
    grid: DeflectionTriple | None
    xy_discrepancy_mm2: float | None


def analytic_deflections(scenario: Scenario, delta_mm: float) -> DeflectionTriple:
    """Exact deflections from the Gaussian calculus for any plate angles."""
    prep = waveplate_hwp(scenario.prep_angle_deg)
    mid = waveplate_hwp(scenario.mid_angle_deg)
    first = apply_coupling(
        apply_polarization(initial_pointer_state(HORIZONTAL), prep), Axis.X, delta_mm
    )
    if scenario.kind is ScenarioKind.SINGLE:
        return moments(first, scenario.sigma_mm)
    if scenario.kind is ScenarioKind.SEQUENTIAL:
        chained = apply_coupling(apply_polarization(first, mid), Axis.Y, delta_mm)
        return moments(chained, scenario.sigma_mm)
    # Two separate photons: A takes the X coupling and the second plate,
    # B takes the Y coupling; the joint mean factorizes.
    a_triple = moments(apply_polarization(first, mid), scenario.sigma_mm)
    partner = apply_coupling(
        apply_polarization(initial_pointer_state(HORIZONTAL), prep), Axis.Y, delta_mm
    )
    b_triple = moments(partner, scenario.sigma_mm)
    return DeflectionTriple(
        x_mm=a_triple.x_mm, y_mm=b_triple.y_mm, xy_mm2=a_triple.x_mm * b_triple.y_mm
    )


def _prepare_beam(scenario: Scenario, grid: GridSpec) -> PolarizedField:
    """The coupling-independent start of every grid train: the Gaussian
    beam after the preparation plate."""
    return apply_polarization_unitary(
        init_gaussian(grid, scenario.sigma_mm, HORIZONTAL),
        waveplate_hwp(scenario.prep_angle_deg),
    )


def _train_image(scenario: Scenario, delta_mm: float, prepared: PolarizedField) -> IntensityImage:
    field = apply_conditional_shift(prepared, delta_mm, Axis.X)
    if scenario.kind is ScenarioKind.SEQUENTIAL:
        field = apply_conditional_shift(
            apply_polarization_unitary(field, waveplate_hwp(scenario.mid_angle_deg)),
            delta_mm,
            Axis.Y,
        )
    return intensity(field)


def _train_deflections(
    scenario: Scenario, delta_mm: float, prepared: PolarizedField
) -> DeflectionTriple:
    if scenario.kind is not ScenarioKind.TWO_QUBIT:
        return discrete_means(_train_image(scenario, delta_mm, prepared))
    # Both photons leave the same preparation; A takes the X coupling and
    # the second plate, B the Y coupling, and the joint mean factorizes.
    first = apply_conditional_shift(prepared, delta_mm, Axis.X)
    mid = waveplate_hwp(scenario.mid_angle_deg)
    a_triple = discrete_means(intensity(apply_polarization_unitary(first, mid)))
    b_triple = discrete_means(intensity(apply_conditional_shift(prepared, delta_mm, Axis.Y)))
    return DeflectionTriple(
        x_mm=a_triple.x_mm, y_mm=b_triple.y_mm, xy_mm2=a_triple.x_mm * b_triple.y_mm
    )


def scenario_intensity_image(scenario: Scenario, delta_mm: float, grid: GridSpec) -> IntensityImage:
    """Detector image of the single-beam trains (sequential or single)."""
    if scenario.kind is ScenarioKind.TWO_QUBIT:
        raise ValueError("the two-beam scenario has no single detector image")
    return _train_image(scenario, delta_mm, _prepare_beam(scenario, grid))


def grid_deflections(scenario: Scenario, delta_mm: float, grid: GridSpec) -> DeflectionTriple:
    """Deflections read off the simulated optical train on the grid."""
    return _train_deflections(scenario, delta_mm, _prepare_beam(scenario, grid))


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Run the sweep, ascending delta, one record per point.

    The grid beam is prepared once, at the first point, and shared by all.
    """
    records = []
    prepared = None
    for delta in np.linspace(spec.delta_start_mm, spec.delta_stop_mm, spec.steps):
        delta = float(delta)
        analytic = grid_triple = discrepancy = None
        try:
            if Engine.ANALYTIC in spec.engines:
                analytic = analytic_deflections(spec.scenario, delta)
            if Engine.GRID in spec.engines:
                if prepared is None:
                    prepared = _prepare_beam(spec.scenario, spec.grid)
                grid_triple = _train_deflections(spec.scenario, delta, prepared)
        except SimulationError as exc:
            raise SweepEngineError(delta, str(exc)) from exc
        if analytic is not None and grid_triple is not None:
            discrepancy = abs(grid_triple.xy_mm2 - analytic.xy_mm2)
        records.append(
            SweepRecord(
                delta_mm=delta,
                analytic=analytic,
                grid=grid_triple,
                xy_discrepancy_mm2=discrepancy,
            )
        )
    return records


def _analytic_joint_series(records: list[SweepRecord]) -> list[tuple[float, float]]:
    series = [(r.delta_mm, r.analytic.xy_mm2) for r in records if r.analytic is not None]
    if len(series) != len(records):
        raise ValueError("records are missing analytic deflections")
    return series


def find_zero_crossing(records: list[SweepRecord], sigma_mm: float) -> float:
    """Coupling strength where the sequential joint mean changes sign.

    Bisection of the closed form between the bracketing sweep records.
    """
    series = _analytic_joint_series(records)
    for (d_lo, y_lo), (d_hi, y_hi) in zip(series, series[1:]):
        if y_lo * y_hi < 0.0:
            return float(
                bisect(
                    lambda d: closed_form_sequential(d, sigma_mm).xy_mm2,
                    d_lo,
                    d_hi,
                    xtol=ZERO_CROSSING_TOL_MM,
                )
            )
    raise NoSignChange("joint mean keeps one sign over the sweep")


def find_extremum(records: list[SweepRecord], sigma_mm: float) -> tuple[float, float]:
    """Interior minimum of the sequential joint mean, golden-section refined."""
    series = _analytic_joint_series(records)
    for i in range(1, len(series) - 1):
        if series[i][1] < series[i - 1][1] and series[i][1] < series[i + 1][1]:
            delta = golden_section_minimize(
                lambda d: closed_form_sequential(d, sigma_mm).xy_mm2,
                series[i - 1][0],
                series[i + 1][0],
                tol=EXTREMUM_TOL_MM,
            )
            return delta, closed_form_sequential(delta, sigma_mm).xy_mm2
    raise NoInteriorExtremum("joint mean has no interior dip over the sweep")


def weak_limit_ratio(records: list[SweepRecord]) -> float:
    """Mean of xy/delta^2 over the five weakest nonzero couplings."""
    series = [pair for pair in _analytic_joint_series(records) if pair[0] > 0.0]
    if len(series) < 5:
        raise ValueError("need at least five nonzero sweep points")
    series.sort()
    return float(np.mean([joint / delta**2 for delta, joint in series[:5]]))


def infer_sigma_from_threshold(delta_star_mm: float) -> float:
    """Beam width whose joint-mean zero crossing sits at the given coupling."""
    if not delta_star_mm > 0.0:
        raise ValueError("threshold must be positive")
    return float(delta_star_mm / np.sqrt(8.0 * np.log(3.0)))


def _format_number(value: float | None) -> str:
    if value is None:
        return ""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def records_to_csv(records: list[SweepRecord]) -> bytes:
    """CSV with LF endings and shortest round-trip decimals."""
    lines = [CSV_HEADER]
    for r in records:
        analytic = r.analytic or DeflectionTriple(None, None, None)
        grid_triple = r.grid or DeflectionTriple(None, None, None)
        lines.append(
            ",".join(
                _format_number(v)
                for v in (
                    r.delta_mm,
                    analytic.x_mm,
                    analytic.y_mm,
                    analytic.xy_mm2,
                    grid_triple.x_mm,
                    grid_triple.y_mm,
                    grid_triple.xy_mm2,
                    r.xy_discrepancy_mm2,
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_csv(data: bytes) -> list[SweepRecord]:
    """Inverse of records_to_csv; exact float round trip."""
    lines = data.decode("ascii").split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    records = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 8:
            raise ValueError(f"malformed CSV row: {line!r}")
        numbers = [float(f) if f else None for f in fields]
        analytic = grid_triple = None
        if all(v is not None for v in numbers[1:4]):
            analytic = DeflectionTriple(*numbers[1:4])
        if all(v is not None for v in numbers[4:7]):
            grid_triple = DeflectionTriple(*numbers[4:7])
        records.append(
            SweepRecord(
                delta_mm=numbers[0],
                analytic=analytic,
                grid=grid_triple,
                xy_discrepancy_mm2=numbers[7],
            )
        )
    return records


def export_csv(records: list[SweepRecord], path) -> None:
    """Write the sweep CSV; I/O failures carry the destination path."""
    try:
        Path(path).write_bytes(records_to_csv(records))
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def write_metadata(spec: SweepSpec, path, sigma_provenance: str = "user") -> None:
    """Key=value sidecar describing how the sweep was produced."""
    grid_text = ""
    if spec.grid is not None:
        grid_text = f"{spec.grid.nx}x{spec.grid.ny}@{spec.grid.pixel_um:g}um"
    engines = "+".join(sorted(e.value for e in spec.engines))
    lines = [
        f"scenario={spec.scenario.kind.value}",
        f"sigma_mm={_format_number(spec.scenario.sigma_mm)}",
        f"sigma_provenance={sigma_provenance}",
        f"grid={grid_text}",
        f"engines={engines}",
        f"version={__version__}",
    ]
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        raise OSError(f"cannot write metadata to {path}: {exc}") from exc
