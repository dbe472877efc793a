"""Sweep harness tying the analytic calculus and the grid engine together.

A scenario fixes the optical train; a sweep runs it over a range of coupling
strengths with one or both engines and exports the deflections as CSV plus a
key=value metadata sidecar.  Each scenario's train is written once, against
an engine's plate, coupling and read-out; the calculus, the grid and the
detector image all run it.  The default beam width 0.1116 mm is derived by
inverting the 0.331 mm zero crossing of the joint deflection, not measured.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import NoInteriorExtremum, NoSignChange, SimulationError, SweepEngineError
from .grid import (
    GridSpec,
    IntensityImage,
    apply_factored_shift,
    apply_factored_unitary,
    factored_gaussian,
    factored_means,
    intensity,
    planes,
)
from .pointer import (
    Axis,
    DeflectionTriple,
    GaussianSuperposition,
    apply_coupling,
    apply_polarization,
    bisect,
    closed_form_sequential,
    golden_section_minimize,
    initial_pointer_state,
    moments,
)
from .qubit import HORIZONTAL, Observable, waveplate_hwp

DEFAULT_SIGMA_MM = 0.1116
MAX_SWEEP_STEPS = 100_000
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
    """Optical train selection plus beam width and waveplate angles.

    The two plates and the calculus pointer after the preparation plate are
    built once, here, and shared by every point that runs the scenario.
    """

    kind: ScenarioKind
    sigma_mm: float = DEFAULT_SIGMA_MM
    prep_angle_deg: float = 30.0
    mid_angle_deg: float = -30.0
    prep_plate: Observable = field(init=False, repr=False, compare=False)
    mid_plate: Observable = field(init=False, repr=False, compare=False)
    pointer: GaussianSuperposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.sigma_mm < math.inf:
            raise ValueError("sigma must be positive and finite")
        object.__setattr__(self, "prep_plate", waveplate_hwp(self.prep_angle_deg))
        object.__setattr__(self, "mid_plate", waveplate_hwp(self.mid_angle_deg))
        pointer = initial_pointer_state(HORIZONTAL, self.sigma_mm)
        object.__setattr__(self, "pointer", apply_polarization(pointer, self.prep_plate))


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
        if self.steps > MAX_SWEEP_STEPS:
            raise ValueError(f"a sweep takes at most {MAX_SWEEP_STEPS} points, got {self.steps}")
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


def _run_train(scenario: Scenario, delta_mm: float, prepared, plate, couple, read):
    """The scenario's train after the preparation plate, run with an engine's
    plate(state, u), couple(state, delta, axis) and read(state).  Two-qubit:
    photon A takes X and the second plate, photon B only Y; <x y> factorizes."""
    after_x = couple(prepared, delta_mm, Axis.X)
    if scenario.kind is ScenarioKind.SINGLE:
        return read(after_x)
    after_mid = plate(after_x, scenario.mid_plate)
    sequential = scenario.kind is ScenarioKind.SEQUENTIAL
    after_y = read(couple(after_mid if sequential else prepared, delta_mm, Axis.Y))
    if sequential:
        return after_y
    x_mm = read(after_mid).x_mm
    return DeflectionTriple(x_mm=x_mm, y_mm=after_y.y_mm, xy_mm2=x_mm * after_y.y_mm)


def _grid(scenario: Scenario, grid: GridSpec):
    """The grid engine's beam, a FactoredField, after the preparation plate."""
    beam = factored_gaussian(grid, scenario.sigma_mm, HORIZONTAL)
    return apply_factored_unitary(beam, scenario.prep_plate)


def analytic_deflections(scenario: Scenario, delta_mm: float) -> DeflectionTriple:
    """Exact deflections from the Gaussian calculus for any plate angles."""
    return _run_train(
        scenario, delta_mm, scenario.pointer, apply_polarization, apply_coupling, moments
    )


def grid_deflections(scenario: Scenario, delta_mm: float, grid: GridSpec) -> DeflectionTriple:
    """Deflections read off the simulated optical train on the grid."""
    beam = _grid(scenario, grid)
    return _run_train(
        scenario, delta_mm, beam, apply_factored_unitary, apply_factored_shift, factored_means
    )


def scenario_intensity_image(scenario: Scenario, delta_mm: float, grid: GridSpec) -> IntensityImage:
    """Detector image of the single-beam trains (sequential or single): the
    factored train, read out by forming the H and V planes once."""
    if scenario.kind is ScenarioKind.TWO_QUBIT:
        raise ValueError("the two-beam scenario has no single detector image")
    beam = _grid(scenario, grid)
    return intensity(
        _run_train(scenario, delta_mm, beam, apply_factored_unitary, apply_factored_shift, planes)
    )


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Run the sweep, ascending delta, one record per point.

    The scenario carries the prepared calculus pointer; the grid beam is
    prepared once, at the first point, and shared by all.
    """
    records = []
    beam = None
    for delta in np.linspace(spec.delta_start_mm, spec.delta_stop_mm, spec.steps):
        delta = float(delta)
        analytic = grid_triple = discrepancy = None
        try:
            if Engine.ANALYTIC in spec.engines:
                analytic = analytic_deflections(spec.scenario, delta)
            if Engine.GRID in spec.engines:
                if beam is None:
                    beam = _grid(spec.scenario, spec.grid)
                grid_triple = _run_train(
                    spec.scenario, delta, beam,
                    apply_factored_unitary, apply_factored_shift, factored_means,
                )
        except SimulationError as exc:
            raise SweepEngineError(delta, str(exc)) from exc
        if analytic is not None and grid_triple is not None:
            discrepancy = abs(grid_triple.xy_mm2 - analytic.xy_mm2)
        records.append(SweepRecord(delta, analytic, grid_triple, discrepancy))
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
        records.append(SweepRecord(numbers[0], analytic, grid_triple, numbers[7]))
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
