"""Sweep harness tying the analytic calculus and the grid engine together.

A scenario fixes the optical train; a sweep runs it over a range of coupling
strengths with one or both engines and exports the deflections as CSV plus a
key=value metadata sidecar.  Each scenario's train is written once, against
an engine's plate, coupling and read-out; the calculus, the grid and the
detector image all run it.  The features of a sweep (the zero crossing and
the deepest reversal of the joint mean) are read off its own records, at
any plate angles.  The default beam width 0.1116 mm is derived by inverting
the 0.331 mm zero crossing of the joint deflection, not measured.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
from dataclasses import dataclass, field
from itertools import chain
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
)
from .pointer import (
    Axis,
    DeflectionTriple,
    GaussianSuperposition,
    apply_coupling,
    apply_polarization,
    check_coupling,
    initial_pointer_state,
    kernel_pairs,
    pair_moments,
    stationary_t,
)
from .qubit import HORIZONTAL, Observable, waveplate_hwp

DEFAULT_SIGMA_MM = 0.1116
MAX_SWEEP_STEPS = 100_000
# Bytes of a grid sweep block's largest transient array: the 4 factors of a
# train after both couplings, times the grid's longer side in complex128, per
# coupling.  Blocks of 8 couplings at 256^2, 4 at 512^2, 2 at 1024^2 and 1
# from 2048^2 up: a 31-step sweep at 256^2 runs its train 1 + 4 times.
SWEEP_BLOCK_BYTES = 128 * 1024

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
    built once, here, and shared by every point that runs the scenario.  So
    are the calculus pair lists, one per read-out, kept by the scenario's
    first calculus point.
    """

    kind: ScenarioKind
    sigma_mm: float = DEFAULT_SIGMA_MM
    prep_angle_deg: float = 30.0
    mid_angle_deg: float = -30.0
    prep_plate: Observable = field(init=False, repr=False, compare=False)
    mid_plate: Observable = field(init=False, repr=False, compare=False)
    pointer: GaussianSuperposition = field(init=False, repr=False, compare=False)
    pair_lists: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.sigma_mm < math.inf:
            raise ValueError("sigma must be positive and finite")
        object.__setattr__(self, "prep_plate", waveplate_hwp(self.prep_angle_deg))
        object.__setattr__(self, "mid_plate", waveplate_hwp(self.mid_angle_deg))
        pointer = initial_pointer_state(HORIZONTAL, self.sigma_mm)
        object.__setattr__(self, "pointer", apply_polarization(pointer, self.prep_plate))
        object.__setattr__(self, "pair_lists", [])


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
        for engine in self.engines:
            if not isinstance(engine, Engine):
                raise ValueError(f"engines must be Engine members, got {engine!r}")
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
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


def _passed_on(state, *_):
    return state


def analytic_deflections(scenario: Scenario, delta_mm: float) -> DeflectionTriple:
    """Exact deflections from the Gaussian calculus for any plate angles.

    Every shift of a train that couples each axis at most once is 0.0 or the
    coupling.  So a scenario's first point, whatever its Delta, runs the
    train once at a unit coupling and keeps each read-out's kernel_pairs
    list; every point evaluates those lists with each nonzero shift made
    0.0 + delta, as apply_coupling makes it, and later points pass the
    train's plates and couplings over.  At Delta = 0 every lobe is
    (0.0, 0.0), so the first-moment sums are +0.0, as the unsplit train
    gives them.
    """
    check_coupling(delta_mm)
    shift = 0.0 + delta_mm

    def evaluate(pairs, lobes):
        return pair_moments(pairs, [(a and shift, b and shift) for a, b in lobes], scenario.sigma_mm)

    if scenario.pair_lists:
        unread = iter(scenario.pair_lists)
        return _run_train(
            scenario, delta_mm, None, _passed_on, _passed_on, lambda _: evaluate(*next(unread))
        )
    kept = []

    def keep(state):
        pairs, lobes = kernel_pairs(state)
        if not {0.0, 1.0}.issuperset(chain.from_iterable(lobes)):
            raise AssertionError("a calculus shift is neither 0 nor the one coupling")
        kept.append((pairs, lobes))
        return evaluate(pairs, lobes)

    triple = _run_train(scenario, 1.0, scenario.pointer, apply_polarization, apply_coupling, keep)
    scenario.pair_lists.extend(kept)
    return triple


def _grid_train(scenario: Scenario, delta_mm, beam) -> DeflectionTriple:
    """The train on the prepared grid beam, read by its moments: floats for a
    coupling, arrays for a 1-D array (a block) of them."""
    return _run_train(
        scenario, delta_mm, beam, apply_factored_unitary, apply_factored_shift, factored_means
    )


def grid_deflections(scenario: Scenario, delta_mm: float, grid: GridSpec) -> DeflectionTriple:
    """Deflections read off the simulated optical train on the grid."""
    return _grid_train(scenario, delta_mm, _grid(scenario, grid))


def scenario_intensity_image(scenario: Scenario, delta_mm: float, grid: GridSpec) -> IntensityImage:
    """Detector image of the single-beam trains (sequential or single): the
    factored train, read out by its intensity, which forms each of the H and V
    planes once, band by band."""
    if scenario.kind is ScenarioKind.TWO_QUBIT:
        raise ValueError("the two-beam scenario has no single detector image")
    beam = _grid(scenario, grid)
    # The image's f64 values and its 16-bit PGM, refused before any is formed.
    needed = 10 * grid.nx * grid.ny
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise MemoryError(
            f"a {grid.nx}x{grid.ny} image needs {needed} bytes, "
            f"more than the {physical} bytes of physical memory"
        )
    return _run_train(
        scenario, delta_mm, beam, apply_factored_unitary, apply_factored_shift, intensity
    )


def _grid_points(scenario: Scenario, grid: GridSpec, deltas: list[float]):
    """Grid deflections of the ascending couplings, one per next().  The beam
    is prepared at the first.  Each leading Delta = 0 runs on its own, as the
    identity shift; the rest run in blocks (SWEEP_BLOCK_BYTES), one train per
    block, a lone coupling as a scalar.  A failing block reruns point by
    point, so its failure surfaces at its first failing coupling."""
    beam = _grid(scenario, grid)
    zeros = deltas.count(0.0)
    for delta in deltas[:zeros]:
        yield _grid_train(scenario, delta, beam)
    size = max(1, SWEEP_BLOCK_BYTES // (4 * 16 * max(grid.nx, grid.ny)))
    for i in range(zeros, len(deltas), size):
        block = deltas[i:i + size]
        try:
            triples = _grid_train(scenario, np.array(block), beam) if len(block) > 1 else None
        except SimulationError:
            triples = None
        if triples is None:
            for delta in block:
                yield _grid_train(scenario, delta, beam)
        else:
            columns = (triples.x_mm.tolist(), triples.y_mm.tolist(), triples.xy_mm2.tolist())
            yield from map(DeflectionTriple, *columns)


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Run the sweep, ascending delta, one record per point.

    At each point the calculus evaluates the scenario's pair lists, which
    its first calculus point builds, then the grid takes its next point from
    _grid_points, which prepares the beam once and runs the train once per
    block of couplings.  A failure names
    the first failing point, and at one point the calculus fails first.
    """
    deltas = np.linspace(spec.delta_start_mm, spec.delta_stop_mm, spec.steps).tolist()
    if Engine.GRID in spec.engines:
        grid_points = _grid_points(spec.scenario, spec.grid, deltas)
    records = []
    for delta in deltas:
        analytic = grid_triple = discrepancy = None
        try:
            if Engine.ANALYTIC in spec.engines:
                analytic = analytic_deflections(spec.scenario, delta)
            if Engine.GRID in spec.engines:
                grid_triple = next(grid_points)
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


def _overlap(delta_mm: float, sigma_mm: float) -> float:
    """O = exp(-delta^2 / 8 sigma^2), the overlap of two lobes a coupling parts."""
    return math.exp(-(delta_mm**2) / (8.0 * sigma_mm**2))


def find_zero_crossing(records: list[SweepRecord], sigma_mm: float) -> float:
    """Coupling strength where the joint mean changes sign.

    Every train the package runs has <x y>/delta^2 = A + B O, linear in the
    overlap O, so the two records around the sign change fix the root:
    O* interpolates them linearly, and delta* = sigma sqrt(-8 ln O*).
    """
    series = _analytic_joint_series(records)
    for (d_lo, y_lo), (d_hi, y_hi) in zip(series, series[1:]):
        if min(y_lo, y_hi) < 0.0 < max(y_lo, y_hi):
            r_lo, r_hi = abs(y_lo / d_lo**2), abs(y_hi / d_hi**2)
            o_star = (r_hi * _overlap(d_lo, sigma_mm) + r_lo * _overlap(d_hi, sigma_mm)) / (r_lo + r_hi)
            return sigma_mm * math.sqrt(-8.0 * math.log(o_star))
    raise NoSignChange("joint mean keeps one sign over the sweep")


def find_extremum(records: list[SweepRecord], sigma_mm: float) -> tuple[float, float]:
    """Interior minimum of the joint mean on the line <x y>/delta^2 = A + B O
    through the dip record and its right neighbour, or the left one if those
    share an overlap: 8 sigma^2 t (A + B e^-t), t = delta^2 / 8 sigma^2, least
    at stationary_t(A, B, ...) between the dip's neighbours; if all three share
    an overlap (all 0 or all 1) the line is flat and the dip record is least."""
    series = _analytic_joint_series(records)
    for i in range(1, len(series) - 1):
        if series[i][1] < series[i - 1][1] and series[i][1] < series[i + 1][1]:
            o_p, r_p = _overlap(series[i][0], sigma_mm), series[i][1] / series[i][0] ** 2
            for d_q, y_q in (series[i + 1], series[i - 1]):
                if _overlap(d_q, sigma_mm) != o_p:
                    slope = (y_q / d_q**2 - r_p) / (_overlap(d_q, sigma_mm) - o_p)
                    break
            else:
                return series[i]
            lo, hi = (d**2 / (8.0 * sigma_mm**2) for d in (series[i - 1][0], series[i + 1][0]))
            delta = sigma_mm * math.sqrt(8.0 * stationary_t(r_p - slope * o_p, slope, lo, hi))
            return delta, delta**2 * (r_p + slope * (_overlap(delta, sigma_mm) - o_p))
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


_NO_TRIPLE = DeflectionTriple(None, None, None)


def records_to_csv(records: list[SweepRecord]) -> bytes:
    """CSV with LF endings and shortest round-trip decimals: each row joins
    its fields' repr()s, and the document drops the ".0" that ends every
    integral one at once, as _format_number would one by one."""
    rows = [CSV_HEADER]
    for r in records:
        analytic = r.analytic or _NO_TRIPLE
        grid_triple = r.grid or _NO_TRIPLE
        fields = (
            r.delta_mm,
            analytic.x_mm,
            analytic.y_mm,
            analytic.xy_mm2,
            grid_triple.x_mm,
            grid_triple.y_mm,
            grid_triple.xy_mm2,
            r.xy_discrepancy_mm2,
        )
        rows.append(",".join(["" if v is None else repr(float(v)) for v in fields]))
    text = "\n".join(rows) + "\n"
    return text.replace(".0,", ",").replace(".0\n", "\n").encode("ascii")


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
