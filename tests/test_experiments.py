"""Checks for the sweep harness, calibration helpers, and CSV export."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from test_grid import run_grid_chain
from test_pointer import run_chain

from seqweak import experiments
from seqweak.errors import GridTooCoarse, NoInteriorExtremum, NoSignChange, SweepEngineError
from seqweak.experiments import (
    CSV_HEADER,
    DEFAULT_SIGMA_MM,
    Engine,
    Scenario,
    ScenarioKind,
    SweepRecord,
    SweepSpec,
    analytic_deflections,
    export_csv,
    find_extremum,
    find_zero_crossing,
    grid_deflections,
    infer_sigma_from_threshold,
    parse_csv,
    run_sweep,
    scenario_intensity_image,
    weak_limit_ratio,
    write_metadata,
)
from seqweak.grid import GridSpec, discrete_means, init_gaussian, intensity
from seqweak.pointer import (
    Axis,
    DeflectionTriple,
    anomaly_threshold,
    closed_form_sequential,
    closed_form_single_coupling,
    closed_form_two_qubit,
    max_reversal_delta,
    moments,
)

GRID = GridSpec(256, 256, 13.5)
BOTH = frozenset({Engine.ANALYTIC, Engine.GRID})


def sequential_spec(**kwargs):
    scenario = Scenario(kind=ScenarioKind.SEQUENTIAL, sigma_mm=DEFAULT_SIGMA_MM)
    defaults = dict(scenario=scenario, delta_start_mm=0.0, delta_stop_mm=0.711, steps=13)
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_sweep_spec_validation():
    scenario = Scenario(kind=ScenarioKind.SEQUENTIAL)
    with pytest.raises(ValueError):
        SweepSpec(scenario=scenario, steps=1)
    with pytest.raises(ValueError):
        SweepSpec(scenario=scenario, delta_start_mm=0.5, delta_stop_mm=0.2)
    with pytest.raises(ValueError):
        SweepSpec(scenario=scenario, delta_start_mm=-0.1)
    with pytest.raises(ValueError):
        SweepSpec(scenario=scenario, engines=frozenset({Engine.GRID}))
    with pytest.raises(ValueError):
        Scenario(kind=ScenarioKind.SEQUENTIAL, sigma_mm=0.0)


def test_analytic_sweep_matches_closed_form():
    records = run_sweep(sequential_spec())
    assert len(records) == 13
    deltas = [r.delta_mm for r in records]
    assert deltas == pytest.approx(list(np.linspace(0.0, 0.711, 13)))
    for record in records:
        want = closed_form_sequential(record.delta_mm, DEFAULT_SIGMA_MM)
        assert record.analytic.x_mm == pytest.approx(want.x_mm, abs=1e-12)
        assert record.analytic.y_mm == pytest.approx(want.y_mm, abs=1e-12)
        assert record.analytic.xy_mm2 == pytest.approx(want.xy_mm2, abs=1e-12)
        assert record.grid is None
        assert record.xy_discrepancy_mm2 is None


def test_dual_engine_sweep_discrepancy():
    records = run_sweep(sequential_spec(steps=5, engines=BOTH, grid=GRID))
    for record in records:
        assert record.grid is not None
        assert record.xy_discrepancy_mm2 == pytest.approx(
            abs(record.grid.xy_mm2 - record.analytic.xy_mm2), abs=1e-15
        )
        assert record.xy_discrepancy_mm2 < 1e-4
        assert record.grid.x_mm == pytest.approx(record.analytic.x_mm, abs=1e-3)
        assert record.grid.y_mm == pytest.approx(record.analytic.y_mm, abs=1e-3)


def test_two_qubit_scenario_engines_agree():
    scenario = Scenario(kind=ScenarioKind.TWO_QUBIT, sigma_mm=DEFAULT_SIGMA_MM)
    for delta in (0.0, 0.2, 0.5):
        got = analytic_deflections(scenario, delta)
        want = closed_form_two_qubit(delta)
        assert got.x_mm == pytest.approx(want.x_mm, abs=1e-10)
        assert got.y_mm == pytest.approx(want.y_mm, abs=1e-10)
        assert got.xy_mm2 == pytest.approx(want.xy_mm2, abs=1e-10)
        on_grid = grid_deflections(scenario, delta, GRID)
        assert on_grid.x_mm == pytest.approx(want.x_mm, abs=1e-3)
        assert on_grid.y_mm == pytest.approx(want.y_mm, abs=1e-3)
        assert on_grid.xy_mm2 == pytest.approx(want.xy_mm2, abs=1e-4)


def test_single_coupling_scenario_engines_agree():
    scenario = Scenario(kind=ScenarioKind.SINGLE, sigma_mm=DEFAULT_SIGMA_MM)
    for delta in (0.0, 0.237, 0.5):
        got = analytic_deflections(scenario, delta)
        want = closed_form_single_coupling(delta)
        assert got.x_mm == pytest.approx(want.x_mm, abs=1e-10)
        assert got.y_mm == pytest.approx(0.0, abs=1e-10)
        assert got.xy_mm2 == pytest.approx(0.0, abs=1e-10)
        on_grid = grid_deflections(scenario, delta, GRID)
        assert on_grid.x_mm == pytest.approx(want.x_mm, abs=1e-3)


def test_custom_angles_keep_engines_in_step():
    scenario = Scenario(
        kind=ScenarioKind.SEQUENTIAL, sigma_mm=0.12, prep_angle_deg=20.0, mid_angle_deg=-40.0
    )
    for delta in (0.1, 0.35):
        analytic = analytic_deflections(scenario, delta)
        on_grid = grid_deflections(scenario, delta, GRID)
        assert on_grid.x_mm == pytest.approx(analytic.x_mm, abs=1e-3)
        assert on_grid.y_mm == pytest.approx(analytic.y_mm, abs=1e-3)
        assert on_grid.xy_mm2 == pytest.approx(analytic.xy_mm2, abs=1e-4)


def test_engine_failure_carries_delta():
    small = GridSpec(64, 64, 13.5)
    spec = sequential_spec(
        scenario=Scenario(kind=ScenarioKind.SEQUENTIAL, sigma_mm=0.1),
        delta_stop_mm=0.3,
        steps=3,
        engines=BOTH,
        grid=small,
    )
    with pytest.raises(SweepEngineError) as err:
        run_sweep(spec)
    assert err.value.delta_mm == pytest.approx(0.3)


ALL_KINDS = (ScenarioKind.SEQUENTIAL, ScenarioKind.TWO_QUBIT, ScenarioKind.SINGLE)


def hand_written_photons(kind, prep_deg, mid_deg):
    """The elements each detected photon meets, in order, per scenario."""
    return {
        ScenarioKind.SEQUENTIAL: [(prep_deg, Axis.X, mid_deg, Axis.Y)],
        ScenarioKind.SINGLE: [(prep_deg, Axis.X)],
        ScenarioKind.TWO_QUBIT: [(prep_deg, Axis.X, mid_deg), (prep_deg, Axis.Y)],
    }[kind]


def joint_reading(triples):
    """One photon's triple, or photon A's <x> and photon B's <y> and their product."""
    if len(triples) == 1:
        return triples[0]
    a, b = triples
    return DeflectionTriple(x_mm=a.x_mm, y_mm=b.y_mm, xy_mm2=a.x_mm * b.y_mm)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("prep_deg, mid_deg", [(30.0, -30.0), (25.0, -35.0)])
@pytest.mark.parametrize("delta", [0.0, 0.12, 0.331])
def test_train_equals_hand_written_chain(kind, prep_deg, mid_deg, delta):
    scenario = Scenario(kind=kind, prep_angle_deg=prep_deg, mid_angle_deg=mid_deg)
    photons = hand_written_photons(kind, prep_deg, mid_deg)
    pointers = [run_chain(delta, *elements) for elements in photons]
    want = joint_reading([moments(pointer, scenario.sigma_mm) for pointer in pointers])
    assert analytic_deflections(scenario, delta) == want

    fields = [run_grid_chain(GRID, scenario.sigma_mm, delta, *elements) for elements in photons]
    want = joint_reading([discrete_means(intensity(field)) for field in fields])
    assert grid_deflections(scenario, delta, GRID) == want
    if kind is not ScenarioKind.TWO_QUBIT:
        image = scenario_intensity_image(scenario, delta, GRID)
        assert np.array_equal(image.values, intensity(fields[0]).values)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_grid_sweep_matches_pointwise_deflections(kind):
    scenario = Scenario(kind=kind, sigma_mm=0.12, prep_angle_deg=25.0, mid_angle_deg=-35.0)
    spec = SweepSpec(scenario, 0.0, 0.5, 5, engines=frozenset({Engine.GRID}), grid=GRID)
    records = run_sweep(spec)
    assert [r.grid for r in records] == [grid_deflections(scenario, r.delta_mm, GRID) for r in records]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_analytic_sweep_matches_pointwise_deflections(kind):
    scenario = Scenario(kind=kind, sigma_mm=0.12, prep_angle_deg=25.0, mid_angle_deg=-35.0)
    records = run_sweep(SweepSpec(scenario, 0.0, 0.5, 5))
    assert [r.analytic for r in records] == [analytic_deflections(scenario, r.delta_mm) for r in records]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_grid_sweep_prepares_the_beam_once(kind, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return init_gaussian(*args, **kwargs)

    monkeypatch.setattr(experiments, "init_gaussian", counting)
    run_sweep(SweepSpec(Scenario(kind=kind), 0.0, 0.5, 6, engines=BOTH, grid=GRID))
    assert len(calls) == 1


def test_preparation_failure_carries_first_delta():
    spec = sequential_spec(
        scenario=Scenario(kind=ScenarioKind.SEQUENTIAL, sigma_mm=0.01),
        delta_start_mm=0.1,
        delta_stop_mm=0.3,
        steps=3,
        engines=frozenset({Engine.GRID}),
        grid=GRID,
    )
    with pytest.raises(SweepEngineError) as err:
        run_sweep(spec)
    assert err.value.delta_mm == pytest.approx(0.1)
    assert isinstance(err.value.__cause__, GridTooCoarse)


def test_non_finite_lengths_rejected():
    scenario = Scenario(kind=ScenarioKind.SEQUENTIAL)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            Scenario(kind=ScenarioKind.SEQUENTIAL, sigma_mm=bad)
        with pytest.raises(ValueError):
            SweepSpec(scenario=scenario, delta_stop_mm=bad)
        with pytest.raises(ValueError):
            SweepSpec(scenario=scenario, delta_start_mm=bad)


def test_weak_limit_ratio():
    deltas = [0.0] + [k * 1e-4 for k in range(1, 6)]
    spec = sequential_spec(delta_start_mm=0.0, delta_stop_mm=5e-4, steps=6)
    records = run_sweep(spec)
    assert [r.delta_mm for r in records] == pytest.approx(deltas)
    assert weak_limit_ratio(records) == pytest.approx(-0.125, rel=0.02)
    with pytest.raises(ValueError):
        weak_limit_ratio(records[:3])


def test_find_zero_crossing_matches_threshold():
    records = run_sweep(sequential_spec(steps=31))
    crossing = find_zero_crossing(records, DEFAULT_SIGMA_MM)
    assert crossing == pytest.approx(anomaly_threshold(DEFAULT_SIGMA_MM), abs=1e-8)


def test_find_zero_crossing_requires_sign_change():
    records = run_sweep(sequential_spec(delta_stop_mm=0.2, steps=5))
    with pytest.raises(NoSignChange):
        find_zero_crossing(records, DEFAULT_SIGMA_MM)


def test_find_extremum_matches_stationarity():
    records = run_sweep(sequential_spec(steps=31))
    delta, joint = find_extremum(records, DEFAULT_SIGMA_MM)
    assert delta == pytest.approx(max_reversal_delta(DEFAULT_SIGMA_MM), abs=1e-7)
    t_root = brentq(lambda t: 3.0 * np.exp(-t) * (1.0 - t) - 1.0, 0.1, 0.9, xtol=1e-14)
    assert delta == pytest.approx(DEFAULT_SIGMA_MM * np.sqrt(8.0 * t_root), abs=1e-7)
    assert joint == pytest.approx(closed_form_sequential(delta, DEFAULT_SIGMA_MM).xy_mm2, abs=1e-12)
    assert joint < 0.0


def test_find_extremum_requires_interior_dip():
    scenario = Scenario(kind=ScenarioKind.TWO_QUBIT, sigma_mm=DEFAULT_SIGMA_MM)
    records = run_sweep(SweepSpec(scenario=scenario, steps=11))
    with pytest.raises(NoInteriorExtremum):
        find_extremum(records, DEFAULT_SIGMA_MM)


def test_infer_sigma_from_threshold():
    assert infer_sigma_from_threshold(0.331) == pytest.approx(0.1116, abs=1e-4)
    sigma = 0.4321
    assert infer_sigma_from_threshold(anomaly_threshold(sigma)) == pytest.approx(sigma, abs=1e-12)
    with pytest.raises(ValueError):
        infer_sigma_from_threshold(0.0)


def test_csv_header_and_zero_row(tmp_path):
    records = run_sweep(sequential_spec(steps=3))
    out = tmp_path / "sweep.csv"
    export_csv(records, out)
    text = out.read_bytes()
    lines = text.split(b"\n")
    assert lines[0].decode() == CSV_HEADER
    assert lines[1] == b"0,0,0,0,,,,"
    assert b"\r" not in text
    assert text.endswith(b"\n")


def test_csv_round_trip(tmp_path):
    records = run_sweep(sequential_spec(steps=7, engines=BOTH, grid=GRID))
    out = tmp_path / "sweep.csv"
    export_csv(records, out)
    again = parse_csv(out.read_bytes())
    assert again == records


def test_csv_round_trip_analytic_only(tmp_path):
    records = run_sweep(sequential_spec(steps=5))
    out = tmp_path / "sweep.csv"
    export_csv(records, out)
    assert parse_csv(out.read_bytes()) == records


def test_parse_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_csv(b"delta,joint\n0,0\n")


def test_metadata_sidecar(tmp_path):
    spec = sequential_spec(steps=5, engines=BOTH, grid=GRID)
    path = tmp_path / "sweep.csv.meta"
    write_metadata(spec, path, sigma_provenance="user")
    content = path.read_text()
    entries = dict(line.split("=", 1) for line in content.strip().splitlines())
    assert entries["scenario"] == "sequential"
    assert float(entries["sigma_mm"]) == DEFAULT_SIGMA_MM
    assert entries["grid"] == "256x256@13.5um"
    assert entries["engines"] == "analytic+grid"
    assert entries["sigma_provenance"] == "user"
    assert "version" in entries


def test_sweep_record_equality_support():
    record = SweepRecord(
        delta_mm=0.1,
        analytic=closed_form_sequential(0.1, 0.2),
        grid=None,
        xy_discrepancy_mm2=None,
    )
    assert record == SweepRecord(
        delta_mm=0.1,
        analytic=closed_form_sequential(0.1, 0.2),
        grid=None,
        xy_discrepancy_mm2=None,
    )
