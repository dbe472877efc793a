"""Checks for the sweep harness, calibration helpers, and CSV export."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from test_grid import run_grid_chain
from test_pointer import run_chain

from seqweak import experiments, grid
from seqweak.errors import GridTooCoarse, NoInteriorExtremum, NoSignChange, SweepEngineError
from seqweak.experiments import (
    CSV_HEADER,
    DEFAULT_SIGMA_MM,
    MAX_SWEEP_STEPS,
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
    parse_csv,
    run_sweep,
    scenario_intensity_image,
    weak_limit_ratio,
    write_metadata,
)
from seqweak.grid import GridSpec, discrete_means, factored_gaussian, intensity, render_pgm
from seqweak.pointer import (
    Axis,
    DeflectionTriple,
    anomaly_threshold,
    apply_polarization,
    closed_form_sequential,
    closed_form_single_coupling,
    closed_form_two_qubit,
    max_reversal_delta,
    moments,
)
from seqweak.qubit import HORIZONTAL, waveplate_hwp

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
    assert SweepSpec(scenario=scenario, steps=MAX_SWEEP_STEPS).steps == MAX_SWEEP_STEPS
    with pytest.raises(ValueError, match=str(MAX_SWEEP_STEPS)):
        SweepSpec(scenario=scenario, steps=MAX_SWEEP_STEPS + 1)


def test_scenario_builds_its_plates_once(monkeypatch):
    built = []
    real = experiments.waveplate_hwp
    monkeypatch.setattr(experiments, "waveplate_hwp", lambda angle: built.append(angle) or real(angle))
    grid = GridSpec(64, 64, 20.0)
    for kind in ScenarioKind:
        built.clear()
        scenario = Scenario(kind, 0.2, 25.0, -0.0)
        assert built == [25.0, -0.0]
        analytic_deflections(scenario, 0.1)
        grid_deflections(scenario, 0.1, grid)
        run_sweep(SweepSpec(scenario, 0.0, 0.2, 3, engines=BOTH, grid=grid))
        assert built == [25.0, -0.0]
        # Each angle's own plate: -0.0 keeps its sign (sin(-0.0) is -0.0).
        assert scenario.prep_plate.matrix.tobytes() == real(25.0).matrix.tobytes()
        assert scenario.mid_plate.matrix.tobytes() == real(-0.0).matrix.tobytes()
        assert scenario.mid_plate.matrix.tobytes() != real(0.0).matrix.tobytes()
    # The plates follow from the angles: equality, hash and repr ignore them.
    scenario = Scenario(ScenarioKind.SEQUENTIAL, 0.2, 25.0, -35.0)
    twin = Scenario(ScenarioKind.SEQUENTIAL, 0.2, 25.0, -35.0)
    assert scenario == twin and hash(scenario) == hash(twin)
    assert repr(scenario) == (
        "Scenario(kind=<ScenarioKind.SEQUENTIAL: 'sequential'>, sigma_mm=0.2, "
        "prep_angle_deg=25.0, mid_angle_deg=-35.0)"
    )


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


# The dense planes are the reference for the factored grid engine, within a
# bound stated before it was measured (at most 4.2e-16 over the three trains,
# three widths and five couplings at 256^2 and 1024^2).
DENSE_AGREEMENT = 1e-15
# The image runs the factored train and forms its planes at the readout; its
# pixels match the dense chain's within this bound, stated before it was
# measured, relative to the brightest pixel.
IMAGE_AGREEMENT = 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("prep_deg, mid_deg", [(30.0, -30.0), (25.0, -35.0)])
@pytest.mark.parametrize(
    "sigma, delta",
    [(DEFAULT_SIGMA_MM, 0.0), (DEFAULT_SIGMA_MM, 0.12), (DEFAULT_SIGMA_MM, 0.331), (0.5, 0.8)],
    # sigma 0.5 mm, delta 0.8 mm at 256^2: the beam's tail wraps around the grid.
    ids=["0.0", "0.12", "0.331", "wrap-0.5-0.8"],
)
def test_train_equals_hand_written_chain(kind, prep_deg, mid_deg, sigma, delta):
    scenario = Scenario(kind=kind, sigma_mm=sigma, prep_angle_deg=prep_deg, mid_angle_deg=mid_deg)
    photons = hand_written_photons(kind, prep_deg, mid_deg)
    pointers = [run_chain(scenario.sigma_mm, delta, *elements) for elements in photons]
    want = joint_reading([moments(pointer) for pointer in pointers])
    assert analytic_deflections(scenario, delta) == want

    fields = [run_grid_chain(GRID, scenario.sigma_mm, delta, *elements) for elements in photons]
    want = joint_reading([discrete_means(intensity(field)) for field in fields])
    got = grid_deflections(scenario, delta, GRID)
    assert got.x_mm == pytest.approx(want.x_mm, rel=0.0, abs=DENSE_AGREEMENT)
    assert got.y_mm == pytest.approx(want.y_mm, rel=0.0, abs=DENSE_AGREEMENT)
    assert got.xy_mm2 == pytest.approx(want.xy_mm2, rel=0.0, abs=DENSE_AGREEMENT)
    if kind is not ScenarioKind.TWO_QUBIT:
        image, dense = scenario_intensity_image(scenario, delta, GRID), intensity(fields[0])
        assert np.abs(image.values - dense.values).max() <= IMAGE_AGREEMENT * dense.values.max()
        assert render_pgm(image) == render_pgm(dense)


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
def test_analytic_sweep_prepares_the_pointer_once(kind, monkeypatch):
    prepared, points = [], []
    initial, point = experiments.initial_pointer_state, experiments.analytic_deflections
    monkeypatch.setattr(
        experiments, "initial_pointer_state", lambda *args: prepared.append(args) or initial(*args)
    )
    monkeypatch.setattr(
        experiments, "analytic_deflections", lambda *args: points.append(args) or point(*args)
    )
    scenario = Scenario(kind, 0.2, 25.0, -35.0)
    run_sweep(SweepSpec(scenario, 0.0, 0.711, 31))
    assert (len(prepared), len(points)) == (1, 31)
    # The stored pointer is the per-point preparation it replaces, bit for bit.
    want = apply_polarization(initial(HORIZONTAL, 0.2), waveplate_hwp(25.0))
    assert repr(scenario.pointer) == repr(want)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_grid_sweep_prepares_the_beam_once(kind, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return factored_gaussian(*args, **kwargs)

    monkeypatch.setattr(experiments, "factored_gaussian", counting)
    run_sweep(SweepSpec(Scenario(kind=kind), 0.0, 0.5, 6, engines=BOTH, grid=GRID))
    assert len(calls) == 1


def test_grid_sweep_never_forms_a_plane(monkeypatch):
    # A 65536^2 plane of complex128 is 64 GiB; the sweep must run on factors.
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep must not form a full plane")

    monkeypatch.setattr("seqweak.grid.init_gaussian", refuse)
    monkeypatch.setattr("seqweak.grid.planes", refuse)
    monkeypatch.setattr(experiments, "planes", refuse)
    huge = GridSpec(65536, 65536, 13.5)
    for kind in ALL_KINDS:
        records = run_sweep(SweepSpec(Scenario(kind=kind), 0.0, 0.711, 4, engines=BOTH, grid=huge))
        for r in records:
            # The engine-equivalence tolerances of the 1024^2 grid.
            assert abs(r.grid.x_mm - r.analytic.x_mm) <= 1e-3
            assert abs(r.grid.y_mm - r.analytic.y_mm) <= 1e-3
            assert r.xy_discrepancy_mm2 <= 1e-4


@pytest.mark.parametrize("kind", [ScenarioKind.SEQUENTIAL, ScenarioKind.SINGLE])
def test_image_forms_its_planes_once_at_the_readout(kind, monkeypatch):
    formed = []

    def counting(field):
        formed.append(len(field.pol))
        return grid.planes(field)

    def refuse(*args, **kwargs):
        raise AssertionError("the image runs the factored train")

    monkeypatch.setattr(experiments, "planes", counting)
    for dense in ("init_gaussian", "apply_polarization_unitary", "apply_conditional_shift"):
        monkeypatch.setattr(grid, dense, refuse)
    image = scenario_intensity_image(Scenario(kind=kind), 0.3, GRID)
    assert formed == [4 if kind is ScenarioKind.SEQUENTIAL else 2]
    assert image.values.shape == (GRID.ny, GRID.nx)


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
    # The default width is the one whose zero crossing sits at 0.331 mm.
    def infer_sigma(delta_star_mm):
        return delta_star_mm / np.sqrt(8.0 * np.log(3.0))

    assert infer_sigma(0.331) == pytest.approx(DEFAULT_SIGMA_MM, abs=1e-4)
    assert anomaly_threshold(DEFAULT_SIGMA_MM) == pytest.approx(0.331, abs=1e-3)
    sigma = 0.4321
    assert infer_sigma(anomaly_threshold(sigma)) == pytest.approx(sigma, abs=1e-12)


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


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_plate_angle_is_refused_before_the_trigonometry(angle):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="plate angle must be finite"):
            waveplate_hwp(angle)
        for angles in ({"prep_angle_deg": angle}, {"mid_angle_deg": angle}):
            with pytest.raises(ValueError, match="plate angle must be finite"):
                Scenario(ScenarioKind.SEQUENTIAL, **angles)
