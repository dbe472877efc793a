"""Checks for the sweep harness, calibration helpers, and CSV export."""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from test_grid import DenseField, dense_intensity, run_grid_chain
from test_pointer import run_chain

from seqweak import experiments, grid, pointer
from seqweak.errors import (
    GridTooCoarse,
    NoInteriorExtremum,
    NoSignChange,
    OutOfFloatRange,
    ShiftTooLarge,
    SimulationError,
    SweepEngineError,
)
from seqweak.experiments import (
    CSV_HEADER,
    DEFAULT_SIGMA_MM,
    MAX_SWEEP_STEPS,
    Engine,
    Scenario,
    ScenarioKind,
    SweepRecord,
    SweepSpec,
    _format_number,
    analytic_deflections,
    export_csv,
    find_extremum,
    find_zero_crossing,
    grid_deflections,
    parse_csv,
    records_to_csv,
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
    apply_coupling,
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
    with pytest.raises(ValueError, match="select at least one engine"):
        SweepSpec(scenario=scenario, engines=frozenset())
    # Engine values are not engines: run_sweep would give records without deflections.
    for bad in ({"analytic"}, {"grid"}, {Engine.ANALYTIC, "grid"}):
        with pytest.raises(ValueError, match="engines must be Engine members"):
            SweepSpec(scenario=scenario, engines=frozenset(bad), grid=GRID)
    with pytest.raises(ValueError):
        Scenario(kind=ScenarioKind.SEQUENTIAL, sigma_mm=0.0)
    assert SweepSpec(scenario=scenario, steps=MAX_SWEEP_STEPS).steps == MAX_SWEEP_STEPS
    with pytest.raises(ValueError, match=str(MAX_SWEEP_STEPS)):
        SweepSpec(scenario=scenario, steps=MAX_SWEEP_STEPS + 1)
    for bad in (2.5, 31.0, np.float64(31.0)):
        with pytest.raises(ValueError, match="steps must be an integer"):
            SweepSpec(scenario=scenario, steps=bad)
    assert SweepSpec(scenario=scenario, steps=np.int64(5)).steps == 5


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
    want = joint_reading([discrete_means(dense_intensity(field)) for field in fields])
    got = grid_deflections(scenario, delta, GRID)
    assert got.x_mm == pytest.approx(want.x_mm, rel=0.0, abs=DENSE_AGREEMENT)
    assert got.y_mm == pytest.approx(want.y_mm, rel=0.0, abs=DENSE_AGREEMENT)
    assert got.xy_mm2 == pytest.approx(want.xy_mm2, rel=0.0, abs=DENSE_AGREEMENT)
    if kind is not ScenarioKind.TWO_QUBIT:
        image, dense = scenario_intensity_image(scenario, delta, GRID), dense_intensity(fields[0])
        assert np.abs(image.values - dense.values).max() <= IMAGE_AGREEMENT * dense.values.max()
        assert render_pgm(image) == render_pgm(dense)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_grid_sweep_matches_pointwise_deflections(kind):
    scenario = Scenario(kind=kind, sigma_mm=0.12, prep_angle_deg=25.0, mid_angle_deg=-35.0)
    spec = SweepSpec(scenario, 0.0, 0.5, 5, engines=frozenset({Engine.GRID}), grid=GRID)
    records = run_sweep(spec)
    assert [r.grid for r in records] == [grid_deflections(scenario, r.delta_mm, GRID) for r in records]


def pointwise_sweep(spec):
    """The sweep with no blocks and no shared beam: at each delta the
    calculus, then grid_deflections, and the first failure names its delta."""
    records = []
    for delta in np.linspace(spec.delta_start_mm, spec.delta_stop_mm, spec.steps).tolist():
        analytic = grid_triple = discrepancy = None
        try:
            if Engine.ANALYTIC in spec.engines:
                analytic = experiments.analytic_deflections(spec.scenario, delta)
            if Engine.GRID in spec.engines:
                grid_triple = grid_deflections(spec.scenario, delta, spec.grid)
        except SimulationError as exc:
            raise SweepEngineError(delta, str(exc)) from exc
        if analytic is not None and grid_triple is not None:
            discrepancy = abs(grid_triple.xy_mm2 - analytic.xy_mm2)
        records.append(SweepRecord(delta, analytic, grid_triple, discrepancy))
    return records


def sweep_outcome(run, spec):
    """The CSV bytes of a sweep, or its error, its coupling and its cause."""
    try:
        return records_to_csv(run(spec))
    except SweepEngineError as err:
        return str(err), err.delta_mm, type(err.__cause__)


def random_sweep(rng):
    """A seeded sweep: any train, default or random plate angles, both engine
    sets that run the grid, a start at 0 or above it, 2 to 41 steps, and
    square or oblong grids, with stops that reach past a quarter of the
    extent in some of them."""
    nx, ny = rng.choice([(128, 128), (256, 256), (128, 256), (256, 128)])
    grid_spec = GridSpec(nx, ny, 13.5)
    extent = min(nx, ny) * 0.0135
    angles = rng.choice([(30.0, -30.0), (rng.uniform(-90, 90), rng.uniform(-90, 90))])
    scenario = Scenario(rng.choice(ALL_KINDS), rng.uniform(0.055, extent / 6.0), *angles)
    start = rng.choice([0.0, rng.uniform(0.0, extent / 8.0)])
    stop = start + rng.uniform(0.01, extent / rng.choice([3.0, 4.5]))
    engines = rng.choice([frozenset({Engine.GRID}), BOTH])
    return SweepSpec(scenario, start, stop, rng.randint(2, 41), engines=engines, grid=grid_spec)


def test_grid_blocks_give_the_pointwise_bytes():
    # Every grid point of a block, Delta = 0 included, carries the bits that
    # grid_deflections gives at its coupling alone, and a failing block names
    # the coupling a point-by-point run fails at, with the same message.
    rng = random.Random(14)
    failed = 0
    for _ in range(60):
        spec = random_sweep(rng)
        want = sweep_outcome(pointwise_sweep, spec)
        assert sweep_outcome(run_sweep, spec) == want, spec
        failed += isinstance(want, tuple)
    assert 5 <= failed <= 40  # both outcomes are exercised


def nine_steps(kind=ScenarioKind.SEQUENTIAL, engines=BOTH, sides=(64, 64)):
    """0:0.64:9 at sigma 0.1 mm on 13.5 um pixels: on 64 of them the 4th
    coupling, 0.24 mm, is the first past a quarter of the 0.864 mm extent."""
    grid_spec = GridSpec(*sides, 13.5)
    return SweepSpec(Scenario(kind, sigma_mm=0.1), 0.0, 0.64, 9, engines=engines, grid=grid_spec)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("engines", [frozenset({Engine.GRID}), BOTH], ids=["grid", "both"])
@pytest.mark.parametrize("sides", [(64, 64), (128, 64), (64, 128)])
def test_a_failure_inside_a_block_names_its_first_coupling(kind, engines, sides):
    # Delta = 0 runs alone, and the failing 0.24 mm sits in the middle of the
    # next block.  On an oblong grid the y shift fails first whenever y is
    # the short side, after x has passed the whole block.
    spec = nine_steps(kind, engines, sides)
    outcome = sweep_outcome(run_sweep, spec)
    assert outcome == sweep_outcome(pointwise_sweep, spec)
    message, delta, cause = outcome
    if kind is ScenarioKind.SINGLE and sides == (128, 64):
        assert (delta, cause) == (pytest.approx(0.48), ShiftTooLarge)  # x alone, 1.728 mm
    else:
        assert (delta, cause) == (pytest.approx(0.24), ShiftTooLarge)
    assert message.startswith(f"engine failure at delta = {delta:g} mm: |delta| = {delta:g} mm")


def test_a_failing_sweep_stops_the_calculus_at_its_failing_point(monkeypatch):
    # The grid fails at the 4th of 9 couplings; no point past it is computed.
    calls = []
    calculus = experiments.analytic_deflections
    monkeypatch.setattr(
        experiments, "analytic_deflections", lambda *args: calls.append(args) or calculus(*args)
    )
    with pytest.raises(SweepEngineError):
        run_sweep(nine_steps())
    assert len(calls) == 4


@pytest.mark.parametrize("failing_index", [0, 2, 3, 5])
def test_a_calculus_failure_at_an_earlier_or_equal_point_wins(failing_index, monkeypatch):
    # The grid fails at the 4th of 9 couplings (index 3); the calculus runs
    # first at each point, so it wins at index 0 (before the grid beam is
    # prepared), 2 and 3, and loses at 5.
    deltas = np.linspace(0.0, 0.64, 9).tolist()
    calculus = experiments.analytic_deflections

    def failing(scenario, delta):
        if delta >= deltas[failing_index]:
            raise OutOfFloatRange("the calculus overflows")
        return calculus(scenario, delta)

    monkeypatch.setattr(experiments, "analytic_deflections", failing)
    spec = nine_steps()
    message, delta, cause = want = sweep_outcome(pointwise_sweep, spec)
    assert sweep_outcome(run_sweep, spec) == want
    assert delta == deltas[min(failing_index, 3)]
    assert cause is (OutOfFloatRange if failing_index <= 3 else ShiftTooLarge)


@pytest.mark.parametrize("steps", [5, 9])
def test_repeated_zero_couplings_each_run_alone(steps):
    # linspace(0, 5e-324, steps) repeats 0.0, 3 times at 5 steps and 5 at 9,
    # so a block of 8 after the first zero would mix zeros with 5e-324.
    # Every zero is the identity shift that grid_deflections runs at 0.0.
    scenario = Scenario(ScenarioKind.SEQUENTIAL)
    spec = SweepSpec(scenario, 0.0, 5e-324, steps, engines=BOTH, grid=GRID)
    records = run_sweep(spec)
    assert [r.delta_mm for r in records].count(0.0) == steps // 2 + 1
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


def calculus_outcome(call):
    """A calculus point's bits on the uint64 view, or its error's type and
    message (the suite turns numpy's RuntimeWarnings into errors)."""
    try:
        triple = call()
    except Exception as exc:
        return type(exc), str(exc)
    return np.array([triple.x_mm, triple.y_mm, triple.xy_mm2]).view(np.uint64).tolist()


def test_calculus_points_match_the_verb_train_bit_for_bit():
    # Four points per scenario: the first, whatever its Delta, runs the train
    # at a unit coupling and keeps its pair lists, and every point evaluates
    # them.  Each gives the bits, or the error, of the train run with the
    # calculus verbs at its own coupling; -0.0 goes through 0.0 + delta.
    rng = random.Random(20)
    outcomes = {"value": 0, "error": 0}
    for _ in range(1250):
        kind = rng.choice(ALL_KINDS)
        sigma = rng.choice([10 ** rng.uniform(-3.0, 2.0)] * 4 + [1e-150, 1e150])
        prep, mid = (rng.choice([rng.uniform(-90.0, 90.0), 0.0, 45.0, 90.0]) for _ in range(2))
        scenario = Scenario(kind, sigma, prep, mid)
        for _ in range(4):
            delta = rng.choice(
                [0.0, -0.0, 5e-324, 10 ** rng.uniform(-160.0, 200.0), math.nan, math.inf, -math.inf, -1.0]
                + [10 ** rng.uniform(-3.0, 1.0) * sigma] * 5
            )
            want = calculus_outcome(
                lambda: experiments._run_train(
                    scenario, delta, scenario.pointer, apply_polarization, apply_coupling, moments
                )
            )
            assert calculus_outcome(lambda: analytic_deflections(scenario, delta)) == want
            outcomes["error" if isinstance(want, tuple) else "value"] += 1
    assert sum(outcomes.values()) >= 5000 and min(outcomes.values()) >= 500


CALCULUS_VERBS = ("apply_polarization", "apply_coupling", "kernel_pairs", "pair_moments")


def count_calculus_verbs(monkeypatch):
    """Calls of the calculus verbs that experiments runs, and of
    pointer.moments, which no calculus point needs."""
    counts = dict.fromkeys(CALCULUS_VERBS + ("moments",), 0)
    for module, name in [(experiments, name) for name in CALCULUS_VERBS] + [(pointer, "moments")]:
        real = getattr(module, name)

        def counting(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_a_sweep_keeps_its_pair_lists_once_per_scenario(kind, monkeypatch):
    # The first point, at Delta = 0, runs the train once at a unit coupling
    # and keeps one pair list per read-out; every point of every sweep, the
    # first included and whichever its Delta, evaluates those lists.
    counts = count_calculus_verbs(monkeypatch)
    scenario = Scenario(kind, 0.2, 25.0, -35.0)
    read_outs = 2 if kind is ScenarioKind.TWO_QUBIT else 1
    couplings, plates = (1, 0) if kind is ScenarioKind.SINGLE else (2, 1)
    train = {
        "apply_polarization": 1 + plates,
        "apply_coupling": couplings,
        "kernel_pairs": read_outs,
        "moments": 0,
    }
    for sweeps, (start, stop) in enumerate([(0.0, 0.711), (0.1, 0.5), (0.0, 0.711)], 1):
        run_sweep(SweepSpec(scenario, start, stop, 31))
        assert counts == {**train, "pair_moments": 31 * read_outs * sweeps}


# Scenario() plus one calculus point: the train once, and one kernel_pairs
# list, evaluated once, per read-out.
ONE_POINT_CALLS = {
    ScenarioKind.SEQUENTIAL: {
        "apply_polarization": 2, "apply_coupling": 2, "kernel_pairs": 1, "pair_moments": 1
    },
    ScenarioKind.TWO_QUBIT: {
        "apply_polarization": 2, "apply_coupling": 2, "kernel_pairs": 2, "pair_moments": 2
    },
    ScenarioKind.SINGLE: {
        "apply_polarization": 1, "apply_coupling": 1, "kernel_pairs": 1, "pair_moments": 1
    },
}


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("delta", [0.0, 0.3])
def test_a_one_point_scenario_runs_no_calculus_verb_more_often(kind, delta, monkeypatch):
    counts = count_calculus_verbs(monkeypatch)
    analytic_deflections(Scenario(kind, 0.2, 25.0, -35.0), delta)
    for verb, calls in counts.items():
        assert calls <= ONE_POINT_CALLS[kind].get(verb, 0), verb


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_grid_sweep_prepares_the_beam_once(kind, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return factored_gaussian(*args, **kwargs)

    monkeypatch.setattr(experiments, "factored_gaussian", counting)
    run_sweep(SweepSpec(Scenario(kind=kind), 0.0, 0.5, 6, engines=BOTH, grid=GRID))
    assert len(calls) == 1


def test_a_31_step_grid_sweep_runs_its_train_once_per_block(monkeypatch):
    # At 256^2 a block holds SWEEP_BLOCK_BYTES / (4 factors * 16 B * 256) = 8
    # couplings: Delta = 0 runs alone, then the 30 nonzero ones in 4 blocks.
    sizes = []
    train = experiments._grid_train

    def counting(scenario, delta_mm, beam):
        sizes.append(np.size(delta_mm))
        return train(scenario, delta_mm, beam)

    monkeypatch.setattr(experiments, "_grid_train", counting)
    run_sweep(SweepSpec(Scenario(ScenarioKind.SEQUENTIAL), 0.0, 0.711, 31, engines=BOTH, grid=GRID))
    assert sizes == [1, 8, 8, 8, 6]


def test_grid_sweep_never_forms_a_plane(monkeypatch):
    # A 65536^2 plane of complex128 is 64 GiB; the sweep must run on factors.
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep must not form a full plane")

    monkeypatch.setattr("seqweak.grid.init_gaussian", refuse)
    monkeypatch.setattr(grid.FactoredField, "_plane", refuse)
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
    plane = grid.FactoredField._plane

    def counting(field, p, band=slice(None), out=None):
        formed.append((p, len(field.pol), band))
        return plane(field, p, band, out)

    def refuse(*args, **kwargs):
        raise AssertionError("the image runs the factored train")

    monkeypatch.setattr(grid.FactoredField, "_plane", counting)
    for dense in ("init_gaussian", "apply_polarization_unitary", "apply_conditional_shift"):
        monkeypatch.setattr(grid, dense, refuse)
    image = scenario_intensity_image(Scenario(kind=kind), 0.3, GRID)
    factors = 4 if kind is ScenarioKind.SEQUENTIAL else 2
    assert {count for _, count, _ in formed} == {factors}
    rows = np.arange(GRID.ny)
    for p in (0, 1):
        covered = np.concatenate([rows[band] for q, _, band in formed if q == p])
        assert np.array_equal(np.sort(covered), rows)  # every row exactly once
    assert len(formed) > 2  # in bands, not whole planes
    assert image.values.shape == (GRID.ny, GRID.nx)


@pytest.mark.parametrize("kind", [ScenarioKind.SEQUENTIAL, ScenarioKind.SINGLE])
@pytest.mark.parametrize("nx, ny", [(256, 256), (128, 256), (256, 64)])
@pytest.mark.parametrize("band_rows", [None, 1, 7], ids=["default", "1-row", "7-row"])
def test_banded_intensity_is_the_dense_readout_bit_for_bit(kind, nx, ny, band_rows, monkeypatch):
    # Square and non-square grids, bands of one row and of 7 rows (which
    # divide no side): the banded readout must give the bits of the whole
    # planes' |H|^2 + |V|^2, at seeded plate angles and couplings.
    if band_rows is not None:
        monkeypatch.setattr(grid, "BAND_BYTES", band_rows * 16 * nx)
    rng = np.random.default_rng([nx, ny, band_rows or 0, kind is ScenarioKind.SEQUENTIAL])
    prep_deg, mid_deg = rng.uniform(-90.0, 90.0, size=2)
    scenario = Scenario(kind=kind, prep_angle_deg=prep_deg, mid_angle_deg=mid_deg)
    spec = GridSpec(nx, ny, 13.5)
    read = []
    monkeypatch.setattr(experiments, "intensity", lambda field: read.append(field) or intensity(field))
    image = scenario_intensity_image(scenario, rng.uniform(0.05, 0.2), spec)
    (field,) = read
    want = dense_intensity(DenseField(spec, field.h_plane, field.v_plane))
    assert np.array_equal(image.values.view(np.uint64), want.values.view(np.uint64))


def test_image_holds_one_full_size_array(monkeypatch):
    # Bound stated before measuring: the 8 MiB values array, the two band
    # buffers (256 KiB complex, 128 KiB float) and the train's factors and
    # their 1-D FFT temporaries (a few 16 KiB profiles), under 9 MiB in all.
    # Whole H and V planes would take 16 MiB each.
    fine = GridSpec(1024, 1024, 13.5)
    scenario = Scenario(kind=ScenarioKind.SEQUENTIAL)
    scenario_intensity_image(scenario, 0.3, fine)  # warm-up: first-call caches are not the image's
    tracemalloc.start()
    try:
        image = scenario_intensity_image(scenario, 0.3, fine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert image.values.nbytes == 8 * 2**20
    assert peak < 9 * 2**20


@pytest.mark.parametrize("pages", [9, 10])
def test_an_image_beyond_physical_memory_is_refused_before_it_is_formed(monkeypatch, pages):
    # A 64^2 image takes 10 bytes a pixel (f64 values, u16 PGM), 40960 bytes:
    # ten 4 KiB pages hold it, nine do not.  The memory figure is patched
    # down, so no test allocates a large image.
    monkeypatch.setattr(experiments.os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}.get)
    formed = []
    monkeypatch.setattr(experiments, "intensity", lambda field: formed.append(field) or intensity(field))
    small, scenario = GridSpec(64, 64, 13.5), Scenario(ScenarioKind.SEQUENTIAL, 0.1)
    if pages == 10:
        assert scenario_intensity_image(scenario, 0.1, small).values.shape == (64, 64)
        assert len(formed) == 1
        return
    message = "a 64x64 image needs 40960 bytes, more than the 36864 bytes of physical memory"
    with pytest.raises(MemoryError, match=message):
        scenario_intensity_image(scenario, 0.1, small)
    assert formed == []


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


@pytest.mark.parametrize("sigma", [DEFAULT_SIGMA_MM, 1e-100, 1e-140])
def test_find_zero_crossing_matches_threshold(sigma):
    # The default sweep scaled with the width.  At 1e-100 and 1e-140 mm every
    # <x y> is below 1e-162 mm^2, where the product of two of them underflows
    # to 0; the sign change must still be seen.
    scenario = Scenario(ScenarioKind.SEQUENTIAL, sigma)
    records = run_sweep(sequential_spec(scenario=scenario, delta_stop_mm=0.711 * sigma / DEFAULT_SIGMA_MM, steps=31))
    assert abs(find_zero_crossing(records, sigma) - anomaly_threshold(sigma)) <= 1e-9 * sigma


def test_find_zero_crossing_requires_sign_change():
    records = run_sweep(sequential_spec(delta_stop_mm=0.2, steps=5))
    with pytest.raises(NoSignChange):
        find_zero_crossing(records, DEFAULT_SIGMA_MM)


@pytest.mark.parametrize("sigma", [DEFAULT_SIGMA_MM, 1e-10, 1e-8, 1e-6, 1e6, 1e7, 1e150])
def test_find_extremum_matches_stationarity(sigma):
    # The default sweep scaled with the width.  The stationarity condition has
    # no length scale, so in units of sigma the extremum is the same root at
    # every width.
    scenario = Scenario(ScenarioKind.SEQUENTIAL, sigma)
    records = run_sweep(sequential_spec(scenario=scenario, delta_stop_mm=0.711 * sigma / DEFAULT_SIGMA_MM, steps=31))
    delta, joint = find_extremum(records, sigma)
    assert abs(delta - max_reversal_delta(sigma)) <= 1e-12 * sigma
    t_root = brentq(lambda t: 3.0 * np.exp(-t) * (1.0 - t) - 1.0, 0.1, 0.9, xtol=1e-14)
    assert abs(delta - sigma * np.sqrt(8.0 * t_root)) <= 1e-12 * sigma
    assert abs(joint - closed_form_sequential(delta, sigma).xy_mm2) <= 1e-12 * sigma**2
    assert joint < 0.0


def test_find_extremum_requires_interior_dip():
    scenario = Scenario(kind=ScenarioKind.TWO_QUBIT, sigma_mm=DEFAULT_SIGMA_MM)
    records = run_sweep(SweepSpec(scenario=scenario, steps=11))
    with pytest.raises(NoInteriorExtremum):
        find_extremum(records, DEFAULT_SIGMA_MM)


def calculus_crossing(joint, deltas, tol=1e-13):
    """Bisection of the calculus's joint mean in the first sign-changing bracket."""
    values = [joint(d) for d in deltas]
    for i in range(len(deltas) - 1):
        if values[i] * values[i + 1] < 0.0:
            lo, hi, f_lo = deltas[i], deltas[i + 1], values[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if (joint(mid) < 0.0) == (f_lo < 0.0):
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    return None


def calculus_minimum(joint, deltas, tol=1e-10):
    """Golden-section minimum of the calculus's joint mean over the first dip's bracket."""
    values = [joint(d) for d in deltas]
    for i in range(1, len(deltas) - 1):
        if values[i] < values[i - 1] and values[i] < values[i + 1]:
            lo, hi = deltas[i - 1], deltas[i + 1]
            ratio = (math.sqrt(5.0) - 1.0) / 2.0
            while hi - lo > tol:
                c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                if joint(c) < joint(d):
                    hi = d
                else:
                    lo = c
            where = 0.5 * (lo + hi)
            return where, joint(where)
    return None


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_features_follow_the_calculus_at_any_plate_angles(kind):
    # Bounds stated before measuring: the package's crossing tolerance and
    # the benchmark's extremum tolerances.
    rng = np.random.default_rng(12)
    for _ in range(25):
        prep, mid = rng.uniform(-90.0, 90.0, size=2)
        sigma = float(rng.uniform(0.05, 2.0))
        stop, steps = sigma * float(rng.uniform(0.5, 20.0)), int(rng.integers(3, 80))
        scenario = Scenario(kind, sigma, prep, mid)
        records = run_sweep(SweepSpec(scenario, 0.0, stop, steps))
        deltas = [r.delta_mm for r in records]

        def joint(d):
            return analytic_deflections(scenario, d).xy_mm2

        want = calculus_crossing(joint, deltas)
        if want is None:
            with pytest.raises(NoSignChange):
                find_zero_crossing(records, sigma)
        else:
            assert abs(find_zero_crossing(records, sigma) - want) <= 1e-9
        want = calculus_minimum(joint, deltas)
        if want is None:
            with pytest.raises(NoInteriorExtremum):
                find_extremum(records, sigma)
        else:
            delta, value = find_extremum(records, sigma)
            assert abs(delta - want[0]) <= 1e-6
            assert abs(value - want[1]) <= 1e-10


@pytest.mark.parametrize(
    "prep, mid, crossing, extremum",
    [
        (28.0, -33.0, "0.346203", ("0.223926", "-0.00262794")),
        (25.0, -35.0, "0.343773", ("0.222675", "-0.0023741")),
    ],
)
def test_features_at_off_default_angles(prep, mid, crossing, extremum):
    scenario = Scenario(ScenarioKind.SEQUENTIAL, DEFAULT_SIGMA_MM, prep, mid)
    records = run_sweep(SweepSpec(scenario))
    assert f"{find_zero_crossing(records, DEFAULT_SIGMA_MM):.6g}" == crossing
    assert tuple(f"{v:.6g}" for v in find_extremum(records, DEFAULT_SIGMA_MM)) == extremum


@pytest.mark.parametrize("sigma", [DEFAULT_SIGMA_MM, 1.0])
@pytest.mark.parametrize(
    "mid, stop, steps, delta_dip, value_dip",
    [(40.0, 8.0, 31, 4.86229, 0.269374), (41.05, 8.875, 4, 5.21506, 0.181971)],
)
def test_extremum_of_a_positive_dip_past_t_2(sigma, mid, stop, steps, delta_dip, value_dip):
    # At prep = 30 deg and these mid angles the line's B is positive and
    # 0 < A < B e^-2: the joint mean stays positive and dips at
    # t = delta^2 / 8 sigma^2 ~ 2.955 and 3.400, the far root of its slope.
    # The 4-step sweep's dip bracket, t from 1.09 to 9.85, also holds the
    # slope's near root, a local maximum of the joint mean below t = 2.
    scenario = Scenario(ScenarioKind.SEQUENTIAL, sigma, 30.0, mid)
    records = run_sweep(SweepSpec(scenario, 0.0, stop * sigma, steps))

    def joint(d):
        return analytic_deflections(scenario, d).xy_mm2

    want = calculus_minimum(joint, [r.delta_mm for r in records])
    delta, value = find_extremum(records, sigma)
    assert abs(delta - want[0]) <= 1e-6
    assert abs(value - want[1]) <= 1e-10
    assert delta / sigma == pytest.approx(delta_dip, abs=1e-5)
    assert value / sigma**2 == pytest.approx(value_dip, abs=1e-6)


def test_extremum_whose_dip_neighbours_sit_in_the_underflowed_tail():
    # Near mid = 45 deg the joint mean has a small positive floor A delta^2,
    # so a coarse sweep dips at a record whose overlap, like its right
    # neighbour's, underflows to 0; the line goes through the left neighbour.
    sigma, first = 0.1, 0.1 * math.sqrt(8.0)
    scenario = Scenario(ScenarioKind.SEQUENTIAL, sigma, 30.0, 44.99)
    records = run_sweep(SweepSpec(scenario, first, 16.0 - first, 3))
    assert [math.exp(-(r.delta_mm**2) / (8.0 * sigma**2)) for r in records[1:]] == [0.0, 0.0]

    def joint(d):
        return analytic_deflections(scenario, d).xy_mm2

    want = calculus_minimum(joint, [r.delta_mm for r in records])
    delta, value = find_extremum(records, sigma)
    assert abs(delta - want[0]) <= 1e-6
    assert abs(value - want[1]) <= 1e-10


def test_extremum_where_every_overlap_rounds_to_one():
    # At mid = prep - 45 deg the weak-regime joint mean vanishes, and a sweep
    # of nanometres dips on the calculus's round-off alone; the overlaps of
    # the dip's bracket are all 1.0, so its line is flat and nothing divides by 0.
    scenario = Scenario(ScenarioKind.SEQUENTIAL, 1.0, 30.0, -15.0)
    records = run_sweep(SweepSpec(scenario, 0.0, 1e-9, 8))
    delta, value = find_extremum(records, 1.0)
    assert 0.0 < delta < 1e-9
    assert abs(value) < 1e-30


def test_two_qubit_scenario_has_no_single_image():
    scenario = Scenario(ScenarioKind.TWO_QUBIT, DEFAULT_SIGMA_MM)
    with pytest.raises(ValueError, match="no single detector image"):
        scenario_intensity_image(scenario, 0.2, GRID)


def test_features_need_analytic_records():
    records = run_sweep(sequential_spec(steps=5, engines=frozenset({Engine.GRID}), grid=GRID))
    for feature in (find_zero_crossing, find_extremum):
        with pytest.raises(ValueError, match="records are missing analytic deflections"):
            feature(records, DEFAULT_SIGMA_MM)


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


def csv_per_field(records):
    """records_to_csv as first written: _format_number field by field."""
    lines = [CSV_HEADER]
    for r in records:
        analytic = r.analytic or DeflectionTriple(None, None, None)
        grid_triple = r.grid or DeflectionTriple(None, None, None)
        fields = (r.delta_mm, *vars(analytic).values(), *vars(grid_triple).values(), r.xy_discrepancy_mm2)
        lines.append(",".join(_format_number(v) for v in fields))
    return ("\n".join(lines) + "\n").encode("ascii")


def test_csv_in_one_pass_gives_the_per_field_bytes():
    rng = random.Random(21)
    specials = [-0.0, 0.0, 1.0, -3.0, 10.0, 1e16, -1e16, 1e22, 5e-324, -5e-324, math.inf, -math.inf, math.nan]

    def number():
        pick = rng.random()
        if pick < 0.4:
            return rng.choice(specials)
        if pick < 0.6:
            return float(rng.randint(-10**6, 10**6))
        return rng.uniform(-2.0, 2.0) * 10.0 ** rng.randint(-320, 300)

    def triple():
        return None if rng.random() < 0.3 else DeflectionTriple(number(), number(), number())

    for _ in range(3000):
        records = [
            SweepRecord(number(), triple(), triple(), None if rng.random() < 0.3 else number())
            for _ in range(rng.randint(0, 6))
        ]
        assert records_to_csv(records) == csv_per_field(records)


def test_parse_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        parse_csv(b"delta,joint\n0,0\n")


def test_parse_csv_rejects_a_malformed_row():
    data = records_to_csv(run_sweep(sequential_spec(steps=3)))
    with pytest.raises(ValueError, match="malformed CSV row: '0,0,0'"):
        parse_csv(data + b"0,0,0\n")


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
