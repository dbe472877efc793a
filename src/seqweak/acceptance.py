"""Self-verification checks behind the ``verify`` command.

Every check returns a CheckResult with a one-line detail naming the measured
figure and its tolerance.  The checks only consume public APIs, so they
double as an executable summary of what the package claims to compute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .experiments import (
    DEFAULT_SIGMA_MM,
    Engine,
    Scenario,
    ScenarioKind,
    SweepSpec,
    analytic_deflections,
    find_extremum,
    find_zero_crossing,
    run_sweep,
    scenario_intensity_image,
    weak_limit_ratio,
)
from .grid import (
    SLM_MM_PER_UNIT,
    GridSpec,
    apply_conditional_shift,
    apply_slm_mask,
    fourier_lens,
    init_gaussian,
    position_coords,
)
from .pointer import Axis, anomaly_threshold, bisect, closed_form_sequential
from .qubit import (
    HORIZONTAL,
    MINUS_SIXTY,
    PLUS_SIXTY,
    Observable,
    QubitState,
    expectation,
    postselected_decomposition,
    sequential_weak_value,
)

RNG_SEED = 20250817
FINE_GRID = GridSpec(1024, 1024, 13.5)
COARSE_GRID = GridSpec(256, 256, 13.5)
LOBE_GRID_FAST = GridSpec(512, 512, 27.0)
REVERSAL_REFERENCE_MM = 0.189


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


def _timed(name, body) -> CheckResult:
    start = time.perf_counter()
    try:
        passed, detail = body()
    except SimulationError as exc:
        passed, detail = False, f"aborted: {exc}"
    return CheckResult(name=name, passed=passed, detail=detail, elapsed_s=time.perf_counter() - start)


def _random_state(rng) -> QubitState:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return QubitState(v[0], v[1])


def _random_observable(rng) -> Observable:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return Observable((m + m.conj().T) / 2.0)


def check_closed_form_reproduction() -> CheckResult:
    def body():
        sigma = DEFAULT_SIGMA_MM
        scenario = Scenario(ScenarioKind.SEQUENTIAL, sigma_mm=sigma)
        worst = 0.0
        for delta in np.linspace(0.0, 0.711, 25):
            delta = float(delta)
            got = analytic_deflections(scenario, delta)
            damp = np.exp(-(delta**2) / (8.0 * sigma**2))
            worst = max(
                worst,
                abs(got.x_mm - delta / 4.0),
                abs(got.y_mm - delta / 8.0 * (5.0 - 3.0 * damp)),
                abs(got.xy_mm2 - delta**2 / 16.0 * (1.0 - 3.0 * damp)),
            )
        return worst <= 1e-12, f"max deviation {worst:.2e} over 25 couplings (tol 1e-12)"

    return _timed("closed-form-reproduction", body)


def check_weak_limit() -> CheckResult:
    def body():
        records = run_sweep(SweepSpec(Scenario(ScenarioKind.SEQUENTIAL), 1e-4, 5e-4, 5))
        ratio = weak_limit_ratio(records)
        target = sequential_weak_value(
            PLUS_SIXTY, Observable.projector(HORIZONTAL), Observable.projector(MINUS_SIXTY)
        ).value.real
        ok = abs(ratio - target) <= 0.02 * abs(target)
        return ok, f"joint mean / delta^2 -> {ratio:.6f} vs sequential value {target:g} (tol 2%)"

    return _timed("weak-limit", body)


def check_strong_limit() -> CheckResult:
    def body():
        sigma = DEFAULT_SIGMA_MM
        delta = 10.0 * sigma
        triple = analytic_deflections(Scenario(ScenarioKind.SEQUENTIAL, sigma_mm=sigma), delta)
        ratio = triple.xy_mm2 / delta**2
        ok = abs(ratio - 0.0625) <= 0.005 * 0.0625
        return ok, f"joint mean / delta^2 at delta = 10 sigma -> {ratio:.6f} vs 0.0625 (tol 0.5%)"

    return _timed("strong-limit", body)


def check_anomaly_region() -> CheckResult:
    def body():
        sigma = DEFAULT_SIGMA_MM
        records = run_sweep(SweepSpec(Scenario(ScenarioKind.SEQUENTIAL, sigma_mm=sigma), 0.0, 0.711, 31))
        crossing = find_zero_crossing(records, sigma)
        expected = anomaly_threshold(sigma)
        inside = all(
            closed_form_sequential(d, sigma).xy_mm2 < 0.0
            for d in np.linspace(1e-3, crossing * (1.0 - 1e-6), 200)
        )
        outside = all(
            closed_form_sequential(d, sigma).xy_mm2 > 0.0
            for d in np.linspace(crossing * (1.0 + 1e-6), 3.0 * crossing, 200)
        )
        ok = (
            abs(crossing - 0.331) <= 1e-3
            and abs(crossing - expected) <= 1e-8
            and inside
            and outside
        )
        return ok, (
            f"zero crossing {crossing:.6f} mm vs 0.331 mm (tol 1e-3); "
            f"joint mean negative inside, positive outside: {inside and outside}"
        )

    return _timed("anomaly-region", body)


def check_extremum_consistency() -> CheckResult:
    def body():
        sigma = 1.0
        records = run_sweep(
            SweepSpec(Scenario(ScenarioKind.SEQUENTIAL, sigma_mm=sigma), 0.0, anomaly_threshold(sigma), 31)
        )
        delta_min, _ = find_extremum(records, sigma)
        t_root = bisect(lambda t: 3.0 * (1.0 - t) * np.exp(-t) - 1.0, 0.1, 0.9, xtol=1e-12)
        delta_root = float(np.sqrt(8.0 * t_root))
        t_min = delta_min**2 / 8.0
        at_default = delta_min * DEFAULT_SIGMA_MM
        relative = abs(at_default - REVERSAL_REFERENCE_MM) / REVERSAL_REFERENCE_MM
        ok = (
            abs(delta_min - delta_root) <= 1e-4
            and abs(t_min - 0.468) <= 1e-3
            and round(delta_min, 3) == 1.935
            and relative <= 0.15
        )
        return ok, (
            f"minimizer {delta_min:.6f} sigma vs stationarity root {delta_root:.6f} (tol 1e-4), "
            f"t = {t_min:.4f} vs 0.468 (tol 1e-3); at the default width: {at_default:.4f} mm "
            f"vs reference 0.189 mm ({relative:.1%}, documented bound 15%)"
        )

    return _timed("extremum-consistency", body)


def check_two_qubit_nonnegativity() -> CheckResult:
    def body():
        rng = np.random.default_rng(RNG_SEED)
        nonneg = True
        worst = 0.0
        for _ in range(1000):
            sigma = rng.uniform(0.02, 2.0)
            delta = rng.uniform(0.0, 5.0 * sigma)
            triple = analytic_deflections(Scenario(ScenarioKind.TWO_QUBIT, sigma_mm=sigma), delta)
            nonneg = nonneg and triple.xy_mm2 >= 0.0
            worst = max(
                worst,
                abs(triple.xy_mm2 - triple.x_mm * triple.y_mm),
                abs(triple.xy_mm2 - delta**2 / 16.0),
                abs(triple.x_mm - delta / 4.0),
                abs(triple.y_mm - delta / 4.0),
            )
        ok = nonneg and worst <= 1e-12
        return ok, (
            f"1000 random couplings: joint mean nonnegative: {nonneg}; "
            f"max deviation from delta^2/16 and marginal product {worst:.2e} (tol 1e-12)"
        )

    return _timed("two-qubit-nonnegativity", body)


def _engine_deviation(grid: GridSpec) -> tuple[float, float]:
    records = run_sweep(
        SweepSpec(
            Scenario(ScenarioKind.SEQUENTIAL),
            0.0,
            0.711,
            15,
            engines=frozenset({Engine.ANALYTIC, Engine.GRID}),
            grid=grid,
        )
    )
    marginal = max(
        max(abs(r.grid.x_mm - r.analytic.x_mm), abs(r.grid.y_mm - r.analytic.y_mm))
        for r in records
    )
    joint = max(r.xy_discrepancy_mm2 for r in records)
    return marginal, joint


def check_engine_equivalence(fast: bool = False) -> CheckResult:
    def body():
        coarse_marginal, coarse_joint = _engine_deviation(COARSE_GRID)
        if fast:
            ok = coarse_marginal <= 1e-2 and coarse_joint <= 1e-2
            return ok, (
                f"256^2 grid only (fast): max marginal gap {coarse_marginal:.2e} mm, "
                f"max joint gap {coarse_joint:.2e} mm^2 (tol 1e-2)"
            )
        fine_marginal, fine_joint = _engine_deviation(FINE_GRID)
        ok = (
            fine_marginal <= 1e-3
            and fine_joint <= 1e-4
            and coarse_marginal <= 1e-2
            and coarse_joint <= 1e-2
        )
        return ok, (
            f"1024^2 grid: max marginal gap {fine_marginal:.2e} mm (tol 1e-3), "
            f"max joint gap {fine_joint:.2e} mm^2 (tol 1e-4); "
            f"256^2 grid: {coarse_joint:.2e} mm^2 (tol 1e-2); 15 couplings in [0, 0.711] mm"
        )

    return _timed("engine-equivalence", body)


def check_calculus_agreement() -> CheckResult:
    def body():
        rng = np.random.default_rng(RNG_SEED + 1)
        worst = 0.0
        for _ in range(200):
            sigma = rng.uniform(0.02, 2.0)
            delta = rng.uniform(0.0, 5.0 * sigma)
            calc = analytic_deflections(Scenario(ScenarioKind.SEQUENTIAL, sigma_mm=sigma), delta)
            closed = closed_form_sequential(delta, sigma)
            worst = max(
                worst,
                abs(calc.x_mm - closed.x_mm),
                abs(calc.y_mm - closed.y_mm),
                abs(calc.xy_mm2 - closed.xy_mm2),
            )
        ok = worst <= 1e-10
        return ok, f"200 random (delta, sigma): max deviation {worst:.2e} (tol 1e-10)"

    return _timed("calculus-agreement", body)


def check_slm_calibration(slm_k: float | None = None) -> CheckResult:
    def body():
        alpha = 10
        field = init_gaussian(COARSE_GRID, DEFAULT_SIGMA_MM, PLUS_SIXTY)
        routed = fourier_lens(field)
        routed = apply_slm_mask(routed, alpha, Axis.X)
        for _ in range(3):
            routed = fourier_lens(routed)
        k = SLM_MM_PER_UNIT if slm_k is None else slm_k
        shifted = apply_conditional_shift(field, k * alpha, Axis.X)
        deviation = max(
            float(np.abs(routed.h_plane - shifted.h_plane).max()),
            float(np.abs(routed.v_plane - shifted.v_plane).max()),
        )
        ok = deviation <= 1e-9
        return ok, (
            f"grating alpha = {alpha} through lens relay vs conditional shift of "
            f"{k * alpha:g} mm: max field deviation {deviation:.2e} (tol 1e-9)"
        )

    return _timed("slm-calibration", body)


def check_decomposition_identity() -> CheckResult:
    def body():
        rng = np.random.default_rng(RNG_SEED + 2)
        worst = 0.0
        for _ in range(1000):
            pre = _random_state(rng)
            observable = _random_observable(rng)
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            basis = (QubitState(q[0, 0], q[1, 0]), QubitState(q[0, 1], q[1, 1]))
            terms = postselected_decomposition(pre, observable, basis)
            total = sum(
                term.probability * term.weak_value
                for term in terms
                if term.weak_value is not None
            )
            worst = max(worst, abs(total - expectation(pre, observable)))
        ok = worst <= 1e-10
        return ok, f"1000 random decompositions: max identity gap {worst:.2e} (tol 1e-10)"

    return _timed("decomposition-identity", body)


def check_image_lobes(fast: bool = False) -> CheckResult:
    def body():
        sigma = DEFAULT_SIGMA_MM
        delta = 10.0 * sigma
        grid = LOBE_GRID_FAST if fast else FINE_GRID
        image = scenario_intensity_image(Scenario(ScenarioKind.SEQUENTIAL, sigma_mm=sigma), delta, grid)
        x, y = position_coords(grid)
        col_hi = x >= delta / 2.0
        row_hi = y >= delta / 2.0
        weights = image.values / image.values.sum()
        measured = {
            "x=d,y=d": float(weights[np.ix_(row_hi, col_hi)].sum()),
            "x=0,y=d": float(weights[np.ix_(row_hi, ~col_hi)].sum()),
            "x=d,y=0": float(weights[np.ix_(~row_hi, col_hi)].sum()),
            "x=0,y=0": float(weights[np.ix_(~row_hi, ~col_hi)].sum()),
        }
        targets = {
            "x=d,y=d": 1.0 / 16.0,
            "x=0,y=d": 9.0 / 16.0,
            "x=d,y=0": 3.0 / 16.0,
            "x=0,y=0": 3.0 / 16.0,
        }
        worst = max(abs(measured[key] - targets[key]) for key in targets)
        ok = worst <= 0.01
        shares = ", ".join(f"{key}: {measured[key]:.4f}" for key in targets)
        return ok, f"lobe weights at delta = 10 sigma ({shares}); max gap {worst:.2e} (tol 1%)"

    return _timed("image-lobes", body)


def run_all_checks(fast: bool = False, slm_k: float | None = None) -> list[CheckResult]:
    """Run every check in a fixed order; fast mode shrinks the grids."""
    return [
        check_closed_form_reproduction(),
        check_weak_limit(),
        check_strong_limit(),
        check_anomaly_region(),
        check_extremum_consistency(),
        check_two_qubit_nonnegativity(),
        check_engine_equivalence(fast=fast),
        check_calculus_agreement(),
        check_slm_calibration(slm_k=slm_k),
        check_decomposition_identity(),
        check_image_lobes(fast=fast),
    ]
