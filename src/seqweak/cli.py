"""Command-line front end: weak values, sweeps, beam images, verification.

Exit codes are a stable contract: 0 success, 2 usage error, 3 undefined weak
value (orthogonal post-selection), 4 engine failure, 5 verification failure.
Lengths require an explicit mm or um suffix; the delta-range endpoints are
plain numbers in mm.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .acceptance import run_all_checks
from .errors import OrthogonalPostselection, SimulationError, SweepEngineError
from .experiments import (
    DEFAULT_SIGMA_MM,
    Engine,
    Scenario,
    ScenarioKind,
    SweepSpec,
    export_csv,
    run_sweep,
    scenario_intensity_image,
    write_metadata,
)
from .grid import SLM_MM_PER_UNIT, GridSpec, discrete_means, render_pgm, render_raw
from .qubit import (
    HORIZONTAL,
    MINUS_SIXTY,
    PLUS_SIXTY,
    VERTICAL,
    Observable,
    QubitState,
    is_anomalous,
    sequential_weak_value,
    weak_value,
)

NAMED_STATES = {"H": HORIZONTAL, "V": VERTICAL, "a1": PLUS_SIXTY, "a2": MINUS_SIXTY}
DEFAULT_DELTA_RANGE = "0:0.711:31"
DEFAULT_GRID_SIDE = "256"
DEFAULT_PIXEL = "13.5um"

class UsageError(Exception):
    """Bad flag or config value; maps to exit code 2."""


def _require(value, flag):
    if value is None:
        raise UsageError(f"{flag} is required")
    return value


def parse_length_mm(text: str, flag: str) -> float:
    """Length with a mandatory mm/um suffix, normalized to mm."""
    stripped = text.strip()
    scale = {"mm": 1.0, "um": 1e-3}.get(stripped[-2:])
    if scale is not None:
        try:
            value = float(stripped[:-2]) * scale
        except ValueError:
            pass
        else:
            if math.isfinite(value):
                return value
            raise UsageError(f"{flag} must be a finite length, got {text!r}")
    raise UsageError(f"{flag} needs a number with an mm or um suffix, got {text!r}")


def parse_complex(text: str, flag: str) -> complex:
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError:
        raise UsageError(f"{flag} has a malformed complex component {text!r}") from None
    if not np.isfinite(value):
        raise UsageError(f"{flag} components must be finite, got {text!r}")
    return value


def parse_state(text: str, flag: str) -> QubitState:
    """Named state (H, V, a1, a2) or a `re+imi,re+imi` component pair."""
    if text in NAMED_STATES:
        return NAMED_STATES[text]
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(
            f"{flag} must be one of {sorted(NAMED_STATES)} or two comma-separated "
            f"components, got {text!r}"
        )
    amp_h, amp_v = (parse_complex(part, flag) for part in parts)
    norm = np.hypot(abs(amp_h), abs(amp_v))
    if norm <= 1e-12:
        raise UsageError(f"{flag} must be a nonzero state")
    return QubitState(amp_h / norm, amp_v / norm)


def parse_observable(text: str, flag: str) -> Observable:
    """Either proj:<state> or four comma-separated matrix entries."""
    if text.startswith("proj:"):
        return Observable.projector(parse_state(text[len("proj:"):], flag))
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(
            f"{flag} must be proj:<state> or four comma-separated matrix entries, got {text!r}"
        )
    a, b, c, d = (parse_complex(part, flag) for part in parts)
    try:
        return Observable(np.array([[a, b], [c, d]]))
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _fmt(value: float) -> str:
    rounded = round(float(value), 12)
    if rounded == 0.0:
        rounded = 0.0
    text = repr(rounded)
    return text[:-2] if text.endswith(".0") else text


def format_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0.0 or round(value.imag, 12) == 0.0 else "-"
    return f"{_fmt(value.real)}{sign}{_fmt(abs(value.imag))}i"


def _parse_bool(text: str, key: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"config key {key!r} must be a boolean, got {text!r}")


def _overlay_config(args) -> None:
    """Fill unset flags from the config file; flags win over the file."""
    if getattr(args, "config", None) is None:
        return
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in args.config_keys:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        dest = key.replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, _parse_bool(value, key) if key == "fast" else value)


def _grid_from_args(args) -> GridSpec:
    size_text = args.grid_size or DEFAULT_GRID_SIDE
    try:
        side = int(size_text)
    except ValueError:
        raise UsageError(f"--grid-size must be an integer, got {size_text!r}") from None
    pixel_mm = parse_length_mm(args.pixel or DEFAULT_PIXEL, "--pixel")
    try:
        return GridSpec(side, side, pixel_mm * 1e3)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _sigma_from_args(args) -> tuple[float, str]:
    if args.sigma is None:
        return DEFAULT_SIGMA_MM, "derived"
    return parse_length_mm(args.sigma, "--sigma"), "user"


def cmd_weak_value(args) -> int:
    pre = parse_state(_require(args.pre, "--pre"), "--pre")
    sequential = args.first is not None or args.second is not None
    postselected = args.post is not None or args.a is not None
    if sequential and postselected:
        raise UsageError("give either --first/--second or --post/--a, not both")
    if postselected:
        post = parse_state(_require(args.post, "--post"), "--post")
        observable = parse_observable(_require(args.a, "--a"), "--a")
        value = weak_value(pre, post, observable)
        lo, hi = observable.eigenvalues()
    else:
        first = parse_observable(_require(args.first, "--first"), "--first")
        second = parse_observable(_require(args.second, "--second"), "--second")
        result = sequential_weak_value(pre, first, second)
        value, (lo, hi) = result.value, result.interval
    verdict = "ANOMALOUS" if is_anomalous(value, lo, hi) else "not anomalous"
    print(f"value = {format_complex(value)}  interval=[{_fmt(lo)},{_fmt(hi)}]  {verdict}")
    return 0


def cmd_sweep(args) -> int:
    out = Path(_require(args.out, "--out"))
    kinds = {kind.value: kind for kind in ScenarioKind}
    scenario_key = args.scenario or ScenarioKind.SEQUENTIAL.value
    if scenario_key not in kinds:
        raise UsageError(f"--scenario must be one of {sorted(kinds)}, got {scenario_key!r}")
    sigma_mm, provenance = _sigma_from_args(args)

    range_text = args.delta_range or DEFAULT_DELTA_RANGE
    parts = range_text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--delta-range must be start:stop:steps, got {range_text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"--delta-range must be start:stop:steps, got {range_text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"--delta-range endpoints must be finite, got {range_text!r}")

    engine_sets = {
        "analytic": frozenset({Engine.ANALYTIC}),
        "grid": frozenset({Engine.GRID}),
        "both": frozenset({Engine.ANALYTIC, Engine.GRID}),
    }
    engine_key = args.engine or "analytic"
    if engine_key not in engine_sets:
        raise UsageError(f"--engine must be one of {sorted(engine_sets)}, got {engine_key!r}")
    engines = engine_sets[engine_key]
    grid = _grid_from_args(args) if Engine.GRID in engines else None

    try:
        spec = SweepSpec(
            scenario=Scenario(kinds[scenario_key], sigma_mm=sigma_mm),
            delta_start_mm=start,
            delta_stop_mm=stop,
            steps=steps,
            engines=engines,
            grid=grid,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    records = run_sweep(spec)
    export_csv(records, out)
    write_metadata(spec, Path(str(out) + ".meta"), sigma_provenance=provenance)
    print(f"wrote {len(records)} rows to {out}")
    return 0


def cmd_image(args) -> int:
    out = Path(_require(args.out, "--out"))
    if (args.delta is None) == (args.alpha is None):
        raise UsageError("give exactly one of --delta or --alpha")
    if args.alpha is not None:
        try:
            alpha = int(args.alpha)
        except ValueError:
            raise UsageError(f"--alpha must be a nonnegative integer, got {args.alpha!r}") from None
        if alpha < 0:
            raise UsageError(f"--alpha must be a nonnegative integer, got {args.alpha!r}")
        delta_mm = SLM_MM_PER_UNIT * alpha
    else:
        delta_mm = parse_length_mm(args.delta, "--delta")
    sigma_mm, _ = _sigma_from_args(args)
    grid = _grid_from_args(args)
    try:
        scenario = Scenario(ScenarioKind.SEQUENTIAL, sigma_mm=sigma_mm)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    image = scenario_intensity_image(scenario, delta_mm, grid)

    out.write_bytes(render_pgm(image))
    if args.raw is not None:
        Path(args.raw).write_bytes(render_raw(image))
    means = discrete_means(image)
    print(
        f"wrote {grid.nx}x{grid.ny} image to {out}  "
        f"means: x = {means.x_mm:.6g} mm, y = {means.y_mm:.6g} mm"
    )
    return 0


def cmd_verify(args) -> int:
    fast = bool(args.fast)
    slm_k = None
    if args.slm_k is not None:
        try:
            slm_k = float(args.slm_k)
        except ValueError:
            raise UsageError(f"--slm-k must be a number, got {args.slm_k!r}") from None
    results = run_all_checks(fast=fast, slm_k=slm_k)
    width = max(len(result.name) for result in results)
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        print(f"{verdict}  {result.name:<{width}}  {result.detail}  [{result.elapsed_s:.2f} s]")
    failing = [result for result in results if not result.passed]
    if failing:
        print(f"verification failed: {failing[0].name}", file=sys.stderr)
        return 5
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqweak",
        description="Sequential weak measurement simulator: anomalous joint "
        "deflections without post-selection.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_config(sub, keys):
        sub.add_argument("--config", help="key = value file filling in unset flags")
        sub.set_defaults(config_keys=frozenset(keys))

    wv = commands.add_parser("weak-value", help="evaluate a weak value and its anomaly verdict")
    wv.add_argument("--pre", help="pre-selected state: H, V, a1, a2, or re+imi,re+imi")
    wv.add_argument("--first", help="first-coupled observable: proj:<state> or 4 entries")
    wv.add_argument("--second", help="second-coupled observable")
    wv.add_argument("--post", help="post-selected state (with --a)")
    wv.add_argument("--a", help="observable for the post-selected mode")
    add_config(wv, {"pre", "first", "second", "post", "a"})
    wv.set_defaults(func=cmd_weak_value)

    sweep = commands.add_parser("sweep", help="sweep the coupling strength and export CSV")
    sweep.add_argument("--scenario", help="sequential, two-qubit, or single (default sequential)")
    sweep.add_argument("--sigma", help="beam width with unit suffix (default 0.1116mm, derived)")
    sweep.add_argument("--delta-range", help="start:stop:steps in mm (default 0:0.711:31)")
    sweep.add_argument("--engine", help="analytic, grid, or both (default analytic)")
    sweep.add_argument("--grid-size", help="grid side for the grid engine (default 256)")
    sweep.add_argument("--pixel", help="pixel pitch with unit suffix (default 13.5um)")
    sweep.add_argument("--out", help="destination CSV path")
    add_config(sweep, {"scenario", "sigma", "delta-range", "engine", "grid-size", "pixel", "out"})
    sweep.set_defaults(func=cmd_sweep)

    image = commands.add_parser("image", help="render the detected intensity as a 16-bit PGM")
    image.add_argument("--delta", help="coupling strength with unit suffix")
    image.add_argument("--alpha", help="grating strength; converts at 0.0237 mm per unit")
    image.add_argument("--sigma", help="beam width with unit suffix (default 0.1116mm)")
    image.add_argument("--grid-size", help="grid side (default 256)")
    image.add_argument("--pixel", help="pixel pitch with unit suffix (default 13.5um)")
    image.add_argument("--out", help="destination PGM path")
    image.add_argument("--raw", help="optional raw float64 dump path")
    add_config(image, {"delta", "alpha", "sigma", "grid-size", "pixel", "out", "raw"})
    image.set_defaults(func=cmd_image)

    verify = commands.add_parser("verify", help="run the self-verification checks")
    verify.add_argument("--fast", action="store_true", default=None, help="shrink the grids")
    verify.add_argument("--slm-k", help=argparse.SUPPRESS)
    add_config(verify, {"fast", "slm-k"})
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _overlay_config(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrthogonalPostselection as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SweepEngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"error: engine failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
