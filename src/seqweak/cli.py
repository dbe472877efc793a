"""Command-line front end: weak values, sweeps, beam images, verification.

Exit codes are a stable contract: 0 success, 2 usage error, 3 undefined weak
value (orthogonal post-selection), 4 engine failure, 5 verification failure.
Lengths require an explicit mm or um suffix; the delta-range endpoints are
plain numbers in mm.

argparse checks each flag's text, so a malformed flag exits 2 even where the
selected engine ignores it; the spec classes check the values together.  A
--config file's lines become --key=value flags placed before the command
line's own; argparse keeps the last value it sees, so flags beat the file,
the file beats the defaults, and values from the file get the same checks.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np

from .acceptance import run_all_checks
from .errors import OrthogonalPostselection, ShiftTooLarge, SimulationError, SweepEngineError
from .experiments import (
    DEFAULT_SIGMA_MM,
    Engine,
    Scenario,
    ScenarioKind,
    SweepSpec,
    _format_number,
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
ENGINES = {
    "analytic": frozenset({Engine.ANALYTIC}),
    "grid": frozenset({Engine.GRID}),
    "both": frozenset({Engine.ANALYTIC, Engine.GRID}),
}


# What int() reads as a base-10 integer; past int()'s 4300-digit limit
# Decimal reads the same text at any length.
INTEGER_TEXT = re.compile(r"\s*[+-]?\d+(_\d+)*\s*")


class UsageError(Exception):
    """Bad flag or config value; maps to exit code 2."""


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
    try:
        with np.errstate(over="ignore"):
            norm = np.hypot(abs(amp_h), abs(amp_v))
    except OverflowError:  # abs() of a component whose modulus exceeds the float range
        norm = math.inf
    if norm == math.inf:
        raise UsageError(f"{flag} components are too large to normalize, got {text!r}")
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


def parse_delta_range(text: str, flag: str) -> tuple[float, float, int]:
    """start:stop:steps with the endpoints in mm; SweepSpec checks the values."""
    try:
        start, stop, steps = text.split(":")
        return float(start), float(stop), int(steps)
    except ValueError:  # not three parts, or a malformed number
        raise UsageError(f"{flag} must be start:stop:steps, got {text!r}") from None


def parse_count(text: str, flag: str) -> int:
    """A nonnegative integer of any length: a grid side or a grating strength."""
    try:
        count = int(text)
    except ValueError:
        count = int(Decimal(text)) if INTEGER_TEXT.fullmatch(text) else -1
    if count < 0:
        raise UsageError(f"{flag} must be a nonnegative integer, got {text!r}")
    return count


def _fmt(value: float) -> str:
    return _format_number(round(float(value), 12) or 0.0)


def format_complex(value: complex) -> str:
    sign = "+" if value.imag >= 0.0 or round(value.imag, 12) == 0.0 else "-"
    return f"{_fmt(value.real)}{sign}{_fmt(abs(value.imag))}i"


def _with_config(argv: list[str], config_keys: dict[str, dict]) -> list[str]:
    """argv with the --config file's key = value lines as --key=value flags
    right after the subcommand, ahead of the command line's own flags, which
    argparse reads later and so keeps.  The keys are the subcommand's long
    flags without the --; a switch takes a boolean and is given bare when true."""
    path = None
    for i, arg in enumerate(argv):
        name, eq, value = arg.partition("=")
        if len(name) > 2 and "--config".startswith(name):  # argparse also takes a prefix
            path = value if eq else (argv[i + 1] if i + 1 < len(argv) else None)
    if path is None or argv[0] not in config_keys:
        return argv
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    flags = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        action = config_keys[argv[0]].get(key)
        if action is None:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if action.nargs != 0:
            flags.append(f"--{key}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            flags.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no", "off"):
            raise UsageError(f"{path}:{lineno}: {key} must be a boolean, got {value!r}")
    return argv[:1] + flags + argv[1:]


def _scenario_and_grid(args, kind, with_grid: bool) -> tuple[Scenario, GridSpec | None]:
    sigma_mm = DEFAULT_SIGMA_MM if args.sigma is None else args.sigma
    try:
        grid = GridSpec(args.grid_size, args.grid_size, args.pixel * 1e3) if with_grid else None
        return Scenario(kind, sigma_mm=sigma_mm), grid
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_weak_value(args) -> int:
    postselected = args.post is not None or args.a is not None
    if postselected and (args.first is not None or args.second is not None):
        raise UsageError("give either --first/--second or --post/--a, not both")
    for flag in ("--post", "--a") if postselected else ("--first", "--second"):
        if getattr(args, flag[2:]) is None:
            raise UsageError(f"{flag} is required")
    if postselected:
        value = weak_value(args.pre, args.post, args.a)
        lo, hi = args.a.eigenvalues()
    else:
        result = sequential_weak_value(args.pre, args.first, args.second)
        value, (lo, hi) = result.value, result.interval
    verdict = "ANOMALOUS" if is_anomalous(value, lo, hi) else "not anomalous"
    print(f"value = {format_complex(value)}  interval=[{_fmt(lo)},{_fmt(hi)}]  {verdict}")
    return 0


def cmd_sweep(args) -> int:
    engines = ENGINES[args.engine]
    scenario, grid = _scenario_and_grid(args, ScenarioKind(args.scenario), Engine.GRID in engines)
    try:
        spec = SweepSpec(scenario, *args.delta_range, engines=engines, grid=grid)
    except ValueError as exc:  # the coupling range is all that is left to check
        raise UsageError(f"--delta-range: {exc}") from None

    records = run_sweep(spec)
    export_csv(records, args.out)
    provenance = "derived" if args.sigma is None else "user"
    write_metadata(spec, Path(f"{args.out}.meta"), sigma_provenance=provenance)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def cmd_image(args) -> int:
    scenario, grid = _scenario_and_grid(args, ScenarioKind.SEQUENTIAL, with_grid=True)
    try:
        delta_mm = args.delta if args.alpha is None else SLM_MM_PER_UNIT * args.alpha
    except OverflowError:
        digits = Decimal(args.alpha).adjusted() + 1  # str() refuses past 4300 digits
        raise ShiftTooLarge(f"--alpha of {digits} digits shifts beyond the float range") from None
    image = scenario_intensity_image(scenario, delta_mm, grid)

    args.out.write_bytes(render_pgm(image))
    if args.raw is not None:
        with args.raw.open("wb") as out:
            out.writelines(render_raw(image))
    means = discrete_means(image)
    print(
        f"wrote {grid.nx}x{grid.ny} image to {args.out}  "
        f"means: x = {means.x_mm:.6g} mm, y = {means.y_mm:.6g} mm"
    )
    return 0


def cmd_verify(args) -> int:
    results = run_all_checks(fast=args.fast)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Every flag, declared once; a subcommand's long flags are also its config keys.
    Built at the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="seqweak",
        description="Sequential weak measurement simulator: anomalous joint "
        "deflections without post-selection.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    config_keys = {}

    def command(name, func, summary):
        """A subcommand, and a function that declares its flags and config keys."""
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("--config", help="file of key = value lines, read as flags given first")
        sub.set_defaults(func=func)
        keys = config_keys[name] = {}

        def flag(name, parse=None, owner=sub, **options):
            # argparse handles only ValueError, TypeError and ArgumentTypeError
            # from a type, so a parse_* helper's UsageError reaches main.
            if parse is not None:
                options["type"] = lambda text: parse(text, name)
            keys[name[2:]] = owner.add_argument(name, **options)

        return sub, flag

    _, weak = command("weak-value", cmd_weak_value, "evaluate a weak value and its anomaly verdict")
    weak("--pre", parse_state, required=True,
         help="pre-selected state: H, V, a1, a2, or re+imi,re+imi")
    weak("--first", parse_observable, help="first-coupled observable: proj:<state> or 4 entries")
    weak("--second", parse_observable, help="second-coupled observable")
    weak("--post", parse_state, help="post-selected state (with --a)")
    weak("--a", parse_observable, help="observable for the post-selected mode")

    _, sweep = command("sweep", cmd_sweep, "sweep the coupling strength and export CSV")
    sweep("--scenario", choices=[kind.value for kind in ScenarioKind], default="sequential",
          help="optical train (default sequential)")
    sweep("--delta-range", parse_delta_range, default="0:0.711:31",
          help="start:stop:steps in mm (default 0:0.711:31)")
    sweep("--engine", choices=ENGINES, default="analytic", help="engines to run (default analytic)")
    sweep("--out", required=True, type=Path, help="destination CSV path")

    sub, image = command("image", cmd_image, "render the detected intensity as a 16-bit PGM")
    shift = sub.add_mutually_exclusive_group(required=True)
    image("--delta", parse_length_mm, owner=shift, help="coupling strength with unit suffix")
    image("--alpha", parse_count, owner=shift,
          help="grating strength; converts at 0.0237 mm per unit")
    image("--out", required=True, type=Path, help="destination PGM path")
    image("--raw", type=Path, help="optional raw float64 dump path")

    for flag in (sweep, image):
        flag("--sigma", parse_length_mm,
             help="beam width with unit suffix (default 0.1116mm, derived)")
        flag("--grid-size", parse_count, default=256, help="grid side (default 256)")
        flag("--pixel", parse_length_mm, default="13.5um",
             help="pixel pitch with unit suffix (default 13.5um)")

    _, verify = command("verify", cmd_verify, "run the self-verification checks")
    verify("--fast", action="store_true", help="shrink the grids")

    parser.set_defaults(config_keys=config_keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(argv, parser.get_default("config_keys")))
        return args.func(args)
    except SystemExit as exc:  # argparse has printed its message
        return exc.code if isinstance(exc.code, int) else 2
    except (UsageError, OSError) as exc:
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
    except MemoryError as exc:
        detail = str(exc) or "allocation failed"
        print(f"error: engine failure: not enough memory ({detail})", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())
