"""Seeded op lists for the three workloads.

An op is one ``seqweak.cli.main(argv)`` call or one public library call made
the way ``scripts/`` makes it.  A workload is an endless sequence of rounds;
every round has the same op kinds in the same order, with inputs drawn from
the seed.  The harness runs whole rounds only, so every run has the same mix
of op kinds and its medians and tail do not depend on where the clock ran out.

Inputs are drawn from the package's own accepted domains:

- calculus: sigma in [0.02, 2] mm and couplings up to 5 sigma, the domain of
  ``verify``'s random checks;
- grid: sigma from 4 pixels (``GridTooCoarse`` below) to a sixth of the extent
  (``GridTooSmall`` above), couplings below a quarter of the extent
  (``ShiftTooLarge`` above).

The timed rounds leave out the two input classes where the package is known
to give a wrong answer, so that no timed op fails: feature extraction at
non-default plate angles (timed feature ops run at the default angles) and
grid inputs whose beam comes within the measured margin of the grid edge (a
draw in that class is drawn again).  The classes are not dropped: ``probes``
draws a fixed, seeded set of inputs from them, which every run checks after
its timed part and reports on its own.

Continuous inputs are drawn stratified: each parameter cycles through eight
equal strata in a seeded order, so a run's inputs cover each range evenly.
Op kinds that differ a lot in cost, like the acceptance checks, rotate the
same way, one per round.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

SCENARIOS = ("sequential", "two-qubit", "single")

PIXEL_MM = 0.0135
SLM_MM_PER_UNIT = 0.0237
COARSE_SIDE = 256
FINE_SIDE = 1024
STRATA = 8

# Acceptance checks that touch only the calculus and the qubit algebra; one
# runs per round, in rotation.
CALCULUS_CHECKS = (
    "closed_form_reproduction",
    "weak_limit",
    "strong_limit",
    "anomaly_region",
    "extremum_consistency",
    "two_qubit_nonnegativity",
    "calculus_agreement",
    "decomposition_identity",
)

# Classes of input where the package is known to give a wrong answer:
# feature extraction refines on the 30/-30 deg closed form whatever the plate
# angles, and grid moments go wrong without an error when beam tails wrap
# around the periodic grid.  Only probes are drawn from these classes; a
# probe failure that is the defect's own signature (see checks.check)
# reproduces the defect.
RISK_FEATURE_ANGLES = "feature-extraction-off-default-angles"
RISK_GRID_EDGE = "beam-tail-wraps-past-tolerance"

DEFAULT_ANGLES = (("prep", 30.0), ("mid", -30.0))

# Margin, in sigma, between the most shifted beam and the grid edge below
# which the wrap error of the grid moments can exceed the engine-equivalence
# tolerance.  Measured on the sequential train (the largest error of the
# three) with the largest coupling the workloads draw, a quarter of the
# extent: the error reaches the tolerance between 2.4 and 2.5 sigma on
# 256^2 and at 4.1 sigma on 1024^2, and is at most 0.71 and 0.66 of it at
# the margins below.  seqbench/README.md has the table.
EDGE_MARGIN_SIGMAS = {256: 2.6, 1024: 4.2}


@dataclass(frozen=True)
class Op:
    """One call into the program.

    ``params`` holds the inputs as (name, value) pairs; ``argv`` is set for
    CLI ops, with ``{csv}``, ``{pgm}`` and ``{raw}`` standing for output
    paths.  ``points`` counts coupling strengths times engines evaluated.
    """

    kind: str
    params: tuple[tuple[str, object], ...]
    argv: tuple[str, ...] = ()
    points: int = 0
    at_risk: str = ""


class _Draw:
    """Seeded stratified draws, one stratum queue per parameter name."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.queues: dict[str, list[int]] = {}

    def _unit(self, name: str) -> float:
        queue = self.queues.setdefault(name, [])
        if not queue:
            queue.extend(self.rng.sample(range(STRATA), STRATA))
        return (queue.pop() + self.rng.random()) / STRATA

    def uniform(self, name: str, lo: float, hi: float) -> float:
        return float(f"{lo + self._unit(name) * (hi - lo):.6g}")

    def log_uniform(self, name: str, lo: float, hi: float) -> float:
        return float(f"{lo * (hi / lo) ** self._unit(name):.5g}")

    def integer(self, name: str, lo: int, hi: int) -> int:
        return min(hi, lo + int(self._unit(name) * (hi - lo + 1)))

    def cycle(self, name: str, items: tuple) -> object:
        """Next item of a seeded permutation of items, reshuffled each cycle."""
        queue = self.queues.setdefault(name, [])
        if not queue:
            queue.extend(self.rng.sample(range(len(items)), len(items)))
        return items[queue.pop()]


def _edge_risk(side: int, sigma: float, max_shift: float) -> str:
    half_extent = side * PIXEL_MM / 2.0
    return RISK_GRID_EDGE if half_extent - max_shift < EDGE_MARGIN_SIGMAS[side] * sigma else ""


def _draw_until(make_op, at_risk: bool) -> Op:
    """The first op ``make_op`` builds that is (or is not) in a defect class."""
    while True:
        op = make_op()
        if bool(op.at_risk) == at_risk:
            return op


def _length_arg(value_mm: float, unit: str) -> tuple[str, float]:
    """CLI text for a length and the value in mm the CLI parses from it."""
    if unit == "um":
        number = float(f"{value_mm * 1e3:.6g}")
        return f"{number!r}um", number * 1e-3
    return f"{value_mm!r}mm", value_mm


def _state_text(draw: _Draw, name: str) -> str:
    angle = draw.uniform(name + ".angle", 0.0, math.pi)
    phase = draw.uniform(name + ".phase", -math.pi, math.pi)
    h, v = math.cos(angle), math.sin(angle) * complex(math.cos(phase), math.sin(phase))
    return f"{h:.6g}+0i,{v.real:.6g}{v.imag:+.6g}i"


def _observable_text(draw: _Draw, name: str) -> str:
    a, d, b, c = (draw.uniform(f"{name}.{k}", -2.0, 2.0) for k in "adbc")
    return f"{a!r},{b!r}{c:+.6g}i,{b!r}{-c:+.6g}i,{d!r}"


def _lib_sweep(draw: _Draw, prefix: str) -> tuple[float, float, int]:
    """Seeded (sigma, stop, steps) of a library sweep from zero coupling."""
    sigma = draw.log_uniform(prefix + "sigma", 0.02, 2.0)
    stop = float(f"{draw.uniform(prefix + 'stop', 1.5, 5.0) * sigma:.6g}")
    return sigma, stop, draw.integer(prefix + "steps", 31, 401)


def _other_angles(draw: _Draw, prefix: str) -> tuple[tuple[str, float], ...]:
    """Seeded non-default plate angles."""
    return (("prep", draw.uniform(prefix + "prep", 20.0, 40.0)), ("mid", draw.uniform(prefix + "mid", -40.0, -20.0)))


def _feature_chain(sigma: float, stop: float, steps: int, angles, at_risk: str = "") -> list[Op]:
    """A library sweep followed by the two feature extractors on its records."""
    sweep = (("sigma", sigma),) + tuple(angles) + (("start", 0.0), ("stop", stop), ("steps", steps))
    return [
        Op(kind="lib.run_sweep", params=sweep, points=steps),
        Op(kind="lib.find_zero_crossing", params=sweep, at_risk=at_risk),
        Op(kind="lib.find_extremum", params=sweep, at_risk=at_risk),
    ]


def _analytic_calls(draw: _Draw) -> list[Op]:
    ops = []
    for scenario in SCENARIOS:
        sigma_text, sigma = _length_arg(draw.log_uniform("sigma", 0.02, 2.0), draw.cycle("unit", ("mm", "um")))
        stop = float(f"{draw.uniform('stop', 1.0, 5.0) * sigma:.6g}")
        steps = draw.integer("steps." + scenario, 31, 401)
        ops.append(Op(
            kind="cli.sweep",
            params=(("scenario", scenario), ("sigma", sigma), ("start", 0.0), ("stop", stop),
                    ("steps", steps), ("engines", ("analytic",)), ("side", 0)),
            argv=("sweep", "--engine", "analytic", "--scenario", scenario, "--sigma", sigma_text,
                  "--delta-range", f"0:{stop!r}:{steps}", "--out", "{csv}"),
            points=steps,
        ))
    for _ in range(2):
        pre, post, observable = _state_text(draw, "pre"), _state_text(draw, "post"), _observable_text(draw, "a")
        ops.append(Op(
            kind="cli.weak-value",
            params=(("pre", pre), ("post", post), ("a", observable)),
            argv=("weak-value", f"--pre={pre}", f"--post={post}", f"--a={observable}"),
        ))
        pre, first, second = _state_text(draw, "pre"), "proj:" + _state_text(draw, "first"), _observable_text(draw, "second")
        ops.append(Op(
            kind="cli.weak-value",
            params=(("pre", pre), ("first", first), ("second", second)),
            argv=("weak-value", f"--pre={pre}", f"--first={first}", f"--second={second}"),
        ))

    # Library calls at non-default plate angles, as reproduce_deflection_curves.py
    # makes them: a sweep, and the weak-limit ratio of a 5-point sweep near zero.
    sigma, stop, steps = _lib_sweep(draw, "lib.")
    angles = _other_angles(draw, "lib.")
    ops.append(Op(kind="lib.run_sweep", params=(("sigma", sigma),) + angles
                  + (("start", 0.0), ("stop", stop), ("steps", steps)), points=steps))
    tiny = (("sigma", sigma),) + angles + (("start", 1e-4), ("stop", 5e-4), ("steps", 5))
    ops.append(Op(kind="lib.run_sweep", params=tiny, points=5))
    ops.append(Op(kind="lib.weak_limit_ratio", params=tiny))
    # Feature extraction at the default angles; other angles are probes.
    ops.extend(_feature_chain(*_lib_sweep(draw, "feature."), DEFAULT_ANGLES))
    return ops


def _analytic_round(draw: _Draw) -> list[Op]:
    """Two passes of the commands and library calls, then one acceptance check.

    One check per two passes keeps the two heavy checks (two_qubit_nonnegativity
    and decomposition_identity) to about five ops in a run, well inside the ten
    ops beyond op_tail_ms, so the tail sits among the long sweeps instead of on
    the edge between them and the checks, where it jumped from run to run.
    """
    ops = _analytic_calls(draw) + _analytic_calls(draw)
    ops.append(Op(kind="lib.check", params=(("check", draw.cycle("check", CALCULUS_CHECKS)),)))
    return ops


def _grid_sweep_op(draw: _Draw, scenario: str, engine: str, steps: int) -> Op:
    extent = COARSE_SIDE * PIXEL_MM
    sigma = draw.log_uniform("sigma", 4.0 * PIXEL_MM * 1.01, extent / 6.0 * 0.99)
    start = draw.uniform("start", 0.0, 0.2)
    stop = draw.uniform("stop", start + 0.2, extent / 4.0 * 0.995)
    return _sweep_op(scenario, engine, sigma, start, stop, steps)


def _sweep_op(scenario: str, engine: str, sigma: float, start: float, stop: float, steps: int) -> Op:
    engines = ("analytic", "grid") if engine == "both" else ("grid",)
    return Op(
        kind=f"cli.sweep-{engine}",
        params=(("scenario", scenario), ("sigma", sigma), ("start", start), ("stop", stop),
                ("steps", steps), ("engines", engines), ("side", COARSE_SIDE)),
        argv=("sweep", "--engine", engine, "--scenario", scenario, "--sigma", f"{sigma!r}mm",
              "--delta-range", f"{start!r}:{stop!r}:{steps}", "--grid-size", str(COARSE_SIDE),
              "--out", "{csv}"),
        points=steps * len(engines),
        at_risk=_edge_risk(COARSE_SIDE, sigma, stop),
    )


def _grid_round(draw: _Draw) -> list[Op]:
    ops = [
        _draw_until(lambda: _grid_sweep_op(draw, scenario, engine, 31), at_risk=False)
        for scenario in SCENARIOS
        for engine in ("both", "grid")
    ]
    ops.append(Op(kind="lib.check", params=(("check", "engine_equivalence"), ("fast", True)), points=30))
    return ops


FINE_EXTENT = FINE_SIDE * PIXEL_MM
FINE_SIGMA = (4.0 * PIXEL_MM * 1.01, FINE_EXTENT / 6.0 * 0.99)
MAX_ALPHA = int(FINE_EXTENT / 4.0 / SLM_MM_PER_UNIT)


def _image_op(draw: _Draw, source: str) -> Op:
    sigma = draw.log_uniform("sigma", *FINE_SIGMA)
    if source == "alpha":
        alpha = draw.integer("alpha", 0, MAX_ALPHA)
        delta, shift_argv = SLM_MM_PER_UNIT * alpha, ("--alpha", str(alpha))
    else:
        text, delta = _length_arg(draw.uniform("delta", 0.0, FINE_EXTENT / 4.0 * 0.995),
                                  draw.cycle("unit", ("mm", "um")))
        shift_argv = ("--delta", text)
    return Op(
        kind=f"cli.image-{source}",
        params=(("sigma", sigma), ("delta", delta), ("side", FINE_SIDE)),
        argv=("image", *shift_argv, "--sigma", f"{sigma!r}mm", "--grid-size", str(FINE_SIDE),
              "--out", "{pgm}", "--raw", "{raw}"),
        points=1,
        at_risk=_edge_risk(FINE_SIDE, sigma, delta),
    )


def _image_round(draw: _Draw) -> list[Op]:
    ops = [_draw_until(lambda: _image_op(draw, source), at_risk=False) for source in ("alpha", "delta")]
    for axis in ("x", "y"):
        ops.append(Op(
            kind="lib.relay",
            params=(("sigma", draw.log_uniform("relay.sigma", *FINE_SIGMA)),
                    ("alpha", draw.integer("relay.alpha", 0, MAX_ALPHA)), ("axis", axis)),
            points=1,
        ))
    ops.append(Op(kind="lib.check", params=(("check", "image_lobes"),), points=1))
    return ops


ROUND_BUILDERS = {
    "analytic-sweep": _analytic_round,
    "grid-sweep": _grid_round,
    "image-fine": _image_round,
}


def rounds(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless seeded rounds of a workload; the same seed gives the same rounds."""
    build = ROUND_BUILDERS[workload]
    draw = _Draw(random.Random(f"{workload}/{seed}"))
    while True:
        yield build(draw)


def op_list(workload: str, seed: int, n_rounds: int) -> list[Op]:
    """The first n_rounds rounds of a workload, flattened."""
    return [op for batch in itertools.islice(rounds(workload, seed), n_rounds) for op in batch]


# Probes: inputs of the known-defect classes.  The first ones are the failures
# reproduced by hand at the seed commit: feature extraction at (28, -33) and
# (25, -35) deg on the default sweep (sigma 0.1116 mm, 0:0.711:31), and the
# grid engine at 256^2 with sigma 0.5 mm and delta 0.8 mm, where it gives
# <x> = 0.1719 mm for 0.2000 mm.  The 1024^2 one has its most shifted beam
# 3 sigma from the edge, well inside the class.  The rest are seeded draws
# from the same ranges as the timed rounds, kept only when in the class.
FEATURE_PROBES_BY_HAND = ((28.0, -33.0), (25.0, -35.0))
FEATURE_PROBES_SEEDED = 6
GRID_PROBES_SEEDED = 5
IMAGE_PROBES_SEEDED = 2
PROBE_STEPS = 5


def _image_probe_by_hand() -> Op:
    delta = 3.4
    sigma = round((FINE_EXTENT / 2.0 - delta) / 3.0, 4)
    return Op(
        kind="cli.image-delta",
        params=(("sigma", sigma), ("delta", delta), ("side", FINE_SIDE)),
        argv=("image", "--delta", f"{delta!r}mm", "--sigma", f"{sigma!r}mm", "--grid-size", str(FINE_SIDE),
              "--out", "{pgm}", "--raw", "{raw}"),
        points=1,
        at_risk=_edge_risk(FINE_SIDE, sigma, delta),
    )


def probes(workload: str, seed: int) -> list[list[Op]]:
    """Seeded inputs from the known-defect classes, in groups run in order.

    The same seed gives the same probes.  A run checks them after its timed
    part; a probe failing with its defect's own signature reproduces it.
    """
    draw = _Draw(random.Random(f"{workload}/{seed}/probes"))
    if workload == "analytic-sweep":
        groups = [
            _feature_chain(0.1116, 0.711, 31, (("prep", prep), ("mid", mid)), RISK_FEATURE_ANGLES)
            for prep, mid in FEATURE_PROBES_BY_HAND
        ]
        for _ in range(FEATURE_PROBES_SEEDED):
            groups.append(_feature_chain(*_lib_sweep(draw, ""), _other_angles(draw, ""), RISK_FEATURE_ANGLES))
        return groups
    if workload == "grid-sweep":
        ops = [_sweep_op("sequential", "grid", 0.5, 0.0, 0.8, PROBE_STEPS)]
        for _ in range(GRID_PROBES_SEEDED):
            scenario = draw.cycle("scenario", SCENARIOS)
            ops.append(_draw_until(lambda: _grid_sweep_op(draw, scenario, "grid", PROBE_STEPS), at_risk=True))
        return [ops]
    ops = [_image_probe_by_hand()]
    for _ in range(IMAGE_PROBES_SEEDED):
        source = draw.cycle("source", ("alpha", "delta"))
        ops.append(_draw_until(lambda: _image_op(draw, source), at_risk=True))
    return [ops]
