"""Closed-loop runner: runs ops one at a time, times them, checks them.

One client in one process: the next op starts only after the previous one
has returned and its output has been checked.  Only the call itself is
inside the timed interval; checking is not.

Ops are timed in the CPU time of this process (user plus system, ``OP_CLOCK``),
not in wall time.  The process runs one thread (run.py caps the native thread
pools at one), so on a core of its own the two are equal; on a shared virtual
machine the hypervisor takes the core away from it in bursts, and wall time
per op then swings by a third from minute to minute while CPU time stays
within a few percent.  A change that makes an op wait (blocking I/O, sleeping)
or spreads it over threads is not judged fairly by this clock; the output
gives the wall time of the timed part, checks included, beside it.

A failed op counts in ``attempted`` and ``failed`` but not in the latency
and throughput metrics, which describe the ops that gave a right answer.
The known-defect probes run after the timed part, checked the same way but
never timed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from tracing import Tracer
from workloads import Op, probes, rounds

from seqweak import acceptance, cli, experiments, grid, pointer, qubit
from seqweak.experiments import Scenario, ScenarioKind, SweepSpec
from seqweak.pointer import Axis
from seqweak.qubit import PLUS_SIXTY

OP_CLOCK = time.process_time

MODULES = {
    "cli": cli,
    "experiments": experiments,
    "pointer": pointer,
    "grid": grid,
    "qubit": qubit,
    "acceptance": acceptance,
}


class Runner:
    """Executes ops against the package; keeps the last sweep's records for feature ops."""

    def __init__(self, workdir: Path):
        self.files = {"csv": workdir / "sweep.csv", "pgm": workdir / "image.pgm", "raw": workdir / "image.raw"}
        self.records = None

    def _library(self, op: Op):
        p = dict(op.params)
        if op.kind == "lib.run_sweep":
            scenario = Scenario(ScenarioKind.SEQUENTIAL, p["sigma"], p["prep"], p["mid"])
            self.records = None  # a sweep that raises leaves no records for the ops after it
            self.records = experiments.run_sweep(SweepSpec(scenario, p["start"], p["stop"], p["steps"]))
            return self.records
        if op.kind == "lib.find_zero_crossing":
            return experiments.find_zero_crossing(self.records, p["sigma"])
        if op.kind == "lib.find_extremum":
            return experiments.find_extremum(self.records, p["sigma"])
        if op.kind == "lib.weak_limit_ratio":
            return experiments.weak_limit_ratio(self.records)
        if op.kind == "lib.check":
            kwargs = {"fast": p["fast"]} if "fast" in p else {}
            return getattr(acceptance, "check_" + p["check"])(**kwargs)
        if op.kind == "lib.relay":
            # The grating relay of the slm-calibration check, at the fine grid.
            axis = Axis.X if p["axis"] == "x" else Axis.Y
            spec = grid.GridSpec(1024, 1024, 13.5)
            beam = grid.init_gaussian(spec, p["sigma"], PLUS_SIXTY)
            routed = grid.apply_slm_mask(grid.fourier_lens(beam), p["alpha"], axis)
            for _ in range(3):
                routed = grid.fourier_lens(routed)
            return routed, grid.apply_conditional_shift(beam, grid.SLM_MM_PER_UNIT * p["alpha"], axis)
        raise ValueError(f"unknown op kind {op.kind!r}")

    def run(self, op: Op) -> tuple[float, checks.Outcome]:
        """Run one op; returns its CPU time and what it produced."""
        out = checks.Outcome(self.files)
        if op.kind.startswith("cli."):
            argv = [arg.format(**self.files) for arg in op.argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            start = OP_CLOCK()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    out.value = cli.main(argv)
            except Exception as exc:  # an op that raises is a failed op; the run goes on
                out.error = exc
            elapsed = OP_CLOCK() - start
            out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
            return elapsed, out
        start = OP_CLOCK()
        try:
            out.value = self._library(op)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            out.error = exc
        return OP_CLOCK() - start, out

    def bytes_written(self, op: Op) -> int:
        if not op.kind.startswith("cli.") or op.kind == "cli.weak-value":
            return 0
        paths = [path for key, path in self.files.items() if "{" + key + "}" in op.argv]
        if "{csv}" in op.argv:
            paths.append(Path(str(self.files["csv"]) + ".meta"))
        return sum(path.stat().st_size for path in paths if path.exists())


@dataclass
class Pass:
    """Timings and outcomes of one pass over a list of rounds."""

    ops: list[Op] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    failures: list[tuple[Op, checks.Failure]] = field(default_factory=list)
    bytes_written: int = 0
    wall_s: float = 0.0


def run_rounds(runner: Runner, batches, seconds: float | None, check: bool,
               tracer: Tracer | None = None) -> tuple[Pass, list[list[Op]]]:
    """Run whole rounds until `seconds` of op time have passed (or all batches if None)."""
    result = Pass()
    done = []
    busy = 0.0
    wall_start = time.perf_counter()
    for batch in batches:
        if seconds is not None and busy >= seconds:
            break
        for op in batch:
            if tracer is not None:
                tracer.op_id = len(result.ops)
                with tracer.span("op." + op.kind):
                    elapsed, out = runner.run(op)
            else:
                elapsed, out = runner.run(op)
            busy += elapsed
            result.ops.append(op)
            result.latencies.append(elapsed)
            if check:
                failure = checks.check(op, out)
                if failure is not None:
                    result.failures.append((op, failure))
                result.ok.append(failure is None)
                result.bytes_written += runner.bytes_written(op)
        done.append(batch)
    result.wall_s = time.perf_counter() - wall_start
    return result, done


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it.

    Returns (latency, percentile, ops beyond).  With ten ops or fewer, the
    maximum, with no ops beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def passed(result: Pass) -> tuple[list[Op], list[float]]:
    """The ops that gave a right answer, and their latencies."""
    pairs = [(op, t) for op, t, ok in zip(result.ops, result.latencies, result.ok) if ok]
    return [op for op, _ in pairs], [t for _, t in pairs]


def end_to_end(result: Pass) -> dict[str, float]:
    """Throughput and latency of the ops that passed their check.

    A passed op returned exactly ``op.points`` points (the check compares the
    record count with the couplings asked for), so its points are counted
    from what it returned.
    """
    ops, latencies = passed(result)
    point_time = sum(t for op, t in zip(ops, latencies) if op.points)
    return {
        "ops_per_s": len(ops) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail(latencies)[0],
        "points_per_s": sum(op.points for op in ops) / point_time,
    }


def time_shares(result: Pass) -> dict[str, float]:
    """Each op kind's share of the op time of the passed ops; checks by name."""
    ops, latencies = passed(result)
    shares: dict[str, float] = {}
    for op, t in zip(ops, latencies):
        key = op.kind + (":" + dict(op.params)["check"] if op.kind == "lib.check" else "")
        shares[key] = shares.get(key, 0.0) + t
    busy = sum(latencies)
    return {key: t / busy for key, t in sorted(shares.items(), key=lambda item: -item[1])}


def check_probes(workload: str, seed: int, workdir: Path) -> Pass:
    """Run and check the workload's known-defect probes, outside any timing."""
    result, _ = run_rounds(Runner(workdir), probes(workload, seed), None, check=True)
    return result


def measure(workload: str, seed: int, seconds: float, workdir: Path, traced: bool):
    """Warm up on round 0, then measure whole rounds from round 1 on.

    With ``traced``, half of ``seconds`` is measured untraced and the same
    rounds are run again under the tracer, so a traced run takes about as
    long as an untraced one; returns (untraced pass, traced pass or None,
    tracer or None).
    """
    runner = Runner(workdir)
    batches = rounds(workload, seed)
    run_rounds(runner, itertools.islice(batches, 1), None, check=False)
    untraced, done = run_rounds(runner, batches, seconds / 2.0 if traced else seconds, check=True)
    if not traced:
        return untraced, None, None
    tracer = Tracer()
    with tracer.instrument(MODULES):
        traced_pass, _ = run_rounds(runner, done, None, check=False, tracer=tracer)
    return untraced, traced_pass, tracer
