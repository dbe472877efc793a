#!/usr/bin/env python3
"""seqweak benchmark: one closed-loop client driving the package in one process.

Run from the repository root:

    python3 seqbench/run.py --workload analytic-sweep --seed 1 --seconds 20 --trace 0
    python3 seqbench/run.py --workload all --seed 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See seqbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One closed-loop client: cap every native thread pool at one thread before
# numpy loads, so the process never runs more threads than nproc.
THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_CAPS:
    os.environ[_name] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".seqbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds() -> float:
    """Median CPU time of fresh interpreters finishing ``import seqweak.cli``.

    CPU time (user plus system) of each launch, like the op times in
    harness.py; the launch is one thread and blocks on nothing but page-cache
    reads.  One untimed launch first compiles the bytecode cache, which users
    pay once.
    """
    command = [sys.executable, "-c", "import seqweak.cli"]
    env = _subprocess_env()
    subprocess.run(command, env=env, check=True, timeout=60)
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = _children_cpu_s()
        subprocess.run(command, env=env, check=True, timeout=60)
        times.append(_children_cpu_s() - start)
    return statistics.median(times)


def import_breakdown() -> dict[str, float]:
    """Self import time of numpy, scipy and seqweak modules, from ``-X importtime``."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "seqweak": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import seqweak.cli"],
            env=_subprocess_env(), check=True, timeout=60, capture_output=True, text=True,
        )
        totals = dict.fromkeys(samples, 0.0)
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue  # the column header line
            root = parts[2].strip().split(".")[0]
            if root in totals:
                totals[root] += self_us / 1e3
        for root, value in totals.items():
            samples[root].append(value)
    return {f"cli.import.{root}_ms": statistics.median(values) for root, values in samples.items()}


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment(workload: str) -> dict:
    import numpy
    import scipy
    from workloads import COARSE_SIDE, FINE_SIDE

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    side = {"analytic-sweep": 0, "grid-sweep": COARSE_SIDE, "image-fine": FINE_SIDE}[workload]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {name: os.environ[name] for name in THREAD_CAPS},
        "cpu_model": model,
        "l2_per_core": caches.get("L2", "unknown"),
        "l3_shared": caches.get("L3", "unknown"),
        "complex_plane": f"{side}x{side} = {side * side * 16 / 2**20:g} MiB" if side else "none (no grid)",
    }


def _by_kind(failures) -> str:
    counts: dict[str, int] = {}
    for op, failure in failures:
        key = f"{op.kind}/{failure.kind}" + (f" (known: {failure.known})" if failure.known else "")
        counts[key] = counts.get(key, 0) + 1
    return json.dumps(counts, sort_keys=True)


def thread_count() -> int:
    for line in _read("/proc/self/status").splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def per_layer(untraced, traced, tracer, probe_pass, names: list[str]) -> dict[str, float]:
    from tracing import layer_totals

    totals = layer_totals(tracer.names, tracer.spans)
    inside_ops = {name: entry for name, entry in totals.items() if not name.startswith("op.")}
    values: dict[str, float] = {}
    for name in names:
        base, _, field = name.rpartition(".")
        entry = inside_ops.get(base)
        if field == "calls":
            values[name] = entry["calls"] if entry else 0
        elif field == "self_ms":
            values[name] = 1e3 * entry["self_s"] if entry else 0.0
        elif name.startswith("acceptance.") and field == "ms":
            values[name] = 1e3 * statistics.median(entry["durations"]) if entry else 0.0
    values.update({key: value for key, value in tracer.counts.items() if key in names})
    untraced_s, traced_s = sum(untraced.latencies), sum(traced.latencies)
    failures = probe_pass.failures
    values.update({
        "cli.bytes_written": untraced.bytes_written,
        "trace.overhead_pct": 100.0 * (traced_s / untraced_s - 1.0),
        "trace.spans": len(tracer.spans),
        "probes.failed_ratio": len(failures) / len(probe_pass.ops),
        "probes.failed_raised": sum(f.kind == "raised" for _, f in failures),
        "probes.failed_exit": sum(f.kind == "exit" for _, f in failures),
        "probes.failed_check": sum(f.kind == "check" for _, f in failures),
    })
    return {name: values.get(name, 0) for name in names}


def run_one(args, spec: dict) -> int:
    import harness

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    traced = bool(args.trace)
    try:
        imports = import_breakdown() if traced else {}
        setup_s = None if traced else setup_seconds()
        untraced, traced_pass, tracer = harness.measure(args.workload, args.seed, args.seconds, workdir, traced)
        probe_pass = harness.check_probes(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.workload)
    env["threads_at_end"] = thread_count()
    print("env: " + json.dumps(env))
    n = len(untraced.ops)
    failures = untraced.failures
    print(f"workload {args.workload} seed {args.seed}: {n} ops in {sum(untraced.latencies):.2f} s of op time "
          f"({untraced.wall_s:.2f} s wall with checks); one closed-loop client")
    print(f"failed ops: {len(failures)} of {n} by kind: {_by_kind(failures)}")
    for op, failure in failures[:5]:
        print(f"  {op.kind} [{failure.kind}] {failure.reason}; params {dict(op.params)}")
    # Probes: the known-defect inputs the timed rounds leave out, checked after
    # them.  They are not in attempted or failed; a probe failure that is not
    # its defect's own signature makes the run incorrect like a timed one.
    probe_failures = probe_pass.failures
    print(f"known-defect probes (untimed): {len(probe_failures)} of {len(probe_pass.ops)} failed by kind: "
          f"{_by_kind(probe_failures)}")
    for op, failure in probe_failures[:5]:
        print(f"  {op.kind} [{failure.kind}] {failure.reason}")
    unexpected = [(op, failure) for op, failure in probe_failures if not failure.known]
    if unexpected:
        print(f"probe failures that are not a known seed defect's signature: {len(unexpected)}")
        for op, failure in unexpected[:5]:
            print(f"  {op.kind} [{failure.kind}] {failure.reason}; params {dict(op.params)}")
    shares = harness.time_shares(untraced)
    print("share of op time by op kind (passed ops): "
          + ", ".join(f"{key} {100 * share:.1f}%" for key, share in shares.items()))

    if traced:
        metrics = per_layer(untraced, traced_pass, tracer, probe_pass, [m["name"] for m in spec["per_layer"]])
        metrics.update({k: v for k, v in imports.items() if k in metrics})
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}; "
              f"tracing overhead {metrics['trace.overhead_pct']:.1f}% of op time")
        print("wait time: none in any layer (no queues: one client, one thread, synchronous calls)")
        print("grid.bytes_computed is computed from array sizes, not measured")
    else:
        metrics = harness.end_to_end(untraced)
        passed_latencies = harness.passed(untraced)[1]
        _, percentile, beyond = harness.tail(passed_latencies)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"latency and throughput are of the {len(passed_latencies)} ops that passed their check; "
              f"op_tail_ms is p{percentile:.2f} of them ({beyond} ops beyond it)")
        metrics = {m["name"]: metrics[m["name"]] for m in spec["end_to_end"]}
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures and not unexpected,
        "attempted": n,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        print(done.stdout, end="")
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="op time to measure (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqweak" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"error: run from a seqweak checkout; {SRC / 'seqweak'} or {BENCHMARK_JSON} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
