"""Tests of the benchmark itself: python3 -m pytest seqbench (from the repository root)."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import (  # noqa: E402
    CALCULUS_CHECKS, RISK_FEATURE_ANGLES, RISK_GRID_EDGE, ROUND_BUILDERS, Op, _edge_risk, op_list, probes,
)

from seqweak.experiments import Scenario, ScenarioKind, analytic_deflections  # noqa: E402


@pytest.mark.parametrize("workload", ROUND_BUILDERS)
def test_same_seed_same_ops_other_seed_other_ops(workload):
    assert op_list(workload, 7, 4) == op_list(workload, 7, 4)
    assert op_list(workload, 7, 4) != op_list(workload, 8, 4)


@pytest.mark.parametrize("workload", ROUND_BUILDERS)
def test_rounds_keep_the_same_op_kinds(workload):
    ops = op_list(workload, 3, 5)
    kinds = [op.kind for op in ops]
    per_round = len(kinds) // 5
    assert kinds == kinds[:per_round] * 5


@pytest.mark.parametrize("workload", ROUND_BUILDERS)
def test_timed_rounds_leave_defect_inputs_to_the_probes(workload):
    assert not any(op.at_risk for op in op_list(workload, 4, 20))
    probe_ops = [op for group in probes(workload, 4) for op in group]
    assert probes(workload, 4) == probes(workload, 4) != probes(workload, 5)
    assert all(op.at_risk for op in probe_ops if op.kind != "lib.run_sweep")


def test_timed_feature_ops_run_at_the_default_angles():
    features = [op for op in op_list("analytic-sweep", 2, 8) if op.kind.startswith("lib.find_")]
    assert len(features) == 32
    assert all(dict(op.params)["prep"] == 30.0 and dict(op.params)["mid"] == -30.0 for op in features)


def test_reference_calculus_matches_the_package_at_other_angles():
    for scenario in ("sequential", "two-qubit", "single"):
        got = analytic_deflections(Scenario(ScenarioKind(scenario), 0.3, 27.0, -34.0), 0.5)
        want = reference.calculus(scenario, 0.5, 0.3, 27.0, -34.0)
        assert max(abs(g - w) for g, w in zip((got.x_mm, got.y_mm, got.xy_mm2), want)) < 1e-14


def _run(op, tmp_path):
    runner = harness.Runner(tmp_path)
    _, out = runner.run(op)
    return out


SWEEP = Op(
    kind="cli.sweep",
    params=(("scenario", "sequential"), ("sigma", 0.1116), ("start", 0.0), ("stop", 0.711),
            ("steps", 31), ("engines", ("analytic",)), ("side", 0)),
    argv=("sweep", "--sigma", "0.1116mm", "--delta-range", "0:0.711:31", "--out", "{csv}"),
    points=31,
)

IMAGE = Op(
    kind="cli.image-delta",
    params=(("sigma", 0.1116), ("delta", 0.3), ("side", 256)),
    argv=("image", "--delta", "0.3mm", "--sigma", "0.1116mm", "--grid-size", "256",
          "--out", "{pgm}", "--raw", "{raw}"),
    points=1,
)


def test_checker_fails_a_sign_flipped_joint_mean(tmp_path):
    out = _run(SWEEP, tmp_path)
    assert checks.check(SWEEP, out) is None
    csv_path = out.files["csv"]
    lines = csv_path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = repr(-float(fields[3]))
    lines[5] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    failure = checks.check(SWEEP, out)
    assert failure.kind == "check" and "calculus off" in failure.reason and not failure.known


def test_checker_fails_a_truncated_pgm(tmp_path):
    out = _run(IMAGE, tmp_path)
    assert checks.check(IMAGE, out) is None
    pgm = out.files["pgm"]
    pgm.write_bytes(pgm.read_bytes()[:-2])
    failure = checks.check(IMAGE, out)
    assert failure.kind == "check" and "PGM" in failure.reason and not failure.known


def test_checker_counts_a_raising_op_as_failed(tmp_path):
    op = Op(kind="lib.weak_limit_ratio", params=SWEEP.params)
    out = _run(op, tmp_path)  # no sweep ran before it, so there are no records
    assert out.error is not None
    assert checks.check(op, out).kind == "raised"


def test_wrapped_grid_moments_are_known_only_on_an_edge_input(tmp_path):
    # sigma 0.5 mm, delta 0.8 mm at 256^2: the beam's tail wraps around the grid.
    params = (("sigma", 0.5), ("delta", 0.8), ("side", 256))
    argv = ("image", "--delta", "0.8mm", "--sigma", "0.5mm", "--grid-size", "256",
            "--out", "{pgm}", "--raw", "{raw}")
    edge = Op(kind="cli.image-delta", params=params, argv=argv, points=1, at_risk=_edge_risk(256, 0.5, 0.8))
    assert edge.at_risk == RISK_GRID_EDGE
    out = _run(edge, tmp_path)
    failure = checks.check(edge, out)
    assert failure.kind == "check" and "image moments off" in failure.reason
    assert failure.known == RISK_GRID_EDGE
    untagged = Op(kind=edge.kind, params=params, argv=argv, points=1)
    assert checks.check(untagged, out).known == ""


def test_engine_refusal_on_an_edge_input_is_an_unknown_failure(tmp_path):
    op = Op(kind="cli.sweep-grid", params=SWEEP.params, argv=SWEEP.argv, points=31, at_risk=RISK_GRID_EDGE)
    out = checks.Outcome(harness.Runner(tmp_path).files, value=4, stderr="error: engine failure: beam too wide\n")
    failure = checks.check(op, out)
    assert failure.kind == "exit" and failure.known == ""


def test_only_the_scipy_bracket_error_is_the_known_feature_defect(tmp_path):
    op = Op(kind="lib.find_zero_crossing", params=SWEEP.params, at_risk=RISK_FEATURE_ANGLES)
    files = harness.Runner(tmp_path).files
    scipy_error = checks.Outcome(files, error=ValueError(checks.SCIPY_NO_BRACKET))
    assert checks.check(op, scipy_error).known == RISK_FEATURE_ANGLES
    for error in (TypeError("'NoneType' object is not iterable"), ValueError("records are missing analytic deflections")):
        failure = checks.check(op, checks.Outcome(files, error=error))
        assert failure.kind == "raised" and failure.known == ""


def test_edge_margin_is_the_measured_one():
    half = 256 * 0.0135 / 2.0
    delta = 0.8597
    assert _edge_risk(256, (half - delta) / 2.55, delta) == RISK_GRID_EDGE
    assert _edge_risk(256, (half - delta) / 2.65, delta) == ""
    half = 1024 * 0.0135 / 2.0
    assert _edge_risk(1024, (half - 3.4387) / 4.15, 3.4387) == RISK_GRID_EDGE
    assert _edge_risk(1024, (half - 3.4387) / 4.25, 3.4387) == ""


def test_every_calculus_check_runs_once_in_eight_rounds():
    ops = op_list("analytic-sweep", 5, 8)
    names = sorted(dict(op.params)["check"] for op in ops if op.kind == "lib.check")
    assert names == sorted(CALCULUS_CHECKS)


def test_failed_ops_stay_out_of_latency_and_points():
    ops = [Op(kind="a", params=(), points=10), Op(kind="b", params=(), points=100), Op(kind="a", params=(), points=10)]
    result = harness.Pass(ops=ops, latencies=[1.0, 0.01, 3.0], ok=[True, False, True])
    metrics = harness.end_to_end(result)
    assert metrics["ops_per_s"] == pytest.approx(2 / 4.0)
    assert metrics["points_per_s"] == pytest.approx(20 / 4.0)
    assert metrics["op_p50_ms"] == pytest.approx(2000.0)
    assert harness.time_shares(result) == {"a": pytest.approx(1.0)}


def test_self_time_on_a_hand_built_span_tree():
    names = ["op", "cli.main", "experiments.run_sweep", "pointer.moments"]
    spans = [
        (0, 0.0, 10.0, None, 0),   # op: 10 s, child cli.main 9 s -> self 1
        (1, 0.5, 9.5, 0, 0),       # cli.main: 9 s, children 4 + 2 -> self 3
        (2, 1.0, 5.0, 1, 0),       # run_sweep: 4 s, children 1 + 1.5 -> self 1.5
        (3, 1.5, 2.5, 2, 0),
        (3, 3.0, 4.5, 2, 0),
        (3, 6.0, 8.0, 1, 0),       # moments called straight from cli.main
    ]
    totals = layer_totals(names, spans)
    assert totals["op"]["self_s"] == pytest.approx(1.0)
    assert totals["cli.main"]["self_s"] == pytest.approx(3.0)
    assert totals["experiments.run_sweep"]["self_s"] == pytest.approx(1.5)
    assert totals["pointer.moments"]["calls"] == 3
    assert totals["pointer.moments"]["self_s"] == pytest.approx(4.5)


def test_tracer_records_nested_spans_and_restores_the_package(tmp_path):
    before = harness.experiments.run_sweep
    tracer = Tracer()
    runner = harness.Runner(tmp_path)
    with tracer.instrument(harness.MODULES):
        with tracer.span("op"):
            runner.run(SWEEP)
    assert harness.experiments.run_sweep is before
    totals = layer_totals(tracer.names, tracer.spans)
    assert totals["cli.main"]["calls"] == 1
    assert totals["experiments.run_sweep"]["calls"] == 1
    assert totals["experiments.analytic_deflections"]["calls"] == 31
    assert "grid.apply_conditional_shift" not in totals
    assert tracer.counts["experiments.points"] == 31


def test_tail_has_ten_ops_beyond_it():
    latencies = [float(i) for i in range(1, 101)]
    value, percentile, beyond = harness.tail(latencies)
    assert value == 90.0 and beyond == 10
    assert sum(t > value for t in latencies) == 10
    assert percentile == pytest.approx(90.0)


def test_weak_value_line_parses_exponents():
    match = checks._VALUE_LINE.match("value = 3.2829179e-05-1e-13i  interval=[-1.5e-05,1]  not anomalous")
    assert match.groups() == ("3.2829179e-05", "-", "1e-13", "-1.5e-05", "1", "not anomalous")
