"""The benchmark in seqbench/ looks seqweak's functions up by name; these
checks keep every name it traces or calls present in the package, so a
change under src/ cannot break the benchmark without failing here."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SEQBENCH = Path(__file__).resolve().parents[1] / "seqbench"

pytestmark = pytest.mark.skipif(not SEQBENCH.is_dir(), reason="no seqbench/ in this checkout")


def load_seqbench(name):
    """A seqbench module that uses only the standard library (tracing,
    workloads), loaded by path."""
    spec = importlib.util.spec_from_file_location(f"seqbench_{name}", SEQBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_seqbench("tracing")


def relay_grid_names():
    """The seqweak.grid attributes the harness's lib.relay op uses, split into
    the ones it calls and the ones it only reads."""
    tree = ast.parse((SEQBENCH / "harness.py").read_text(encoding="utf-8"))
    branches = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and "lib.relay" in ast.unparse(node.test)
    ]
    assert len(branches) == 1
    called, read = set(), set()
    for node in ast.walk(branches[0]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "grid":
            read.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if isinstance(node.func.value, ast.Name) and node.func.value.id == "grid":
                called.add(node.func.attr)
    return called, read - called


def test_every_traced_name_is_a_callable_of_its_module():
    traced = load_tracing().TRACED
    assert traced
    for module_name, functions in traced.items():
        module = importlib.import_module(f"seqweak.{module_name}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"seqweak.{module_name}.{function}"


def test_every_name_the_relay_op_uses_is_in_the_grid_module():
    from seqweak import grid

    called, read = relay_grid_names()
    assert {"init_gaussian", "fourier_lens", "apply_slm_mask", "apply_conditional_shift"} <= called
    for name in called:
        assert callable(getattr(grid, name, None)), f"seqweak.grid.{name}"
    for name in read:
        assert hasattr(grid, name), f"seqweak.grid.{name}"


def test_every_cli_argv_of_the_benchmark_runs(tmp_path, capsys):
    # The first round of each workload at seed 1, with output paths filled in
    # the way harness.Runner.run fills them: it pins the argv forms the
    # benchmark sends, such as --pre=..., --a=-1.2,... and um lengths.
    from seqweak.cli import main

    workloads = load_seqbench("workloads")
    files = {"csv": tmp_path / "sweep.csv", "pgm": tmp_path / "image.pgm", "raw": tmp_path / "image.raw"}
    ops = [
        op
        for name in workloads.ROUND_BUILDERS
        for op in next(workloads.rounds(name, 1))
        if op.kind.startswith("cli.")
    ]
    assert len(ops) == 22
    for op in ops:
        argv = [arg.format(**files) for arg in op.argv]
        assert main(argv) == 0, (argv, capsys.readouterr().err)


def test_the_relay_ops_of_the_benchmark_pass_its_checks(tmp_path, monkeypatch):
    # The harness's own runner and check on the relay ops of image-fine's
    # first round at seed 1: the op calls the grid names above and reads
    # h_plane and v_plane off whatever they return.
    monkeypatch.syspath_prepend(str(SEQBENCH))
    harness = importlib.import_module("harness")
    ops = [op for op in next(harness.rounds("image-fine", 1)) if op.kind == "lib.relay"]
    assert len(ops) == 2
    runner = harness.Runner(tmp_path)
    for op in ops:
        _, out = runner.run(op)
        assert harness.checks.check(op, out) is None, op


def test_a_grid_sweep_calls_no_traced_grid_name_per_point():
    # Every traced call costs a span and, for a field, forms its planes to
    # count their bytes; a sweep that ran its points through the traced
    # names would measure the tracer, not the engine.
    from seqweak.experiments import Engine, Scenario, ScenarioKind, SweepSpec, run_sweep
    from seqweak.grid import GridSpec

    tracing = load_tracing()
    modules = {name: importlib.import_module(f"seqweak.{name}") for name in tracing.TRACED}
    tracer = tracing.Tracer()
    spec = SweepSpec(
        Scenario(ScenarioKind.SEQUENTIAL), 0.0, 0.711, 31,
        engines=frozenset({Engine.ANALYTIC, Engine.GRID}), grid=GridSpec(256, 256, 13.5),
    )
    with tracer.instrument(modules):
        assert len(run_sweep(spec)) == 31
    calls = tracing.layer_totals(tracer.names, tracer.spans)
    grid_calls = {name: entry["calls"] for name, entry in calls.items() if name.startswith("grid.")}
    assert grid_calls.get("grid.init_gaussian", 0) <= 1
    assert not {name for name in grid_calls if name != "grid.init_gaussian"}, grid_calls
