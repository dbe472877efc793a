"""Spans around seqweak's layer functions, recorded from outside the package.

``Tracer.instrument()`` replaces each listed function in every seqweak module
namespace that refers to it (``cli`` -> ``experiments``/``grid``/``acceptance``,
``experiments`` -> ``pointer``/``grid``/``qubit``, and calls inside one
module), so a call is traced where the calling module looks it up.  Nothing
inside ``src/`` changes; the originals are put back on exit.

A span is (name, start, end, parent, op id), kept in memory and written out
at the end of the run.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded and nested, so
children never overlap.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# function -> layer name; names not listed here map to "<module>.<function>".
ALIASES = {
    "find_zero_crossing": "experiments.features",
    "find_extremum": "experiments.features",
    "weak_limit_ratio": "experiments.features",
    "export_csv": "experiments.export",
    "write_metadata": "experiments.export",
    "closed_form_sequential": "pointer.closed_form",
    "closed_form_two_qubit": "pointer.closed_form",
    "closed_form_single_coupling": "pointer.closed_form",
    "render_pgm": "grid.render",
    "render_raw": "grid.render",
}

TRACED = {
    "cli": ("main",),
    "experiments": (
        "run_sweep", "analytic_deflections", "grid_deflections", "scenario_intensity_image",
        "find_zero_crossing", "find_extremum", "weak_limit_ratio", "export_csv", "write_metadata",
    ),
    "pointer": (
        "apply_polarization", "apply_coupling", "moments",
        "closed_form_sequential", "closed_form_two_qubit", "closed_form_single_coupling",
    ),
    "grid": (
        "init_gaussian", "apply_polarization_unitary", "apply_conditional_shift", "intensity",
        "discrete_means", "render_pgm", "render_raw", "fourier_lens", "apply_slm_mask",
    ),
    "qubit": ("waveplate_hwp", "weak_value", "sequential_weak_value"),
    "acceptance": (
        "check_closed_form_reproduction", "check_weak_limit", "check_strong_limit",
        "check_anomaly_region", "check_extremum_consistency", "check_two_qubit_nonnegativity",
        "check_calculus_agreement", "check_decomposition_identity", "check_engine_equivalence",
        "check_image_lobes",
    ),
}


def layer_name(module: str, function: str) -> str:
    if module == "acceptance":
        return "acceptance." + function.removeprefix("check_")
    return ALIASES.get(function, f"{module}.{function}")


def _plane_bytes(obj) -> int:
    """Bytes of the arrays a grid call reads or writes, from their sizes."""
    if hasattr(obj, "h_plane"):
        return obj.h_plane.nbytes + obj.v_plane.nbytes
    if hasattr(obj, "values") and hasattr(obj, "grid"):
        return obj.values.nbytes
    if isinstance(obj, bytes):
        return len(obj)
    return 0


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple | None] = []
        self.current: int | None = None
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        name_id = self._name_id(name)
        parent, index = self.current, len(self.spans)
        self.spans.append(None)
        self.current = index
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name_id, start, time.perf_counter(), parent, self.op_id)
            self.current = parent

    def _count(self, layer: str, args, result) -> None:
        if layer == "pointer.moments":
            self.counts["pointer.kernel_pairs"] += len(args[0].terms) ** 2
        elif layer == "experiments.run_sweep":
            self.counts["experiments.points"] += len(result)
        if layer.startswith("grid."):
            self.counts["grid.bytes_computed"] += sum(map(_plane_bytes, args)) + _plane_bytes(result)
            if layer == "grid.fourier_lens" or (layer == "grid.apply_conditional_shift" and args[1] != 0.0):
                self.counts["grid.fft_planes"] += 2

    def _wrap(self, fn, layer: str):
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            self._count(layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def instrument(self, modules: dict):
        """Trace the TRACED functions in every given module namespace that holds them."""
        originals = {}
        for module_name, functions in TRACED.items():
            for function in functions:
                fn = getattr(modules[module_name], function)
                originals[fn] = self._wrap(fn, layer_name(module_name, function))
        patched = []
        try:
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if callable(value) and value in originals:
                        patched.append((module, attr, value))
                        setattr(module, attr, originals[value])
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path) -> None:
        """JSON lines: first the span names, then one [name id, start, end, parent, op id] per span."""
        with open(path, "w", encoding="ascii") as out:
            out.write(json.dumps({"names": self.names, "span": ["name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def layer_totals(names: list[str], spans: list[tuple]) -> dict[str, dict]:
    """Per span name: call count, self seconds, and every call's duration."""
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for index, (name_id, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(names[name_id], {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        entry["durations"].append(end - start)
    return totals
