"""Command-line contract tests: flags, exit codes, and output file formats.

Exit codes are a stable contract: 0 success, 2 usage, 3 undefined weak
value, 4 engine failure, 5 verification failure.
"""

import argparse
import contextlib
import importlib
import io
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import seqweak
from seqweak.cli import entrypoint, main
from seqweak.experiments import MAX_SWEEP_STEPS


def read_csv_rows(path):
    text = path.read_bytes().decode("ascii")
    assert "\r" not in text
    lines = text.split("\n")
    assert lines[-1] == ""
    header, rows = lines[0], [line.split(",") for line in lines[1:-1]]
    assert all(len(row) == 8 for row in rows)
    return header, rows


def read_meta(path):
    entries = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, value = line.split("=", 1)
        entries[key] = value
    return entries


def load_raw(path):
    blob = path.read_bytes()
    assert blob[:8] == b"WMGRID01"
    nx, ny, pixel_um = struct.unpack_from("<IId", blob, 8)
    values = np.frombuffer(blob, dtype="<f8", offset=24).reshape(ny, nx)
    return nx, ny, pixel_um, values


def raw_means(nx, ny, pixel_um, values):
    pixel_mm = pixel_um / 1000.0
    x = (np.arange(nx) - nx // 2) * pixel_mm
    y = (ny // 2 - np.arange(ny)) * pixel_mm
    weights = values / values.sum()
    x_mean = float((weights * x[None, :]).sum())
    y_mean = float((weights * y[:, None]).sum())
    return x_mean, y_mean


def test_weak_value_sequential_anomalous(capsys):
    rc = main(["weak-value", "--pre", "a1", "--first", "proj:H", "--second", "proj:a2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "value = -0.125+0i  interval=[0,1]  ANOMALOUS\n"


def test_weak_value_trivial_not_anomalous(capsys):
    rc = main(["weak-value", "--pre", "H", "--first", "proj:H", "--second", "proj:H"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "value = 1+0i  interval=[0,1]  not anomalous\n"


def test_weak_value_matrix_observable(capsys):
    rc = main(["weak-value", "--pre", "H", "--first", "0,1,1,0", "--second", "proj:H"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "value = 0+0i  interval=[-1,1]  not anomalous\n"


def test_weak_value_component_state(capsys):
    # (|H> + |V>)/sqrt(2) written out explicitly; amplitudes need not be
    # pre-normalized.
    rc = main(["weak-value", "--pre", "1,1", "--first", "proj:H", "--second", "proj:H"])
    assert rc == 0
    assert capsys.readouterr().out == "value = 0.5+0i  interval=[0,1]  not anomalous\n"


def test_weak_value_postselected(capsys):
    rc = main(["weak-value", "--pre", "a1", "--post", "H", "--a", "proj:a2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "value = -0.5+0i  interval=[0,1]  ANOMALOUS\n"


def test_weak_value_orthogonal_postselection_exit_3(capsys):
    rc = main(["weak-value", "--pre", "H", "--post", "V", "--a", "proj:H"])
    assert rc == 3
    assert "orthogonal" in capsys.readouterr().err


def test_weak_value_usage_errors(capsys):
    # unknown state name
    assert main(["weak-value", "--pre", "nope", "--first", "proj:H", "--second", "proj:H"]) == 2
    assert "--pre" in capsys.readouterr().err
    # zero-norm components
    assert main(["weak-value", "--pre", "0,0", "--first", "proj:H", "--second", "proj:H"]) == 2
    assert "--pre" in capsys.readouterr().err
    # non-Hermitian matrix
    assert main(["weak-value", "--pre", "H", "--first", "0,1,0,0", "--second", "proj:H"]) == 2
    assert "--first" in capsys.readouterr().err
    # three matrix entries
    assert main(["weak-value", "--pre", "H", "--first", "1,0,0", "--second", "proj:H"]) == 2
    assert "--first must be proj:<state> or four comma-separated" in capsys.readouterr().err
    # mixed modes and missing halves
    assert main(["weak-value", "--pre", "H", "--first", "proj:H", "--post", "V", "--a", "proj:H"]) == 2
    capsys.readouterr()
    assert main(["weak-value", "--pre", "H", "--first", "proj:H"]) == 2
    capsys.readouterr()
    assert main(["weak-value", "--pre", "H", "--post", "V"]) == 2
    capsys.readouterr()
    assert main(["weak-value", "--first", "proj:H", "--second", "proj:H"]) == 2
    assert "--pre" in capsys.readouterr().err


def test_weak_value_state_too_large_to_normalize_exit_2(capsys):
    # Finite components whose norm overflows: np.hypot gives inf, and abs()
    # of the second component's modulus overflows outright.
    for pre in ("1e308,1.5e308", "1.5e308+1.5e308i,1"):
        assert main(["weak-value", "--pre", pre, "--first", "proj:H", "--second", "proj:H"]) == 2
        assert "--pre" in capsys.readouterr().err
    args = ["weak-value", "--pre", "H", "--first", "proj:1e308,1.5e308", "--second", "proj:H"]
    assert main(args) == 2
    assert "--first" in capsys.readouterr().err
    # Large components whose norm still fits are normalized as usual.
    assert main(["weak-value", "--pre", "1e308,1e307", "--first", "proj:H", "--second", "proj:H"]) == 0
    assert capsys.readouterr().out.startswith("value = 0.990099009901+0i")


@pytest.mark.parametrize(
    "argv",
    [
        ["--pre", "a1", "--first", "1e200,0,0,1e200", "--second", "1e200,0,0,1e200"],
        ["--pre", "a1", "--post", "a2", "--a", "1.7e308,1.7e308,1.7e308,1.7e308"],
    ],
    ids=["sequential", "postselected"],
)
def test_weak_value_outside_the_float_range_exit_4(argv, capsys):
    # The reading overflows to inf or NaN: an engine failure, not a printed
    # NaN, and no numpy warning on the way (the suite turns those into errors).
    assert main(["weak-value", *argv]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: engine failure: ") and "float range" in err


def test_weak_value_largest_finite_reading_still_prints(capsys):
    assert main(["weak-value", "--pre", "a1", "--post", "a2", "--a", "1e308,0,0,1e308"]) == 0
    assert capsys.readouterr().out == "value = 1e+308+0i  interval=[1e+308,1e+308]  not anomalous\n"


def test_two_main_calls_build_one_parser(monkeypatch, capsys):
    parsers = []
    real = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    for _ in range(2):
        assert main(["weak-value", "--pre", "a1", "--first", "proj:H", "--second", "proj:a2"]) == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert capsys.readouterr().out.count("ANOMALOUS") == 2


def test_sweep_analytic_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(
        [
            "sweep",
            "--scenario", "sequential",
            "--sigma", "0.1116mm",
            "--delta-range", "0:0.711:31",
            "--engine", "analytic",
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    header, rows = read_csv_rows(out)
    assert header == (
        "delta_mm,x_analytic_mm,y_analytic_mm,xy_analytic_mm2,"
        "x_grid_mm,y_grid_mm,xy_grid_mm2,xy_discrepancy_mm2"
    )
    assert len(rows) == 31
    assert rows[0] == ["0", "0", "0", "0", "", "", "", ""]
    joint = [float(row[3]) for row in rows]
    deltas = [float(row[0]) for row in rows]
    crossings = [
        (deltas[i], deltas[i + 1])
        for i in range(len(rows) - 1)
        if joint[i] < 0.0 < joint[i + 1]
    ]
    assert len(crossings) == 1
    lo, hi = crossings[0]
    assert lo < 0.1116 * np.sqrt(8.0 * np.log(3.0)) < hi

    meta = read_meta(tmp_path / "curve.csv.meta")
    assert meta["scenario"] == "sequential"
    assert meta["sigma_mm"] == "0.1116"
    assert meta["sigma_provenance"] == "user"
    assert meta["grid"] == ""
    assert meta["engines"] == "analytic"


def test_sweep_default_sigma_marked_derived(tmp_path, capsys):
    out = tmp_path / "default.csv"
    rc = main(["sweep", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    _, rows = read_csv_rows(out)
    assert len(rows) == 31
    meta = read_meta(tmp_path / "default.csv.meta")
    assert meta["sigma_mm"] == "0.1116"
    assert meta["sigma_provenance"] == "derived"


def test_sweep_two_qubit_never_negative(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    rc = main(
        ["sweep", "--scenario", "two-qubit", "--delta-range", "0:0.5:11", "--out", str(out)]
    )
    assert rc == 0
    capsys.readouterr()
    _, rows = read_csv_rows(out)
    assert all(float(row[3]) >= 0.0 for row in rows)
    assert read_meta(tmp_path / "pair.csv.meta")["scenario"] == "two-qubit"


def test_sweep_both_engines_discrepancy_column(tmp_path, capsys):
    out = tmp_path / "both.csv"
    rc = main(
        [
            "sweep",
            "--engine", "both",
            "--grid-size", "256",
            "--delta-range", "0:0.4:5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    _, rows = read_csv_rows(out)
    assert all(row[7] != "" for row in rows)
    assert max(float(row[7]) for row in rows) < 1e-3
    meta = read_meta(tmp_path / "both.csv.meta")
    assert meta["engines"] == "analytic+grid"
    assert meta["grid"] == "256x256@13.5um"


def test_sweep_grid_only_leaves_analytic_empty(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(
        [
            "sweep",
            "--engine", "grid",
            "--grid-size", "64",
            "--delta-range", "0:0.2:3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    _, rows = read_csv_rows(out)
    for row in rows:
        assert row[1] == row[2] == row[3] == ""
        assert row[4] != "" and row[5] != "" and row[6] != ""
        assert row[7] == ""


def test_sweep_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--delta-range", "0:0.711", "--out", out]) == 2
    capsys.readouterr()
    assert main(["sweep", "--delta-range", "0:0.1:1", "--out", out]) == 2
    capsys.readouterr()
    assert main(["sweep", "--delta-range", "0.5:0.1:5", "--out", out]) == 2
    capsys.readouterr()
    assert main(["sweep", "--scenario", "superluminal", "--out", out]) == 2
    capsys.readouterr()
    assert main(["sweep", "--sigma", "0.1", "--out", out]) == 2
    assert "--sigma" in capsys.readouterr().err
    assert main(["sweep", "--sigma", "abcmm", "--out", out]) == 2
    assert "--sigma needs a number with an mm or um suffix, got 'abcmm'" in capsys.readouterr().err
    assert main(["sweep", "--engine", "quantum", "--out", out]) == 2
    capsys.readouterr()
    assert main(["sweep", "--engine", "grid", "--grid-size", "100", "--out", out]) == 2
    capsys.readouterr()
    assert main(["sweep"]) == 2
    assert "--out" in capsys.readouterr().err


def test_sweep_steps_over_cap_exit_2_before_allocating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("seqweak.cli.run_sweep", lambda spec: pytest.fail("the sweep ran"))
    out = tmp_path / "huge.csv"
    argv = ["sweep", "--delta-range", f"0:1:{MAX_SWEEP_STEPS + 1}", "--out", str(out)]
    assert main(argv) == 2  # warm-up: first-call caches are not the sweep's
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert str(MAX_SWEEP_STEPS) in capsys.readouterr().err
    assert peak < 2 * MAX_SWEEP_STEPS  # bytes; the sweep's Δ grid alone is 8 per point
    assert list(tmp_path.iterdir()) == []


def test_a_long_grid_sweep_keeps_its_blocks_small(tmp_path):
    # Bound stated before measuring, for 64 KiB blocks.  A block's transient
    # arrays take at most SWEEP_BLOCK_BYTES (128 KiB) each, a few of them
    # alive at once, and 401 records with their CSV about 0.5 MiB, so the
    # peak stays below 2 MiB (measured 0.97 MB).  One block of all 400
    # nonzero couplings would need 6.4 MB for each of its largest arrays.
    out = tmp_path / "long.csv"
    argv = ["sweep", "--engine", "both", "--grid-size", "256", "--delta-range", "0:0.8:401",
            "--out", str(out)]
    assert main(argv) == 0  # warm-up: first-call caches are not the sweep's
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(read_csv_rows(out)[1]) == 401
    assert peak < 2 * 1024 * 1024


@pytest.mark.parametrize("steps", [5, 9])
def test_a_grid_sweep_over_repeated_zero_couplings_succeeds(tmp_path, capsys, steps):
    # 0:5e-324:9 repeats 0.0 over a whole block of couplings.
    out = tmp_path / "zeros.csv"
    argv = ["sweep", "--engine", "grid", "--delta-range", f"0:5e-324:{steps}", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(read_csv_rows(out)[1]) == steps


def test_sweep_engine_failure_exit_4_names_delta(tmp_path, capsys):
    out = tmp_path / "fail.csv"
    rc = main(
        [
            "sweep",
            "--engine", "grid",
            "--grid-size", "64",
            "--delta-range", "0:0.3:4",
            "--out", str(out),
        ]
    )
    assert rc == 4
    err = capsys.readouterr().err
    assert "delta = 0.3" in err


def test_sweep_preparation_failure_exit_4_names_first_delta(tmp_path, capsys):
    out = tmp_path / "coarse.csv"
    assert main(["sweep", "--engine", "grid", "--sigma", "0.01mm", "--out", str(out)]) == 4
    assert "engine failure at delta = 0 mm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, cause",
    [
        (["--sigma", "1e-200mm"], "at delta = 0 mm: kernel width 8 sigma^2 underflows"),
        (["--sigma", "1e-160mm", "--delta-range", "0:5e-160:5"],
         "at delta = 0 mm: kernel width 8 sigma^2 underflows at sigma = 1e-160 mm"),
        (["--sigma", "1e200mm"], "at delta = 0 mm: a squared shift or width overflows"),
        (["--delta-range", "0:1e200:3"], "at delta = 5e+199 mm: a squared shift or width"),
        (["--delta-range", "0:1e160:3"], "at delta = 5e+159 mm: a squared shift or width"),
        (["--engine", "grid", "--sigma", "1e200mm"], "at delta = 0 mm: grid extent cannot hold"),
    ],
)
def test_sweep_outside_the_float_range_exit_4_names_delta(tmp_path, capsys, flags, cause):
    out = tmp_path / "range.csv"
    assert main(["sweep", *flags, "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"error: engine failure {cause}")
    assert not out.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 32.0 GiB for an array", ""])
def test_image_out_of_memory_exit_4(tmp_path, capsys, monkeypatch, message):
    # The refusal is patched in: no test allocates a 65536^2 plane.
    def refuse(scenario, delta_mm, grid):
        raise MemoryError(message)

    monkeypatch.setattr("seqweak.cli.scenario_intensity_image", refuse)
    out = tmp_path / "huge.pgm"
    assert main(["image", "--delta", "0.3mm", "--grid-size", "65536", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == f"error: engine failure: not enough memory ({message or 'allocation failed'})\n"
    assert list(tmp_path.iterdir()) == []


def test_image_alpha_beyond_the_float_range_exit_4(tmp_path, capsys):
    out = tmp_path / "far.pgm"
    assert main(["image", "--alpha", "1" + "0" * 400, "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: engine failure: --alpha of 401 digits shifts beyond the float range\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_image_alpha_past_the_int_digit_limit_exit_4(tmp_path, capsys):
    # 5001 digits is past int()'s 4300-digit limit; the outcome is that of 401.
    out = tmp_path / "far.pgm"
    assert main(["image", "--alpha", "1" + "0" * 5000, "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: engine failure: --alpha of 5001 digits shifts beyond the float range\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, power",
    [("sweep", 60), ("image", 62)]
    + [(command, power) for power in (63, 64, 1024) for command in ("sweep", "image")],
)
def test_grid_beyond_numpy_array_size_exit_4(tmp_path, capsys, command, power):
    # Refused on the side itself: numpy returns an empty arange at 2^63, and
    # at 2^1024 the extent no longer converts to a float.
    side = 2**power
    out = tmp_path / "huge.out"
    argv = [command, "--grid-size", str(side), "--out", str(out)]
    argv += ["--engine", "grid"] if command == "sweep" else ["--alpha", "1"]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        f"error: engine failure: not enough memory "
        f"(a {side}x{side} grid exceeds numpy's array size limit)\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("power", [1400, 17000])
def test_grid_size_of_any_length_gets_the_outcome_of_its_kind(tmp_path, capsys, power):
    # 2^1400 has 422 digits and 2^17000 has 5118, past int()'s 4300-digit
    # limit; a power of two exits 4 and a power of ten is no grid side.
    side = str(Decimal(2**power))
    out = tmp_path / "huge.pgm"
    assert main(["image", "--alpha", "1", "--grid-size", side, "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        f"error: engine failure: not enough memory "
        f"(a {side}x{side} grid exceeds numpy's array size limit)\n"
    )
    ten = "1" + "0" * (len(side) - 1)
    assert main(["image", "--alpha", "1", "--grid-size", ten, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: grid sides must be powers of two >= 64\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "image"])
def test_output_into_a_missing_directory_exit_2_names_the_path(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.file"
    argv = [command, "--out", str(out)] + (["--delta", "0.1mm"] if command == "image" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert list(tmp_path.iterdir()) == []


def test_metadata_that_cannot_be_written_exit_2_names_the_path(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    meta = tmp_path / "curve.csv.meta"
    meta.mkdir()  # the sidecar's path is taken by a directory
    assert main(["sweep", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write metadata to {meta}: ")


def test_image_alpha_sets_shift(tmp_path, capsys):
    out = tmp_path / "beam.pgm"
    raw = tmp_path / "beam.bin"
    rc = main(
        [
            "image",
            "--alpha", "10",
            "--sigma", "0.1116mm",
            "--out", str(out),
            "--raw", str(raw),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    blob = out.read_bytes()
    header = b"P5\n256 256\n65535\n"
    assert blob.startswith(header)
    samples = np.frombuffer(blob[len(header):], dtype=">u2")
    assert samples.size == 256 * 256
    assert samples.max() == 65535

    nx, ny, pixel_um, values = load_raw(raw)
    assert (nx, ny) == (256, 256)
    assert pixel_um == 13.5
    x_mean, _ = raw_means(nx, ny, pixel_um, values)
    assert abs(x_mean - 0.0237 * 10 / 4.0) < 1e-3


def test_image_zero_shift_centered(tmp_path, capsys):
    out = tmp_path / "flat.pgm"
    raw = tmp_path / "flat.bin"
    rc = main(["image", "--delta", "0mm", "--out", str(out), "--raw", str(raw)])
    assert rc == 0
    capsys.readouterr()
    nx, ny, pixel_um, values = load_raw(raw)
    x_mean, y_mean = raw_means(nx, ny, pixel_um, values)
    assert abs(x_mean) < 1e-9 and abs(y_mean) < 1e-9
    peak_row, peak_col = np.unravel_index(values.argmax(), values.shape)
    assert (peak_row, peak_col) == (ny // 2, nx // 2)


def test_image_large_shift_splits_lobes(tmp_path, capsys):
    out = tmp_path / "lobes.pgm"
    raw = tmp_path / "lobes.bin"
    rc = main(
        ["image", "--delta", "0.37mm", "--sigma", "0.1116mm", "--out", str(out), "--raw", str(raw)]
    )
    assert rc == 0
    capsys.readouterr()
    nx, ny, pixel_um, values = load_raw(raw)
    x_mean, _ = raw_means(nx, ny, pixel_um, values)
    assert abs(x_mean - 0.37 / 4.0) < 1e-3
    # the vertical profile is bimodal: lobes near y=0 and y=0.37 mm with a
    # dip between them
    profile = values.sum(axis=1)
    row_zero = ny // 2
    row_shift = ny // 2 - round(0.37 / (pixel_um / 1000.0))
    row_mid = (row_zero + row_shift) // 2
    assert profile[row_zero] > 1.5 * profile[row_mid]
    assert profile[row_shift] > 1.5 * profile[row_mid]


def test_image_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "img.pgm")
    assert main(["image", "--delta", "0.1mm", "--alpha", "4", "--out", out]) == 2
    capsys.readouterr()
    assert main(["image", "--out", out]) == 2
    capsys.readouterr()
    assert main(["image", "--alpha", "2.5", "--out", out]) == 2
    capsys.readouterr()
    assert main(["image", "--delta", "0.1mm"]) == 2
    assert "--out" in capsys.readouterr().err


NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "NaN", "Infinity", "1e999"])


def checkout_env():
    """The environment with the imported package's source root first on PYTHONPATH,
    so a fresh interpreter runs the code under test, installed or not."""
    env = dict(os.environ)
    source_root = str(Path(seqweak.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def run_captured(argv):
    """main(argv) with its own stdout/stderr buffers, safe to call per example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    start=st.floats(0.0, 1.0),
    width=st.floats(1e-3, 1.0),
    steps=st.integers(2, 8),
    sigma=st.floats(0.02, 1.0),
)
def test_finite_sweep_input_gives_finite_rows(tmp_path_factory, start, width, steps, sigma):
    out = tmp_path_factory.mktemp("sweep") / "s.csv"
    argv = ["sweep", "--delta-range", f"{start!r}:{start + width!r}:{steps}",
            "--sigma", f"{sigma!r}mm", "--out", str(out)]
    assert main(argv) == 0
    _, rows = read_csv_rows(out)
    assert len(rows) == steps
    assert all(np.isfinite(float(v)) for row in rows for v in row[:4])


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(-0.2, 0.2), unit=st.sampled_from(["mm", "um"]))
def test_finite_image_input_gives_finite_means(tmp_path_factory, delta, unit):
    out = tmp_path_factory.mktemp("image") / "i.pgm"
    text = f"{delta!r}mm" if unit == "mm" else f"{delta * 1e3!r}um"
    rc, stdout, _ = run_captured(["image", f"--delta={text}", "--grid-size", "64", "--out", str(out)])
    assert rc == 0
    means = stdout.split("means:")[1]
    assert "nan" not in means and "inf" not in means


@settings(max_examples=100, deadline=None)
# 1e999 is a well-formed number that parses to an infinite float.
@example(bad="1e999", where="wv-a")
@example(bad="1e999", where="wv-pre")
@given(
    bad=NON_FINITE,
    where=st.sampled_from(
        ["sweep-sigma", "sweep-pixel", "range-start", "range-stop", "image-delta", "image-sigma",
         "wv-pre", "wv-post", "wv-a", "wv-first", "wv-second"]
    ),
)
def test_non_finite_input_exits_2(tmp_path_factory, bad, where):
    out = str(tmp_path_factory.mktemp("bad") / "x.out")
    # The --flag=value form keeps argparse from reading "-inf..." as a flag.
    argv = {
        "sweep-sigma": ["sweep", f"--sigma={bad}mm"],
        "sweep-pixel": ["sweep", "--engine", "grid", f"--pixel={bad}um"],
        "range-start": ["sweep", f"--delta-range={bad}:0.5:5"],
        "range-stop": ["sweep", f"--delta-range=0:{bad}:5"],
        "image-delta": ["image", f"--delta={bad}mm"],
        "image-sigma": ["image", "--delta", "0.1mm", f"--sigma={bad}mm"],
        "wv-pre": ["weak-value", f"--pre={bad},1", "--first", "proj:H", "--second", "proj:V"],
        "wv-post": ["weak-value", "--pre", "a1", f"--post={bad},1", "--a", "proj:H"],
        "wv-a": ["weak-value", "--pre", "a1", "--post", "H", f"--a={bad},0,0,1"],
        "wv-first": ["weak-value", "--pre", "a1", f"--first=proj:{bad},1", "--second", "proj:H"],
        "wv-second": ["weak-value", "--pre", "a1", "--first", "proj:H", f"--second=1,0,0,{bad}"],
    }[where]
    if where.startswith("wv-"):
        rc, stdout, stderr = run_captured(argv)
        flag = "--" + where.removeprefix("wv-")
        assert (rc, stdout) == (2, "")
        assert flag in stderr
        # "inf" spellings hold an "i", which the complex syntax reads as the
        # imaginary unit, so they fail to parse before the finiteness check.
        assert "finite" in stderr or "malformed" in stderr
        return
    rc, _, stderr = run_captured(argv + ["--out", out])
    assert rc == 2
    assert "finite" in stderr
    assert not Path(out).exists()


def test_import_loads_no_scipy():
    # scipy is a test oracle only; the package must not pull it in at runtime.
    env = checkout_env()
    probe = "import sys, seqweak.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_image_nonpositive_sigma_exits_2(tmp_path, capsys):
    assert main(["image", "--delta", "0.1mm", "--sigma", "0mm", "--out", str(tmp_path / "z.pgm")]) == 2
    assert "sigma" in capsys.readouterr().err


def test_verify_fast_all_pass(capsys):
    rc = main(["verify", "--fast"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [line for line in captured.out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 11
    assert all(line.startswith("PASS") for line in lines)


def test_verify_corrupted_calibration_fails(capsys, monkeypatch):
    monkeypatch.setattr("seqweak.acceptance.SLM_MM_PER_UNIT", 0.03)
    rc = main(["verify", "--fast"])
    captured = capsys.readouterr()
    assert rc == 5
    fail_lines = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert "slm-calibration" in fail_lines[0]
    assert "slm-calibration" in captured.err


def test_config_file_overlay(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# beam width override\nsigma = 0.2mm\n", encoding="ascii")
    out = tmp_path / "cfg.csv"
    rc = main(["sweep", "--config", str(cfg), "--delta-range", "0:0.3:3", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    meta = read_meta(tmp_path / "cfg.csv.meta")
    assert meta["sigma_mm"] == "0.2"
    assert meta["sigma_provenance"] == "user"


def test_config_file_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sigma = 0.2mm\n", encoding="ascii")
    out = tmp_path / "cfg2.csv"
    rc = main(
        [
            "sweep",
            "--config", str(cfg),
            "--sigma", "0.3mm",
            "--delta-range", "0:0.3:3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert read_meta(tmp_path / "cfg2.csv.meta")["sigma_mm"] == "0.3"


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sgima = 0.2mm\n", encoding="ascii")
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "sgima" in capsys.readouterr().err


def test_unknown_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_output_bytes_deterministic(tmp_path, capsys):
    args = ["sweep", "--delta-range", "0:0.2:5", "--engine", "both", "--grid-size", "64"]
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def declared_scripts():
    """The ``[project.scripts]`` table of pyproject.toml, as name -> target."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts, in_table = {}, False
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and "=" in line:
            name, target = line.split("=", 1)
            scripts[name.strip()] = target.strip().strip('"')
    return scripts


def test_console_script_installed():
    # pip builds the `seqweak` wrapper from this declaration, so the wrapper
    # and `python -m seqweak` both end in the entrypoint imported here.
    target = declared_scripts().get("seqweak")
    assert target == "seqweak.cli:entrypoint"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is entrypoint

    # Run the code under test in a fresh interpreter, installed or not.
    env = checkout_env()
    commands = [[sys.executable, "-m", "seqweak"]]
    wrapper = shutil.which("seqweak")
    if wrapper is not None:
        commands.append([wrapper])

    for command in commands:
        proc = subprocess.run(
            command + ["weak-value", "--pre", "a1", "--first", "proj:H", "--second", "proj:a2"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "value = -0.125+0i  interval=[0,1]  ANOMALOUS\n"

        # entrypoint is where the exit codes reach the shell.
        proc = subprocess.run(
            command + ["weak-value", "--pre", "H", "--post", "V", "--a", "proj:H"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 3
        assert "orthogonal" in proc.stderr


def write_config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text, encoding="ascii")
    return str(cfg)


def test_config_file_supplies_required_flags(tmp_path, capsys):
    # Required flags are checked after the file is read, not before.
    csv, pgm = tmp_path / "c.csv", tmp_path / "i.pgm"
    cfg = write_config(tmp_path, f"out = {csv}\ndelta-range = 0:0.3:3\n")
    assert main(["sweep", "--config", cfg]) == 0
    assert len(read_csv_rows(csv)[1]) == 3
    cfg = write_config(tmp_path, f"out = {pgm}\ndelta = 0.1mm\ngrid-size = 64\n")
    assert main(["image", "--config", cfg]) == 0
    assert pgm.read_bytes().startswith(b"P5\n64 64\n")
    cfg = write_config(tmp_path, "pre = a1\n")
    assert main(["weak-value", "--config", cfg, "--first", "proj:H", "--second", "proj:a2"]) == 0
    assert capsys.readouterr().out.endswith("value = -0.125+0i  interval=[0,1]  ANOMALOUS\n")


def test_config_file_fast_takes_a_boolean(tmp_path, capsys, monkeypatch):
    from seqweak.acceptance import CheckResult

    seen = []

    def checks(fast):
        seen.append(fast)
        return [CheckResult("stub", True, "ok", 0.0)]

    monkeypatch.setattr("seqweak.cli.run_all_checks", checks)
    assert main(["verify", "--config", write_config(tmp_path, "fast = false\n")]) == 0
    assert main(["verify", "--config", write_config(tmp_path, "fast = yes\n")]) == 0
    assert seen == [False, True]
    capsys.readouterr()
    assert main(["verify", "--config", write_config(tmp_path, "fast = maybe\n")]) == 2
    assert "fast" in capsys.readouterr().err
    assert seen == [False, True]


def test_config_file_errors_name_the_file(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    cfg = write_config(tmp_path, "# comment\nsigma 0.2mm\n")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert f"{cfg}:2" in capsys.readouterr().err
    missing = str(tmp_path / "missing.cfg")
    assert main(["sweep", "--config", missing, "--out", out]) == 2
    assert missing in capsys.readouterr().err
    cfg = write_config(tmp_path, "sigma = 0.1\n")
    assert main(["sweep", "--config", cfg, "--out", out]) == 2
    assert "--sigma" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [Path(cfg)]


def test_config_file_engine_loses_to_the_flag(tmp_path, capsys):
    out = tmp_path / "e.csv"
    cfg = write_config(tmp_path, "engine = both\n")
    argv = ["sweep", "--config", cfg, "--engine", "analytic", "--delta-range", "0:0.3:3", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert read_meta(tmp_path / "e.csv.meta")["engines"] == "analytic"
    assert read_meta(tmp_path / "e.csv.meta")["grid"] == ""


@pytest.mark.parametrize("flag, value", [("--grid-size", "abc"), ("--pixel", "bogus")])
def test_malformed_grid_flag_exits_2_when_the_engine_ignores_it(tmp_path, capsys, flag, value):
    out = tmp_path / "a.csv"
    assert main(["sweep", "--engine", "analytic", flag, value, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_file_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("sigma = 200\xb5m\n".encode("latin-1"))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert str(cfg) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]
