"""Smoke tests for the reproduction scripts, each run as a subprocess."""

import subprocess
import sys
from pathlib import Path

from test_cli import checkout_env

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=checkout_env(),
    )


def test_reproduction_scripts_run(tmp_path):
    curves = tmp_path / "curves"
    proc = run_script(
        "reproduce_deflection_curves.py", "--with-grid", "--steps", "7", "--out-dir", str(curves)
    )
    assert proc.returncode == 0, proc.stderr
    assert "crosses zero at delta = 0.330850 mm" in proc.stdout
    assert sorted(p.name for p in curves.iterdir()) == sorted(
        f"deflections_{kind}.csv{suffix}"
        for kind in ("sequential", "two-qubit", "single")
        for suffix in ("", ".meta")
    )

    images = tmp_path / "images"
    proc = run_script("render_coupling_images.py", "--out-dir", str(images))
    assert proc.returncode == 0, proc.stderr
    pgms = sorted(images.iterdir())
    assert len(pgms) == 4
    assert all(p.suffix == ".pgm" and p.read_bytes().startswith(b"P5\n") for p in pgms)
