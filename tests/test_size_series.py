"""Smoke test of scripts/size_series.py: one child of a preset and of a chain case."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "size_series.py"


def load_script():
    spec = importlib.util.spec_from_file_location("size_series", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_child(series: str, case: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--child", series, case],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("series, case, kind", [
    ("presets", "fig1", "monotonic_decreasing"),
    ("chains", "8", "monotonic_decreasing"),
])
def test_child_times_one_whole_sweep(series, case, kind):
    row = run_child(series, case)
    assert row["status"] == "ok"
    assert len(row["sweep_s"]) == load_script().REPEATS
    # minor page faults per timed run: whole counts, one per run
    assert len(row["minflt"]) == load_script().REPEATS
    assert all(isinstance(n, int) and n >= 0 for n in row["minflt"])
    assert row["kind"] == kind
    assert row["methods"] == ["eigenbasis"]
    assert row["points"] == 60
    if series == "chains":
        assert row["rel_err_vs_analytic"] <= 1e-10
