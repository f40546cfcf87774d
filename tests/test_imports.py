"""scipy is loaded on first use: a steady sweep and its JSON file need none of it.

Each test runs in a fresh interpreter, since this one has loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


STEADY_THEN_GATED = """
import json, sys
from enaqt import SweepConfig, build_preset, emit_results, run_sweep
from enaqt.network import Uniform, generate_geometry

def emit(cfg, path):
    curve, cls = run_sweep(cfg)
    emit_results(curve, cls, "json", path, config=cfg)
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

loaded = emit(build_preset("fig1"), "fig1.json")
# H_eff of this dimer is defective: every row goes to the sector LU
dimer = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
emit(SweepConfig(network=dimer, gamma_min=0.1, gamma_max=10.0, points=5, gamma_inj=1.0,
                 gamma_ext=4.0), "dimer.json")
import scipy
print(json.dumps({"loaded": loaded, "scipy": scipy.__version__}))
"""


def test_steady_sweep_and_json_emit_load_no_scipy(tmp_path):
    out = json.loads(run_python(["-c", STEADY_THEN_GATED], tmp_path).stdout)
    assert out["loaded"] == []
    # each file records scipy as it was when the file was written
    fig1 = json.loads((tmp_path / "fig1.json").read_text())
    dimer = json.loads((tmp_path / "dimer.json").read_text())
    assert fig1["environment"]["scipy"] is None
    assert dimer["diagnostics"]["method"] == ["sector_lu"] * 5
    assert dimer["environment"]["scipy"]["version"] == out["scipy"]
    assert dimer["environment"]["scipy"]["blas"].keys() == {"name", "version"}
    assert dimer["environment"]["numpy"] == fig1["environment"]["numpy"]


def test_figure_command_loads_no_scipy(tmp_path):
    # -X importtime lists every module the command imports on stderr
    proc = run_python(["-X", "importtime", "-m", "enaqt.cli", "figure", "--preset", "fig1",
                       "--output", str(tmp_path), "--format", "json"], tmp_path)
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "enaqt.results" in imported and "numpy" in imported
    assert [name for name in imported if name == "scipy" or name.startswith("scipy.")] == []
    assert json.loads((tmp_path / "fig1.json").read_text())["environment"]["scipy"] is None
