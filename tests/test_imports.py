"""scipy is loaded on first use: steady and pulse sweeps, their JSON files and the
analytic oracles need none of it.  No runtime path loads the oracles of
`enaqt.reference` either.

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


def imported(proc):
    """Every module a command run under -X importtime imported, from its stderr."""
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


STEADY_THEN_GATED = """
import json, sys
from enaqt import SweepConfig, build_preset, emit_results, run_sweep
from enaqt.network import Uniform, generate_geometry

def emit(cfg, path):
    curve, cls = run_sweep(cfg)
    emit_results(curve, cls, "json", path, config=cfg)
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

loaded = emit(build_preset("fig1"), "fig1.json")
oracles = ["enaqt.reference" in sys.modules]
# H_eff of this dimer is defective: every row goes to the sector LU
dimer = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
emit(SweepConfig(network=dimer, gamma_min=0.1, gamma_max=10.0, points=5, gamma_inj=1.0,
                 gamma_ext=4.0), "dimer.json")
oracles.append("enaqt.reference" in sys.modules)
import scipy
print(json.dumps({"loaded": loaded, "oracles": oracles, "scipy": scipy.__version__}))
"""


def test_steady_sweep_and_json_emit_load_no_scipy(tmp_path):
    out = json.loads(run_python(["-c", STEADY_THEN_GATED], tmp_path).stdout)
    assert out["loaded"] == []
    # neither the eigenbasis sweep nor the gated one, solved by the sector LU, loads the oracles
    assert out["oracles"] == [False, False]
    # each file records scipy as it was when the file was written
    fig1 = json.loads((tmp_path / "fig1.json").read_text())
    dimer = json.loads((tmp_path / "dimer.json").read_text())
    assert fig1["environment"]["scipy"] is None
    assert dimer["diagnostics"]["method"] == ["sector_lu"] * 5
    assert dimer["environment"]["scipy"]["version"] == out["scipy"]
    assert dimer["environment"]["scipy"]["blas"].keys() == {"name", "version"}
    assert dimer["environment"]["numpy"] == fig1["environment"]["numpy"]


def test_figure_command_loads_no_scipy(tmp_path):
    names = imported(run_python(["-X", "importtime", "-m", "enaqt.cli", "figure", "--preset", "fig1",
                                 "--output", str(tmp_path), "--format", "json"], tmp_path))
    assert "enaqt.results" in names and "numpy" in names
    assert [name for name in names if name.split(".")[0] == "scipy"] == []
    assert "enaqt.reference" not in names
    assert json.loads((tmp_path / "fig1.json").read_text())["environment"]["scipy"] is None


PULSE_AND_PROPAGATE = """
import json, sys
import numpy as np
from enaqt import build_preset, emit_results, run_sweep
from enaqt.lindblad import ChannelSet, hermitize
from enaqt.network import assemble_hamiltonian, to_internal_units
from enaqt.solver import propagate

cfg = build_preset("fig2", mode="pulse", t_end=20.0)
curve, cls = run_sweep(cfg)
emit_results(curve, cls, "json", "pulse.json", config=cfg)
spec = to_internal_units(cfg.network)
# a start state with vacuum-site coherences evolves them by their own block
rho0 = np.eye(spec.dim) / spec.dim + 0.05 * hermitize(np.triu(np.ones((spec.dim, spec.dim)), 1))
traj = propagate(assemble_hamiltonian(spec), ChannelSet(0.0, 5.0, 1.0), spec, rho0, 2.0)
print(json.dumps({"coherence": float(abs(traj.states[-1, 0, 1])),
                  "loaded": sorted(name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


def test_pulse_sweep_and_propagate_load_no_scipy(tmp_path):
    out = json.loads(run_python(["-c", PULSE_AND_PROPAGATE], tmp_path).stdout)
    assert out["loaded"] == []
    assert out["coherence"] > 0.0
    assert json.loads((tmp_path / "pulse.json").read_text())["environment"]["scipy"] is None


def test_pulse_command_loads_no_scipy(tmp_path):
    out = tmp_path / "fig2.json"
    names = imported(run_python(["-X", "importtime", "-m", "enaqt.cli", "pulse", "--preset", "fig2",
                                 "--t-end", "20", "--output", str(out), "--format", "json"], tmp_path))
    assert "enaqt.solver" in names
    assert [name for name in names if name.split(".")[0] == "scipy"] == []
    assert json.loads(out.read_text())["environment"]["scipy"] is None


ORACLES = """
import json, sys
from enaqt.lindblad import ChannelSet
from enaqt.network import Uniform, assemble_hamiltonian, generate_geometry
from enaqt.reference import (ChainParams, analytic_chain_current, brute_force_steady_state,
                             kron_liouvillian)

spec = generate_geometry("chain", 3, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
L = kron_liouvillian(assemble_hamiltonian(spec), ChannelSet(5.0, 5.0, 1.0), spec)
rho = brute_force_steady_state(L)
print(json.dumps({"j": analytic_chain_current(ChainParams(3, 1.0, 5.0, 5.0, 1.0)),
                  "n3": rho[3, 3].real,
                  "loaded": sorted(name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


def test_analytic_and_svd_oracles_load_no_scipy(tmp_path):
    out = json.loads(run_python(["-c", ORACLES], tmp_path).stdout)
    assert out["loaded"] == []
    # the two oracles agree on the end-to-end chain: J = gamma_ext n_L
    assert abs(out["j"] - 5.0 * out["n3"]) <= 1e-10 * out["j"]
