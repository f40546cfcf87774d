"""Output checks, run outside the timed phase.

Each job gets an Expected curve: J_p (or, in pulse mode, the transfer
efficiency eta) with a per-point allowance, and for stored steady curves
the classification and symmetry verdict too.  A grid point fails when its
value is off by more than the allowance; a sweep that raised, or whose
classification or symmetry verdict differs, fails at every point.

    stored steady curves   |dJ_p| <= 1e-10 |J_p|, identical classification
    stored pulse curve     |d eta| <= 1e-7 (RK45 and expm differ by ~5e-9)
    chain40_sparse         |dJ_p| <= 1e-10 |J_p| of analytic_chain_current
    disordered presets on  |dJ_p| <= 1e-7 max|J_p| of an SVD null vector
    a non-zero seed        (reference.brute_force_steady_state); the SVD
                           vector itself is only that accurate at gamma 1e5

Where the SVD oracle refuses a point (two singular values below 1e-12 of
the largest, e.g. a dark mode decaying at ~1e-8 ps^-1 on a strongly
disordered ring at gamma 1e-2), that point has no reference: it is left
unchecked, and the run reports how many points were.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from enaqt.errors import NonUniqueSteadyState
from enaqt.network import assemble_hamiltonian, to_internal_units, validate_network
from enaqt.reference import ChainParams, analytic_chain_current, brute_force_steady_state

import workloads

STORED = Path(__file__).with_name("reference_curves.json")
STEADY_RTOL = 1e-10
PULSE_ATOL = 1e-7
BRUTE_FORCE_TOL = 1e-7


@dataclass(frozen=True)
class Expected:
    j_p: np.ndarray
    allow: np.ndarray
    classification: dict | None = None
    symmetric: bool | None = None


def load_stored(path: Path = STORED) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _kron_generator(H: np.ndarray, spec, gamma_inj: float, gamma_ext: float, gamma_deph: float):
    """Generator built from kron products, sharing no code with enaqt's assembly."""
    d = spec.dim
    eye = np.eye(d)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    jumps = [((s, 0), gamma_inj) for s in spec.inject_sites]
    jumps += [((0, s), gamma_ext) for s in spec.extract_sites]
    jumps += [((s, s), gamma_deph) for s in range(1, spec.n_sites + 1)]
    for (i, j), g in jumps:
        V = np.zeros((d, d))
        V[i, j] = 1.0
        VdV = V.T @ V
        L += g * (np.kron(V, V) - 0.5 * np.kron(eye, VdV) - 0.5 * np.kron(VdV.T, eye))
    return L


def brute_force_curve(cfg) -> np.ndarray:
    spec = to_internal_units(validate_network(cfg.network))
    H = assemble_hamiltonian(spec)
    out = []
    for gamma in cfg.gamma_grid():
        try:
            rho = brute_force_steady_state(_kron_generator(H, spec, cfg.gamma_inj, cfg.gamma_ext, gamma))
        except NonUniqueSteadyState:
            out.append(np.nan)
            continue
        out.append(cfg.gamma_ext * sum(rho[s, s].real for s in spec.extract_sites))
    return np.array(out)


def analytic_chain_curve(cfg) -> np.ndarray:
    spec = to_internal_units(cfg.network)
    t = spec.couplings[0][2]
    return np.array([
        analytic_chain_current(ChainParams(spec.n_sites, t, cfg.gamma_inj, cfg.gamma_ext, g))
        for g in cfg.gamma_grid()
    ])


def expected_for(workload: str, seed: int, stored: dict) -> dict[str, Expected]:
    """Expected output of every job of a workload, keyed by job label."""
    out = {}
    for job in workloads.jobs(workload, seed):
        if workload == "chain40_sparse":
            ref = analytic_chain_curve(job.build())
            out[job.label] = Expected(ref, STEADY_RTOL * np.abs(ref))
        elif workload == "pulse_fig2":
            ref = np.array(stored["pulse"][job.label]["j_p"])
            out[job.label] = Expected(ref, np.full(ref.shape, PULSE_ATOL))
        elif job.label in workloads.DISORDERED and seed != 0:
            ref = brute_force_curve(job.build())
            out[job.label] = Expected(ref, np.full(ref.shape, BRUTE_FORCE_TOL * np.nanmax(np.abs(ref))))
        else:
            rec = stored["steady"][job.label]
            ref = np.array(rec["j_p"])
            out[job.label] = Expected(ref, STEADY_RTOL * np.abs(ref), rec["classification"], rec["symmetric"])
    return out


def failed_points(outcome: workloads.Outcome, expected: Expected) -> int:
    n = outcome.job.points
    if outcome.error is not None:
        return n
    got = np.asarray(outcome.curve.j_p, dtype=float)
    if got.shape != expected.j_p.shape:
        return n
    if expected.classification is not None and asdict(outcome.classification) != expected.classification:
        return n
    if expected.symmetric is not None and outcome.symmetric != expected.symmetric:
        return n
    checked = ~np.isnan(expected.j_p)
    return int(np.count_nonzero(checked & ~(np.abs(got - expected.j_p) <= expected.allow)))


def unchecked_points(expected: Expected) -> int:
    return int(np.count_nonzero(np.isnan(expected.j_p)))
