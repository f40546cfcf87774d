"""Dephasing sweeps: steady-state and pulse-mode batch driver.

A sweep solves the network at every grid point, in grid order, and
assembles the observables into a SweepCurve; a steady sweep also records
how each point was solved (method, residual, the reciprocal condition of
the eigenbasis system and the smallest eigenvalue of rho).  A failing
point re-raises its error with the point's gamma_deph prefixed to the
message.

A sweep takes cfg.network as given: it was checked when built, and only H,
which `assemble_hamiltonian` forms in angular ps^-1, depends on its unit.

In steady mode one `solver.EigenbasisSteadyState` is built per sweep from
(H, spec, gamma_inj, gamma_ext): one eigendecomposition of the
non-Hermitian H_eff, after which each point is a real n x n solve.  The
grid goes to the solver whole, and it hands back finished blocks of
rates whose stacks it bounds by n alone.  No generator is assembled: the
solver checks every state with the closed-form action of
`lindblad.apply_liouvillian`, and a row the eigenbasis solve gates
(ill-conditioned eigenvectors, a singular population system, stalled
refinement or a failed residual) is logged and solved inside the solver
by the sector LU, `solver.steady_state` on the network at its rate, which
projects the closed-form entries of `lindblad.generator_entries` onto the
charge sector and checks its state the same way; the block's gated mask
becomes each point's recorded method.  Each
observable is then evaluated once on the block's (k, d, d) stack, and the
curve's columns are the blocks' arrays concatenated.  An error raised
while solving or evaluating carries the gamma_deph of its point: an error
with an `index` (a bad state in a stack, a failing sector-LU solve) is
named by its row, and any other error in a block by the block's first
point.

In pulse mode there is no injection channel: each point propagates a
single-site excitation for t_end picoseconds exactly.  One
`solver.SectorPropagator` is built per sweep: it forms the (n^2 + 2)-square
bordered charge-sector generator G at zero dephasing once, by projecting
the closed-form entries of `lindblad.generator_entries` onto the sector
as the sector LU does, and checks charge conservation on the way.
Dephasing only shifts the diagonal of the coherence coordinates.  The
grid and the start site go to `SectorPropagator.pulse` whole, which
starts from the pure state of that site, x0, and walks the grid in blocks
of max(1, BLOCK_ENTRIES // (n^2 + 3)^2) rates (6 on fig2, 1 from 10
sites up); each block is one stacked real exponential (`solver._expm`,
numpy alone) of the Van Loan matrix [[G, x0], [0, 0]] t_end (Van Loan,
IEEE TAC 23, 395 (1978)): its leading block applied to x0 is the state at
t_end, whose trace the propagator checks, and its last column the exact
time integral of the trajectory.  Nothing is sampled.  `pulse` returns
the transfer efficiency eta(t_end) (total extracted population) and the
time-integrated density matrices, one stack for the whole grid; the sweep
reads no sector coordinates.  An error is annotated with the gamma_deph
of the rate its `index` names: its own, or the first of its block.  The
emitted columns then read as follows: j_p is eta(t_end), j_q the
time-integrated heat current, and the occupations (and the delta_n
derived from them) are trajectory time averages.  The sweep evaluates the
heat current, linear in rho, and delta_n once on the stack of integrals.

A SweepConfig reads its numbers by the rules of `errors.py`, and applies
the rule to the one number it derives: a log grid whose top rate rounds
to inf (gamma_max near the float limit) raises ValueError naming
gamma_max.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import _count, _real, _seed
from .lindblad import ChannelSet
from .network import NetworkSpec, assemble_hamiltonian, network_to_dict
from .observables import (
    Occupations,
    SweepClassification,
    SweepCurve,
    classify_sweep,
    delta_n,
    exciton_current,
    heat_current,
    occupations,
)
from .solver import EigenbasisSteadyState, SectorPropagator

DEFAULT_GAMMA_MIN = 1e-2
DEFAULT_GAMMA_MAX = 1e3
DEFAULT_POINTS = 60
DEFAULT_RATE = 5.0  # ps^-1, both injection and extraction


@dataclass(frozen=True)
class SweepConfig:
    network: NetworkSpec
    gamma_min: float = DEFAULT_GAMMA_MIN
    gamma_max: float = DEFAULT_GAMMA_MAX
    points: int = DEFAULT_POINTS
    spacing: str = "log"  # "log" or "linear"
    gamma_inj: float | None = None  # DEFAULT_RATE in steady mode; a pulse injects nothing
    gamma_ext: float = DEFAULT_RATE
    mode: str = "steady"  # "steady" or "pulse"
    t_end: float | None = None      # pulse horizon (ps); required in pulse mode, None in steady
    pulse_site: int | None = None   # pulse mode only; default: lowest injection site
    label: str = ""
    seed: int | None = None         # the seed of a random network's draw, echoed; None if none

    def __post_init__(self) -> None:
        # every number is stored as the Python int or float it equals, so the JSON echo takes numpy scalars
        def put(name, value):
            object.__setattr__(self, name, value)
            return value

        if not isinstance(self.network, NetworkSpec):
            raise ValueError(f"network must be a NetworkSpec, got {type(self.network).__name__}")
        put("points", _count(self.points, "points", what="an integer of at least 5", least=5))
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")
        if self.gamma_inj is None:
            put("gamma_inj", DEFAULT_RATE if self.mode == "steady" else 0.0)
        for name in ("gamma_min", "gamma_max", "gamma_inj", "gamma_ext"):
            put(name, _real(getattr(self, name), name, what="a finite nonnegative number", least=0.0, finite=True))
        if self.spacing == "log" and self.gamma_min <= 0:
            raise ValueError("log spacing requires gamma_min > 0")
        if not self.gamma_min < self.gamma_max:
            raise ValueError("gamma_min must be below gamma_max")
        if self.mode not in ("steady", "pulse"):
            raise ValueError(f"mode must be 'steady' or 'pulse', got {self.mode!r}")
        if self.t_end is not None:
            put("t_end", _real(self.t_end, "t_end", what="a finite number of picoseconds", finite=True))
        if self.mode == "steady" and (self.t_end, self.pulse_site) != (None, None):
            raise ValueError("a steady sweep takes no t_end or pulse_site, "
                             f"got {self.t_end!r} and {self.pulse_site!r}")
        if self.mode == "pulse" and not (self.t_end and self.t_end > 0):
            raise ValueError("pulse mode requires a positive t_end")
        if self.mode == "pulse" and self.gamma_inj != 0:
            raise ValueError(f"pulse mode injects nothing: gamma_inj must be 0, got {self.gamma_inj}")
        n = self.network.n_sites
        if self.pulse_site is not None:
            put("pulse_site", _count(self.pulse_site, "pulse_site", what=f"a site in 1..{n}", least=1, most=n))
        if self.seed is not None:
            put("seed", _seed(self.seed))
        # the one number derived here: a gamma_max near the float limit rounds
        # the top of a log grid to inf, which the rule, not numpy, reports
        with np.errstate(over="ignore"):
            top = self.gamma_grid()[-1]
        _real(top, f"the top grid rate of gamma_max={self.gamma_max!r}", what="finite", finite=True)

    def gamma_grid(self) -> np.ndarray:
        if self.spacing == "log":
            return np.logspace(np.log10(self.gamma_min), np.log10(self.gamma_max), self.points)
        return np.linspace(self.gamma_min, self.gamma_max, self.points)


def config_to_dict(cfg: SweepConfig) -> dict:
    """JSON-serializable echo of a sweep configuration: its fields in order, the network as a file's object."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)} | {"network": network_to_dict(cfg.network)}


def _annotate(exc: Exception, gamma: float) -> None:
    head = f"[gamma_deph={gamma:g}] "
    exc.args = (head + str(exc.args[0]) if exc.args else head,) + exc.args[1:]


def run_sweep(cfg: SweepConfig) -> tuple[SweepCurve, SweepClassification]:
    """Run a full dephasing sweep and classify the resulting curve."""
    H = assemble_hamiltonian(cfg.network)
    grid = cfg.gamma_grid()
    columns = _steady_columns if cfg.mode == "steady" else _pulse_columns
    curve = SweepCurve(gamma_grid=grid, **columns(cfg, cfg.network, H, grid))
    return curve, classify_sweep(curve)


def _columns(rho: np.ndarray, occ: Occupations, H: np.ndarray, channels: ChannelSet,
             spec: NetworkSpec) -> dict:
    """The j_q, delta_n and occupation columns of a stack of states and their occupations."""
    return dict(j_q=heat_current(rho, H, channels, spec), delta_n=delta_n(occ, spec.extract_sites),
                vacuum=occ.vacuum, occupations=occ.values)


def _steady_columns(cfg: SweepConfig, spec: NetworkSpec, H: np.ndarray, grid: np.ndarray) -> dict:
    # the currents read only gamma_ext
    channels = ChannelSet(cfg.gamma_inj, cfg.gamma_ext, 0.0)
    eigenbasis = EigenbasisSteadyState(H, spec, cfg.gamma_inj, cfg.gamma_ext)
    parts, method = [], []
    start = 0  # first grid index of the block
    try:
        for block in eigenbasis.solve(grid):
            occ = occupations(block.rho)
            parts.append(dict(j_p=exciton_current(block.rho, channels, spec),
                              **_columns(block.rho, occ, H, channels, spec),
                              residual=block.residual, rcond=block.rcond,
                              min_eigenvalue=block.min_eigenvalue))
            method += ["sector_lu" if gated else "eigenbasis" for gated in block.gated]
            start += block.gated.size
    except Exception as exc:
        _annotate(exc, float(grid[start + (getattr(exc, "index", None) or 0)]))
        raise
    return dict({name: np.concatenate([p[name] for p in parts]) for name in parts[0]},
                method=tuple(method))


def _pulse_columns(cfg: SweepConfig, spec: NetworkSpec, H: np.ndarray, grid: np.ndarray) -> dict:
    site = cfg.pulse_site if cfg.pulse_site is not None else min(spec.inject_sites)
    propagator = SectorPropagator(H, spec, 0.0, cfg.gamma_ext)
    try:
        eta, rho_int = propagator.pulse(grid, site, cfg.t_end)
    except Exception as exc:
        _annotate(exc, float(grid[exc.index]))
        raise
    avg = np.diagonal(rho_int, axis1=1, axis2=2).real / cfg.t_end
    occ = Occupations(values=avg[:, 1:], vacuum=avg[:, 0])
    return dict(j_p=eta, **_columns(rho_int, occ, H, ChannelSet(0.0, cfg.gamma_ext, 0.0), spec))
