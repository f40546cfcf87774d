"""Steady states and time propagation of the Lindblad equation.

The steady state solves L vec(rho) = 0 with the unit-trace constraint
spliced into the linear system: the last row of L is replaced by the trace
functional and the right-hand side is the matching unit vector.  Every
input takes the same path: the system is held in CSR, the row is swapped
by slicing its index arrays, and one sparse LU factorization (SuperLU via
scipy.sparse.linalg.splu) serves the solve and two refinement passes.  An
eigendecomposition of the densified L is kept as an independent fallback
for rank-deficient systems, and every use of it is logged as a warning
with the linear-solve residual.  Every solution is re-hermitized,
residual-checked against the untouched generator, and validated as a
physical density matrix; positivity violations raise instead of being
clipped.

Propagation is exact on the output grid.  The generator does not depend on
time, so one propagator P = expm(G dt) (Al-Mohy & Higham, SIAM J. Matrix
Anal. Appl. 31, 970 (2009), as implemented by scipy.linalg.expm) carries
the state from each sample to the next.  G is the dense generator bordered
by one row that accumulates the extracted population (Van Loan, IEEE TAC
23, 395 (1978)).  There is no step-size control and no stiffness limit on
the dephasing rate; the cost is one dense (d^2+1)-square exponential per
call, i.e. d^4 memory.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, NonUniqueSteadyState, SolveFailure
from .lindblad import ChannelSet, build_liouvillian, check_density_matrix, hermitize, vec
from .network import NetworkSpec

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-9
NULLSPACE_RTOL = 1e-12  # two singular values below this (relative) => non-unique


@dataclass(frozen=True)
class SteadyStateSolution:
    rho: np.ndarray
    residual: float       # max |L vec(rho)| in internal units
    method: str           # "linear_solve" or "null_space"


@dataclass(frozen=True)
class Trajectory:
    """Propagated states rho(t) plus the cumulative extracted population."""

    times: np.ndarray       # ps, increasing
    states: np.ndarray      # (len(times), d, d)
    extracted: np.ndarray   # cumulative extracted population, nondecreasing to rounding


def _with_trace_row(L: sp.csr_matrix, d: int) -> sp.csr_matrix:
    """L with its last row replaced by the trace functional."""
    cut = L.indptr[-2]
    indptr = L.indptr.copy()
    indptr[-1] = cut + d
    indices = np.concatenate([L.indices[:cut], np.arange(d) * (d + 1)])
    data = np.concatenate([L.data[:cut], np.ones(d, dtype=L.dtype)])
    return sp.csr_matrix((data, indices, indptr), shape=L.shape)


def _residual(L, rho: np.ndarray) -> float:
    return float(np.max(np.abs(L @ vec(rho))))


def _null_space_solve(L_dense: np.ndarray, d: int) -> np.ndarray:
    """Fallback: eigenvector of the smallest-magnitude eigenvalue."""
    svals = sla.svdvals(L_dense)
    if svals[-2] < NULLSPACE_RTOL * svals[0]:
        raise NonUniqueSteadyState(
            "generator null space has dimension > 1 "
            f"(two smallest singular values {svals[-1]:.2e}, {svals[-2]:.2e})"
        )
    w, vr = sla.eig(L_dense)
    v = vr[:, int(np.argmin(np.abs(w)))]
    rho = hermitize(v.reshape((d, d), order="F"))
    tr = float(np.trace(rho).real)
    if abs(tr) < 1e-12:
        raise SolveFailure("null-space vector has vanishing trace")
    return rho / tr


def steady_state(L, *, residual_tol: float = RESIDUAL_TOL) -> SteadyStateSolution:
    """Unique steady state of a materialized generator (dense or sparse).

    The generator must include at least one nonzero dissipative rate;
    otherwise the null space is degenerate and NonUniqueSteadyState is
    raised.
    """
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionMismatch(f"generator must be square, got {L.shape}")
    L = sp.csr_matrix(L, dtype=complex)
    d2 = L.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise DimensionMismatch(f"generator size {d2} is not a perfect square")

    A = _with_trace_row(L, d)
    b = np.zeros(d2, dtype=complex)
    b[-1] = 1.0
    res = float("nan")
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        # an exactly singular system: rank deficient, handled below
        if "singular" not in str(exc):
            raise
    else:
        x = lu.solve(b)
        # two refinement passes pin the residual near machine precision
        for _ in range(2):
            x += lu.solve(b - A @ x)
        rho = hermitize(x.reshape((d, d), order="F"))
        res = _residual(L, rho)
        if res <= residual_tol:
            check_density_matrix(rho)
            return SteadyStateSolution(rho=rho, residual=res, method="linear_solve")

    logger.warning(
        "steady state: linear-solve residual %.3e exceeds %.1e; "
        "falling back to the null-space solve",
        res,
        residual_tol,
    )
    rho = _null_space_solve(L.toarray(), d)
    res = _residual(L, rho)
    if res > residual_tol:
        raise SolveFailure(f"steady-state residual {res:.3e} exceeds {residual_tol:.1e}")
    check_density_matrix(rho)
    return SteadyStateSolution(rho=rho, residual=res, method="null_space")


def propagate(
    H: np.ndarray,
    channels: ChannelSet,
    spec: NetworkSpec,
    rho0: np.ndarray,
    t_end: float,
    n_eval: int = 201,
) -> Trajectory:
    """Evolve the master equation from rho0 over [0, t_end] ps.

    The returned trajectory samples n_eval equally spaced times.  The
    dense generator is bordered by one row holding gamma_ext at the vec
    index of each sink population, so the extra component carries the
    cumulative extracted population integral(sum_s gamma_ext rho_ss dt).
    One propagator P = expm(G dt) is formed and applied sample by sample,
    which is exact on the grid up to rounding.
    """
    d = spec.dim
    if rho0.shape != (d, d):
        raise DimensionMismatch(f"expected {d}x{d} initial state, got {rho0.shape}")
    check_density_matrix(rho0)
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    if n_eval < 2:
        raise ValueError(f"n_eval must be at least 2, got {n_eval}")
    if t_end == 0.0:
        return Trajectory(
            times=np.array([0.0]),
            states=rho0[np.newaxis].astype(complex),
            extracted=np.zeros(1),
        )

    d2 = d * d
    G = np.zeros((d2 + 1, d2 + 1), dtype=complex)
    G[:d2, :d2] = build_liouvillian(H, channels, spec).toarray()
    G[d2, [s * (d + 1) for s in spec.extract_sites]] = channels.gamma_ext

    times = np.linspace(0.0, t_end, n_eval)
    P = sla.expm(G * (times[1] - times[0]))
    y = np.empty((n_eval, d2 + 1), dtype=complex)
    y[0, :d2] = vec(rho0)
    y[0, d2] = 0.0
    for k in range(n_eval - 1):
        y[k + 1] = P @ y[k]
    # column stacking: row-major (d, d) blocks hold rho transposed
    states = y[:, :d2].reshape((n_eval, d, d)).transpose(0, 2, 1)
    return Trajectory(times=times, states=states, extracted=y[:, d2].real)


def transfer_efficiency(traj: Trajectory) -> float:
    """Final cumulative extracted population of a pulse trajectory.

    Meaningful for trajectories propagated without an injection channel
    from a single-site excitation, where it is the fraction of the pulse
    delivered to the sinks by the end of the window.
    """
    return float(traj.extracted[-1])
