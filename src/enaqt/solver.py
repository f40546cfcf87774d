"""Steady states and time propagation of the Lindblad equation.

The steady state solves L vec(rho) = 0 under unit trace in the real,
charge-conserving sector.  Every jump operator changes the excitation
number by -1, 0 or +1 and H conserves it (the weak U(1) symmetry of
Buca & Prosen, New J. Phys. 14, 073007 (2012)), so the vacuum-site
coherences never couple to the populations or to the site-site
coherences, and they vanish in the steady state.  The sector coordinates
are the n + 1 populations and Re, Im of rho_ij for 1 <= i < j <= n: n^2 + 1
real unknowns in place of (n + 1)^2 complex ones.  The path is the same for
every input:

  1. the generator is held in CSR, and its index arrays are checked for an
     entry that couples the sector to a vacuum-site coherence; a generator
     with one is not charge-conserving and goes to the fallback;
  2. the real system A = Re(Tp L T) is formed, where T maps the sector
     coordinates to vec(rho) and Tp is its left inverse, and the trace
     functional replaces the last (population) row by slicing the CSR
     arrays;
  3. one real sparse LU factorization (SuperLU via
     scipy.sparse.linalg.splu) serves the solve and two refinement passes,
     and T maps the solution back to rho.

Real SuperLU reports an exactly singular system either as "Factor is
exactly singular" or as "failed to factorize matrix ... dpanel_bmod.c";
both go to the fallback, and any other RuntimeError propagates.  The
fallback, an eigendecomposition of the densified full generator, is kept
for rank-deficient and non-charge-conserving inputs, and every use of it
is logged as a warning that says why.  Every solution is residual-checked
against the untouched full generator and validated as a physical density
matrix; positivity violations raise instead of being clipped.

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

import functools
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


@dataclass(frozen=True)
class _Sector:
    """The real charge sector of the d^2 vec space and its change of basis.

    The sector coordinates are the n^2 + 1 vec indices that are not
    vacuum-site coherences, in vec order: a population rho_pp stands for
    itself, and for i < j the index of rho_ij holds Re rho_ij and the
    index of rho_ji holds Im rho_ij.  T (d^2 x (n^2+1)) maps them to
    vec(rho) with two entries per coherence column; Tp = diag(1 or 1/2) T^H
    is its left inverse.  The last coordinate is the population of site n.
    """

    vac: np.ndarray      # mask of the vacuum-site coherences over vec indices
    pops: np.ndarray     # sector positions of the populations
    T: sp.csr_matrix
    Tp: sp.csr_matrix


@functools.lru_cache(maxsize=8)
def _sector(d: int) -> _Sector:
    col, row = np.divmod(np.arange(d * d), d)  # vec index row + col*d
    vac = (row == 0) != (col == 0)
    k = np.flatnonzero(~vac)
    row, col = row[k], col[k]
    pos = np.arange(k.size)
    coh = row != col
    upper = row < col
    partner = np.searchsorted(k, col + row * d)[coh]  # sector position of rho_ji
    # T[k[pos], pos] is 1 for a population or Re, -i for Im;
    # T[k[partner], pos] is 1 for Re, +i for Im
    T = sp.csr_matrix(
        (np.concatenate([np.where(upper | ~coh, 1.0, -1j), np.where(upper, 1.0, 1j)[coh]]),
         (np.concatenate([k, k[partner]]), np.concatenate([pos, pos[coh]]))),
        shape=(d * d, k.size),
    )
    Tp = (sp.diags(np.where(coh, 0.5, 1.0)) @ T.conj().T).tocsr()
    return _Sector(vac=vac, pops=np.flatnonzero(~coh), T=T, Tp=Tp)


def _couples_vacuum_coherences(L: sp.csr_matrix, vac: np.ndarray) -> bool:
    """True if a stored entry links the sector to a vacuum-site coherence."""
    row_vac = np.repeat(vac, np.diff(L.indptr))
    return bool(np.any(row_vac != vac[L.indices]))


def _sector_system(L: sp.csr_matrix, sec: _Sector) -> sp.csr_matrix:
    """Re(Tp L T) with its last (population) row replaced by the trace."""
    A = (sec.Tp @ L @ sec.T).real
    cut = A.indptr[-2]
    indptr = A.indptr.copy()
    indptr[-1] = cut + sec.pops.size
    indices = np.concatenate([A.indices[:cut], sec.pops])
    data = np.concatenate([A.data[:cut], np.ones(sec.pops.size)])
    return sp.csr_matrix((data, indices, indptr), shape=A.shape)


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


def _sector_solve(L: sp.csr_matrix, sec: _Sector, d: int) -> np.ndarray | None:
    """Steady state from the real sector system, or None if it is singular."""
    A = _sector_system(L, sec)
    b = np.zeros(A.shape[0])
    b[-1] = 1.0
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        # an exactly singular system: rank deficient, handled by the caller.
        # Real SuperLU may say so as "failed to factorize matrix ... in
        # dpanel_bmod.c" instead of "Factor is exactly singular".
        if "singular" not in str(exc) and "failed to factorize" not in str(exc):
            raise
        return None
    x = lu.solve(b)
    # two refinement passes pin the residual near machine precision
    for _ in range(2):
        x += lu.solve(b - A @ x)
    return (sec.T @ x).reshape((d, d), order="F")


def steady_state(L, *, residual_tol: float = RESIDUAL_TOL) -> SteadyStateSolution:
    """Unique steady state of a materialized generator (dense or sparse).

    The generator must include at least one nonzero dissipative rate;
    otherwise the null space is degenerate and NonUniqueSteadyState is
    raised.  A charge-conserving generator is solved in the real sector,
    so the returned vacuum-site coherences are exactly zero; that state is
    the unique one whenever the vacuum-coherence block is nonsingular,
    which any injection or dephasing rate guarantees.
    """
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionMismatch(f"generator must be square, got {L.shape}")
    L = sp.csr_matrix(L, dtype=complex)
    d2 = L.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise DimensionMismatch(f"generator size {d2} is not a perfect square")

    sec = _sector(d)
    if _couples_vacuum_coherences(L, sec.vac):
        reason = "generator couples the charge sector to vacuum-site coherences"
    else:
        rho = _sector_solve(L, sec, d)
        res = float("nan") if rho is None else _residual(L, rho)
        if res <= residual_tol:
            check_density_matrix(rho)
            return SteadyStateSolution(rho=rho, residual=res, method="linear_solve")
        reason = f"linear-solve residual {res:.3e} exceeds {residual_tol:.1e}"

    logger.warning("steady state: %s; falling back to the null-space solve", reason)
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
