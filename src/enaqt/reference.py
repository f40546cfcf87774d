"""Independent reference solutions for validating the main pipeline.

Two routes are provided: the closed-form occupations of a uniform chain
driven end to end, and a brute-force steady state obtained from a full
singular value decomposition of a materialized generator.  Neither path
shares factorization code with the production solvers (eig and sparse
LU), so agreement between all three is evidence rather than tautology.
No runtime path imports this module.

Two further oracles check the generator itself.  `build_liouvillian` is
the CSR matrix of the closed-form entries `lindblad.generator_entries`,
which the production solvers project onto the charge sector and never
assemble; it imports scipy.sparse when it is called.  `kron_liouvillian`
materializes the generator as dense kron products of the jump operators,

    L = -i (I kron H - H^T kron I)
        + sum_k gamma_k [conj(V_k) kron V_k
                         - (I kron V_k+ V_k)/2 - (V_k^T conj(V_k) kron I)/2],

at d^4 memory.  The tests check both closed forms of the generator
against it: the entries, through `build_liouvillian`, and the action of
`lindblad.apply_liouvillian`, with which both steady-state solvers check
their states.

`classical_hopping_steady_state` is the strong-dephasing oracle for the
sweep: the populations of the Haken-Strobl rate equation, with no
coherences at all.  Like a sweep, it takes a spec in any unit.

`dense_propagate` is the oracle for `solver.propagate`: the exponential of
the whole dense complex kron generator, vacuum-site coherences included,
bordered by the extracted-population row, at (d^2+1)^2 complex memory.
`dense_pulse` is the oracle for a pulse sweep's point: the same bordered
generator, bordered once more by the start state as a Van Loan column, so
that one exponential to t_end gives the state there and the exact time
integral of the trajectory.  Their exponential is scipy.linalg.expm,
imported when an oracle is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, NonUniqueSteadyState, _count, _real
from .lindblad import ChannelSet, generator_entries, hermitize, vec
from .network import NetworkSpec, to_internal_units
from .observables import Occupations
from .solver import Trajectory

if TYPE_CHECKING:
    import scipy.sparse as sp

NULLSPACE_RTOL = 1e-12


@dataclass(frozen=True)
class ChainParams:
    """Uniform chain driven end to end: inject at site 1, extract at site L.

    All rates and the coupling are angular ps^-1; on-site energies drop out
    of the occupations for a uniform chain.
    """

    L: int
    t: float
    gamma_inj: float
    gamma_ext: float
    gamma_deph: float

    def __post_init__(self) -> None:
        # a float L would give a chain of ceil(L) sites
        object.__setattr__(self, "L", _count(self.L, "chain length L"))
        # an infinite value makes the closed form divide inf by inf, and a
        # negative rate gives negative occupations
        for name in ("t", "gamma_inj", "gamma_ext", "gamma_deph"):
            what = "finite" if name == "t" else "finite and nonnegative"
            value = _real(getattr(self, name), name, what=what)
            if not math.isfinite(value) or (name != "t" and value < 0.0):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            object.__setattr__(self, name, value)
        if self.L < 2:
            raise ValueError(f"chain length must be >= 2, got {self.L}")


def analytic_chain_occupations(p: ChainParams) -> Occupations:
    """Closed-form steady-state occupations of the end-to-end uniform chain.

    n_i = m_i / (sum_k m_k + (gamma_ext / gamma_inj) m_L) with
    m_i = 4 t^2 + (2 (L - i) gamma_deph gamma_ext + gamma_ext^2) for i < L
    and m_L = 4 t^2.  The position-dependent part of m_i is the linear
    density gradient that strong dephasing builds toward the sink.
    """
    if p.gamma_inj == 0.0:
        raise ZeroDivisionError("gamma_inj must be positive for the closed form")
    i = np.arange(1, p.L + 1)
    interior = (i < p.L).astype(float)
    m = 4.0 * p.t**2 + (
        2.0 * (p.L - i) * p.gamma_deph * p.gamma_ext + p.gamma_ext**2
    ) * interior
    n = m / (m.sum() + (p.gamma_ext / p.gamma_inj) * m[-1])
    return Occupations(values=n, vacuum=float(1.0 - n.sum()))


def analytic_chain_current(p: ChainParams) -> float:
    """Exciton current gamma_ext * n_L from the closed-form occupations."""
    occ = analytic_chain_occupations(p)
    return p.gamma_ext * float(occ.values[-1])


def brute_force_steady_state(L) -> np.ndarray:
    """Right null vector of the generator by full SVD.

    Raises NonUniqueSteadyState when the two smallest singular values are
    both below NULLSPACE_RTOL relative to the largest.
    """
    L_dense = L.toarray() if hasattr(L, "toarray") else np.asarray(L)
    d = int(round(np.sqrt(L_dense.shape[0])))
    _u, s, vh = np.linalg.svd(L_dense)
    if s[-2] < NULLSPACE_RTOL * s[0]:
        raise NonUniqueSteadyState(
            f"two smallest singular values {s[-1]:.2e}, {s[-2]:.2e} both vanish"
        )
    v = vh[-1].conj()
    rho = hermitize(v.reshape((d, d), order="F"))
    return rho / np.trace(rho).real


def classical_hopping_steady_state(spec: NetworkSpec, channels: ChannelSet) -> Occupations:
    """Steady occupations of incoherent hopping, the strong-dephasing limit of the network.

    With the coherence rho_ij slaved to the populations, the exciton hops
    from j to i at k_ij = 2 t_ij^2 Gamma_ij / (Gamma_ij^2 + Delta_ij^2),
    where Gamma_ij = gamma_deph + (gamma_ext / 2) (1[i sink] + 1[j sink])
    is the decay rate of rho_ij and Delta_ij = eps_i - eps_j, and

        0 = gamma_inj p_0 1[i source] - gamma_ext p_i 1[i sink] + sum_j k_ij (p_j - p_i),

    with p_0 = 1 - sum_i p_i.  This is exact for an end-to-end uniform
    chain at every rate; otherwise it differs from the full steady state by
    O(gamma_deph^-2).
    """
    spec = to_internal_units(spec)
    n = spec.n_sites
    eps = np.array(spec.energies)
    sink = np.zeros(n)
    sink[[s - 1 for s in spec.extract_sites]] = 1.0
    source = np.zeros(n)
    source[[s - 1 for s in spec.inject_sites]] = 1.0
    k = np.zeros((n, n))
    for i, j, t in spec.couplings:
        a, b = i - 1, j - 1
        decay = channels.gamma_deph + 0.5 * channels.gamma_ext * (sink[a] + sink[b])
        k[a, b] = k[b, a] = 2.0 * t**2 * decay / (decay**2 + (eps[a] - eps[b]) ** 2)
    # p_0 eliminated through the trace
    A = k - np.diag(k.sum(axis=1) + channels.gamma_ext * sink) - channels.gamma_inj * source[:, None]
    p = np.linalg.solve(A, -channels.gamma_inj * source)
    return Occupations(values=p, vacuum=float(1.0 - p.sum()))


def creation_op(dim: int, site: int) -> np.ndarray:
    """a_site+ = |site><0| on the vacuum + single-excitation space."""
    V = np.zeros((dim, dim), dtype=complex)
    V[site, 0] = 1.0
    return V


def annihilation_op(dim: int, site: int) -> np.ndarray:
    """a_site = |0><site|."""
    V = np.zeros((dim, dim), dtype=complex)
    V[0, site] = 1.0
    return V


def number_op(dim: int, site: int) -> np.ndarray:
    """n_site = a_site+ a_site = |site><site|."""
    V = np.zeros((dim, dim), dtype=complex)
    V[site, site] = 1.0
    return V


def dissipator(V: np.ndarray, gamma: float) -> np.ndarray:
    """Materialized superoperator gamma*(V . V+ - {V+V, .}/2), column stacking."""
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise DimensionMismatch(f"jump operator must be square, got shape {V.shape}")
    d = V.shape[0]
    VdV = V.conj().T @ V
    eye = np.eye(d)
    return gamma * (
        np.kron(V.conj(), V)
        - 0.5 * np.kron(eye, VdV)
        - 0.5 * np.kron(VdV.T, eye)
    )


def build_liouvillian(H: np.ndarray, channels: ChannelSet, spec: NetworkSpec) -> sp.csr_matrix:
    """The full generator as a d^2 x d^2 CSR matrix of `lindblad.generator_entries`, no explicit zeros."""
    import scipy.sparse as sp

    rows, cols, vals = generator_entries(H, channels, spec)
    d2 = spec.dim**2
    L = sp.coo_matrix((vals, (rows, cols)), shape=(d2, d2), dtype=complex).tocsr()
    # zero rates and degenerate on-site energies leave zeros on the diagonal
    L.eliminate_zeros()
    return L


def kron_liouvillian(H: np.ndarray, channels: ChannelSet, spec: NetworkSpec) -> np.ndarray:
    """The full generator as a dense d^2 x d^2 sum of kron products."""
    d = spec.dim
    eye = np.eye(d)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for s in sorted(spec.inject_sites):
        L += dissipator(creation_op(d, s), channels.gamma_inj)
    for s in sorted(spec.extract_sites):
        L += dissipator(annihilation_op(d, s), channels.gamma_ext)
    for s in range(1, spec.n_sites + 1):
        L += dissipator(number_op(d, s), channels.gamma_deph)
    return L


def _bordered_kron_generator(H: np.ndarray, channels: ChannelSet, spec: NetworkSpec) -> np.ndarray:
    """`kron_liouvillian` bordered by one row holding gamma_ext at the vec index of each sink population."""
    d = spec.dim
    G = np.zeros((d * d + 1, d * d + 1), dtype=complex)
    G[:-1, :-1] = kron_liouvillian(H, channels, spec)
    G[-1, [s * (d + 1) for s in spec.extract_sites]] = channels.gamma_ext
    return G


def dense_propagate(
    H: np.ndarray,
    channels: ChannelSet,
    spec: NetworkSpec,
    rho0: np.ndarray,
    t_end: float,
    n_eval: int = 201,
) -> Trajectory:
    """Trajectory on n_eval equally spaced times in [0, t_end] from the full space.

    One propagator expm(G dt) of the dense (d^2+1)-square generator G,
    `kron_liouvillian` bordered by one row holding gamma_ext at the vec
    index of each sink population, is applied sample by sample.  The
    exponential is scipy.linalg.expm, which shares no code with the
    solver's own; scipy is imported here, so the other oracles load none
    of it.
    """
    import scipy.linalg as sla

    d = spec.dim
    d2 = d * d
    G = _bordered_kron_generator(H, channels, spec)
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


def dense_pulse(
    H: np.ndarray,
    channels: ChannelSet,
    spec: NetworkSpec,
    rho0: np.ndarray,
    t_end: float,
) -> tuple[float, np.ndarray]:
    """eta(t_end) and the integral of rho(t) over [0, t_end], from the full space.

    One exponential of the (d^2+2)-square Van Loan matrix [[G, x0], [0, 0]]
    t_end (Van Loan, IEEE TAC 23, 395 (1978)), where G is the bordered
    kron generator of `dense_propagate` and x0 = (vec(rho0), 0): its
    leading block applied to x0 is the bordered state at t_end, whose
    border coordinate is eta, and its last column the exact integral of
    the bordered state.  The exponential is scipy.linalg.expm.
    """
    import scipy.linalg as sla

    d = spec.dim
    d2 = d * d
    M = np.zeros((d2 + 2, d2 + 2), dtype=complex)
    M[:d2 + 1, :d2 + 1] = _bordered_kron_generator(H, channels, spec)
    M[:d2, d2 + 1] = vec(rho0)
    E = sla.expm(M * t_end)
    eta = (E[d2, :d2] @ vec(rho0)).real
    # column stacking: a row-major (d, d) block holds rho transposed
    return float(eta), E[:d2, d2 + 1].reshape((d, d)).T
