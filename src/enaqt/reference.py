"""Independent reference solutions for validating the main pipeline.

Two routes are provided: the closed-form occupations of a uniform chain
driven end to end, and a brute-force steady state obtained from a full
singular value decomposition of the materialized generator.  Neither path
shares factorization code with the production solver (LU / eig), so
agreement between all three is evidence rather than tautology.

`apply_liouvillian` evaluates the generator's action on a matrix from the
closed forms of the jump operators, without materializing the
superoperator; the tests check the materialized generator against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonUniqueSteadyState
from .lindblad import ChannelSet, hermitize
from .network import NetworkSpec
from .observables import Occupations

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


def apply_liouvillian(
    H: np.ndarray,
    channels: ChannelSet,
    spec: NetworkSpec,
    rho: np.ndarray,
) -> np.ndarray:
    """Action of the generator on rho without materializing the superoperator.

    The channel terms use the closed forms of the jump operators:
    injection moves vacuum population to the source sites and damps the
    vacuum row/column, extraction does the reverse, and dephasing removes
    inter-site coherences at gamma_deph (site-vacuum coherences at half
    that rate) while leaving every population untouched.
    """
    d = spec.dim
    if H.shape != (d, d) or rho.shape != (d, d):
        raise DimensionMismatch(
            f"expected {d}x{d} operators, got H {H.shape} and rho {rho.shape}"
        )
    drho = -1j * (H @ rho - rho @ H)

    g = channels.gamma_inj
    if g:
        for s in sorted(spec.inject_sites):
            term = np.zeros_like(rho)
            term[s, s] = rho[0, 0]
            term[0, :] -= 0.5 * rho[0, :]
            term[:, 0] -= 0.5 * rho[:, 0]
            drho += g * term
    g = channels.gamma_ext
    if g:
        for s in sorted(spec.extract_sites):
            term = np.zeros_like(rho)
            term[0, 0] = rho[s, s]
            term[s, :] -= 0.5 * rho[s, :]
            term[:, s] -= 0.5 * rho[:, s]
            drho += g * term
    g = channels.gamma_deph
    if g:
        damp = rho.copy()
        damp[0, :] *= 0.5
        damp[:, 0] *= 0.5
        np.fill_diagonal(damp, 0.0)
        drho -= g * damp
    return drho
