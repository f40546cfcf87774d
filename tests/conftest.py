import numpy as np
import pytest

from enaqt.network import (
    Uniform,
    Unit,
    assemble_hamiltonian,
    generate_geometry,
    to_internal_units,
)

PAPER_ENERGY_CM = 1.23e4
PAPER_COUPLING_CM = 60.0
RATE = 5.0  # ps^-1, benchmark injection/extraction rate


def paper_chain(extract_site: int = 7):
    """7-site uniform chain with the benchmark parameters, internal units."""
    spec = generate_geometry(
        "chain",
        7,
        Uniform(PAPER_ENERGY_CM),
        Uniform(PAPER_COUPLING_CM),
        inject={1},
        extract={extract_site},
        unit=Unit.WAVENUMBER,
    )
    return to_internal_units(spec)


@pytest.fixture(scope="session")
def symmetric_chain():
    spec = paper_chain(7)
    return spec, assemble_hamiltonian(spec)


@pytest.fixture(scope="session")
def asymmetric_chain():
    spec = paper_chain(5)
    return spec, assemble_hamiltonian(spec)


def random_density_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random full-rank valid density matrix (Wishart normalized)."""
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (A + A.conj().T)


def spectral_gap(L: np.ndarray) -> float:
    """Slowest nonzero decay rate: min |Re lambda| over the spectrum of L.

    Exactly one eigenvalue (the steady state) may have a real part that
    vanishes to rounding; it is left out.
    """
    evals = np.linalg.eigvals(L)
    rates = np.abs(evals.real)
    near_zero = rates < 1e-9 * np.max(np.abs(evals))
    assert np.count_nonzero(near_zero) == 1, "steady state is not unique"
    return float(np.min(rates[~near_zero]))
