import numpy as np
import pytest
from hypothesis import strategies as st

from enaqt.network import (
    NetworkSpec,
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


def slow_refinement_network(t12: float, t78: float, t89: float) -> NetworkSpec:
    """A 9-site network, found by the random-network property test, on which
    the eigenbasis refinement shrinks its corrections only 270-fold per pass
    at gamma_deph = 1e-3 (injection 1, extraction 0.1 ps^-1)."""
    energies = (599.1015625, 179.73046875, 0.0, 876.18603515625, 718.921875, 0.0, 958.5625, 479.28125, 0.0)
    couplings = ((1, 2, t12), (1, 4, -0.1), (2, 3, -0.1), (2, 6, -0.1), (3, 5, -0.1), (5, 7, -0.1),
                 (7, 8, t78), (8, 9, t89))
    return NetworkSpec(9, energies, couplings, {1, 2, 3, 4, 5}, {6})


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


@st.composite
def random_networks(draw):
    """A connected network of 2-10 sites and its injection and extraction rates (ps^-1).

    On-site energies spread over 0-1000, couplings of either sign with
    magnitudes 0.1-100 (one shared value in some draws), one or more
    sources and sinks, and rates 0.1-100.
    """
    n = draw(st.integers(2, 10))
    spread = draw(st.floats(0.0, 1000.0))
    energies = [spread * draw(st.floats(0.0, 1.0)) for _ in range(n)]
    # a random spanning tree keeps the network connected; extra edges close loops
    edges = {(draw(st.integers(1, j - 1)), j) for j in range(2, n + 1)}
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    magnitude = st.floats(0.1, 100.0)
    shared = draw(st.none() | magnitude)
    couplings = [(i, j, draw(st.sampled_from([-1.0, 1.0])) * (shared or draw(magnitude)))
                 for i, j in sorted(edges)]
    order = draw(st.permutations(range(1, n + 1)))
    n_src = draw(st.integers(1, n - 1))
    n_snk = draw(st.integers(1, n - n_src))
    spec = NetworkSpec(n, energies, couplings, order[:n_src], order[n_src:n_src + n_snk])
    rate = st.floats(0.1, 100.0)
    return spec, draw(rate), draw(rate)
