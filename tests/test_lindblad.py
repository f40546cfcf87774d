import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density_matrix, random_hermitian
from enaqt.errors import DimensionMismatch, NonPhysicalState
from enaqt.lindblad import ChannelSet, apply_liouvillian, check_density_matrix, vec
from enaqt.network import RandomUniform, Uniform, assemble_hamiltonian, generate_geometry, to_internal_units
from enaqt.presets import PRESET_NAMES, preset_network
from enaqt.reference import annihilation_op, build_liouvillian, dissipator, kron_liouvillian, number_op
from enaqt.solver import _sector


def trace_functional(d):
    tr = np.zeros(d * d, dtype=complex)
    tr[:: d + 1] = 1.0
    return tr


class TestDissipator:
    def test_zero_rate_is_zero(self):
        V = annihilation_op(3, 2)
        assert np.array_equal(dissipator(V, 0.0), np.zeros((9, 9)))

    def test_dephasing_fixes_diagonal_states(self):
        d = 4
        D = sum(dissipator(number_op(d, s), 2.0) for s in range(1, d))
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.max(np.abs(D @ vec(rho))) < 1e-15

    def test_extraction_on_occupied_single_site(self):
        # hand evaluation on the 2x2 case: population moves to the vacuum
        gamma = 1.7
        V = annihilation_op(2, 1)
        rho = np.diag([0.0, 1.0]).astype(complex)
        drho = (dissipator(V, gamma) @ vec(rho)).reshape((2, 2), order="F")
        assert drho[0, 0] == pytest.approx(gamma, abs=1e-15)
        assert drho[1, 1] == pytest.approx(-gamma, abs=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            dissipator(np.zeros((2, 3)), 1.0)


@pytest.fixture(scope="module")
def chain2():
    spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
    return spec


class TestBuild:
    """The CSR matrix of the closed-form entries, the oracle `reference.build_liouvillian`."""

    def test_closed_system_spectrum_is_imaginary(self, symmetric_chain):
        spec, H = symmetric_chain
        L = build_liouvillian(H, ChannelSet(0, 0, 0), spec)
        ev = np.linalg.eigvals(L.toarray())
        assert np.max(np.abs(ev.real)) < 1e-10

    @pytest.mark.parametrize("gd", [0.0, 5.0, 1000.0])
    def test_trace_preservation_on_every_basis_matrix(self, symmetric_chain, gd):
        spec, H = symmetric_chain
        L = build_liouvillian(H, ChannelSet(5.0, 5.0, gd), spec)
        residual = trace_functional(spec.dim) @ L
        assert np.max(np.abs(residual)) < 1e-12

    def test_trace_preservation_grid(self):
        spec = generate_geometry("grid", (4, 4), Uniform(2316.9), Uniform(11.3),
                                 inject={1}, extract={16})
        from enaqt.network import assemble_hamiltonian
        L = build_liouvillian(assemble_hamiltonian(spec), ChannelSet(5, 5, 100), spec)
        assert np.max(np.abs(trace_functional(spec.dim) @ L)) < 1e-12

    def test_chain2_steady_occupations_match_null_space(self, chain2):
        from enaqt.network import assemble_hamiltonian
        H = assemble_hamiltonian(chain2)
        L = build_liouvillian(H, ChannelSet(1.0, 1.0, 0.0), chain2)
        ns = sla.null_space(L.toarray())
        assert ns.shape[1] == 1
        rho = ns[:, 0].reshape((3, 3), order="F")
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
        occ = np.real(np.diag(rho))
        assert occ[1] == pytest.approx(5 / 13, abs=1e-12)
        assert occ[2] == pytest.approx(4 / 13, abs=1e-12)

    def test_additivity_in_dephasing_rate(self, symmetric_chain):
        spec, H = symmetric_chain
        def L(gd):
            return build_liouvillian(H, ChannelSet(5, 5, gd), spec)
        lhs = L(0.3) + L(0.7) - L(0.0)
        scale = np.max(np.abs(lhs))
        assert np.max(np.abs(lhs - L(1.0))) < 1e-12 * scale

    def test_contractive_spectrum(self, asymmetric_chain):
        spec, H = asymmetric_chain
        for gd in (0.0, 5.0, 100.0):
            ev = np.linalg.eigvals(build_liouvillian(H, ChannelSet(5, 5, gd), spec).toarray())
            assert ev.real.max() <= 1e-10

    def test_dimension_mismatch(self, chain2):
        with pytest.raises(DimensionMismatch):
            build_liouvillian(np.zeros((5, 5)), ChannelSet(1, 1, 1), chain2)

    @pytest.mark.parametrize("kind,params", [("chain", 64), ("grid", (5, 5)), ("full_graph", 16)])
    def test_stored_entries_bounded_by_closed_forms(self, kind, params):
        # O(nnz) memory: commutator, one diagonal and the transfer entries only
        spec = generate_geometry(kind, params, Uniform(3.0), Uniform(1.0),
                                 inject={1}, extract={2, 3})
        H = assemble_hamiltonian(spec)
        L = build_liouvillian(H, ChannelSet(5, 5, 2), spec)
        d = spec.dim
        bound = 2 * np.count_nonzero(H) * d + d * d + len(spec.inject_sites) + len(spec.extract_sites)
        assert L.nnz <= bound


    @pytest.mark.parametrize("channels", [
        ChannelSet(5.0, 5.0, 0.0), ChannelSet(0.0, 5.0, 2.0), ChannelSet(0.0, 0.0, 0.0),
    ])
    def test_stores_no_zeros(self, channels):
        # zero rates and equal on-site energies must not leave stored zeros
        spec = generate_geometry("chain", 40, Uniform(3.0), Uniform(1.0), inject={1}, extract={40})
        L = build_liouvillian(assemble_hamiltonian(spec), channels, spec)
        assert np.count_nonzero(L.data == 0) == 0


# rate sets with every channel on, and with each channel (or all) switched off
ORACLE_RATES = [
    ChannelSet(5.0, 5.0, 3.7),
    ChannelSet(5.0, 5.0, 1e5),
    ChannelSet(0.0, 5.0, 2.0),
    ChannelSet(5.0, 0.0, 2.0),
    ChannelSet(5.0, 5.0, 0.0),
    ChannelSet(0.0, 0.0, 0.0),
]


def assert_sector_is_closed(K, sec):
    """No entry links the sector to a vacuum-site coherence, and Tp K T is real.

    Tp K T is real when K maps each sector basis state, a Hermitian
    matrix, to a Hermitian one.
    """
    assert not np.any(K[np.ix_(sec.vac, ~sec.vac)])
    assert not np.any(K[np.ix_(~sec.vac, sec.vac)])
    d, m = sec.d, sec.size
    basis = sec.state(np.eye(m)).transpose(0, 2, 1).reshape(m, d * d)  # vec of each, as a row
    drho = (basis @ K.T).reshape(m, d, d).transpose(0, 2, 1)
    assert np.max(np.abs(drho - drho.conj().transpose(0, 2, 1))) <= 1e-13 * np.max(np.abs(K))


def assert_matches_kron_oracle(H, spec):
    """The assembled generator and its closed-form action, on a random (3, d, d) stack, against K."""
    d = spec.dim
    sec = _sector(d)
    rng = np.random.default_rng(0)
    rho = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    for channels in ORACLE_RATES:
        L = build_liouvillian(H, channels, spec).toarray()
        K = kron_liouvillian(H, channels, spec)
        assert np.max(np.abs(L - K)) <= 1e-13 * np.max(np.abs(K)), channels
        assert_sector_is_closed(K, sec)
        drho = apply_liouvillian(H, channels, spec, rho)
        for k in range(rho.shape[0]):
            want = (K @ vec(rho[k])).reshape((d, d), order="F")
            scale = np.max(np.abs(K)) * np.max(np.abs(rho[k]))
            assert np.max(np.abs(drho[k] - want)) <= 1e-13 * scale, channels


class TestKronOracle:
    @pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "fig3h"])
    def test_matches_on_every_preset(self, name):
        # includes fig3g, a full graph with two sinks
        spec = to_internal_units(preset_network(name)[0])
        assert_matches_kron_oracle(assemble_hamiltonian(spec), spec)

    def test_matches_with_two_sources_and_two_sinks(self):
        spec = generate_geometry("ring", 6, RandomUniform(0.0, 50.0), RandomUniform(1.0, 10.0),
                                 inject={1, 2}, extract={4, 5}, seed=3)
        assert_matches_kron_oracle(assemble_hamiltonian(spec), spec)


class TestChargeSector:
    """The real sector the steady-state solver works in.

    That the kron oracle keeps it closed on every preset and rate set is
    checked by TestKronOracle (assert_sector_is_closed).
    """

    def test_sector_maps_invert_each_other(self):
        sec = _sector(5)
        assert sec.size == 17  # n^2 + 1 real coordinates for n = 4
        x = np.random.default_rng(0).normal(size=(3, 17))
        assert np.array_equal(sec.coordinates(sec.state(x)), x)
        # Tp T = I: the projection of the identity on the sector's vec indices
        k = np.flatnonzero(~sec.vac)
        rows, cols, vals = sec.project(k, k, np.ones(k.size))
        A = np.zeros((17, 17))
        np.add.at(A, (rows, cols), vals)
        assert np.array_equal(A, np.eye(17))
        # T sends every population to one vec index, every coherence
        # coordinate to two, and nothing to a vacuum-site coherence
        assert sorted(set(np.bincount(sec.slots[sec.t != 0]))) == [1, 2]
        assert not np.any(sec.t[sec.vac]) and not np.any(sec.tp[sec.vac])
        assert sec.pops.size == 5 and sec.pops[-1] == 16

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 7), stack=st.lists(st.integers(1, 3), max_size=2), seed=st.integers(0, 2**32 - 1))
    def test_maps_match_the_coordinates_written_out_pair_by_pair(self, d, stack, seed):
        sec = _sector(d)
        # the sector coordinates are the vec indices outside the vacuum-site
        # coherences, in vec order (column by column)
        order = [(r, c) for c in range(d) for r in range(d) if (r == 0) == (c == 0)]
        assert sec.size == len(order) == (d - 1) ** 2 + 1
        shape = tuple(stack)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape + (sec.size,))
        rho = rng.normal(size=shape + (d, d)) + 1j * rng.normal(size=shape + (d, d))
        want_rho = np.zeros(shape + (d, d), dtype=complex)
        want_x = np.zeros(shape + (sec.size,))
        for p in range(d):
            want_rho[..., p, p] = x[..., order.index((p, p))]
            want_x[..., order.index((p, p))] = rho[..., p, p].real
        for i in range(1, d):
            for j in range(i + 1, d):
                re, im = order.index((i, j)), order.index((j, i))
                want_rho[..., i, j] = x[..., re] + 1j * x[..., im]
                want_rho[..., j, i] = x[..., re] - 1j * x[..., im]
                want_x[..., re] = 0.5 * (rho[..., i, j].real + rho[..., j, i].real)
                want_x[..., im] = 0.5 * (rho[..., i, j].imag - rho[..., j, i].imag)
        got = sec.state(x)
        assert got.shape == want_rho.shape and got.flags.c_contiguous
        assert np.array_equal(got, want_rho)
        assert np.array_equal(sec.coordinates(rho), want_x)


class TestApply:
    def test_matches_materialized_on_random_states(self, asymmetric_chain):
        spec, H = asymmetric_chain
        channels = ChannelSet(5.0, 5.0, 7.0)
        L = build_liouvillian(H, channels, spec)
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_hermitian(rng, spec.dim)
            direct = apply_liouvillian(H, channels, spec, rho)
            mat = (L @ vec(rho)).reshape((spec.dim, spec.dim), order="F")
            scale = np.max(np.abs(mat))
            assert np.max(np.abs(direct - mat)) < 1e-12 * scale

    @pytest.mark.parametrize("kind,params,sinks", [
        ("ring", 6, {3, 4}),
        ("pyramid", None, {5}),
        ("full_graph", 5, {2, 4}),
    ])
    def test_matches_materialized_across_geometries(self, kind, params, sinks):
        from enaqt.network import RandomUniform, assemble_hamiltonian
        spec = generate_geometry(
            kind, params, RandomUniform(0.0, 50.0), RandomUniform(1.0, 10.0),
            inject={1}, extract=sinks, seed=6,
        )
        H = assemble_hamiltonian(spec)
        channels = ChannelSet(1.5, 2.5, 3.5)
        L = build_liouvillian(H, channels, spec)
        rng = np.random.default_rng(8)
        rho = random_hermitian(rng, spec.dim)
        direct = apply_liouvillian(H, channels, spec, rho)
        mat = (L @ vec(rho)).reshape((spec.dim, spec.dim), order="F")
        assert np.max(np.abs(direct - mat)) < 1e-12 * np.max(np.abs(mat))

    def test_steady_state_is_annihilated(self, asymmetric_chain):
        from enaqt.solver import steady_state
        spec, H = asymmetric_chain
        channels = ChannelSet(5.0, 5.0, 3.0)
        sol = steady_state(H, channels, spec)
        assert np.max(np.abs(apply_liouvillian(H, channels, spec, sol.rho))) < 1e-9

    def test_pure_dephasing_decay_rates(self, symmetric_chain):
        spec, H0 = symmetric_chain
        channels = ChannelSet(0.0, 0.0, 4.0)
        H = np.zeros_like(H0)
        d = spec.dim
        # site-site coherence decays at gamma_deph
        rho = np.zeros((d, d), dtype=complex)
        rho[2, 5] = 1.0
        drho = apply_liouvillian(H, channels, spec, rho)
        assert drho[2, 5] == pytest.approx(-4.0, abs=1e-15)
        # site-vacuum coherence decays at gamma_deph / 2
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 3] = 1.0
        drho = apply_liouvillian(H, channels, spec, rho)
        assert drho[0, 3] == pytest.approx(-2.0, abs=1e-15)
        # vacuum population is untouched by dephasing
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
        assert np.max(np.abs(apply_liouvillian(H, channels, spec, rho))) == 0.0

    def test_hermiticity_preservation(self, asymmetric_chain):
        spec, H = asymmetric_chain
        channels = ChannelSet(2.0, 3.0, 4.0)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(spec.dim, spec.dim)) + 1j * rng.normal(size=(spec.dim, spec.dim))
        a = apply_liouvillian(H, channels, spec, X.conj().T)
        b = apply_liouvillian(H, channels, spec, X).conj().T
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))

    def test_dimension_mismatch(self, chain2):
        with pytest.raises(DimensionMismatch):
            apply_liouvillian(np.zeros((3, 3)), ChannelSet(), chain2, np.zeros((4, 4)))

    @pytest.mark.parametrize("shape", [(2, 4, 4), (3,), (1, 2, 3, 3)])
    def test_stack_shape_mismatch(self, chain2, shape):
        with pytest.raises(DimensionMismatch):
            apply_liouvillian(np.zeros((3, 3)), ChannelSet(), chain2, np.zeros(shape))

    def test_stack_acts_state_by_state(self, asymmetric_chain):
        spec, H = asymmetric_chain
        channels = ChannelSet(2.0, 3.0, 4.0)
        rng = np.random.default_rng(5)
        stack = np.array([random_hermitian(rng, spec.dim) for _ in range(8)])
        # the right product runs as one GEMM over the flattened stack: each
        # state's rows still meet the same entries in the same order
        for states in (stack, stack[:1], stack[::2]):
            drho = apply_liouvillian(H, channels, spec, states)
            assert drho.shape == states.shape
            for state, action in zip(states, drho):
                np.testing.assert_array_equal(action, apply_liouvillian(H, channels, spec, state))


class TestChannelSet:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ChannelSet(gamma_inj=-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ChannelSet(gamma_deph=float("nan"))

    @pytest.mark.parametrize("value", [True, False, "5"])
    @pytest.mark.parametrize("name", ["gamma_inj", "gamma_ext", "gamma_deph"])
    def test_rejects_bools_and_strings(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            ChannelSet(**{name: value})

    def test_takes_python_and_numpy_integers(self):
        channels = ChannelSet(5, np.int64(5), np.float64(2.0))
        assert (channels.gamma_inj, channels.gamma_ext, channels.gamma_deph) == (5, 5, 2.0)


class TestDensityMatrixChecks:
    def test_valid_state_passes(self):
        rho = random_density_matrix(np.random.default_rng(0), 5)
        # the positivity check's smallest eigenvalue is returned for the record
        assert check_density_matrix(rho) == pytest.approx(np.linalg.eigvalsh(rho).min(), abs=1e-15)

    def test_non_hermitian_rejected(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = 0.1
        with pytest.raises(NonPhysicalState):
            check_density_matrix(rho)

    def test_bad_trace_rejected(self):
        with pytest.raises(NonPhysicalState):
            check_density_matrix(np.diag([0.6, 0.6]).astype(complex))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NonPhysicalState):
            check_density_matrix(np.diag([1.2, -0.2]).astype(complex))

    @pytest.mark.parametrize("rho", [
        np.diag([np.nan, 0.5, 0.5]).astype(complex),
        np.full((3, 3), np.nan, dtype=complex),
        np.diag([np.inf, 0.5, 0.5]).astype(complex),
    ], ids=["nan-diagonal", "all-nan", "inf-diagonal"])
    def test_non_finite_state_rejected(self, rho):
        with pytest.raises(NonPhysicalState, match="non-finite") as err:
            check_density_matrix(rho)
        assert err.value.index is None
        stack = np.stack([np.eye(3, dtype=complex) / 3] * 4)
        stack[2] = rho
        with pytest.raises(NonPhysicalState, match="non-finite") as err:
            check_density_matrix(stack)
        assert err.value.index == 2

    def test_stack_returns_each_smallest_eigenvalue(self):
        rng = np.random.default_rng(1)
        stack = np.stack([random_density_matrix(rng, 6) for _ in range(5)])
        lo = check_density_matrix(stack)
        assert lo.shape == (5,)
        for k, rho in enumerate(stack):
            assert lo[k] == pytest.approx(check_density_matrix(rho), abs=1e-15)

    @pytest.mark.parametrize("defect,match", [
        (np.array([[0, 0.1], [0, 0]]), "hermiticity"),
        (np.diag([0.1, 0.0]), "trace"),
        (np.diag([0.6, -0.6]), "negative eigenvalue"),
    ])
    def test_stack_names_its_first_bad_state(self, defect, match):
        stack = np.stack([np.diag([0.5, 0.5]).astype(complex)] * 5)
        stack[3] += defect
        stack[4] += defect
        with pytest.raises(NonPhysicalState, match=match) as err:
            check_density_matrix(stack)
        assert err.value.index == 3
