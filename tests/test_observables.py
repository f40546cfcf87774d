import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RATE, random_density_matrix
from enaqt.errors import GridTooCoarse, NonPhysicalState
from enaqt.lindblad import ChannelSet, vec
from enaqt.network import Uniform, assemble_hamiltonian, generate_geometry
from enaqt.observables import (
    ENAQT,
    MONOTONIC,
    Occupations,
    SweepCurve,
    classify_sweep,
    delta_n,
    exciton_current,
    heat_current,
    occupations,
)
from enaqt.reference import ChainParams, analytic_chain_occupations, annihilation_op, dissipator
from enaqt.solver import steady_state


class TestOccupations:
    def test_direct_read_off(self):
        occ = occupations(np.diag([0.3, 0.7]).astype(complex))
        assert occ.vacuum == 0.3
        assert occ.values.tolist() == [0.7]

    def test_maximally_mixed(self):
        d = 6
        occ = occupations(np.eye(d, dtype=complex) / d)
        assert np.allclose(occ.values, 1 / d)
        assert occ.vacuum == pytest.approx(1 / d)

    def test_negative_population_rejected(self):
        with pytest.raises(NonPhysicalState):
            occupations(np.diag([1.2, -0.2]).astype(complex))

    def test_imaginary_diagonal_rejected(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[1, 1] += 1e-6j
        with pytest.raises(NonPhysicalState):
            occupations(rho)

    def test_nan_population_rejected(self):
        rho = np.diag([np.nan, 1.0, 0.0]).astype(complex)
        with pytest.raises(NonPhysicalState, match="non-finite") as err:
            occupations(rho)
        assert err.value.index is None
        stack = np.stack([np.diag([0.2, 0.3, 0.5]).astype(complex)] * 3)
        stack[1] = rho
        with pytest.raises(NonPhysicalState, match="non-finite") as err:
            occupations(stack)
        assert err.value.index == 1

    def test_stack_names_its_first_bad_state(self):
        stack = np.stack([np.diag([0.5, 0.5]).astype(complex)] * 4)
        stack[2, 1, 1] += 1e-6j
        stack[3] = np.diag([1.2, -0.2])
        with pytest.raises(NonPhysicalState, match="imaginary") as err:
            occupations(stack)
        assert err.value.index == 2

    def test_strong_dephasing_builds_linear_gradient(self, symmetric_chain):
        spec, H = symmetric_chain
        sol = steady_state(H, ChannelSet(RATE, RATE, 100.0), spec)
        occ = occupations(sol.rho).values
        drops = np.diff(occ)
        assert np.all(drops < 0)
        # interior steps are uniform: the density profile is a straight slope
        interior = drops[:-1]
        assert np.max(np.abs(interior - interior.mean())) < 0.05 * abs(interior.mean())


class TestStacks:
    """Each observable of a (k, d, d) stack equals its values state by state."""

    def test_stack_matches_each_state(self):
        rng = np.random.default_rng(3)
        spec = generate_geometry("ring", 5, Uniform(0.0), Uniform(1.0), inject={1}, extract={3, 4})
        H = assemble_hamiltonian(spec)
        channels = ChannelSet(1.0, 2.5, 0.0)
        stack = np.stack([random_density_matrix(rng, spec.dim) for _ in range(4)])
        occ = occupations(stack)
        assert occ.values.shape == (4, 5) and occ.vacuum.shape == (4,)
        j_p = exciton_current(stack, channels, spec)
        j_q = heat_current(stack, H, channels, spec)
        dn = delta_n(occ, spec.extract_sites)
        for k, rho in enumerate(stack):
            one = occupations(rho)
            assert np.array_equal(occ.values[k], one.values) and occ.vacuum[k] == one.vacuum
            assert j_p[k] == pytest.approx(exciton_current(rho, channels, spec), rel=1e-14)
            assert j_q[k] == pytest.approx(heat_current(rho, H, channels, spec), rel=1e-12, abs=1e-15)
            assert dn[k] == pytest.approx(delta_n(one, spec.extract_sites), rel=1e-14)

    def test_single_state_gives_floats(self):
        spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        H = assemble_hamiltonian(spec)
        occ = occupations(rho)
        values = (occ.vacuum, exciton_current(rho, ChannelSet(1, 1, 0), spec),
                  heat_current(rho, H, ChannelSet(1, 1, 0), spec), delta_n(occ, {2}))
        assert all(type(v) is float for v in values)


class TestExcitonCurrent:
    def test_empty_sink_gives_zero(self, asymmetric_chain):
        spec, _ = asymmetric_chain
        rho = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho[0, 0] = 1.0
        assert exciton_current(rho, ChannelSet(RATE, RATE, 0), spec) == 0.0

    def test_two_site_value(self):
        spec = generate_geometry("chain", 2, Uniform(0.0), Uniform(1.0), inject={1}, extract={2})
        rho = steady_state(assemble_hamiltonian(spec), ChannelSet(1, 1, 0), spec).rho
        assert exciton_current(rho, ChannelSet(1, 1, 0), spec) == pytest.approx(4 / 13, abs=1e-10)

    def test_equals_injection_flux_at_steady_state(self, asymmetric_chain):
        spec, H = asymmetric_chain
        channels = ChannelSet(RATE, RATE, 11.0)
        rho = steady_state(H, channels, spec).rho
        influx = len(spec.inject_sites) * channels.gamma_inj * rho[0, 0].real
        assert exciton_current(rho, channels, spec) == pytest.approx(influx, rel=1e-9)


def extraction_superoperator(spec):
    return sum(
        dissipator(annihilation_op(spec.dim, s), 1.0) for s in sorted(spec.extract_sites)
    )


class TestHeatCurrent:
    def test_diagonal_state_single_sink(self, asymmetric_chain):
        spec, H = asymmetric_chain
        rho = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho[5, 5] = 0.4
        rho[0, 0] = 0.6
        channels = ChannelSet(RATE, RATE, 0)
        expected = RATE * H[5, 5].real * 0.4
        assert heat_current(rho, H, channels, spec) == pytest.approx(expected, rel=1e-12)

    def test_zero_energy_zero_coherence(self):
        spec = generate_geometry("chain", 3, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        H = assemble_hamiltonian(spec)
        rho = np.diag([0.2, 0.3, 0.3, 0.2]).astype(complex)
        assert heat_current(rho, H, ChannelSet(1, 1, 0), spec) == 0.0

    @pytest.mark.parametrize("geometry", ["chain", "ring"])
    def test_matches_trace_formula_on_random_states(self, geometry, symmetric_chain):
        if geometry == "chain":
            spec, H = symmetric_chain
        else:
            spec = generate_geometry(
                "ring", 6, Uniform(100.0), Uniform(7.0), inject={1}, extract={3, 4}
            )
            H = assemble_hamiltonian(spec)
        channels = ChannelSet(RATE, RATE, 2.0)
        L_ext = extraction_superoperator(spec) * channels.gamma_ext
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density_matrix(rng, spec.dim)
            drho = (L_ext @ vec(rho)).reshape((spec.dim, spec.dim), order="F")
            outflow = -np.trace(H @ drho).real
            closed = heat_current(rho, H, channels, spec)
            assert closed == pytest.approx(outflow, rel=1e-12)


class TestDeltaN:
    def test_all_equal_gives_one(self):
        occ = Occupations(values=np.full(5, 0.17), vacuum=0.15)
        assert delta_n(occ, {3}) == pytest.approx(1.0, abs=1e-15)

    def test_single_spread_term(self):
        occ = Occupations(values=np.array([0.5, 0.1]), vacuum=0.4)
        assert delta_n(occ, {2}) == pytest.approx(0.6, abs=1e-15)

    def test_multi_sink_uses_mean(self):
        occ = Occupations(values=np.array([0.2, 0.4, 0.0]), vacuum=0.4)
        # n_ext = mean(n_2, n_3) = 0.2
        expected = 1.0 - np.sqrt(0.0 + 0.2**2 + 0.2**2)
        assert delta_n(occ, {2, 3}) == pytest.approx(expected, abs=1e-15)

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 32), min_size=2, max_size=8), st.data())
    def test_never_exceeds_one(self, steps, data):
        # 1/32 lattice keeps squared differences representable, so the
        # "equal to the sink mean" boundary is exact in float arithmetic
        values = np.array(steps) / 32.0
        sink = data.draw(st.integers(1, len(values)))
        occ = Occupations(values=values, vacuum=0.0)
        dn = delta_n(occ, {sink})
        assert dn <= 1.0 + 1e-12
        if np.any(values != values[sink - 1]):
            assert dn < 1.0
        else:
            assert dn == pytest.approx(1.0, abs=1e-15)


def make_curve(jp, dn=None):
    k = len(jp)
    return SweepCurve(
        gamma_grid=np.logspace(-2, 2, k),
        j_p=np.array(jp, dtype=float),
        j_q=np.zeros(k),
        delta_n=np.array(dn if dn is not None else jp, dtype=float),
        vacuum=np.zeros(k),
        occupations=np.zeros((k, 3)),
    )


class TestClassify:
    def test_strictly_decreasing_is_monotonic(self):
        cls = classify_sweep(make_curve([5.0, 4.0, 3.0, 2.0, 1.0]))
        assert cls.kind == MONOTONIC
        assert cls.gamma_star is None

    def test_interior_maximum_is_enaqt(self):
        curve = make_curve([1.0, 2.0, 5.0, 2.0, 1.0], dn=[0.1, 0.2, 0.8, 0.3, 0.1])
        cls = classify_sweep(curve)
        assert cls.kind == ENAQT
        assert cls.gamma_star == pytest.approx(curve.gamma_grid[2])
        assert cls.delta_n_gamma_star == pytest.approx(curve.gamma_grid[2])
        assert cls.j_p_argmax == 2 and cls.delta_n_argmax == 2

    def test_prominence_below_threshold_is_monotonic(self):
        cls = classify_sweep(make_curve([1.0, 1.0004, 1.0, 0.9, 0.8]))
        assert cls.kind == MONOTONIC

    def test_grid_too_coarse(self):
        with pytest.raises(GridTooCoarse):
            classify_sweep(make_curve([3.0, 2.0, 1.0]))

    @settings(max_examples=30)
    @given(scale=st.floats(1e-6, 1e6))
    def test_invariant_under_rescaling(self, scale):
        base = [1.0, 3.0, 6.0, 3.0, 1.5, 1.0]
        a = classify_sweep(make_curve(base))
        b = classify_sweep(make_curve([scale * x for x in base]))
        assert (a.kind, a.j_p_argmax, a.gamma_star) == (b.kind, b.j_p_argmax, b.gamma_star)

    def test_endpoint_maximum_is_not_enaqt(self):
        cls = classify_sweep(make_curve([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert cls.kind == MONOTONIC
        assert cls.j_p_argmax == 4


class TestCurveInvariants:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepCurve(
                gamma_grid=[1.0, 1.0, 2.0, 3.0, 4.0],
                j_p=np.ones(5), j_q=np.ones(5), delta_n=np.ones(5),
                vacuum=np.ones(5), occupations=np.ones((5, 2)),
            )

    @pytest.mark.parametrize("name,value,message", [
        ("j_p", np.ones(3), "j_p needs one entry per grid point"),
        ("j_q", np.ones(6), "j_q needs one entry per grid point"),
        ("delta_n", np.ones((5, 1)), "delta_n needs one entry per grid point"),
        ("vacuum", np.ones(4), "vacuum needs one entry per grid point"),
        ("occupations", np.ones((2, 2)), "occupations needs one row per grid point"),
        ("occupations", np.ones(5), "occupations needs one row per grid point"),
        ("gamma_grid", np.ones((5, 1)), "gamma_grid must be one-dimensional"),
    ])
    def test_columns_need_one_entry_per_point(self, name, value, message):
        columns = dict(gamma_grid=[1.0, 2.0, 3.0, 4.0, 5.0], j_p=np.ones(5), j_q=np.ones(5),
                       delta_n=np.ones(5), vacuum=np.ones(5), occupations=np.ones((5, 2)))
        with pytest.raises(ValueError, match=message):
            SweepCurve(**(columns | {name: value}))

    def test_negative_current_rejected(self):
        with pytest.raises(ValueError):
            SweepCurve(
                gamma_grid=[1.0, 2.0, 3.0, 4.0, 5.0],
                j_p=[-1e-6, 1, 1, 1, 1], j_q=np.ones(5), delta_n=np.ones(5),
                vacuum=np.ones(5), occupations=np.ones((5, 2)),
            )

    def test_nan_current_rejected(self):
        # a NaN would otherwise be the argmax that classify_sweep reads
        with pytest.raises(ValueError, match="non-finite"):
            SweepCurve(
                gamma_grid=[1.0, 2.0, 3.0, 4.0, 5.0],
                j_p=[np.nan, 1, 2, 1, 0.5], j_q=np.ones(5), delta_n=np.ones(5),
                vacuum=np.ones(5), occupations=np.ones((5, 2)),
            )

    @pytest.mark.parametrize("method,residual", [
        (("linear_solve",) * 5, None),
        (("linear_solve",) * 4, np.zeros(4)),
        (("linear_solve",) * 5, np.zeros(6)),
    ])
    def test_diagnostics_need_one_entry_per_point(self, method, residual):
        with pytest.raises(ValueError):
            SweepCurve(
                gamma_grid=[1.0, 2.0, 3.0, 4.0, 5.0],
                j_p=np.ones(5), j_q=np.ones(5), delta_n=np.ones(5),
                vacuum=np.ones(5), occupations=np.ones((5, 2)),
                method=method, residual=residual, rcond=np.ones(5), min_eigenvalue=np.ones(5),
            )

    @pytest.mark.parametrize("extra", [
        {"rcond": np.ones(5)},                               # without a method
        {"method": ("eigenbasis",) * 5, "residual": np.zeros(5), "rcond": np.ones(4)},
        {"method": ("eigenbasis",) * 5, "residual": np.zeros(5), "min_eigenvalue": np.ones(6)},
    ])
    def test_rcond_and_min_eigenvalue_need_one_entry_per_point(self, extra):
        if "method" in extra:
            extra = {"rcond": np.ones(5), "min_eigenvalue": np.ones(5)} | extra
        with pytest.raises(ValueError, match="one entry per grid point|recorded together"):
            SweepCurve(
                gamma_grid=[1.0, 2.0, 3.0, 4.0, 5.0],
                j_p=np.ones(5), j_q=np.ones(5), delta_n=np.ones(5),
                vacuum=np.ones(5), occupations=np.ones((5, 2)), **extra,
            )


class TestAnalyticAsymptotics:
    def test_sink_occupation_decreases_with_dephasing(self):
        # the closed form puts all dephasing dependence in the denominator,
        # so the sink occupation (and hence the current) falls monotonically
        rng = np.random.default_rng(4)
        grid = np.logspace(-2, 3, 40)
        for _ in range(8):
            L = int(rng.integers(2, 8))
            t, gi, ge = rng.uniform(0.2, 30.0, size=3)
            occ_L = [
                analytic_chain_occupations(ChainParams(L, t, gi, ge, gd)).values[-1]
                for gd in grid
            ]
            assert np.all(np.diff(occ_L) < 0)
