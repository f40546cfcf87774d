import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enaqt.errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidSize,
    NetworkError,
    NonFiniteValue,
    OverlappingSourceSink,
    SelfCoupling,
    UnknownUnit,
)
from enaqt.network import (
    WAVENUMBER_TO_ANGULAR_PS,
    NetworkSpec,
    RandomUniform,
    Uniform,
    Unit,
    assemble_hamiltonian,
    convert_units,
    generate_geometry,
    load_network,
    network_from_dict,
    save_network,
    to_internal_units,
    validate_network,
)
from enaqt.presets import PRESET_NAMES, preset_network


def two_site(**kw):
    base = dict(
        n_sites=2,
        energies=(0.0, 0.0),
        couplings=((1, 2, 1.0),),
        inject_sites={1},
        extract_sites={2},
    )
    base.update(kw)
    return NetworkSpec(**base)


class TestValidation:
    def test_minimal_legal_spec(self):
        spec = two_site()
        assert validate_network(spec) is spec

    def test_self_coupling(self):
        with pytest.raises(SelfCoupling):
            two_site(couplings=((1, 1, 1.0),))

    def test_inject_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            two_site(inject_sites={3})

    def test_edge_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            two_site(couplings=((1, 5, 1.0),))

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            two_site(couplings=((1, 2, 1.0), (1, 2, 2.0)))

    def test_overlapping_source_sink(self):
        with pytest.raises(OverlappingSourceSink):
            two_site(extract_sites={1, 2})

    def test_empty_extract(self):
        with pytest.raises(IndexOutOfRange):
            two_site(extract_sites=set())

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_energy_names_its_site(self, value):
        with pytest.raises(NonFiniteValue, match="site 2"):
            two_site(energies=(0.0, value))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_coupling_names_its_edge(self, value):
        with pytest.raises(NonFiniteValue, match=r"edge \(1, 2\)"):
            two_site(couplings=((1, 2, value),))

    @pytest.mark.parametrize("fields, error", [
        (dict(energies=(0.0,)), InvalidSize),
        (dict(inject_sites={1}, extract_sites={1}), OverlappingSourceSink),
        (dict(extract_sites=()), IndexOutOfRange),
        (dict(couplings=((1, 3, 1.0),)), IndexOutOfRange),
        (dict(energies=(0.0, np.nan)), NonFiniteValue),
        (dict(n_sites=1, energies=(2.0,), couplings=(), extract_sites=()), IndexOutOfRange),
    ], ids=["one_energy", "source_is_sink", "no_sink", "edge_past_the_sites", "nan_energy", "lone_site"])
    def test_broken_invariant_raises_at_construction(self, fields, error):
        with pytest.raises(error):
            two_site(**fields)

    def test_unsorted_edge_rejected(self):
        with pytest.raises(IndexOutOfRange):
            two_site(couplings=((2, 1, 1.0),))

    def test_needs_a_site(self):
        with pytest.raises(InvalidSize, match="n_sites must be a positive integer, got 0"):
            NetworkSpec(0, (), (), {1}, {2})

    def test_energy_count_must_match_the_sites(self):
        with pytest.raises(InvalidSize, match="expected 2 energies, got 3"):
            two_site(energies=(0.0, 1.0, 2.0))

    @pytest.mark.parametrize("field, value, match", [
        # int() would read these as the edges (1, 2), (2, 3) and sink 2
        ("couplings", ((1.9, 2, 1.0), (2, 3, 1.0)), "couplings[0] must be an integer site index, got 1.9"),
        ("couplings", ((1, 2, 1.0), (2, 3.2, 1.0)), "couplings[1] must be an integer site index, got 3.2"),
        ("couplings", ((1, "2", 1.0),), "couplings[0] must be an integer site index, got '2'"),
        ("couplings", ((True, 2, 1.0),), "couplings[0] must be an integer site index, got True"),
        ("extract_sites", {2.7}, "an entry of extract_sites must be an integer site index, got 2.7"),
        ("extract_sites", {3.0}, "an entry of extract_sites must be an integer site index, got 3.0"),
        ("inject_sites", {True}, "an entry of inject_sites must be an integer site index, got True"),
        ("inject_sites", {"1"}, "an entry of inject_sites must be an integer site index, got '1'"),
        ("n_sites", 3.0, "n_sites must be an integer, got 3.0"),
        ("n_sites", True, "n_sites must be an integer, got True"),
        ("n_sites", "3", "n_sites must be an integer, got '3'"),
    ])
    def test_site_indices_and_size_are_never_truncated(self, field, value, match):
        base = dict(n_sites=3, energies=(0.0, 0.0, 0.0), couplings=((1, 2, 1.0), (2, 3, 1.0)),
                    inject_sites={1}, extract_sites={3})
        with pytest.raises(NetworkError, match=re.escape(match)):
            NetworkSpec(**{**base, field: value})

    @pytest.mark.parametrize("field, value, match", [
        # float() would read these as the energies (1.0, 2.5) and a coupling of 1000
        ("energies", (True, 0.0, 0.0), "energies[0] must be a number, got True"),
        ("energies", (0.0, "2.5", 0.0), "energies[1] must be a number, got '2.5'"),
        ("energies", (0.0, 0.0, None), "energies[2] must be a number, got None"),
        ("energies", (0.0, 1j, 0.0), "energies[1] must be a number, got 1j"),
        ("energies", (0.0, 0.0, 10**400), "energies[2] is too large for a float"),
        ("couplings", ((1, 2, 1.0), (2, 3, "1e3")), "couplings[1] must be a number, got '1e3'"),
        ("couplings", ((1, 2, False), (2, 3, 1.0)), "couplings[0] must be a number, got False"),
        ("couplings", ((1, 2, np.bool_(True)),), f"couplings[0] must be a number, got {np.bool_(True)!r}"),
        # the value specs of generate_geometry read their numbers by the same rule
        (Uniform, ("3",), "Uniform.value must be a number, got '3'"),
        (Uniform, (True,), "Uniform.value must be a number, got True"),
        (RandomUniform, ("0", "1"), "RandomUniform.lo must be a number, got '0'"),
        (RandomUniform, (0.0, np.bool_(True)), f"RandomUniform.hi must be a number, got {np.bool_(True)!r}"),
    ])
    def test_energies_and_couplings_must_be_real_numbers(self, field, value, match):
        base = dict(n_sites=3, energies=(0.0, 0.0, 0.0), couplings=((1, 2, 1.0), (2, 3, 1.0)),
                    inject_sites={1}, extract_sites={3})
        with pytest.raises(NetworkError, match=re.escape(match)) as info:
            if field in (Uniform, RandomUniform):
                generate_geometry("chain", 3, field(*value), Uniform(1.0), inject={1}, extract={3})
            else:
                NetworkSpec(**{**base, field: value})
        assert type(info.value) is NetworkError

    def test_numpy_real_energies_and_couplings(self):
        from fractions import Fraction
        spec = NetworkSpec(3, (np.float32(0.5), np.int64(2), Fraction(3, 4)),
                           ((1, 2, np.float64(1.5)), (2, 3, np.uint8(3))), {1}, {3})
        assert spec == NetworkSpec(3, (0.5, 2.0, 0.75), ((1, 2, 1.5), (2, 3, 3.0)), {1}, {3})
        assert all(type(x) is float for x in spec.energies + tuple(t for _, _, t in spec.couplings))
        specs = Uniform(np.int64(3)), RandomUniform(Fraction(1, 2), np.float32(2.0))
        assert (specs[0].value, specs[1].lo, specs[1].hi) == (3.0, 0.5, 2.0)
        assert all(type(x) is float for x in (specs[0].value, specs[1].lo, specs[1].hi))

    def test_numpy_integer_site_indices(self):
        spec = NetworkSpec(np.int64(3), (0.0, 0.0, 0.0), ((np.int32(1), np.int64(2), 1.0), (2, np.int16(3), 1.0)),
                           {np.int64(1)}, {np.uint8(3)})
        assert spec == NetworkSpec(3, (0.0, 0.0, 0.0), ((1, 2, 1.0), (2, 3, 1.0)), {1}, {3})
        assert type(spec.n_sites) is int
        assert all(type(s) is int for s in spec.inject_sites | spec.extract_sites)
        assert all(type(i) is int and type(j) is int for i, j, _ in spec.couplings)


class TestGeometry:
    def test_chain(self):
        spec = generate_geometry("chain", 3, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        assert spec.n_sites == 3
        assert spec.couplings == ((1, 2, 1.0), (2, 3, 1.0))

    def test_ring_closes(self):
        spec = generate_geometry("ring", 6, Uniform(0.0), Uniform(1.0), inject={1}, extract={4})
        assert len(spec.couplings) == 6
        assert {(i, j) for i, j, _ in spec.couplings} >= {(1, 6)}

    def test_grid_edge_count(self):
        spec = generate_geometry("grid", (4, 3), Uniform(0.0), Uniform(1.0), inject={1}, extract={12})
        # w(h-1) vertical + h(w-1) horizontal
        assert spec.n_sites == 12
        assert len(spec.couplings) == 4 * 2 + 3 * 3

    def test_cube(self):
        spec = generate_geometry("cube", None, Uniform(0.0), Uniform(1.0), inject={1}, extract={8})
        assert spec.n_sites == 8
        assert len(spec.couplings) == 12
        # every vertex has degree 3
        deg = {}
        for i, j, _ in spec.couplings:
            deg[i] = deg.get(i, 0) + 1
            deg[j] = deg.get(j, 0) + 1
        assert all(v == 3 for v in deg.values())

    def test_full_graph_16_has_120_edges(self):
        spec = generate_geometry(
            "full_graph", 16, RandomUniform(1e2, 1e5), Uniform(60.0),
            inject={1}, extract={8}, seed=11,
        )
        assert len(spec.couplings) == 120
        again = generate_geometry(
            "full_graph", 16, RandomUniform(1e2, 1e5), Uniform(60.0),
            inject={1}, extract={8}, seed=11,
        )
        assert spec == again

    def test_pyramid(self):
        spec = generate_geometry("pyramid", None, Uniform(0.0), Uniform(1.0), inject={1}, extract={5})
        pairs = {(i, j) for i, j, _ in spec.couplings}
        assert pairs == {(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5)}

    def test_invalid_sizes(self):
        # a float, string or bool size is rejected, not truncated: int(7.9) is 7
        cases = [
            ("chain", 0, "chain size must be an integer of at least 1, got 0"),
            ("ring", 2, "ring size must be an integer of at least 3, got 2"),
            ("banana", 4, "unknown geometry"),
            ("chain", 7.9, "chain size must be an integer of at least 1, got 7.9"),
            ("chain", True, "chain size must be an integer of at least 1, got True"),
            ("ring", 4.0, "ring size must be an integer of at least 3, got 4.0"),
            ("grid", (2.9, 2), "grid size must be an integer of at least 1, got 2.9"),
            ("grid", (2, False), "grid size must be an integer of at least 1, got False"),
            ("grid", 4, "grid size must be a (width, height) pair, got 4"),
            ("grid", (2, 3, 4), "grid size must be a (width, height) pair, got (2, 3, 4)"),
            ("full_graph", "3", "full_graph size must be an integer of at least 2, got '3'"),
            ("full_graph", np.float64(3.0), "full_graph size must be an integer of at least 2"),
            ("full_graph", 1, "full_graph size must be an integer of at least 2, got 1"),
            ("full_graph", np.int64(-1), "full_graph size must be an integer of at least 2, got -1"),
            ("grid", (0, 3), "grid size must be an integer of at least 1, got 0"),
            ("grid", (2, -1), "grid size must be an integer of at least 1, got -1"),
        ]
        for kind, params, match in cases:
            with pytest.raises(InvalidSize, match=re.escape(match)):
                generate_geometry(kind, params, Uniform(0), Uniform(1), inject={1}, extract={2})
        for lo, hi in ((2.0, 1.0), (0.0, np.inf), (-1e308, 1e308)):
            with pytest.raises(InvalidSize, match=re.escape(f"requires finite lo < hi, got [{lo}, {hi}]")):
                generate_geometry("chain", 3, RandomUniform(lo, hi), Uniform(1), inject={1}, extract={3})

    def test_unsupported_value_spec(self):
        with pytest.raises(TypeError, match=r"unsupported value spec 1\.0"):
            generate_geometry("chain", 3, 1.0, Uniform(1), inject={1}, extract={3})

    @pytest.mark.parametrize("kind, params, n", [
        ("chain", np.int64(4), 4), ("ring", np.int32(5), 5), ("grid", (np.int64(2), 3), 6),
        ("full_graph", np.int16(3), 3),
    ])
    def test_numpy_integer_sizes(self, kind, params, n):
        spec = generate_geometry(kind, params, Uniform(0), Uniform(1), inject={1}, extract={2})
        assert spec.n_sites == n and type(spec.n_sites) is int

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(["chain", "ring", "full_graph"]))
    def test_generation_deterministic(self, seed, kind):
        kw = dict(inject={1}, extract={4}, seed=seed)
        a = generate_geometry(kind, 5, RandomUniform(0.0, 10.0), RandomUniform(0.5, 2.0), **kw)
        b = generate_geometry(kind, 5, RandomUniform(0.0, 10.0), RandomUniform(0.5, 2.0), **kw)
        assert a == b

    @pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "3", None, -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # True drew with seed 1; numpy named no field for the others
        with pytest.raises(NetworkError, match=f"seed must be a nonnegative integer, got {re.escape(repr(seed))}"):
            generate_geometry("chain", 3, RandomUniform(0.0, 1.0), Uniform(1.0), inject={1}, extract={3}, seed=seed)

    def test_numpy_integer_seed_draws_as_the_python_one(self):
        kw = dict(inject={1}, extract={3})
        assert (generate_geometry("chain", 3, RandomUniform(0.0, 1.0), Uniform(1.0), seed=np.uint16(9), **kw)
                == generate_geometry("chain", 3, RandomUniform(0.0, 1.0), Uniform(1.0), seed=9, **kw))


class TestHamiltonian:
    def test_chain3_matrix(self):
        spec = generate_geometry("chain", 3, Uniform(0.0), Uniform(1.0), inject={1}, extract={3})
        H = assemble_hamiltonian(spec)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = -1.0
        expected[2, 3] = expected[3, 2] = -1.0
        assert np.array_equal(H, expected)

    def test_paper_chain_units(self):
        u = WAVENUMBER_TO_ANGULAR_PS
        spec = to_internal_units(
            generate_geometry(
                "chain", 7, Uniform(1.23e4), Uniform(60.0),
                inject={1}, extract={7}, unit=Unit.WAVENUMBER,
            )
        )
        H = assemble_hamiltonian(spec)
        assert np.allclose(np.diag(H)[1:], 1.23e4 * u, rtol=0, atol=0)
        assert H[1, 2] == -60.0 * u
        assert np.all(H[0, :] == 0) and np.all(H[:, 0] == 0)

    def test_exact_hermiticity(self):
        spec = generate_geometry(
            "full_graph", 6, RandomUniform(0, 100), RandomUniform(0, 10),
            inject={1}, extract={6}, seed=3,
        )
        H = assemble_hamiltonian(spec)
        assert np.array_equal(H, H.conj().T)

    def test_applies_the_unit_as_to_internal_units_does(self):
        # every preset is in wavenumbers; a sweep assembles H from its spec as given
        for name in PRESET_NAMES:
            if name != "fig3h":
                spec, _ = preset_network(name)
                assert spec.unit == Unit.WAVENUMBER
                H = assemble_hamiltonian(spec)
                assert H.tobytes() == assemble_hamiltonian(to_internal_units(spec)).tobytes(), name


class TestUnits:
    def test_wavenumber_constant(self):
        assert convert_units(1.0, Unit.WAVENUMBER, Unit.ANGULAR_PS) == pytest.approx(
            0.18836515673088532, abs=1e-15
        )

    def test_zero(self):
        assert convert_units(0.0, Unit.WAVENUMBER, Unit.ANGULAR_PS) == 0.0
        assert convert_units(0.0, Unit.ANGULAR_PS, Unit.WAVENUMBER) == 0.0

    @given(x=st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, x):
        back = convert_units(
            convert_units(x, Unit.WAVENUMBER, Unit.ANGULAR_PS),
            Unit.ANGULAR_PS,
            Unit.WAVENUMBER,
        )
        assert abs(back - x) <= 1e-15 * abs(x)

    def test_dimensionless_passthrough(self):
        assert convert_units(3.5, Unit.DIMENSIONLESS, Unit.ANGULAR_PS) == 3.5
        for unit in Unit:
            assert convert_units(3.5, unit, unit) == 3.5
            assert convert_units(3.5, unit, Unit.DIMENSIONLESS) == 3.5

    def test_unknown_unit(self):
        with pytest.raises((UnknownUnit, ValueError)):
            convert_units(1.0, "parsec", Unit.ANGULAR_PS)


CHAIN3_DOC = {
    "unit": "angular_ps",
    "sites": [{"energy": 0.0}, {"energy": 1.0}, {"energy": 2.0}],
    "edges": [{"i": 1, "j": 2, "t": 1.0}, {"i": 2, "j": 3, "t": 1.5}],
    "inject": [1],
    "extract": [3],
}
NUMBER_FIELDS = {"sites[1].energy": ("sites", 1, "energy"), "edges[0].t": ("edges", 0, "t")}

# any value a JSON document can hold, integers beyond float range included;
# half the draws are scalars, which the recursive strategy alone rarely gives
JSON_SCALARS = st.none() | st.booleans() | st.integers(-(10**500), 10**500) | st.floats() | st.text()
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=8,
)


def json_paths(node, path=()):
    """The path of node and of every value inside it, as tuples of keys and list positions."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def set_field(doc, path, value):
    """doc with the value at path replaced (the whole document for the empty path)."""
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


class TestNetworkFile:
    def test_round_trip(self, tmp_path):
        spec = generate_geometry(
            "ring", 5, RandomUniform(0, 10), Uniform(1.5),
            inject={1}, extract={3}, seed=9, unit=Unit.WAVENUMBER,
        )
        path = tmp_path / "net.json"
        save_network(spec, path)
        assert load_network(path) == spec

    def test_schema_example(self, tmp_path):
        doc = {
            "unit": "wavenumber",
            "sites": [{"energy": 100.0}, {"energy": 200.0}],
            "edges": [{"i": 1, "j": 2, "t": 60.0}],
            "inject": [1],
            "extract": [2],
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        spec = load_network(path)
        assert spec.energies == (100.0, 200.0)
        assert spec.unit == Unit.WAVENUMBER

    @pytest.mark.parametrize("content,cause", [
        (b'{"sites": [', json.JSONDecodeError),
        (b"\xff\xfe{}", UnicodeDecodeError),
    ], ids=["truncated", "utf16_bom"])
    def test_file_that_is_not_utf8_json(self, tmp_path, content, cause):
        path = tmp_path / "net.json"
        path.write_bytes(content)
        with pytest.raises(NetworkError, match=rf"^network file {re.escape(str(path))} is not "
                                               "UTF-8 JSON: ") as info:
            load_network(path)
        assert type(info.value) is NetworkError and type(info.value.__cause__) is cause

    def test_missing_file_is_not_a_network_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_network(tmp_path / "absent.json")

    def test_malformed_file(self):
        # a missing key is a malformed file, not an index out of range
        with pytest.raises(NetworkError, match="missing key 'edges'") as info:
            network_from_dict({"sites": [{"energy": 1.0}]})
        assert type(info.value) is NetworkError

    def test_wrongly_typed_value(self):
        doc = {"sites": [{"energy": "low"}, {"energy": 0.0}], "edges": [{"i": 1, "j": 2, "t": 1.0}],
               "inject": [1], "extract": [2]}
        with pytest.raises(NetworkError, match="'low'") as info:
            network_from_dict(doc)
        assert type(info.value) is NetworkError

    @pytest.mark.parametrize("value", [1.7, 2.0, "2", True, "x"])
    @pytest.mark.parametrize("entry", ["inject[0]", "extract[0]", "edges[0].i", "edges[1].j"])
    def test_non_integer_site_index(self, entry, value):
        doc = {"sites": [{"energy": 0.0}] * 3,
               "edges": [{"i": 1, "j": 2, "t": 1.0}, {"i": 2, "j": 3, "t": 1.0}],
               "inject": [1], "extract": [3]}
        if entry.startswith("edges"):
            doc["edges"][int(entry[6])][entry[-1]] = value
        else:
            doc[entry[:-3]][0] = value
        with pytest.raises(NetworkError, match=rf"{re.escape(entry)} must be an integer site "
                                               rf"index, got {re.escape(repr(value))}") as info:
            network_from_dict(doc)
        assert type(info.value) is NetworkError

    @pytest.mark.parametrize("value", [True, False, "1e3", "2", None, [1.0], {"t": 1.0}])
    @pytest.mark.parametrize("entry", NUMBER_FIELDS)
    def test_energy_and_coupling_must_be_json_numbers(self, entry, value):
        # float() would read true as 1.0 and "1e3" as 1000.0
        doc = set_field(copy.deepcopy(CHAIN3_DOC), NUMBER_FIELDS[entry], value)
        with pytest.raises(NetworkError, match=rf"^malformed network file: {re.escape(entry)} must be "
                                               rf"a number, got {re.escape(repr(value))}$") as info:
            network_from_dict(doc)
        assert type(info.value) is NetworkError

    @pytest.mark.parametrize("value", [10**400, -(10**309)], ids=["1e400", "-1e309"])
    @pytest.mark.parametrize("entry", NUMBER_FIELDS)
    def test_integer_beyond_float_range_is_a_network_error(self, entry, value):
        # float() raises OverflowError on these
        doc = set_field(copy.deepcopy(CHAIN3_DOC), NUMBER_FIELDS[entry], value)
        with pytest.raises(NetworkError, match=rf"{re.escape(entry)} is too large for a float") as info:
            network_from_dict(doc)
        assert type(info.value) is NetworkError

    @pytest.mark.parametrize("entry, literal, message", [
        ("sites[1].energy", "NaN", "site 2 has non-finite energy"),
        ("edges[0].t", "-Infinity", r"edge \(1, 2\) has non-finite coupling"),
    ])
    def test_json_nan_and_infinity_are_non_finite_values(self, entry, literal, message):
        doc = set_field(copy.deepcopy(CHAIN3_DOC), NUMBER_FIELDS[entry], json.loads(literal))
        with pytest.raises(NonFiniteValue, match=message):
            network_from_dict(doc)

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(json_paths(CHAIN3_DOC))), value=JSON_VALUES)
    def test_any_json_value_in_any_field_is_a_spec_or_a_network_error(self, path, value):
        doc = set_field(copy.deepcopy(CHAIN3_DOC), path, value)
        try:
            spec = network_from_dict(doc)
        except NetworkError:
            return
        numbers = [s["energy"] for s in doc["sites"]] + [e["t"] for e in doc["edges"]]
        assert all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in numbers)
        assert spec.energies == tuple(float(s["energy"]) for s in doc["sites"])

    @pytest.mark.parametrize("data", [[1, 2], "chain", 3.0, None])
    def test_top_level_must_be_an_object(self, data):
        with pytest.raises(NetworkError, match="JSON object"):
            network_from_dict(data)

    def test_infinite_energy_in_file(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"sites": [{"energy": 0.0}, {"energy": Infinity}], '
                        '"edges": [{"i": 1, "j": 2, "t": 1.0}], "inject": [1], "extract": [2]}')
        with pytest.raises(NonFiniteValue, match="site 2"):
            load_network(path)

    def test_unknown_unit_in_file(self):
        with pytest.raises(UnknownUnit):
            network_from_dict({
                "unit": "furlong",
                "sites": [{"energy": 1.0}],
                "edges": [],
                "inject": [1],
                "extract": [1],
            })

    def test_invariants_enforced_on_load(self):
        with pytest.raises(OverlappingSourceSink):
            network_from_dict({
                "unit": "angular_ps",
                "sites": [{"energy": 0.0}, {"energy": 0.0}],
                "edges": [{"i": 1, "j": 2, "t": 1.0}],
                "inject": [1],
                "extract": [1, 2],
            })
