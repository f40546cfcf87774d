import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enaqt.errors import SearchBudgetExceeded
from enaqt.network import NetworkSpec, Uniform, generate_geometry
from enaqt.symmetry import apply_permutation, detect_inversion_symmetry


def uniform_chain(n, inject, extract):
    return generate_geometry("chain", n, Uniform(0.0), Uniform(1.0), inject=inject, extract=extract)


def coupling_map(spec):
    """Symmetric lookup {(i, j): t_ij} covering both index orders."""
    out = {}
    for i, j, t in spec.couplings:
        out[(i, j)] = t
        out[(j, i)] = t
    return out


def brute_force_symmetric(spec):
    """Oracle: scan every permutation for a valid involution."""
    n = spec.n_sites
    cmap = coupling_map(spec)
    for perm in itertools.permutations(range(1, n + 1)):
        pi = {i + 1: p for i, p in enumerate(perm)}
        if any(pi[pi[s]] != s for s in pi):
            continue
        if any(spec.energies[pi[s] - 1] != spec.energies[s - 1] for s in pi):
            continue
        if {pi[s] for s in spec.inject_sites} != set(spec.extract_sites):
            continue
        if {pi[s] for s in spec.extract_sites} != set(spec.inject_sites):
            continue
        ok = all(
            cmap.get((i, j)) == cmap.get((pi[i], pi[j]))
            for i in pi
            for j in pi
            if i < j
        )
        if ok:
            return True
    return False


def check_report(spec, report):
    """Machine-check the returned involution against the spec conditions."""
    assert report.symmetric and report.permutation is not None
    pi = report.mapping()
    assert all(pi[pi[s]] == s for s in pi)
    mirrored = apply_permutation(spec, report.permutation)
    assert mirrored.energies == spec.energies
    assert mirrored.couplings == spec.couplings
    assert mirrored.inject_sites == spec.extract_sites
    assert mirrored.extract_sites == spec.inject_sites


def test_end_to_end_chain_is_mirror_symmetric():
    spec = uniform_chain(7, {1}, {7})
    report = detect_inversion_symmetry(spec)
    check_report(spec, report)
    assert report.mapping() == {i: 8 - i for i in range(1, 8)}


def test_offset_sink_chain_is_not_symmetric():
    report = detect_inversion_symmetry(uniform_chain(7, {1}, {5}))
    assert not report.symmetric
    assert report.permutation is None
    assert report.mapping() == {}


def test_uniform_ring_matches_brute_force():
    spec = generate_geometry("ring", 6, Uniform(0.0), Uniform(1.0), inject={1}, extract={4})
    report = detect_inversion_symmetry(spec)
    assert report.symmetric == brute_force_symmetric(spec) is True
    check_report(spec, report)


def test_uniform_cube_smallest_asymmetry_attempt_is_still_symmetric():
    # any vertex pair of the uniform cube is swapped by an involutive graph
    # automorphism, so placement alone cannot break inversion symmetry
    spec = generate_geometry("cube", None, Uniform(0.0), Uniform(1.0), inject={1}, extract={7})
    report = detect_inversion_symmetry(spec)
    check_report(spec, report)


def test_mismatched_source_sink_counts():
    spec = generate_geometry("chain", 4, Uniform(0.0), Uniform(1.0), inject={1}, extract={3, 4})
    assert not detect_inversion_symmetry(spec).symmetric


def test_site_limit():
    spec = uniform_chain(17, {1}, {17})
    with pytest.raises(SearchBudgetExceeded):
        detect_inversion_symmetry(spec)
    report = detect_inversion_symmetry(spec, site_limit=17)
    check_report(spec, report)
    assert detect_inversion_symmetry(spec, site_limit=np.int64(17)) == report


@pytest.mark.parametrize("limit", [True, 2.5, 17.0, "9", None])
def test_site_limit_must_be_an_integer(limit):
    # True was compared as 1, 2.5 taken as a limit and "9" failed inside `>`
    with pytest.raises(ValueError, match=f"site_limit must be an integer, got {re.escape(repr(limit))}"):
        detect_inversion_symmetry(uniform_chain(3, {1}, {3}), site_limit=limit)


def test_detuned_chain_breaks_symmetry():
    spec = uniform_chain(5, {1}, {5})
    assert detect_inversion_symmetry(spec).symmetric
    bumped = NetworkSpec(
        n_sites=5,
        energies=(0.0, 1.0, 0.0, 0.0, 0.0),
        couplings=spec.couplings,
        inject_sites=spec.inject_sites,
        extract_sites=spec.extract_sites,
    )
    assert not detect_inversion_symmetry(bumped).symmetric


@st.composite
def small_network_and_relabeling(draw):
    n = draw(st.integers(3, 6))
    values = st.sampled_from([0.0, 1.0])
    energies = tuple(draw(values) for _ in range(n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chain_pairs = [(i, i + 1) for i in range(1, n)]
    extra = draw(st.sets(st.sampled_from(pairs), max_size=3))
    edges = sorted(set(chain_pairs) | extra)
    couplings = tuple((i, j, draw(st.sampled_from([1.0, 2.0]))) for i, j in edges)
    inject = draw(st.integers(1, n))
    extract = draw(st.integers(1, n).filter(lambda s: s != inject))
    perm = draw(st.permutations(list(range(1, n + 1))))
    spec = NetworkSpec(n, energies, couplings, {inject}, {extract})
    return spec, tuple(perm)


@settings(max_examples=40, deadline=None)
@given(small_network_and_relabeling())
def test_report_invariant_under_relabeling(case):
    spec, perm = case
    relabeled = apply_permutation(spec, perm)
    a = detect_inversion_symmetry(spec)
    b = detect_inversion_symmetry(relabeled)
    assert a.symmetric == b.symmetric
    if a.symmetric:
        check_report(spec, a)
        check_report(relabeled, b)
