"""Inversion-symmetry detection for exciton networks.

A network is inversion-symmetric when an involutive site permutation pi
exists that preserves on-site energies and coupling values while swapping
the injection and extraction site sets.  Such networks drive the same
master equation when source and sink are interchanged.

Note: the report concerns the network alone.  The dynamical consequence
(equal injection and extraction rates give a permutation-related steady
state) additionally requires gamma_inj == gamma_ext.

The search is individualization-refinement (McKay & Piperno, J. Symbolic
Comput. 60, 94 (2014)) over the network G and its copy G' with source and
sink swapped: pi is an isomorphism from G onto G'.  Colour refinement
(Weisfeiler-Leman) starts from each site's (energy, role) and splits
colours by the multiset of (coupling, neighbour colour) until stable; a
colour held by different numbers of sites in G and G' ends the branch.  A
branch fixes pi(i) = j and pi(j) = i by giving i in G and j in G' one new
colour, and j in G and i in G' another.  A colouring with one site of each
colour in each copy gives a candidate pi that preserves every coupling,
accepted when it is an involution.  The search takes no site limit: it
decides 100-site random cubic networks in about a millisecond.  It is
still exponential on some families (Cai, Fuerer & Immerman, Combinatorica
12, 389 (1992)), as it tries every candidate j at every level with no
automorphism pruning; no tested family comes near that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import SearchBudgetExceeded, _count
from .network import NetworkSpec

@dataclass(frozen=True)
class SymmetryReport:
    symmetric: bool
    permutation: tuple[int, ...] | None = None  # permutation[i-1] = pi(i), 1-based

    def mapping(self) -> dict[int, int]:
        if self.permutation is None:
            return {}
        return {i + 1: p for i, p in enumerate(self.permutation)}


def _refine(colours: list, adj: list[list[tuple[float, int]]]) -> list[int] | None:
    """The stable refinement of `colours` over G and G', or None when G and G' hold a colour unequally.

    It numbers the refined colours 0, 1, ...
    """
    n, count = len(colours) // 2, len(set(colours))
    while Counter(colours[:n]) == Counter(colours[n:]):
        # exact values: sites related by a symmetry carry bit-identical energies
        # and couplings (uniform fills are single constants, random fills are
        # a.s. distinct), so float equality is the intended comparison
        ids: dict = {}
        colours = [ids.setdefault((c, tuple(sorted([(t, colours[u]) for t, u in nbrs]))), len(ids))
                   for c, nbrs in zip(colours, adj)]
        if len(ids) == count:
            return colours
        count = len(ids)
    return None


def detect_inversion_symmetry(spec: NetworkSpec, site_limit: int | None = None) -> SymmetryReport:
    """Search for an involution satisfying the symmetry conditions.

    Raises SearchBudgetExceeded when the network has more sites than a
    `site_limit` the caller sets; by default there is no limit.
    """
    n = spec.n_sites
    if site_limit is not None and n > _count(site_limit, "site_limit"):
        raise SearchBudgetExceeded(
            f"network has {n} sites, above the search limit {site_limit}"
        )
    # vertex v < n is site v + 1 of G, vertex n + v the same site of G'
    adj: list[list[tuple[float, int]]] = [[] for _ in range(2 * n)]
    for i, j, t in spec.couplings:
        for a, b in ((i, j), (j, i), (n + i, n + j), (n + j, n + i)):
            adj[a - 1].append((t, b - 1))
    roles = [(s in spec.inject_sites) - (s in spec.extract_sites) for s in range(1, n + 1)]

    def search(colours: list) -> list[int] | None:
        colours = _refine(colours, adj)
        if colours is None:
            return None
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colours):
            cells.setdefault(c, []).append(v)
        cell = min((vs for vs in cells.values() if len(vs) > 2), key=len, default=None)
        if cell is None:
            # a stable colouring with one vertex of each colour in each copy
            # maps every coupling of G onto an equal one of G'
            image = {colours[v]: v - n for v in range(n, 2 * n)}
            pi = [image[c] for c in colours[:n]]
            return pi if all(pi[pi[v]] == v for v in range(n)) else None
        # the cell lists its vertices of G, then as many of G'
        i, fresh = cell[0], len(cells)
        for j in (v - n for v in cell[len(cell) // 2:]):
            trial = list(colours)
            trial[i] = trial[n + j] = fresh
            if j != i:
                trial[j] = trial[n + i] = fresh + 1
            if (pi := search(trial)) is not None:
                return pi
        return None

    pi = search([*zip(spec.energies, roles), *zip(spec.energies, [-r for r in roles])])
    if pi is None:
        return SymmetryReport(symmetric=False)
    return SymmetryReport(symmetric=True, permutation=tuple(p + 1 for p in pi))


def apply_permutation(spec: NetworkSpec, permutation: tuple[int, ...]) -> NetworkSpec:
    """Relabel a network's sites by `permutation` (1-based image array)."""
    pi = {i + 1: p for i, p in enumerate(permutation)}
    energies = [0.0] * spec.n_sites
    for s in range(1, spec.n_sites + 1):
        energies[pi[s] - 1] = spec.energies[s - 1]
    couplings = []
    for i, j, t in spec.couplings:
        a, b = pi[i], pi[j]
        if a > b:
            a, b = b, a
        couplings.append((a, b, t))
    return NetworkSpec(
        n_sites=spec.n_sites,
        energies=tuple(energies),
        couplings=tuple(couplings),
        inject_sites=frozenset(pi[s] for s in spec.inject_sites),
        extract_sites=frozenset(pi[s] for s in spec.extract_sites),
        unit=spec.unit,
    )
