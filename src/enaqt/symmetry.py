"""Inversion-symmetry detection for exciton networks.

A network is inversion-symmetric when an involutive site permutation pi
exists that preserves on-site energies and coupling values while swapping
the injection and extraction site sets.  Such networks drive the same
master equation when source and sink are interchanged.

Note: the report concerns the network alone.  The dynamical consequence
(equal injection and extraction rates give a permutation-related steady
state) additionally requires gamma_inj == gamma_ext.

The search enumerates candidate involutions recursively, pruning by
per-site signatures (energy, degree, incident-coupling multiset) and by
incremental consistency of already-assigned coupling images.  Networks of
interest are small (<= 25 sites); the search refuses larger inputs via a
configurable site limit.
"""

from __future__ import annotations

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


def _signature(spec: NetworkSpec, adj: dict[int, dict[int, float]], site: int):
    # exact values: sites related by a symmetry carry bit-identical energies
    # and couplings (uniform fills are single constants, random fills are a.s.
    # distinct), so float equality is the intended comparison
    energy = spec.energies[site - 1]
    incident = tuple(sorted(adj.get(site, {}).values()))
    return energy, incident


def detect_inversion_symmetry(spec: NetworkSpec, site_limit: int = 16) -> SymmetryReport:
    """Search for an involution satisfying the symmetry conditions.

    Raises SearchBudgetExceeded when the network has more sites than
    `site_limit` (default 16; raise it explicitly for larger networks).
    """
    n = spec.n_sites
    if n > _count(site_limit, "site_limit"):
        raise SearchBudgetExceeded(
            f"network has {n} sites, above the search limit {site_limit}"
        )

    adj: dict[int, dict[int, float]] = {}
    for i, j, t in spec.couplings:
        adj.setdefault(i, {})[j] = t
        adj.setdefault(j, {})[i] = t

    sigs = {s: _signature(spec, adj, s) for s in range(1, n + 1)}

    def role(s: int) -> int:
        if s in spec.inject_sites:
            return 1
        if s in spec.extract_sites:
            return 2
        return 0

    # pi must map inject <-> extract bijectively
    if len(spec.inject_sites) != len(spec.extract_sites):
        return SymmetryReport(symmetric=False)

    perm: dict[int, int] = {}

    def compatible(i: int, j: int) -> bool:
        if sigs[i] != sigs[j]:
            return False
        ri, rj = role(i), role(j)
        if ri == 1:
            return rj == 2
        if ri == 2:
            return rj == 1
        # unsourced sites map to unsourced sites; fixed points allowed
        return rj == 0

    def edge(a: int, b: int) -> float | None:
        return adj.get(a, {}).get(b)

    def consistent(i: int, j: int) -> bool:
        # every already-assigned pair (k, pi(k)) must carry the same coupling
        # to (i, j) as the preimage does
        for k, pk in perm.items():
            if edge(i, k) != edge(j, pk):
                return False
        return True

    def search(unassigned: frozenset[int]) -> bool:
        if not unassigned:
            return True
        i = min(unassigned)
        for j in sorted(unassigned):
            if not compatible(i, j):
                continue
            perm[i] = j
            perm[j] = i
            ok = consistent(i, j) and (i == j or consistent(j, i))
            if ok and search(unassigned - {i, j}):
                return True
            del perm[i]
            if j != i:
                perm.pop(j, None)
        return False

    if search(frozenset(range(1, n + 1))):
        return SymmetryReport(
            symmetric=True,
            permutation=tuple(perm[s] for s in range(1, n + 1)),
        )
    return SymmetryReport(symmetric=False)


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
