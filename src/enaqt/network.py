"""Exciton network specifications and their Hamiltonians.

A network is a set of chromophore sites with on-site energies, weighted
coupling edges, and disjoint injection/extraction site sets.  Site indices
are 1-based; index 0 is reserved for the vacuum state of the
single-excitation Hilbert space, so the Hamiltonian of an n-site network
is an (n+1) x (n+1) Hermitian matrix whose vacuum row and column are zero.

Internally all energies and rates are angular frequencies in ps^-1 with
hbar = 1.  Wavenumber inputs (cm^-1) are converted on ingestion via
2*pi*c = 0.18836515673088532 ps^-1 per cm^-1.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidSize,
    NetworkError,
    NonFiniteValue,
    OverlappingSourceSink,
    SelfCoupling,
    UnknownUnit,
)

# speed of light in cm/ps; energies E (cm^-1) enter the dynamics as angular
# frequencies omega = 2*pi*c*E
_C_CM_PER_PS = 2.99792458e-2
WAVENUMBER_TO_ANGULAR_PS = 2.0 * np.pi * _C_CM_PER_PS


class Unit(str, Enum):
    WAVENUMBER = "wavenumber"       # cm^-1
    ANGULAR_PS = "angular_ps"       # angular ps^-1 (internal unit)
    DIMENSIONLESS = "dimensionless"


def convert_units(value: float, from_unit: Unit, to_unit: Unit) -> float:
    """Convert a scalar energy/rate between supported units.

    Dimensionless values pass through unchanged regardless of the
    nominal target.
    """
    from_unit = Unit(from_unit)
    to_unit = Unit(to_unit)
    if from_unit == to_unit:
        return value
    if Unit.DIMENSIONLESS in (from_unit, to_unit):
        return value
    if from_unit == Unit.WAVENUMBER and to_unit == Unit.ANGULAR_PS:
        return value * WAVENUMBER_TO_ANGULAR_PS
    # the one pair left: angular ps^-1 to wavenumber
    return value / WAVENUMBER_TO_ANGULAR_PS


@dataclass(frozen=True)
class Uniform:
    """Every site (or edge) gets the same value."""

    value: float


@dataclass(frozen=True)
class RandomUniform:
    """Values drawn independently and uniformly from [lo, hi)."""

    lo: float
    hi: float


ValueSpec = Uniform | RandomUniform


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of an exciton network.

    couplings holds (i, j, t_ij) with 1 <= i < j <= n_sites; the
    Hamiltonian hopping element is -t_ij (see assemble_hamiltonian).
    """

    n_sites: int
    energies: tuple[float, ...]
    couplings: tuple[tuple[int, int, float], ...]
    inject_sites: frozenset[int]
    extract_sites: frozenset[int]
    unit: Unit = Unit.ANGULAR_PS

    def __post_init__(self) -> None:
        # int() would truncate a site 2.7 to 2 and read True as site 1
        if isinstance(self.n_sites, bool) or not isinstance(self.n_sites, numbers.Integral):
            raise InvalidSize(f"n_sites must be an integer, got {self.n_sites!r}")
        object.__setattr__(self, "n_sites", int(self.n_sites))
        # float() would read True as 1.0 and "1e3" as 1000.0
        object.__setattr__(self, "energies",
                           tuple(_number(e, f"energies[{k}]") for k, e in enumerate(self.energies)))
        # canonical edge order makes equality independent of construction order
        object.__setattr__(
            self,
            "couplings",
            tuple(sorted((_site_index(i, f"couplings[{k}]"), _site_index(j, f"couplings[{k}]"),
                          _number(t, f"couplings[{k}]"))
                         for k, (i, j, t) in enumerate(self.couplings))),
        )
        for name in ("inject_sites", "extract_sites"):
            sites = frozenset(_site_index(s, f"an entry of {name}") for s in getattr(self, name))
            object.__setattr__(self, name, sites)
        object.__setattr__(self, "unit", Unit(self.unit))

    @property
    def dim(self) -> int:
        """Hilbert-space dimension including the vacuum."""
        return self.n_sites + 1


def validate_network(spec: NetworkSpec) -> NetworkSpec:
    """Check all NetworkSpec invariants, returning the spec unchanged."""
    n = spec.n_sites
    if n < 1:
        raise InvalidSize(f"n_sites must be positive, got {n}")
    if len(spec.energies) != n:
        raise InvalidSize(f"expected {n} energies, got {len(spec.energies)}")
    for site, e in enumerate(spec.energies, start=1):
        if not math.isfinite(e):
            raise NonFiniteValue(f"site {site} has non-finite energy {e}")
    seen: set[tuple[int, int]] = set()
    for i, j, t in spec.couplings:
        if i == j:
            raise SelfCoupling(f"edge ({i}, {j}) couples a site to itself")
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"edge ({i}, {j}) references a site outside [1, {n}]")
        if i > j:
            raise IndexOutOfRange(f"edge ({i}, {j}) must be stored with i < j")
        if (i, j) in seen:
            raise DuplicateEdge(f"edge ({i}, {j}) appears more than once")
        if not math.isfinite(t):
            raise NonFiniteValue(f"edge ({i}, {j}) has non-finite coupling {t}")
        seen.add((i, j))
    for name, sites in (("inject_sites", spec.inject_sites), ("extract_sites", spec.extract_sites)):
        if not sites:
            raise IndexOutOfRange(f"{name} must be nonempty")
        for s in sites:
            if not 1 <= s <= n:
                raise IndexOutOfRange(f"{name} contains {s}, outside [1, {n}]")
    overlap = spec.inject_sites & spec.extract_sites
    if overlap:
        raise OverlappingSourceSink(
            f"inject_sites and extract_sites share {sorted(overlap)}"
        )
    return spec


def to_internal_units(spec: NetworkSpec) -> NetworkSpec:
    """Return an equivalent spec with energies/couplings in angular ps^-1."""
    if spec.unit in (Unit.ANGULAR_PS, Unit.DIMENSIONLESS):
        return spec
    u = spec.unit
    return replace(
        spec,
        energies=tuple(convert_units(e, u, Unit.ANGULAR_PS) for e in spec.energies),
        couplings=tuple(
            (i, j, convert_units(t, u, Unit.ANGULAR_PS)) for i, j, t in spec.couplings
        ),
        unit=Unit.ANGULAR_PS,
    )


def _draw(spec: ValueSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(spec, Uniform):
        return np.full(count, float(spec.value))
    if isinstance(spec, RandomUniform):
        if not spec.lo < spec.hi:
            raise InvalidSize(f"random interval requires lo < hi, got [{spec.lo}, {spec.hi}]")
        return rng.uniform(spec.lo, spec.hi, size=count)
    raise TypeError(f"unsupported value spec {spec!r}")


def _size(kind: str, value) -> int:
    """A size parameter of a geometry: an integer, never a truncated float, string or bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidSize(f"{kind} size must be an integer, got {value!r}")
    return int(value)


def _edges_for(kind: str, params) -> tuple[int, list[tuple[int, int]]]:
    """Site count and edge list (i < j) for a named geometry."""
    if kind == "chain":
        length = _size(kind, params)
        if length < 1:
            raise InvalidSize(f"chain length must be >= 1, got {length}")
        return length, [(i, i + 1) for i in range(1, length)]
    if kind == "ring":
        length = _size(kind, params)
        if length < 3:
            raise InvalidSize(f"ring length must be >= 3, got {length}")
        return length, [(i, i + 1) for i in range(1, length)] + [(1, length)]
    if kind == "grid":
        if not (isinstance(params, (tuple, list)) and len(params) == 2):
            raise InvalidSize(f"grid size must be a (width, height) pair, got {params!r}")
        w, h = (_size(kind, p) for p in params)
        if w < 1 or h < 1:
            raise InvalidSize(f"grid dimensions must be positive, got {w}x{h}")
        edges = []
        for r in range(h):
            for c in range(w):
                s = r * w + c + 1
                if c + 1 < w:
                    edges.append((s, s + 1))
                if r + 1 < h:
                    edges.append((s, s + w))
        return w * h, edges
    if kind == "cube":
        # 8 vertices with binary coordinates; edges join vertices differing
        # in one bit.  Site index = vertex value + 1.
        edges = []
        for v in range(8):
            for b in range(3):
                u = v ^ (1 << b)
                if v < u:
                    edges.append((v + 1, u + 1))
        return 8, edges
    if kind == "full_graph":
        n = _size(kind, params)
        if n < 2:
            raise InvalidSize(f"full graph needs >= 2 sites, got {n}")
        return n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if kind == "pyramid":
        # square base 1-2-3-4 plus apex 5 coupled to every base site
        base = [(1, 2), (2, 3), (3, 4), (1, 4)]
        apex = [(i, 5) for i in range(1, 5)]
        return 5, base + apex
    raise InvalidSize(f"unknown geometry kind {kind!r}")


def generate_geometry(
    kind: str,
    params,
    energy_spec: ValueSpec,
    coupling_spec: ValueSpec,
    *,
    inject: Iterable[int],
    extract: Iterable[int],
    seed: int = 0,
    unit: Unit = Unit.ANGULAR_PS,
) -> NetworkSpec:
    """Build a validated NetworkSpec for a named geometry.

    Random energies/couplings are drawn from a generator seeded by `seed`
    (energies first, then couplings in edge order), so identical arguments
    always produce identical networks.
    """
    n, edges = _edges_for(kind, params)
    rng = np.random.default_rng(seed)
    energies = _draw(energy_spec, n, rng)
    ts = _draw(coupling_spec, len(edges), rng)
    spec = NetworkSpec(
        n_sites=n,
        energies=tuple(energies),
        couplings=tuple((i, j, t) for (i, j), t in zip(edges, ts)),
        inject_sites=frozenset(inject),
        extract_sites=frozenset(extract),
        unit=unit,
    )
    return validate_network(spec)


def assemble_hamiltonian(spec: NetworkSpec) -> np.ndarray:
    """Tight-binding Hamiltonian on the vacuum + single-excitation space.

    Entry (i, i) = eps_i for sites i >= 1, entry (i, j) = -t_ij for coupled
    pairs, and the vacuum row/column (index 0) is identically zero.  The
    spec must already be in internal units.
    """
    if spec.unit == Unit.WAVENUMBER:
        raise UnknownUnit("convert the spec with to_internal_units() before assembly")
    d = spec.dim
    H = np.zeros((d, d), dtype=complex)
    for i, e in enumerate(spec.energies, start=1):
        H[i, i] = e
    for i, j, t in spec.couplings:
        H[i, j] = -t
        H[j, i] = -t
    return H


# ---------------------------------------------------------------------------
# network file format: JSON with keys unit, sites, edges, inject, extract
# ---------------------------------------------------------------------------

def network_to_dict(spec: NetworkSpec) -> dict:
    return {
        "unit": spec.unit.value,
        "sites": [{"energy": e} for e in spec.energies],
        "edges": [{"i": i, "j": j, "t": t} for i, j, t in spec.couplings],
        "inject": sorted(spec.inject_sites),
        "extract": sorted(spec.extract_sites),
    }


def _site_index(value, entry: str) -> int:
    """A site index: an integer, numpy ones included, never a bool, float or string that int() would read."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise NetworkError(f"{entry} must be an integer site index, got {value!r}")
    return int(value)


def _number(value, entry: str) -> float:
    """An energy or coupling: a real number, numpy scalars included, never a bool or string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise NetworkError(f"{entry} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise NetworkError(f"{entry} is too large for a float") from None


def network_from_dict(data: dict) -> NetworkSpec:
    """Network from the JSON object of a network file.

    A missing key or a wrongly typed value raises NetworkError naming it;
    only an index outside 1..n raises IndexOutOfRange.
    """
    if not isinstance(data, dict):
        raise NetworkError(
            f"malformed network file: expected a JSON object, got {type(data).__name__}"
        )
    raw_unit = data.get("unit", Unit.ANGULAR_PS.value)
    try:
        unit = Unit(raw_unit)
    except ValueError:
        raise UnknownUnit(f"unknown unit {raw_unit!r}") from None
    try:
        sites = data["sites"]
        spec = NetworkSpec(
            n_sites=len(sites),
            energies=tuple(_number(s["energy"], f"sites[{k}].energy") for k, s in enumerate(sites)),
            couplings=tuple(
                (_site_index(e["i"], f"edges[{k}].i"), _site_index(e["j"], f"edges[{k}].j"),
                 _number(e["t"], f"edges[{k}].t"))
                for k, e in enumerate(data["edges"])
            ),
            inject_sites=frozenset(
                _site_index(s, f"inject[{k}]") for k, s in enumerate(data["inject"])
            ),
            extract_sites=frozenset(
                _site_index(s, f"extract[{k}]") for k, s in enumerate(data["extract"])
            ),
            unit=unit,
        )
    except NetworkError as exc:
        raise NetworkError(f"malformed network file: {exc}") from None
    except KeyError as exc:
        raise NetworkError(f"malformed network file: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise NetworkError(f"malformed network file: {exc}") from exc
    return validate_network(spec)


def load_network(path) -> NetworkSpec:
    """The network of a JSON file; a file that is not UTF-8 JSON raises NetworkError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise NetworkError(f"network file {path} is not UTF-8 JSON: {exc}") from exc
    return network_from_dict(doc)


def save_network(spec: NetworkSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(spec), fh, indent=2)
        fh.write("\n")
