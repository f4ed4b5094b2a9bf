"""Z2-graded bases, sparse vectors, multilinear maps, and the Koszul sign.

One sign rule orders every index tuple, canonicalize_tuple: sorting a tuple
of basis indices costs -1 for each out-of-order pair (positions i < j with
tup[i] > tup[j]) that is not both odd, since swapping two odd vectors is a
Koszul swap that cancels the transposition sign of the alternating map.  A
repeated even index makes a super-alternating map vanish.  The permutation
form of the same sign, sign(sigma) * (-1)^{# inverted odd-odd pairs}, is
kept in tests/util.py as a test oracle.

Vector and MultilinearMap are frozen values, as GradedBasis is: the coords
of a Vector and the components of a map are read-only mappings that cannot
be rebound.  So a map stores the vectors it is given, and what its
constructor checked stays true for as long as the map lives.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from math import comb
from types import MappingProxyType

from .errors import LengthMismatch
from .scalars import FieldSpec, Scalar, one, zero


@dataclass(frozen=True)
class GradedBasis:
    names: tuple[str, ...]
    parities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "parities", tuple(self.parities))
        if len(self.names) != len(self.parities):
            raise LengthMismatch("names and parities differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("basis labels must be unique")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parities must be 0 or 1")
        if list(self.parities) != sorted(self.parities):
            raise ValueError("even basis vectors must be listed before odd ones")

    def __len__(self):
        return len(self.names)

    @property
    def dims(self) -> tuple[int, int]:
        d1 = sum(self.parities)
        return len(self.parities) - d1, d1

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no basis vector named {name!r}") from None


@dataclass(frozen=True, slots=True)
class Vector:
    """Sparse coordinate vector: basis index -> nonzero Scalar, in a
    read-only mapping.  The constructor drops zero coordinates, so no method
    below needs to."""

    coords: Mapping[int, Scalar]

    def __init__(self, coords: Mapping[int, Scalar] | None = None):
        object.__setattr__(self, "coords", MappingProxyType({i: c for i, c in (coords or {}).items() if not c.is_zero()}))

    @staticmethod
    def basis(i: int, spec: FieldSpec) -> "Vector":
        return Vector({i: one(spec)})

    def is_zero(self) -> bool:
        return not self.coords

    def __add__(self, other: "Vector") -> "Vector":
        out = dict(self.coords)
        for i, c in other.coords.items():
            out[i] = out[i] + c if i in out else c
        return Vector(out)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __neg__(self) -> "Vector":
        return Vector({i: -c for i, c in self.coords.items()})

    def scale(self, a: Scalar) -> "Vector":
        return Vector({i: a * c for i, c in self.coords.items()})

    def get(self, i: int, spec: FieldSpec) -> Scalar:
        return self.coords.get(i, zero(spec))

    def parity_support(self, basis: GradedBasis) -> set[int]:
        return {basis.parities[i] for i in self.coords}

    def __repr__(self):
        if not self.coords:
            return "Vector(0)"
        parts = [f"{c}*[{i}]" for i, c in sorted(self.coords.items())]
        return "Vector(" + " + ".join(parts) + ")"


_ZERO = Vector()  # a Vector cannot change, so every missing component is this one


def vec_str(v: Vector, basis: GradedBasis) -> str:
    if v.is_zero():
        return "0"
    parts = []
    for i in sorted(v.coords):
        c = v.coords[i]
        parts.append(f"({c})*{basis.names[i]}")
    return " + ".join(parts)


# -- multilinear maps --------------------------------------------------------


@dataclass(frozen=True)
class MultilinearMap:
    """A multilinear map by its nonzero components, tuple -> Vector.  The
    constructor checks every component and stores the nonzero ones in a
    read-only table; a Vector cannot change, so a built map keeps what it
    checked."""

    arity: int
    parity: int
    source: GradedBasis
    target: GradedBasis
    components: Mapping[tuple[int, ...], Vector] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for tup, vec in self.components.items():
            tup = tuple(tup)
            if len(tup) != self.arity:
                raise LengthMismatch(f"component tuple {tup} has wrong arity")
            if any(not 0 <= i < len(self.source) for i in tup):
                raise ValueError(f"component tuple {tup} indexes outside the basis")
            if vec.is_zero():
                continue
            if min(vec.coords) < 0 or max(vec.coords) >= len(self.target):
                raise ValueError(f"component at {tup} indexes outside the target basis")
            want = (self.parity + sum(self.source.parities[i] for i in tup)) % 2
            got = vec.parity_support(self.target)
            if got - {want}:
                raise ValueError(
                    f"component at {tup} not homogeneous: parity {want} expected"
                )
            clean[tup] = vec
        object.__setattr__(self, "components", MappingProxyType(clean))

    def at(self, tup) -> Vector:
        return self.components.get(tuple(tup), _ZERO)


def cochain_coords(basis: GradedBasis, n: int, target: GradedBasis):
    """Coordinates of super-alternating n-maps into the target space.

    Tuple-major ordering: every canonical source tuple paired with each
    target basis index in turn.
    """
    return [(T, j) for T in superalt_basis(basis, n) for j in range(len(target))]


def cochain_parities(basis: GradedBasis, n: int, target: GradedBasis) -> list[int]:
    """The parity of each coordinate (T, j) of cochain_coords, in its order:
    the parities of the entries of T plus that of j, mod 2."""
    par = basis.parities
    return [(sum([par[i] for i in T]) + q) % 2 for T in superalt_basis(basis, n) for q in target.parities]


# -- canonical super-alternating basis ---------------------------------------


def superalt_basis(basis: GradedBasis, n: int) -> list[tuple[int, ...]]:
    """Canonical index tuples coordinatizing super-alternating n-maps.

    Even indices strictly increasing, then odd indices weakly increasing;
    since even basis vectors precede odd ones, every canonical tuple is
    weakly increasing as a flat sequence.
    """
    if n < 0:
        raise ValueError("arity must be >= 0")
    d0, d1 = basis.dims
    evens = range(d0)
    odds = range(d0, d0 + d1)
    out = []
    for k in range(min(n, d0) + 1):
        for ev in combinations(evens, k):
            for od in combinations_with_replacement(odds, n - k):
                out.append(ev + od)
    out.sort()
    return out


def superalt_count(d0: int, d1: int, n: int) -> int:
    total = 0
    for k in range(min(n, d0) + 1):
        r = n - k
        if r == 0:
            odd_ways = 1
        elif d1 == 0:
            odd_ways = 0
        else:
            odd_ways = comb(d1 + r - 1, r)
        total += comb(d0, k) * odd_ways
    return total


def canonicalize_tuple(tup, parities_by_index):
    """Sort an index tuple into canonical order, tracking the Koszul sign.

    Returns (sorted_tuple, +/-1), the sign -1 to the number of out-of-order
    pairs that are not both odd, or None when the tuple has a repeated even
    index (the super-alternating component vanishes there).
    """
    par = parities_by_index
    inversions = 0
    for k, i in enumerate(tup):
        for j in tup[k + 1 :]:
            if i > j:
                inversions += not (par[i] and par[j])
            elif i == j and not par[i]:
                return None
    return tuple(sorted(tup)), -1 if inversions % 2 else 1
