"""Formal one-parameter deformations of a Lie superalgebra bracket, truncated
at a finite order: order-by-order checking of the deformation identity,
infinitesimals, the next-order obstruction, and gauge equivalence.

The terms mu_i are even 2-cochains from the algebra to itself, which are
already elements of the Nijenhuis-Richardson algebra.  The deformation
identity at order r is sum_{i+j=r} mu_i o mu_j = 0 and the order-(N+1)
obstruction is the same sum over i, j >= 1 (Gerstenhaber), with
o = nr_bracket.circ.  Solvability and cohomologous infinitesimals are one
row-form solve, cohomology.coboundary_preimage; a gauge transform moves
each term through group_action.pull_back.  The element-wise loops these
replaced are kept in tests/util.py as test oracles.

Deformation.rep is the action on the algebra, or None when there is no
group: then no term or gauge map is checked for equivariance, and the
solves run over all cochains, as with rep=None in cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cohomology import (
    Cochain,
    _map_columns,
    _new_cochain,
    coboundary,
    coboundary_preimage,
    is_equivariant,
    zero_cochain,
)
from .errors import (
    AllZero,
    BasisMismatch,
    NotValidated,
    OracleDisagreement,
    ValidationError,
    WrongBidegree,
)
from .graded import GradedBasis, Vector, superalt_basis
from .group_action import ActionRep, acts_by_automorphisms, is_representation, pull_back
from .linalg import Row, add_scaled, lin_comb
from .nr_bracket import bracket_element, circ
from .scalars import FieldSpec, one, scalar
from .superalgebra import LieSuperalgebra, LModule, adjoint_module


@dataclass
class Deformation:
    """A truncated deformation mu_0 + t mu_1 + ... + t^N mu_N of base.

    Construction checks each term's shape, that mu_0 is the base bracket
    and, with a rep, that every term is equivariant, reading what is already
    proved: mu_0 is compared by identity with nr_bracket.bracket_element
    (built once per algebra) before equality, and for a representation it
    is equivariant exactly when G acts by automorphisms, the verdict that
    group_action.acts_by_automorphisms keeps per (rep, algebra).  Under a
    rep that is not a representation every term goes through is_equivariant.
    Every function here reads the one adjoint module, so they share its
    cochain complexes (cohomology._Complex).
    """

    base: LieSuperalgebra
    rep: ActionRep | None
    terms: list[Cochain]
    adjoint: LModule = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a deformation needs at least the order-0 term")
        for k, f in enumerate(self.terms):
            if f.algebra != self.base.basis or f.space != self.base.basis:
                raise BasisMismatch(f"term {k} does not live on the base algebra")
            if f.arity != 2 or f.parity != 0:
                raise WrongBidegree(f"term {k} must be a binary map of parity 0")
        if self.rep is not None and self.rep.parities != self.base.basis.parities:
            raise BasisMismatch("action does not match the base algebra")
        mu = bracket_element(self.base)
        if self.terms[0] is not mu and self.terms[0] != mu:
            raise ValidationError("order-0 term must equal the base bracket")
        self.adjoint = adjoint_module(self.base)
        if self.rep is not None:
            for k, f in enumerate(self.terms):
                if k == 0 and is_representation(self.rep):
                    ok = acts_by_automorphisms(self.rep, self.base)
                else:
                    ok = is_equivariant(f, self.rep, self.rep, self.base, self.adjoint)
                if not ok:
                    raise ValidationError(f"term {k} is not equivariant")

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def term(self, k: int) -> Cochain:
        if 0 <= k < len(self.terms):
            return self.terms[k]
        return zero_cochain(2, 0, self.base, self.adjoint)


@dataclass
class OrderReport:
    r: int
    ok: bool
    residual: dict[tuple, Vector] = field(default_factory=dict)


def _composition_sum(d: Deformation, r: int, low: int) -> Cochain:
    """The sum of mu_i o mu_j over i + j = r with i, j >= low."""
    acc = _new_cochain(3, 0, d.base.basis, d.base.basis, {})
    for i in range(max(low, r - d.order), min(r - low, d.order) + 1):
        acc = acc.add(circ(d.terms[i], d.terms[r - i]))
    return acc


def check_order(d: Deformation, r: int) -> OrderReport:
    """Coefficient of t^r in the deformation identity, by canonical triple."""
    if r < 0:
        raise ValueError("order must be nonnegative")
    residual = _composition_sum(d, r, 0).by_tuple()
    return OrderReport(r, not residual, residual)


@dataclass
class DeformationReport:
    """The deformation identity order by order.  Every term is equivariant
    and super-alternating by construction: Deformation checks equivariance,
    and a Cochain stores only canonical tuples."""

    mode: str
    orders: list[OrderReport]

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.orders)

    def first_failure(self):
        for o in self.orders:
            if not o.ok:
                return o
        return None


def validate(d: Deformation, mode: str = "truncated") -> DeformationReport:
    if mode not in ("truncated", "strict"):
        raise ValueError(f"unknown mode {mode!r}")
    top = d.order if mode == "truncated" else 2 * d.order
    return DeformationReport(mode, [check_order(d, r) for r in range(top + 1)])


@dataclass
class InfinitesimalReport:
    index: int
    cochain: Cochain
    is_cocycle: bool


def infinitesimal(d: Deformation) -> InfinitesimalReport:
    for k in range(1, d.order + 1):
        if not d.terms[k].is_zero():
            dk = coboundary(d.terms[k], d.base, d.adjoint)
            return InfinitesimalReport(k, d.terms[k], dk.is_zero())
    raise AllZero("every term beyond order 0 vanishes")


@dataclass
class ObstructionReport:
    cochain: Cochain
    solvable: bool
    next_term: Cochain | None
    closed: bool


def obstruction(d: Deformation) -> ObstructionReport:
    """The order-(N+1) obstruction: zero iff the truncation extends one order.

    Sign convention: an extension term m exists iff the obstruction equals
    delta^2(-m), so solvability reads "obstruction lies in the image of
    delta^2 on equivariant 2-cochains".
    """
    report = validate(d, "truncated")
    if not report.ok:
        r = report.first_failure().r
        raise NotValidated(f"deformation fails truncated validation at order {r}", report)
    L, M = d.base, d.adjoint
    obs = _composition_sum(d, d.order + 1, 1)
    if obs.is_zero():
        return ObstructionReport(obs, True, zero_cochain(2, 0, L, M), True)
    closed = coboundary(obs, L, M).is_zero()
    minus = scalar(L.spec, -1)
    nxt = coboundary_preimage(2, L, M, d.rep, obs.scale(minus))
    return ObstructionReport(obs, nxt is not None, nxt, closed)


# -- gauge equivalence --------------------------------------------------------


def identity_endo(basis: GradedBasis, spec: FieldSpec) -> Cochain:
    return _new_cochain(1, 0, basis, basis, {((i,), i): one(spec) for i in range(len(basis))})


@dataclass
class GaugeTransform:
    spec: FieldSpec
    space: GradedBasis
    maps: list[Cochain]

    def __post_init__(self):
        if not self.maps:
            raise ValueError("a gauge transform needs at least the order-0 map")
        for k, psi in enumerate(self.maps):
            if psi.algebra != self.space or psi.space != self.space:
                raise BasisMismatch(f"map {k} does not act on the declared space")
            if psi.arity != 1 or psi.parity != 0:
                raise WrongBidegree(f"map {k} must be a parity-preserving endomorphism")
        if self.maps[0] != identity_endo(self.space, self.spec):
            raise ValidationError("the order-0 map must be the identity")

    def map_at(self, k: int) -> Cochain:
        if 0 <= k < len(self.maps):
            return self.maps[k]
        return Cochain(1, 0, self.space, self.space, {})

    def inverse(self, order: int | None = None) -> "GaugeTransform":
        top = len(self.maps) - 1 if order is None else order
        return GaugeTransform(self.spec, self.space, self._inverse_maps(top))

    def _inverse_maps(self, top: int) -> list[Cochain]:
        phi = [identity_endo(self.space, self.spec)]
        minus = scalar(self.spec, -1)
        for k in range(1, top + 1):
            acc = Cochain(1, 0, self.space, self.space, {})
            for i in range(1, k + 1):  # on 1-cochains circ(f, g) is f after g
                acc = acc.add(circ(self.map_at(i), phi[k - i]))
            phi.append(acc.scale(minus))
        return phi


def gauge_transform(d: Deformation, g: GaugeTransform) -> Deformation:
    """Conjugate the deformation by the formal series, truncated at its order:
    term k at a canonical pair (a, b) is the sum of psi_i mu_j(phi_l a, phi_p b)
    over i + j + l + p = k, phi the inverse series.  Each mu_j(phi_l a, phi_p b)
    is one pull_back; the sum over j + l + p = r goes through psi_{k-r}."""
    L = d.base
    if g.space != L.basis or g.spec != L.spec:
        raise BasisMismatch("gauge transform does not act on the base algebra")
    if d.rep is not None:
        for k, psi in enumerate(g.maps):
            if not is_equivariant(psi, d.rep, d.rep, L, d.adjoint):
                raise ValidationError(f"gauge map {k} is not equivariant")
    N = d.order
    psi = [_map_columns(g.map_at(i)) for i in range(N + 1)]
    phi = [_map_columns(f) for f in g._inverse_maps(N)]
    mu = [{T: v.coords for T, v in f.by_tuple().items()} for f in d.terms]
    o, memo = one(L.spec), {}
    coords: list[dict] = [{} for _ in range(N + 1)]
    for a, b in superalt_basis(L.basis, 2):
        inner: list[Row] = [{} for _ in range(N + 1)]
        for l in range(N + 1):
            for p in range(N + 1 - l):
                pulled = pull_back([phi[l][a], phi[p][b]], (0, 1), L.basis.parities, o, memo)
                for j in range(N + 1 - l - p):
                    for T, c in pulled.items():
                        if T in mu[j]:
                            add_scaled(inner[l + p + j], c, mu[j][T])
        for k in range(N + 1):
            value = lin_comb((c, psi[k - r][t]) for r in range(k + 1) for t, c in inner[r].items())
            coords[k].update({((a, b), j): c for j, c in value.items()})
    return Deformation(L, d.rep, [_new_cochain(2, 0, L.basis, L.basis, cs) for cs in coords])


def infinitesimals_cohomologous(
    d1: Deformation, d2: Deformation, g: GaugeTransform | None = None
) -> bool:
    """Whether the first-order terms differ by the coboundary of an
    equivariant endomorphism.  Both deformations must carry one action."""
    L = d1.base
    if d2.base.basis != L.basis or d2.base.spec != L.spec:
        raise BasisMismatch("deformations live on different algebras")
    if d1.rep != d2.rep:
        raise ValidationError("deformations carry different group actions")
    minus = scalar(L.spec, -1)
    diff = d1.term(1).add(d2.term(1).scale(minus))
    M = d1.adjoint
    verdict = coboundary_preimage(1, L, M, d1.rep, diff) is not None
    if g is not None:
        psi1 = g.map_at(1)
        certificate = coboundary(psi1, L, M)
        if certificate.coords == diff.coords and not verdict:
            raise OracleDisagreement(
                "gauge certificate solves the coboundary equation "
                "but the equivariant solve found no solution"
            )
    return verdict
