"""Each G-fixed cochain family is built once per complex and degree.

cohomology._family keeps the certified columns of equivariant_subspace
(group_action._fixed_cochains) in the record of its complex,
cohomology._Complex, kept on the module per L and actions
(tests/test_complex_memo.py checks its reductions and lifetime).  The unit
columns of the complex without a group are kept nowhere.  These tests count
the builds; they do not time them.
"""

import gc
import os
import weakref

import pytest

from supercohom import group_action, superalgebra
from supercohom.cohomology import (
    Cochain,
    _complex,
    _family,
    coboundary,
    coboundary_matrix,
    coboundary_preimage,
    cochain_basis,
    cohomology,
)
from supercohom.deformation import Deformation, infinitesimals_cohomologous, obstruction
from supercohom.errors import BasisMismatch
from supercohom.graded import GradedBasis
from supercohom.group_action import ActionRep, cyclic_group, diagonal_rep, resolve_reps, trivial_action
from supercohom.nr_bracket import bracket_element
from supercohom.scalars import RATIONAL, one, scalar
from supercohom.superalgebra import adjoint_module, make_gl, zero_module
from supercohom.workspace import ADJOINT, load

from util import abelian_algebra, cold_family, count_calls, gl11_swap_rep

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def parity_rep(L):
    """Z/2 acting by (-1)^|x|: it fixes the torus of gl(m|n), so cohomology
    also reads the families below degree n - 1 (the weighted branch)."""
    diags = [[one(RATIONAL)] * len(L), [scalar(RATIONAL, 1 - 2 * p) for p in L.basis.parities]]
    return diagonal_rep(cyclic_group(2), RATIONAL, L.basis.parities, diags)


def copy_of(rep):
    """An ActionRep equal to rep, but a distinct object with its own columns."""
    columns = [[dict(col) for col in cols] for cols in rep.columns]
    return ActionRep(rep.group, rep.spec, rep.parities, columns=columns)


def builds(monkeypatch):
    """The degree of each induced action built, and the equivariant_subspace calls."""
    induced = count_calls(monkeypatch, group_action, "induced_action_on_cochains")
    fixed = count_calls(monkeypatch, group_action, "equivariant_subspace")
    return induced, fixed


@pytest.mark.parametrize("make_rep", [gl11_swap_rep, parity_rep], ids=["swap", "parity"])
def test_each_degree_is_built_once(monkeypatch, make_rep):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = make_rep(L)
    induced, fixed = builds(monkeypatch)
    reports = [cohomology(n, L, M, rep) for n in (0, 1, 2)]
    basis = cochain_basis(1, L, M, rep)
    target = next(t for t in (coboundary(f, L, M, rep) for f in basis) if not t.is_zero())
    assert coboundary_preimage(1, L, M, rep, target) is not None
    assert cochain_basis(2, L, M, rep)
    assert coboundary_matrix(1, L, M, rep)
    assert sorted(args[4] for args in induced) == [0, 1, 2]
    assert len(fixed) == 3
    monkeypatch.undo()
    assert reports == [cohomology(n, L, M, rep) for n in (0, 1, 2)]


def test_a_distinct_action_gets_its_own_build(monkeypatch):
    L = make_gl(1, 1)
    M = zero_module(L, GradedBasis(("m0", "m1"), (0, 1)))
    rep_L = gl11_swap_rep(L)
    rep_M = trivial_action(rep_L.group, RATIONAL, M.space.parities)
    induced, _ = builds(monkeypatch)
    cohomology(1, L, M, (rep_L, rep_M))
    assert len(induced) == 2  # degrees 1 and 0
    pairs = [(copy_of(rep_L), rep_M), (rep_L, copy_of(rep_M))]
    for pair in pairs:  # equal to the first pair, but not the same objects
        assert pair == (rep_L, rep_M)
        cohomology(1, L, M, pair)
    assert len(induced) == 6
    for pair in [(rep_L, rep_M)] + pairs:  # every pair is now a hit
        cohomology(1, L, M, pair)
    assert len(induced) == 6


def test_a_hit_still_checks_the_bases(monkeypatch):
    L = make_gl(1, 1)
    rep = gl11_swap_rep(L)
    M = adjoint_module(L)
    _family(1, L, M, rep)
    _, fixed = builds(monkeypatch)
    # The same pair of actions, on a module whose space has other parities.
    other = zero_module(L, GradedBasis(("m0", "m1", "m2", "m3"), (0, 0, 0, 0)))
    with pytest.raises(BasisMismatch):
        _family(1, L, other, (rep, rep))
    with pytest.raises(BasisMismatch):
        cohomology(1, L, other, (rep, rep))
    assert fixed == []


@pytest.mark.parametrize("make_rep", [gl11_swap_rep, parity_rep], ids=["swap", "parity"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_a_hit_returns_the_cold_build(monkeypatch, make_rep, n):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = make_rep(L)
    first = _family(n, L, M, rep)
    _, fixed = builds(monkeypatch)
    again = _family(n, L, M, rep)
    assert fixed == []
    monkeypatch.undo()
    cols, parities = cold_family(n, L, M, rep)
    assert again == first == (cols, parities, [0, 0])
    assert _complex(L, M, resolve_reps(rep, L, M)).families[n] == (cols, parities)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_the_unit_columns_are_built_once_per_degree(n):
    # Without a group the family is the unit columns, built on each call and
    # kept nowhere: _family makes no record, and the record that cohomology
    # makes holds no family.
    L = make_gl(1, 1)
    M = adjoint_module(L)
    assert _family(n, L, M) == (*cold_family(n, L, M), [0, 0])
    assert M._complexes == {}
    cohomology(n, L, M)
    assert _complex(L, M, None).families == {}


def test_a_single_action_is_freed_by_refcounting():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = gl11_swap_rep(L)
    cohomology(2, L, M, rep)
    assert _complex(L, M, (rep, rep)).families
    gone = weakref.ref(rep)
    gc.disable()  # so only refcounting can free rep: the record must hold no cycle
    try:
        del rep
        assert gone() is None
    finally:
        gc.enable()


def test_repeated_obstructions_share_their_families(monkeypatch):
    # A Deformation keeps one adjoint module, so every solve on it reads one
    # complex: each degree's family is built once however often it is asked.
    B = abelian_algebra(3, 0)
    rep = trivial_action(cyclic_group(2), RATIONAL, B.basis.parities)
    o = one(RATIONAL)
    mu1 = Cochain(2, 0, B.basis, B.basis, {((0, 1), 0): o, ((0, 2), 2): o})
    d = Deformation(B, rep, [bracket_element(B), mu1])
    induced, _ = builds(monkeypatch)
    modules = count_calls(monkeypatch, superalgebra, "adjoint_module")
    reports = [obstruction(d) for _ in range(3)]
    assert [infinitesimals_cohomologous(d, d) for _ in range(3)] == [True] * 3
    assert sorted(args[4] for args in induced) == [1, 2]
    assert modules == []
    assert not reports[0].cochain.is_zero()
    assert reports[0] == reports[1] == reports[2]
    assert d.term(5).space is d.adjoint.space


def test_a_workspace_keeps_one_adjoint_module(monkeypatch):
    ws = load(os.path.join(FIXTURES, "fixture_gl11_z2.json"))
    module, rep = ws.resolve_module(ADJOINT)
    assert module is ws.adjoint and ws.module_rep_arg(ADJOINT)[0] is module
    induced, _ = builds(monkeypatch)
    modules = count_calls(monkeypatch, superalgebra, "adjoint_module")
    for _ in range(2):
        for n in range(3):
            module, rep = ws.resolve_module(ADJOINT)
            cohomology(n, ws.algebra, module, rep)
    assert sorted(args[4] for args in induced) == [0, 1, 2]
    assert modules == []
