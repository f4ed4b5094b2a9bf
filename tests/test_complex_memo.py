"""cohomology(n) reads the reduction of delta^(n-1) that an earlier call made.

Each complex (L, M and the actions) has one record, cohomology._Complex,
kept in M._complexes: its torus, found once, and per degree k its G-fixed
_family (tests/test_fixed_family_memo.py) and the pivot columns of delta^k
with its rank on the blocks of nonzero weight.  Only cohomology and the group
branch of _family make a record.  These tests count the torus passes
(_torus), the sweeps (_delta_rows) and the reductions of their rows
(rref_rows), check what the record keeps alive, and compare every report
with the oracle util.full_cohomology, which reads no record; they do not
time anything.  A report builds the representatives of a parity only when
they are first read (one pivot_columns each), so the last tests count those
builds and check what a report holds until then.
"""

import gc
import os
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom import cohomology as cohomology_module
from supercohom import extension, linalg
from supercohom.cli import run_command
from supercohom.cohomology import (
    _complex,
    _torus,
    _weights,
    coboundary_matrix,
    coboundary_preimage,
    cochain_basis,
    cohomology,
)
from supercohom.errors import BasisMismatch
from supercohom.extension import classify_extensions
from supercohom.graded import GradedBasis
from supercohom.group_action import cyclic_group, diagonal_rep, resolve_reps, trivial_action
from supercohom.scalars import RATIONAL, one, scalar
from supercohom.superalgebra import adjoint_module, from_pairs, make_gl, zero_module

from util import GROUP_SHAPES, count_calls, full_cohomology, gl11_swap_rep, rand_instance, rand_module

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def parity_rep(L):
    """Z/2 acting by (-1)^|x|: it fixes the torus of gl(m|n), so the
    weight-0 block is the one reduced (the weighted branch)."""
    diags = [[one(RATIONAL)] * len(L), [scalar(RATIONAL, 1 - 2 * p) for p in L.basis.parities]]
    return diagonal_rep(cyclic_group(2), RATIONAL, L.basis.parities, diags)


REPS = {"no group": lambda L: None, "swap": gl11_swap_rep, "parity": parity_rep}


class SweptRows(list):
    """The rows of one sweep, as cohomology hands them to rref_rows."""


class Swept(dict):
    def values(self):
        return SweptRows(super().values())


def watch(monkeypatch):
    """(degree of each sweep, number of reductions of sweep rows, number of
    rref_rows calls of any kind)."""
    sweeps = count_calls(monkeypatch, cohomology_module, "_delta_rows")
    counted = cohomology_module._delta_rows
    monkeypatch.setattr(cohomology_module, "_delta_rows", lambda *args: Swept(counted(*args)))
    reductions = count_calls(monkeypatch, linalg, "rref_rows", keep=lambda rows: isinstance(rows, SweptRows))
    every = count_calls(monkeypatch, linalg, "rref_rows")
    return sweeps, reductions, every


@pytest.mark.parametrize("make_rep", REPS.values(), ids=REPS.keys())
def test_a_ladder_sweeps_and_reduces_each_degree_once(monkeypatch, make_rep):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = make_rep(L)
    sweeps, reductions, _ = watch(monkeypatch)
    recorded = count_calls(monkeypatch, cohomology_module, "_pivot_images")
    reports = [cohomology(n, L, M, rep) for n in range(5)]
    assert [args[0] for args in sweeps] == [0, 1, 2, 3, 4]
    assert len(reductions) == len(recorded) == 5
    again = cohomology(3, L, M, rep)  # a repeated degree sweeps only itself
    assert [args[0] for args in sweeps[5:]] == [3]
    assert len(recorded) == 5  # and records nothing again
    monkeypatch.undo()
    assert reports == [full_cohomology(n, L, M, rep) for n in range(5)]
    assert again == reports[3]


@pytest.mark.parametrize("make_rep", REPS.values(), ids=REPS.keys())
def test_the_torus_is_found_once_per_complex(monkeypatch, make_rep):
    L = make_gl(1, 1)
    M, other = adjoint_module(L), adjoint_module(L)
    rep = make_rep(L)
    tori = count_calls(monkeypatch, cohomology_module, "_torus")
    for module in (M, other):  # an equal module is a complex of its own
        for n in range(5):
            cohomology(n, L, module, rep)
        cohomology(2, L, module, rep)
        target = cochain_basis(2, L, module, rep)[0]
        coboundary_preimage(1, L, module, rep, target)
        coboundary_matrix(1, L, module, rep)
    assert [args[1] for args in tori] == [M, other]
    assert tori[0][1] is M and tori[1][1] is other
    monkeypatch.undo()
    reps = resolve_reps(rep, L, M)
    assert _complex(L, M, reps).torus == _torus(L, M, reps) == _complex(L, other, reps).torus


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_cold_call_reduces_as_often_as_before(monkeypatch, n):
    # delta^n and delta^(n-1) are each swept and reduced once: two rref_rows
    # calls.  Each parity picks its representatives with one pivot_columns
    # when it is first read, so reading both makes four rref_rows calls.
    sweeps, reductions, every = watch(monkeypatch)
    picks = count_calls(monkeypatch, cohomology_module, "pivot_columns")
    for first in (0, 1):
        L = make_gl(1, 1)
        M = adjoint_module(L)
        for calls in (sweeps, reductions, every, picks):
            calls.clear()
        report = cohomology(n, L, M)
        assert sorted(args[0] for args in sweeps) == [n - 1, n]
        assert len(reductions) == 2
        assert len(every) == 2 and picks == []
        for p, calls in ((first, 3), (1 - first, 4)):
            report.representatives[p]
            report.representatives[p]  # a second read builds nothing
            assert len(every) == calls and len(picks) == calls - 2
        assert len(sweeps) == len(reductions) == 2


def test_no_group_calls_off_cohomology_make_no_record():
    L = make_gl(1, 1)
    M = adjoint_module(L)
    target = cochain_basis(2, L, M)[0]
    coboundary_preimage(1, L, M, None, target)
    coboundary_matrix(1, L, M)
    assert M._complexes == {}


@pytest.mark.parametrize("case", ["torus", "no torus", "parity"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_cold_call_builds_each_family_at_most_once(monkeypatch, case, n):
    # delta^n and delta^(n-1) are swept on the families of degrees n and
    # n - 1; with a torus the ranks off weight 0 also read the dimensions of
    # the families below.  None of them is built twice.
    L = make_gl(1, 1)
    M = adjoint_module(L)
    rep = parity_rep(L) if case == "parity" else None
    if case == "no torus":
        monkeypatch.setattr(cohomology_module, "_torus", lambda *args: [])
    families = count_calls(monkeypatch, cohomology_module, "_family")
    got = cohomology(n, L, M, rep)
    want = [n - 1, n] if case == "no torus" else list(range(n + 1))
    assert sorted(args[0] for args in families) == want
    monkeypatch.undo()
    assert got == full_cohomology(n, L, M, rep)


@pytest.mark.parametrize("shape", (None,) + GROUP_SHAPES)
@given(st.integers(0, 2**32 - 1), st.permutations(range(4)))
def test_degrees_in_any_order_give_the_full_reports(shape, seed, order):
    rng = random.Random(seed)
    L, rep = rand_instance(rng, with_action=shape is not None, groups=(shape,) if shape else ("cyclic",))
    M, reps = rand_module(rng, L, rep)
    first = {n: cohomology(n, L, M, reps) for n in order}
    second = {n: cohomology(n, L, M, reps) for n in order}
    for n in order:
        assert first[n] == second[n] == full_cohomology(n, L, M, reps)


def test_another_bracket_on_the_same_basis_gets_no_hit(monkeypatch):
    # gl(1|1) with [e12, e21] = 0: the same basis and the same torus weights,
    # so both complexes are reduced on their weight-0 blocks.
    L = make_gl(1, 1)
    odd_pair = (L.basis.index("e12"), L.basis.index("e21"))
    pairs = {(i, j): v for (i, j), v in L.bracket.components.items() if i <= j and (i, j) != odd_pair}
    other = from_pairs(L.basis, RATIONAL, pairs)
    M = zero_module(L, GradedBasis(("m",), (0,)))
    assert _weights(4, _complex(L, M, None)) == _weights(4, _complex(other, M, None)) is not None
    for n in range(3):
        cohomology(n, L, M)
    sweeps, _, _ = watch(monkeypatch)
    got = cohomology(2, other, M)
    assert sorted(args[0] for args in sweeps) == [1, 2]
    monkeypatch.undo()
    assert got == full_cohomology(2, other, M)
    assert got != full_cohomology(2, L, M)


def test_the_whole_complex_and_its_weight_zero_block_are_kept_apart(monkeypatch):
    # A complex fixes its torus when it is first reached.  With an empty
    # torus the complex on M is reduced whole and recorded as such; the
    # complex on an equal module finds the torus and reduces its weight-0
    # block.  Neither reads the other's record, and each keeps its block.
    L = make_gl(1, 1)
    M, other = adjoint_module(L), adjoint_module(L)
    monkeypatch.setattr(cohomology_module, "_torus", lambda *args: [])
    whole = [cohomology(n, L, M) for n in range(4)]
    monkeypatch.undo()
    weighted = [cohomology(n, L, other) for n in range(4)]
    assert _weights(6, _complex(L, M, None)) is None
    assert _weights(6, _complex(L, other, None)) is not None
    again = [cohomology(n, L, module) for module in (M, other) for n in range(4)]
    assert whole + weighted == again
    assert whole == weighted == [full_cohomology(n, L, M) for n in range(4)]


class WatchedMemo(dict):
    """A memo that records every read."""

    def __init__(self, memo, reads):
        super().__init__(memo)
        self.reads = reads

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.reads.append(key)
        return super().__contains__(key)

    def setdefault(self, key, default=None):
        self.reads.append(key)
        return super().setdefault(key, default)


def test_a_would_be_hit_still_checks_the_action_spaces():
    L = make_gl(1, 1)
    M = zero_module(L, GradedBasis(("m0", "m1"), (0, 1)))
    rep_L = gl11_swap_rep(L)
    rep_M = trivial_action(rep_L.group, RATIONAL, M.space.parities)
    for n in range(3):
        cohomology(n, L, M, (rep_L, rep_M))
    # The same objects, so M holds their record, but the module action no
    # longer lives on the space of M.
    rep_M.parities = (0, 0)
    reads = []
    M._complexes = WatchedMemo(M._complexes, reads)
    with pytest.raises(BasisMismatch):
        cohomology(3, L, M, (rep_L, rep_M))
    assert reads == []


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
def test_the_memo_keeps_nothing_alive(pair):
    # Dropping the actions, then L, then M frees each, and the records of the
    # complexes on them go with them, families and pivot columns included.
    L = make_gl(1, 1)
    if pair:
        M = zero_module(L, GradedBasis(("m0", "m1"), (0, 1)))
        rep_L = gl11_swap_rep(L)
        rep_M = trivial_action(rep_L.group, RATIONAL, M.space.parities)
        rep = (rep_L, rep_M)
    else:
        M = adjoint_module(L)
        rep_L = rep_M = rep = gl11_swap_rep(L)
    for n in range(3):
        cohomology(n, L, M, rep)
        cohomology(n, L, M)
    assert len(M._complexes) == 2
    grouped, plain = (_complex(L, M, r) for r in ((rep_L, rep_M), None))
    assert grouped.families and grouped.images and plain.images and plain.ranks
    assert plain.families == {}  # the unit columns are kept nowhere
    objs = {"L": L, "M": M, "rep_L": rep_L, "rep_M": rep_M, "grouped": grouped, "plain": plain}
    gone = {name: weakref.ref(x) for name, x in objs.items()}
    gc.disable()  # so only refcounting can free them: the records must hold no cycle
    try:
        del objs, rep, rep_L, rep_M, grouped, plain
        assert gone["rep_L"]() is None and gone["rep_M"]() is None
        assert gone["grouped"]() is None  # the record on the actions went with them
        assert len(M._complexes) == 1 and gone["plain"]() is not None
        del L
        assert gone["L"]() is None and gone["plain"]() is None
        assert M._complexes == {}
        del M
        assert gone["M"]() is None
    finally:
        gc.enable()


# -- representatives on demand ----------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "fixture_gl11", "--n", "1"],
        ["cohomology", "fixture_super_poincare", "--n", "1", "--module", "triv"],
    ],
    ids=["gl11", "super-poincare-triv"],
)
def test_the_cohomology_command_builds_no_representatives(monkeypatch, capsys, argv):
    kernels = count_calls(monkeypatch, linalg, "nullspace_from_rref")
    real = cohomology_module.pivot_columns
    picks = []
    monkeypatch.setattr(cohomology_module, "pivot_columns", lambda cols: picks.append(cols) or real(cols))
    command, fixture, *options = argv
    assert run_command([command, os.path.join(FIXTURES, fixture + ".json"), *options]) == 0
    assert "parity  cochains  cocycles  coboundaries  H" in capsys.readouterr().out
    assert kernels == [] and picks == []


def test_classify_extensions_builds_parity_zero_only(monkeypatch):
    L = make_gl(1, 1)
    M = adjoint_module(L)
    reports = []

    def kept(*args, **kwargs):
        reports.append(cohomology(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(extension, "cohomology", kept)
    picks = count_calls(monkeypatch, cohomology_module, "pivot_columns")
    found = classify_extensions(L, M)
    assert len(found) == reports[0].h_dims[0] == 1 and len(picks) == 1
    assert reports[0].representatives[0] == found and len(picks) == 1
    reports[0].representatives[1]  # parity 1 was not built
    assert len(picks) == 2


def assert_either_order_gives_the_full_lists(n, L, M, rep):
    want = full_cohomology(n, L, M, rep).representatives
    even_first = cohomology(n, L, M, rep).representatives
    odd_first = cohomology(n, L, M, rep).representatives
    assert [even_first[p] for p in (0, 1)] == [want[0], want[1]]
    assert [odd_first[p] for p in (1, 0)] == [want[1], want[0]]


@pytest.mark.parametrize("shape", (None,) + GROUP_SHAPES)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_either_parity_may_be_read_first(shape, seed, n):
    rng = random.Random(seed)
    L, rep = rand_instance(rng, with_action=shape is not None, groups=(shape,) if shape else ("cyclic",))
    M, reps = rand_module(rng, L, rep)
    assert_either_order_gives_the_full_lists(n, L, M, reps)


@given(
    st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    st.sampled_from(sorted(REPS.keys() - {"swap"})),
    st.booleans(),
    st.integers(0, 3),
)
def test_either_parity_may_be_read_first_on_a_torus(mn, group, adjoint, n):
    L = make_gl(*mn)
    rep = REPS[group](L)
    if adjoint:
        M = adjoint_module(L)
    else:
        M = zero_module(L, GradedBasis(("m",), (0,)))
        rep = None if rep is None else (rep, trivial_action(rep.group, RATIONAL, M.space.parities))
    assert_either_order_gives_the_full_lists(n if mn == (1, 1) else min(n, 2), L, M, rep)


class Reduced(list):
    """Reduced rows that a weak reference can watch."""


@pytest.mark.parametrize("first", [0, 1])
def test_a_report_lets_go_of_the_reduced_rows_once_read(monkeypatch, first):
    real = cohomology_module.rref_rows
    held = []

    def reduce(rows):
        reduced, pivots = real(rows)
        reduced = Reduced(reduced)
        held.append(weakref.ref(reduced))
        return reduced, pivots

    monkeypatch.setattr(cohomology_module, "rref_rows", reduce)
    L = make_gl(1, 1)
    report = cohomology(2, L, adjoint_module(L))
    delta_below, delta_n = held
    assert delta_below() is None and delta_n() is not None
    reps = report.representatives
    assert len(reps) == 2 and list(reps) == [0, 1]
    assert reps.get(2) is None and 2 not in reps
    reps[first]
    assert delta_n() is None  # the first read keeps the kernel instead
    reps[1 - first]
    assert delta_n() is None
    assert dict(reps) == full_cohomology(2, L, adjoint_module(L)).representatives
