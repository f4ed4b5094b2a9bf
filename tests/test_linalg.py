import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercohom.errors import LengthMismatch
from supercohom.linalg import (
    mat_identity,
    mat_mul,
    mat_zero,
    pivot_columns,
    rref_rows,
)
from supercohom.scalars import RATIONAL, Scalar, cyclo, one, root_of_unity, scalar, zero

from util import (
    bareiss_column_space,
    bareiss_nullspace,
    bareiss_rank,
    bareiss_rref,
    bareiss_solve,
    bareiss_span_equal,
    column_space_basis,
    is_zero_matrix,
    mat_rank,
    mat_vec,
    nullspace,
    rand_scalar,
    rref,
    solve,
    span_equal,
)


def m_of(rows, spec=RATIONAL):
    return [[scalar(spec, x) for x in row] for row in rows]


def gauss_rank_oracle(rows):
    # Plain fraction Gaussian elimination, independent of the Bareiss path.
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rank_frozen_cases():
    assert mat_rank(m_of([[1, 2], [2, 4]]), RATIONAL) == 1
    assert mat_rank(m_of([[1, 0], [0, 1]]), RATIONAL) == 2
    assert mat_rank(m_of([[0, 0], [0, 0]]), RATIONAL) == 0


def test_rank_matches_plain_gauss_oracle_randomized():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        raw = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert mat_rank(m_of(raw), RATIONAL) == gauss_rank_oracle(raw)


def test_nullspace_members_are_in_kernel():
    rng = random.Random(9)
    spec = cyclo(4)
    for _ in range(15):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rand_scalar(spec, rng, zero_bias=0.5) for _ in range(cols)] for _ in range(rows)]
        null = nullspace(mat, cols, spec)
        assert mat_rank(mat, spec) + len(null) == cols
        for v in null:
            assert all(x.is_zero() for x in mat_vec(mat, v, spec))


def test_solve_consistent_and_inconsistent():
    spec = RATIONAL
    a = m_of([[1, 2], [3, 4]])
    b = [scalar(spec, 5), scalar(spec, 6)]
    x = solve(a, b, spec)
    assert x is not None
    assert mat_vec(a, x, spec) == b

    sing = m_of([[1, 1], [1, 1]])
    assert solve(sing, [scalar(spec, 0), scalar(spec, 1)], spec) is None
    x2 = solve(sing, [scalar(spec, 2), scalar(spec, 2)], spec)
    assert x2 is not None and mat_vec(sing, x2, spec) == [scalar(spec, 2)] * 2


def test_solve_over_cyclotomic_field():
    spec = cyclo(4)
    i = root_of_unity(spec, 1)
    a = [[one(spec), i], [i, one(spec)]]
    # Singular: second row is i * first row. i*(1, i) = (i, -1)? No: check.
    assert mat_rank(a, spec) == 2
    b = [i, zero(spec)]
    x = solve(a, b, spec)
    assert x is not None
    assert mat_vec(a, x, spec) == b


def test_rref_idempotent_and_pivots():
    a = m_of([[2, 4, 6], [1, 2, 4]])
    r, pivots = rref(a, RATIONAL)
    assert pivots == [0, 2]
    r2, p2 = rref(r, RATIONAL)
    assert r2 == r and p2 == pivots


def test_column_space_and_span_equal():
    spec = RATIONAL
    a = m_of([[1, 2, 3], [0, 0, 1]])
    cols = column_space_basis(a, spec)
    assert len(cols) == 2
    doubled = [[c + c for c in col] for col in cols]
    assert span_equal(cols, doubled, spec)
    # A strictly smaller family does not span the same space.
    assert not span_equal(cols, cols[:1], spec)


def test_mat_mul_and_identity():
    spec = cyclo(4)
    i = root_of_unity(spec, 1)
    a = [[one(spec), i], [zero(spec), one(spec)]]
    assert mat_mul(a, mat_identity(2, spec), spec) == a
    sq = mat_mul(a, a, spec)
    assert sq[0][1] == i + i


def test_is_zero_matrix():
    assert is_zero_matrix(m_of([[0, 0]]))
    assert not is_zero_matrix(m_of([[0, 1]]))


def test_solve_handles_empty_systems():
    spec = RATIONAL
    o, z = one(spec), zero(spec)
    assert solve([], [], spec) == []
    assert solve([[], []], [z, z], spec) == []
    assert solve([[], []], [z, o], spec) is None
    assert solve([[z, z]], [z], spec) == [z, z]
    assert solve([[z, z]], [o], spec) is None
    with pytest.raises(LengthMismatch):
        solve([[o]], [o, o], spec)


# -- the sparse kernel against the dense Bareiss oracle ---------------------------

SPECS = [RATIONAL, cyclo(4)]
COEFFS = [0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def entries(spec):
    return st.lists(st.sampled_from(COEFFS), min_size=spec.degree, max_size=spec.degree).map(
        lambda cs: Scalar(spec, cs)
    )


@st.composite
def systems(draw, spec, max_dim=5):
    """(matrix, column count): random, all-zero, or a product of thin factors."""
    rows, cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    kind = draw(st.sampled_from(["random", "random", "zero", "low rank"]))
    if kind == "zero":
        return mat_zero(rows, cols, spec), cols
    if kind == "low rank":
        k = draw(st.integers(1, 2))
        left = [[draw(entries(spec)) for _ in range(k)] for _ in range(rows)]
        right = [[draw(entries(spec)) for _ in range(cols)] for _ in range(k)]
        return mat_mul(left, right, spec), cols
    return [[draw(entries(spec)) for _ in range(cols)] for _ in range(rows)], cols


def columns(mat, cols):
    return [[row[c] for row in mat] for c in range(cols)]


def check_kernel_against_bareiss(mat, cols, spec, x0, b, other):
    """Every dense entry point against the Bareiss oracle on one system.

    x0 gives a consistent right-hand side mat @ x0; b is an arbitrary one;
    other is a column family to compare spans with.
    """
    assert mat_rank(mat, spec) == bareiss_rank(mat, spec)
    assert rref(mat, spec) == bareiss_rref(mat, spec)
    assert nullspace(mat, cols, spec) == bareiss_nullspace(mat, cols, spec)
    assert column_space_basis(mat, spec) == bareiss_column_space(mat, spec)
    sparse_cols = [{r: x for r, x in enumerate(col) if not x.is_zero()} for col in columns(mat, cols)]
    assert pivot_columns(sparse_cols) == bareiss_rref(mat, spec)[1]

    image = mat_vec(mat, x0, spec)
    x = solve(mat, image, spec)
    assert x == bareiss_solve(mat, image, spec)
    assert x is not None and mat_vec(mat, x, spec) == image
    assert solve(mat, b, spec) == bareiss_solve(mat, b, spec)

    a = columns(mat, cols)
    assert span_equal(a, other, spec) == bareiss_span_equal(a, other, spec)
    sub = column_space_basis(mat, spec)
    assert span_equal(a, sub, spec) and bareiss_span_equal(a, sub, spec)


@pytest.mark.parametrize("spec", SPECS, ids=["Q", "Q(zeta4)"])
def test_kernel_matches_bareiss(spec):
    @given(st.data())
    def prop(data):
        mat, cols = data.draw(systems(spec))
        rows = len(mat)
        x0 = data.draw(st.lists(entries(spec), min_size=cols, max_size=cols))
        b = data.draw(st.lists(entries(spec), min_size=rows, max_size=rows))
        other = data.draw(st.lists(st.lists(entries(spec), min_size=rows, max_size=rows), max_size=3))
        check_kernel_against_bareiss(mat, cols, spec, x0, b, other)

    prop()


@pytest.mark.parametrize("spec", SPECS, ids=["Q", "Q(zeta4)"])
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3), (3, 2)])
def test_kernel_matches_bareiss_on_empty_and_zero_matrices(spec, rows, cols):
    o = one(spec)
    mat = mat_zero(rows, cols, spec)
    check_kernel_against_bareiss(mat, cols, spec, [o] * cols, [o] * rows, [[o] * rows])
    assert nullspace(mat, cols, spec) == [[o if i == j else zero(spec) for i in range(cols)] for j in range(cols)]


@pytest.mark.parametrize("spec", SPECS, ids=["Q", "Q(zeta4)"])
def test_row_order_changes_neither_the_rows_nor_the_pivots(spec):
    # rref_rows reorders its input by nonzeros; the RREF is unique, so any
    # shuffle of the rows, some given with their zero entries, gives the
    # dense oracle's rows and pivots.
    @given(st.data())
    def prop(data):
        mat, cols = data.draw(systems(spec))
        want, want_pivots = bareiss_rref(mat, spec)
        want = [{c: x for c, x in enumerate(row) if not x.is_zero()} for row in want[: len(want_pivots)]]
        rows = [
            dict(enumerate(row)) if data.draw(st.booleans()) else {c: x for c, x in enumerate(row) if not x.is_zero()}
            for row in mat
        ]
        for order in (rows, data.draw(st.permutations(rows))):
            assert rref_rows(order) == (want, want_pivots)

    prop()
