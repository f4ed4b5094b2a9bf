"""Exact linear algebra over a Scalar field: one sparse Gauss-Jordan kernel.

A sparse matrix is a sequence of rows, and a row is a dict {column: Scalar}.
rref_rows brings such rows to reduced row echelon form.  Each incoming row is
reduced against the pivot rows found so far, scaled to a leading 1, and then
cleared out of the earlier pivot rows.  The reduced row echelon form of a
matrix is unique, so the rank, the pivot columns, the nullspace basis read
off the free columns and the solution picked by solve_rows (the one linear
solve of the package) do not depend on the row order or on how the
elimination runs inside.  The layout follows sympy's polys/matrices/sdm.py
(sdm_irref, sdm_nullspace_from_rref).

mat_mul stays dense for the group generators of bench/gen.py and for the
tests.  The dense fraction-free (Bareiss) elimination the kernel replaced and
the dense wrappers around the kernel are kept in tests/util.py for the tests.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import LengthMismatch
from .scalars import FieldSpec, Scalar, one, zero


Matrix = list[list[Scalar]]
Row = dict[int, Scalar]


def mat_zero(rows: int, cols: int, spec: FieldSpec) -> Matrix:
    z = zero(spec)
    return [[z] * cols for _ in range(rows)]


def mat_identity(n: int, spec: FieldSpec) -> Matrix:
    out = mat_zero(n, n, spec)
    o = one(spec)
    for i in range(n):
        out[i][i] = o
    return out


def mat_mul(a: Matrix, b: Matrix, spec: FieldSpec) -> Matrix:
    rows, cols = len(a), len(b[0]) if b else 0
    support = [[(j, x) for j, x in enumerate(bk) if not x.is_zero()] for bk in b]
    out = mat_zero(rows, cols, spec)
    for i in range(rows):
        ai, row = a[i], out[i]
        for k, aik in enumerate(ai):
            if aik.is_zero():
                continue
            for j, bkj in support[k]:
                row[j] = row[j] + aik * bkj
    return out


# -- the sparse kernel ----------------------------------------------------------


def add_scaled(target: Row, f: Scalar, src: Row):
    """target += f * src, dropping the entries that cancel."""
    for c, x in src.items():
        y = target.get(c)
        y = f * x if y is None else y + f * x
        if y.is_zero():
            target.pop(c, None)
        else:
            target[c] = y


def lin_comb(terms: Iterable[tuple[Scalar, Row]]) -> Row:
    """The sum of f * row over the (f, row) pairs, without zero entries."""
    acc: Row = {}
    for f, row in terms:
        add_scaled(acc, f, row)
    return acc


def rref_rows(rows: Iterable[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form of sparse rows: (pivot rows, pivot columns).

    One row per pivot, in increasing pivot order; each has a 1 at its pivot
    and no entry in any other pivot column.  Zero entries of the input are
    ignored and the input rows are left unchanged.

    The rows are reduced in increasing order of their nonzeros, which keeps
    the early pivot rows short, and rows with as many nonzeros in decreasing
    order of their leading column: a row whose pivot lies left of every
    pivot so far has nothing to clear out of the earlier pivot rows.  The
    form is unique, so the order changes nothing but the time.
    """
    reduced: dict[int, Row] = {}  # pivot column -> its row, pivot entry left out
    unit = None
    pending = [{c: x for c, x in row.items() if not x.is_zero()} for row in rows]
    pending.sort(key=lambda r: (len(r), -min(r, default=0)))
    for r in pending:
        for p in [c for c in r if c in reduced]:
            add_scaled(r, -r.pop(p), reduced[p])
        if not r:
            continue
        p = min(r)
        piv = r.pop(p)
        inv = piv.inverse()
        if unit is None:
            unit = piv * inv
        r = {c: x * inv for c, x in r.items()}
        for qrow in reduced.values():
            if p in qrow:
                add_scaled(qrow, -qrow.pop(p), r)
        reduced[p] = r
    pivots = sorted(reduced)
    return [{p: unit, **reduced[p]} for p in pivots], pivots


def nullspace_from_rref(reduced: list[Row], pivots: list[int], cols: int, spec: FieldSpec) -> dict[int, Row]:
    """Nullspace basis read off an RREF: free column -> its kernel vector.

    The vector of free column f has a 1 at f and minus the pivot rows'
    entries in column f at their pivots; free columns come in increasing order.
    """
    o = one(spec)
    pivot_set = set(pivots)
    basis = {c: {c: o} for c in range(cols) if c not in pivot_set}
    for row, p in zip(reduced, pivots):
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return basis


def pivot_columns(columns: list[Row]) -> list[int]:
    """Indices of the columns that start a basis of their span, left to right."""
    rows: dict[int, Row] = {}
    for k, col in enumerate(columns):
        for i, x in col.items():
            rows.setdefault(i, {})[k] = x
    return rref_rows(rows.values())[1]


def solve_rows(rows: Sequence[Row], rhs: Sequence[Scalar], cols: int) -> Row | None:
    """One exact solution x of rows . x = rhs, or None when inconsistent.

    The right-hand side becomes column cols of the augmented rows, which
    rref_rows reduces once; the system is inconsistent exactly when that
    column is a pivot.  Free variables are set to zero, so the solution is
    {pivot column: value} without zero entries, and unique.
    """
    if len(rhs) != len(rows):
        raise LengthMismatch("right-hand side length differs from the row count")
    aug = [row if b.is_zero() else {**row, cols: b} for row, b in zip(rows, rhs)]
    reduced, pivots = rref_rows(aug)
    if pivots and pivots[-1] == cols:
        return None
    return {p: row[cols] for row, p in zip(reduced, pivots) if cols in row}
