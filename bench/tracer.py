"""Outside-in tracing of supercohom: spans in one pass, counts in another.

Nothing in src/ is edited.  The tracer replaces module attributes with
wrappers and puts the originals back afterwards:

- SpanTracer records one span (name, start, end, parent, op) per call of a
  wrapped function.  Spans stay in memory; the benchmark writes them out when
  the run ends.  Self times come from the span tree (see self_times).
- CountTracer counts calls, derives sizes (rows, cols, nonzeros, ranks, dims)
  from arguments and results, and counts Scalar operations.  It runs in a pass
  of its own so that this bookkeeping does not inflate any span.

A wrapped function is also rebound in every supercohom module that imported
it by name (`from .linalg import mat_rank`), so calls through those copies are
seen too.  A listed name that no longer exists is reported as missing.

Per-element evaluators (bracket_eval, module_act, apply_rep, cochain_eval),
zero/identity constructors and the graded and scalars helpers are left
unwrapped: they run inside the loops of the wrapped functions, so a span per
call would cost more than the work it measures.  Their time is the self time
of the wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from math import comb

PACKAGE = "supercohom"

# Public functions of each layer, plus the two private steps of cohomology()
# that assemble and eliminate.
LAYERS = {
    "workspace": ("load", "parse", "serialize", "save"),
    "superalgebra": (
        "validate_superalgebra",
        "validate_module",
        "adjoint_module",
        "adjoint_submodule",
        "zero_module",
        "make_gl",
        "make_sl",
        "make_super_poincare",
    ),
    "group_action": (
        "cyclic_group",
        "trivial_action",
        "permutation_rep",
        "diagonal_rep",
        "validate_action",
        "validate_module_action",
        "induced_action_on_cochains",
        "equivariant_subspace",
    ),
    "cohomology": (
        "is_equivariant",
        "coboundary",
        "cochain_basis",
        "coboundary_matrix",
        "cohomology",
        "annihilator",
        "derivations",
        "_matrix_from_basis",
        "_pivot_columns",
    ),
    "linalg": (
        "mat_mul",
        "rref",
        "mat_rank",
        "nullspace",
        "solve",
        "column_space_basis",
        "span_equal",
    ),
    "nr_bracket": ("circ", "nr_bracket", "star", "mc_check", "bracket_to_element", "element_to_bracket"),
    "deformation": (
        "check_order",
        "validate",
        "infinitesimal",
        "obstruction",
        "identity_endo",
        "gauge_transform",
        "infinitesimals_cohomologous",
    ),
    "extension": (
        "extension_layout",
        "build_extension",
        "jacobi_iff_cocycle",
        "extensions_equivalent",
        "classify_extensions",
    ),
    "cli": ("run_command",),
}

# Per-layer time metrics: the summed self time of these spans, in seconds.
SELF_TIME_METRICS = {
    "workspace.load_s": ("workspace.load", "workspace.parse"),
    "superalgebra.validate_s": ("superalgebra.validate_superalgebra", "superalgebra.validate_module"),
    "group_action.validate_s": ("group_action.validate_action", "group_action.validate_module_action"),
    "group_action.induced_s": ("group_action.induced_action_on_cochains",),
    "group_action.fixed_s": ("group_action.equivariant_subspace",),
    "cohomology.basis_s": ("cohomology.cochain_basis",),
    "cohomology.assembly_s": ("cohomology._matrix_from_basis",),
    "cohomology.coboundary_s": ("cohomology.coboundary",),
    "cohomology.report_s": ("cohomology.cohomology",),
    "cohomology.direct_s": ("cohomology.annihilator", "cohomology.derivations"),
    "linalg.elim_s": ("linalg.rref", "cohomology._pivot_columns"),
    "linalg.rank_s": ("linalg.mat_rank",),
    "linalg.nullspace_s": ("linalg.nullspace",),
    "linalg.solve_s": ("linalg.solve",),
    "linalg.colspace_s": ("linalg.column_space_basis",),
    "linalg.span_equal_s": ("linalg.span_equal",),
    "linalg.mat_mul_s": ("linalg.mat_mul",),
    "nr_bracket.mc_s": ("nr_bracket.mc_check",),
    "nr_bracket.circ_s": ("nr_bracket.circ",),
    "deformation.validate_s": ("deformation.validate", "deformation.check_order"),
    "deformation.obstruction_s": ("deformation.obstruction",),
    "extension.jacobi_iff_cocycle_s": ("extension.jacobi_iff_cocycle",),
    "extension.equivalent_s": ("extension.extensions_equivalent",),
    "extension.classify_s": ("extension.classify_extensions",),
    "cli.self_s": ("cli.run_command",),
}

# Elimination entry points: each runs one echelon form of its first argument.
ELIMINATIONS = ("linalg.mat_rank", "linalg.rref", "linalg.column_space_basis", "cohomology._pivot_columns")


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Patcher:
    """Replaces functions by wrappers everywhere they are bound, and undoes it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap_layers(self, make_wrapper):
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = make_wrapper(f"{layer}.{name}", original)
                for mod in _modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self.set(mod, attr, wrapper)

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _Tracer:
    """Installs self._wrap around every function of LAYERS; restore() undoes it."""

    def __init__(self):
        self._patcher = Patcher()

    @property
    def missing(self):
        return self._patcher.missing

    def install(self):
        self._patcher.wrap_layers(self._wrap)
        return self

    def restore(self):
        self._patcher.restore()


# -- spans ----------------------------------------------------------------------


class SpanTracer(_Tracer):
    """Span recorder.  A span is (name, start_ns, end_ns, parent, op)."""

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self._stack = [-1]
        self._op = -1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op)

        return wrapper

    def run_op(self, op_id, label, fn):
        """Call fn() as operation op_id under a root span named op:label."""
        self._op = op_id
        return self._wrap("op:" + label, fn)()


def self_times(spans) -> list[int]:
    """Self time of every span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def self_time_metrics(spans) -> dict[str, float]:
    selfs = self_times(spans)
    by_name: dict[str, int] = {}
    for (name, *_), s in zip(spans, selfs):
        by_name[name] = by_name.get(name, 0) + s
    return {
        metric: sum(by_name.get(n, 0) for n in names) / 1e9
        for metric, names in SELF_TIME_METRICS.items()
    }


def check_op_self_times(spans) -> list[str]:
    """Per op, the self times of its spans must sum to at most its wall time.

    Returns one message per op that breaks this (an empty list when all hold).
    """
    selfs = self_times(spans)
    wall: dict[int, tuple[str, int]] = {}
    total: dict[int, int] = {}
    for (name, start, end, parent, op), s in zip(spans, selfs):
        if parent < 0 and name.startswith("op:"):
            wall[op] = (name, end - start)
        else:
            total[op] = total.get(op, 0) + s
        if s < 0:
            return [f"span {name} has negative self time {s} ns"]
    bad = []
    for op, t in total.items():
        if op not in wall:
            bad.append(f"spans outside any op (op id {op})")
        elif t > wall[op][1]:
            bad.append(f"{wall[op][0]}: self times sum to {t} ns > wall {wall[op][1]} ns")
    return bad


# -- counts ---------------------------------------------------------------------


def _nonzero(x) -> bool:
    is_zero = getattr(x, "is_zero", None)
    return not is_zero() if is_zero is not None else x != 0


def matrix_size(mat, cols=0) -> tuple[int, int, int]:
    """(rows, cols, nonzeros) of a dense matrix given as a list of rows."""
    rows = len(mat)
    if rows:
        cols = len(mat[0])
    nnz = sum(1 for row in mat for x in row if _nonzero(x))
    return rows, cols, nnz


def superalt_triples(basis) -> int:
    """Number of canonical super-alternating triples of a graded basis."""
    d0, d1 = basis.dims
    # k distinct even slots, and a multiset of 3 - k odd slots
    return sum(comb(d0, k) * (comb(d1 + 2 - k, 3 - k) if k < 3 else 1) for k in range(4))


class CountTracer(_Tracer):
    """Call counts, sizes from arguments and results, and Scalar operation counts."""

    SCALAR_METHODS = ("__add__", "__sub__", "__mul__", "inverse", "is_zero")

    def __init__(self):
        super().__init__()
        self.calls: dict[str, int] = {}
        self.sums: dict[str, int] = {}
        self._active = True

    def install(self):
        super().install()
        scalars = importlib.import_module(f"{PACKAGE}.scalars")
        cls = getattr(scalars, "Scalar", None)
        for meth in self.SCALAR_METHODS:
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                self._patcher.missing.append(f"scalars.Scalar.{meth}")
                continue
            self._patcher.set(cls, meth, self._wrap_scalar(meth, original))
        return self

    def _add(self, key, value):
        self.sums[key] = self.sums.get(key, 0) + value

    def _wrap_scalar(self, meth, fn):
        key = {"__add__": "add", "__sub__": "add", "inverse": "inverse", "is_zero": "is_zero"}.get(meth)
        sums = self.sums

        if meth == "__mul__":
            @functools.wraps(fn)
            def mul(a, b):
                if self._active:
                    k = "mul" if a.spec.degree == 1 else "mul_cyclotomic"
                    sums[k] = sums.get(k, 0) + 1
                return fn(a, b)

            return mul

        @functools.wraps(fn)
        def wrapper(*args):
            if self._active:
                sums[key] = sums.get(key, 0) + 1
            return fn(*args)

        return wrapper

    def _wrap(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            active, self._active = self._active, False
            calls[name] = calls.get(name, 0) + 1
            try:
                self._sizes(name, args, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                # the function now takes or returns another shape of data
                if f"{name} (sizes)" not in self.missing:
                    self.missing.append(f"{name} (sizes)")
            finally:
                self._active = active
            return result

        return wrapper

    def _sizes(self, name, args, result):
        add = self._add
        if name == "superalgebra.validate_superalgebra":
            add("jacobi_triples", superalt_triples(args[0].basis))
        elif name == "group_action.induced_action_on_cochains":
            add("induced_dim", result.dim)
        elif name == "group_action.equivariant_subspace":
            rep = args[0]
            add("fixed_in_dim", rep.dim)
            add("fixed_out_dim", len(result))
            add("fixed_nnz_in", sum(matrix_size(m)[2] for m in rep.matrices))
        elif name == "cohomology._matrix_from_basis":
            rows, cols, nnz = matrix_size(result, len(args[0]))
            add("assembly_rows", rows)
            add("assembly_cols", cols)
            add("assembly_nnz", nnz)
            add("assembly_cells", rows * cols)
        elif name in ELIMINATIONS:
            rows, cols, nnz = matrix_size(args[0])
            rank = len(result[1]) if name == "linalg.rref" else (
                result if isinstance(result, int) else len(result)
            )
            add("elim_cells", rows * cols)
            add("elim_nnz", nnz)
            add("elim_pivots", rank)
            add("elim_min_dim", min(rows, cols))


def count_metrics(calls: dict[str, int], sums: dict[str, int]) -> dict[str, float]:
    """Per-layer count metrics from the merged calls and sums of CountTracers."""
    c, s = calls, sums
    fixed_in, cells, elim = s.get("fixed_in_dim", 0), s.get("assembly_cells", 0), s.get("elim_min_dim", 0)
    return {
        "workspace.loads": c.get("workspace.load", 0),
        "superalgebra.validate_calls": c.get("superalgebra.validate_superalgebra", 0)
        + c.get("superalgebra.validate_module", 0),
        "superalgebra.jacobi_triples": s.get("jacobi_triples", 0),
        "group_action.induced_dim": s.get("induced_dim", 0),
        "group_action.fixed_calls": c.get("group_action.equivariant_subspace", 0),
        "group_action.fixed_in_dim": fixed_in,
        "group_action.fixed_out_dim": s.get("fixed_out_dim", 0),
        "group_action.fixed_ratio": s.get("fixed_out_dim", 0) / fixed_in if fixed_in else 0.0,
        "group_action.fixed_nnz_in": s.get("fixed_nnz_in", 0),
        "cohomology.assembly_rows": s.get("assembly_rows", 0),
        "cohomology.assembly_cols": s.get("assembly_cols", 0),
        "cohomology.assembly_nnz": s.get("assembly_nnz", 0),
        "cohomology.assembly_density": s.get("assembly_nnz", 0) / cells if cells else 0.0,
        "cohomology.coboundary_calls": c.get("cohomology.coboundary", 0),
        "linalg.calls": sum(n for k, n in c.items() if k.startswith("linalg.")),
        "linalg.cells": s.get("elim_cells", 0),
        "linalg.nnz": s.get("elim_nnz", 0),
        "linalg.pivots": s.get("elim_pivots", 0),
        "linalg.rank_ratio": s.get("elim_pivots", 0) / elim if elim else 0.0,
        "nr_bracket.circ_calls": c.get("nr_bracket.circ", 0),
        "scalars.add": s.get("add", 0),
        "scalars.mul": s.get("mul", 0),
        "scalars.mul_cyclotomic": s.get("mul_cyclotomic", 0),
        "scalars.inverse": s.get("inverse", 0),
        "scalars.is_zero": s.get("is_zero", 0),
    }
