"""The three workloads: their inputs, operations and answer checks.

Importing this module imports supercohom, so the benchmark imports it inside
the timed set-up.  Operations call supercohom through its module attributes
(cohomology.cohomology, not a copy bound here), so that the tracer's wrappers
see the entry points too.  build() returns the operations of one pass; each operation
has a label, a callable that asks supercohom for one answer, and a check that
returns None when the answer is right and a short reason when it is not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import gen
from commands import command_argvs
from supercohom import cli, cohomology, linalg
from supercohom.graded import GradedBasis
from supercohom.superalgebra import adjoint_module, make_gl, make_sl, zero_module

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_RECORD = os.path.join(HERE, "expected_cli.json")

# Instances per random-equivariant pass: two of each shape in gen.SHAPES.
RANDOM_INSTANCES = 16

# (algebra, module, n, cochains, cocycles, coboundaries, H), each split by
# parity (even, odd), as computed on the seed and cross-checked by criterion
# tests of the repository (H^1 of gl(1|1) adjoint, H^3 of gl(2|1) trivial).
LADDER = (
    ("gl(1|1)", "adjoint", 1, (8, 8), (3, 2), (1, 2), (2, 0)),
    ("gl(1|1)", "adjoint", 2, (16, 16), (6, 6), (5, 6), (1, 0)),
    ("gl(1|1)", "adjoint", 3, (24, 24), (10, 10), (10, 10), (0, 0)),
    ("gl(1|1)", "adjoint", 4, (32, 32), (14, 14), (14, 14), (0, 0)),
    ("sl(1|1)", "adjoint", 1, (5, 4), (2, 2), (0, 2), (2, 0)),
    ("sl(1|1)", "adjoint", 2, (7, 8), (3, 4), (3, 2), (0, 2)),
    ("sl(1|1)", "adjoint", 3, (11, 10), (6, 4), (4, 4), (2, 0)),
    ("sl(1|1)", "adjoint", 4, (13, 14), (5, 8), (5, 6), (0, 2)),
    ("sl(1|1)", "adjoint", 5, (17, 16), (10, 6), (8, 6), (2, 0)),
    ("sl(1|1)", "adjoint", 6, (19, 20), (7, 12), (7, 10), (0, 2)),
    ("gl(2|1)", "trivial", 1, (5, 4), (1, 0), (0, 0), (1, 0)),
    ("gl(2|1)", "trivial", 2, (20, 20), (4, 4), (4, 4), (0, 0)),
    ("gl(2|1)", "trivial", 3, (60, 60), (17, 16), (16, 16), (1, 0)),
    ("gl(2|1)", "adjoint", 1, (41, 40), (5, 4), (4, 4), (1, 0)),
)


class Op:
    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


# -- cli-fixtures ------------------------------------------------------------------


def load_cli_record(path=CLI_RECORD):
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    if [r["argv"] for r in records] != command_argvs():
        raise ValueError(f"{path} does not match the command matrix; re-record it")
    return records


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_cli(record, answer):
    code, out, err = answer
    if code != record["exit"]:
        return f"exit {code}, recorded {record['exit']}"
    for stream, got in (("stdout", out), ("stderr", err)):
        want = record[stream].encode("utf-8")
        got = got.encode("utf-8")
        if got != want:
            at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            return f"{stream} differs from the record at byte {at}"
    return None


def cli_ops(records):
    return [
        Op(" ".join(r["argv"]), lambda argv=r["argv"]: run_cli(argv), lambda ans, r=r: check_cli(r, ans))
        for r in records
    ]


# -- cohomology-ladder ---------------------------------------------------------------


def ladder_inputs():
    algebras = {"gl(1|1)": make_gl(1, 1), "sl(1|1)": make_sl(1, 1), "gl(2|1)": make_gl(2, 1)}
    modules = {}
    for name, L in algebras.items():
        modules[(name, "adjoint")] = adjoint_module(L)
        modules[(name, "trivial")] = zero_module(L, GradedBasis(("m",), (0,)))
    return algebras, modules


def _dims(report):
    return report.c_dims, report.z_dims, report.b_dims, report.h_dims


def ladder_ops(inputs):
    algebras, modules = inputs
    ops = []
    for alg, mod, n, *want in LADDER:
        L, M = algebras[alg], modules[(alg, mod)]

        def check(report, want=tuple(want)):
            got = _dims(report)
            return None if got == want else f"c/z/b/h = {got}, recorded {want}"

        ops.append(Op(f"H^{n} {alg} {mod}", lambda L=L, M=M, n=n: cohomology.cohomology(n, L, M), check))
    return ops


# -- random-equivariant --------------------------------------------------------------


def _report_check(n, state):
    """H^n must be consistent in itself and with C^{n-1} -> B^n."""

    def check(report):
        state[n] = report
        c, z, b, h = _dims(report)
        for p in (0, 1):
            if not (0 <= b[p] <= z[p] <= c[p] and h[p] == z[p] - b[p]):
                return f"inconsistent dims {(c, z, b, h)}"
        prev = state.get(n - 1)
        if n > 0 and prev is not None:
            image = tuple(pc - pz for pc, pz in zip(prev.c_dims, prev.z_dims))
            if image != b:
                return f"B^{n} = {b}, but C^{n - 1} / Z^{n - 1} = {image}"
        return None

    return check


def _compare_with(n, what, count, state):
    report = state.get(n)
    if report is None:
        return f"no H^{n} to compare {what} with"
    if count != report.h_dims[0]:
        return f"{what} gives {count}, even H^{n} is {report.h_dims[0]}"
    return None


def _dd(inst, n):
    """delta^{n+1} . delta^n on the equivariant cochains of degree n."""
    inner = cohomology.coboundary_matrix(n, inst.L, inst.M, rep=inst.reps)
    outer = cohomology.coboundary_matrix(n + 1, inst.L, inst.M)
    return linalg.mat_mul(outer, inner, inst.L.spec)


def _check_zero(n):
    def check(mat):
        bad = sum(1 for row in mat for x in row if not x.is_zero())
        return None if bad == 0 else f"delta^{n + 1} . delta^{n} has {bad} nonzero entries"

    return check


def random_ops(instances):
    ops = []
    for k, inst in enumerate(instances):
        state: dict = {}
        tag = f"#{k} {inst.label}"
        for n in (0, 1, 2):
            ops.append(
                Op(f"{tag} H^{n}", lambda i=inst, n=n: cohomology.cohomology(n, i.L, i.M, rep=i.reps), _report_check(n, state))
            )
        ops.append(
            Op(
                f"{tag} annihilator",
                lambda i=inst: cohomology.annihilator(i.L, i.M, rep=i.reps),
                lambda ann, s=state: _compare_with(0, "annihilator", len(ann), s),
            )
        )
        ops.append(
            Op(
                f"{tag} derivations",
                lambda i=inst: cohomology.derivations(i.L, i.M, rep=i.reps),
                lambda di, s=state: _compare_with(1, "derivations - inner", len(di[0]) - len(di[1]), s),
            )
        )
        for n in (0, 1):
            ops.append(Op(f"{tag} dd^{n}", lambda i=inst, n=n: _dd(i, n), _check_zero(n)))
    return ops


# -- registry --------------------------------------------------------------------------


class Workload:
    """inputs(seed) builds the inputs and ops(inputs) the operations of a pass;
    fork_per_op runs each operation in a child of its own (one CLI call each)."""

    def __init__(self, inputs, ops, fork_per_op):
        self.inputs = inputs
        self.ops = ops
        self.fork_per_op = fork_per_op


WORKLOADS = {
    "cli-fixtures": Workload(lambda seed: load_cli_record(), cli_ops, True),
    "cohomology-ladder": Workload(lambda seed: ladder_inputs(), ladder_ops, False),
    "random-equivariant": Workload(lambda seed: gen.generate(seed, RANDOM_INSTANCES), random_ops, False),
}
