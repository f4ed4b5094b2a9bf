"""Tests of the benchmark itself: run with `python3 -m pytest bench/tests`."""

import copy

import pytest

import calibrate
import gen
import tracer
import workloads
from conftest import ROOT


@pytest.fixture
def in_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _record(argv_tail):
    return next(r for r in workloads.load_cli_record() if r["argv"][0] == argv_tail[0] and r["argv"][1:] == argv_tail[1:])


def test_recorded_cli_output_matches_and_one_byte_change_is_flagged(in_root):
    record = _record(["validate", "fixtures/fixture_sl11.json"])
    answer = workloads.run_cli(record["argv"])
    assert workloads.check_cli(record, answer) is None

    changed = copy.deepcopy(record)
    out = bytearray(changed["stdout"].encode("utf-8"))
    out[5] ^= 1
    changed["stdout"] = out.decode("utf-8")
    assert "stdout differs from the record at byte 5" == workloads.check_cli(changed, answer)

    changed = dict(record, exit=record["exit"] + 1)
    assert workloads.check_cli(changed, answer).startswith("exit")


def test_recorded_failure_exit_is_the_answer_not_a_failure(in_root):
    record = _record(["deform", "check", "fixtures/fixture_gl11.json", "--deformation", "mu_t"])
    assert record["exit"] == 1
    assert workloads.check_cli(record, workloads.run_cli(record["argv"])) is None


def _bindings():
    """Every (module or class, attribute) -> object the tracers may replace."""
    import supercohom.scalars

    out = {}
    for mod in tracer._modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = value
    for meth in tracer.CountTracer.SCALAR_METHODS:
        out[("Scalar", meth)] = getattr(supercohom.scalars.Scalar, meth)
    return out


@pytest.mark.parametrize("kind", [tracer.SpanTracer, tracer.CountTracer])
def test_wrappers_reach_imported_copies_and_are_restored(kind):
    import supercohom.cohomology
    import supercohom.linalg

    before = _bindings()
    tr = kind().install()
    try:
        assert supercohom.linalg.mat_rank is not before[("supercohom.linalg", "mat_rank")]
        assert supercohom.cohomology.mat_rank is supercohom.linalg.mat_rank
        assert tr.missing == []
    finally:
        tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_missing_name_is_reported_not_raised(monkeypatch):
    layers = dict(tracer.LAYERS, linalg=tracer.LAYERS["linalg"] + ("no_such_kernel",))
    monkeypatch.setattr(tracer, "LAYERS", layers)
    tr = tracer.SpanTracer().install()
    tr.restore()
    assert tr.missing == ["linalg.no_such_kernel"]


def test_spans_and_counts_of_a_small_rank():
    from supercohom import cohomology, linalg
    from supercohom.scalars import RATIONAL, scalar

    mat = [[scalar(RATIONAL, v) for v in row] for row in ((1, 2, 0), (2, 4, 0))]
    spans = tracer.SpanTracer().install()
    try:
        assert spans.run_op(0, "rank", lambda: linalg.mat_rank(mat, RATIONAL)) == 1
    finally:
        spans.restore()
    assert [s[0] for s in spans.spans] == ["op:rank", "linalg.mat_rank"]
    assert spans.spans[1][3] == 0 and spans.spans[1][4] == 0
    assert tracer.check_op_self_times(spans.spans) == []

    counts = tracer.CountTracer().install()
    try:
        cohomology.mat_rank(mat, RATIONAL)
    finally:
        counts.restore()
    m = tracer.count_metrics(counts.calls, counts.sums)
    assert (m["linalg.calls"], m["linalg.cells"], m["linalg.nnz"], m["linalg.pivots"]) == (1, 6, 4, 1)
    assert m["linalg.rank_ratio"] == 0.5
    assert m["scalars.is_zero"] > 0


@pytest.mark.parametrize("dims", [(0, 1), (1, 0), (3, 0), (2, 2), (5, 4)])
def test_jacobi_triple_count_matches_the_canonical_triples(dims):
    from supercohom.graded import GradedBasis, superalt_basis

    d0, d1 = dims
    basis = GradedBasis(tuple(f"b{i}" for i in range(d0 + d1)), (0,) * d0 + (1,) * d1)
    assert tracer.superalt_triples(basis) == len(superalt_basis(basis, 3))


def _fingerprint(instances):
    return [
        (
            inst.label,
            sorted((k, repr(v)) for k, v in inst.L.bracket.components.items()),
            repr(inst.reps[0].matrices if isinstance(inst.reps, tuple) else inst.reps.matrices),
        )
        for inst in instances
    ]


def test_generator_is_deterministic_and_seed_dependent():
    a = _fingerprint(gen.generate(7, 4))
    assert a == _fingerprint(gen.generate(7, 4))
    assert a != _fingerprint(gen.generate(8, 4))
    assert [x[0] for x in a] == [x[0] for x in _fingerprint(gen.generate(8, 4))]


def test_generated_actions_are_representations_and_not_monomial():
    from supercohom.group_action import validate_action

    for inst in gen.generate(3, len(gen.SHAPES)):
        rep = inst.reps[0] if isinstance(inst.reps, tuple) else inst.reps
        assert validate_action(rep, inst.L).ok
        assert not gen._is_monomial(rep.matrices[1])


def test_self_times_on_a_synthetic_tree():
    # op 0: root [0, 100] with children A [10, 60] and C [70, 90]; A has B [20, 30]
    spans = [
        ("op:x", 0, 100, -1, 0),
        ("linalg.rref", 10, 60, 0, 0),
        ("linalg.mat_rank", 20, 30, 1, 0),
        ("linalg.rref", 70, 90, 0, 0),
        ("op:y", 200, 250, -1, 1),
        ("cli.run_command", 205, 245, 4, 1),
    ]
    assert tracer.self_times(spans) == [30, 40, 10, 20, 10, 40]
    m = tracer.self_time_metrics(spans)
    assert m["linalg.elim_s"] == pytest.approx(60e-9)
    assert m["linalg.rank_s"] == pytest.approx(10e-9)
    assert m["cli.self_s"] == pytest.approx(40e-9)
    assert tracer.check_op_self_times(spans) == []

    broken = spans[:2] + [("linalg.mat_rank", 5, 65, 1, 0)] + spans[3:]
    assert tracer.check_op_self_times(broken) != []


def test_calibration_rescales_by_the_nearby_slices():
    ref = calibrate.REFERENCE_S
    slices = [(0.0, 2 * ref), (1.0, 4 * ref), (10.0, ref)]
    # both of the first two slices lie within WINDOW_S of [0.2, 0.7]
    assert calibrate.normalize(0.2, 0.5, slices) == pytest.approx(0.5 / 3)
    # far from every slice: the closest one in time is used
    assert calibrate.normalize(3.0, 1.0, slices) == pytest.approx(1.0 / 4)
    assert calibrate.normalize(8.0, 1.5, slices) == pytest.approx(1.5)


def test_ladder_check_flags_a_wrong_dimension():
    inputs = workloads.ladder_inputs()
    op = workloads.ladder_ops(inputs)[0]
    report = op.run()
    assert op.check(report) is None
    report.h_dims = (report.h_dims[0] + 1, report.h_dims[1])
    assert "recorded" in op.check(report)


def test_run_without_the_program_exits_nonzero(tmp_path, monkeypatch, capsys):
    import run

    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli-fixtures", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
