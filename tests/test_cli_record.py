"""The recorded bytes of every shipped command, and the frame that runs them.

bench/expected_cli.json (read only) records the exit code, stdout and stderr
of the 42 (fixture, command) pairs of the cli-fixtures workload as text;
tests/expected_cli_json.json records the same argvs with ``--emit json``
(scripts/record_cli_json.py).  Both are replayed in process through
cli.run_command, from the repository root with SUPERCOHOM_THREADS unset.
"""

import json
import os

import pytest

from supercohom import extension, workspace
from supercohom.cli import run_command
from util import count_calls

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RECORDS = ["bench/expected_cli.json", "tests/expected_cli_json.json"]


def read_record(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # the recorded argvs name fixtures relative to the root
    monkeypatch.delenv("SUPERCOHOM_THREADS", raising=False)


@pytest.mark.parametrize("path", RECORDS)
def test_cli_output_matches_the_recorded_bytes(path, at_root, capsys):
    records = read_record(path)
    differ = []
    for rec in records:
        rc = run_command(rec["argv"])
        got = capsys.readouterr()
        if (rc, got.out.encode(), got.err.encode()) != (
            rec["exit"],
            rec["stdout"].encode(),
            rec["stderr"].encode(),
        ):
            differ.append(" ".join(rec["argv"]))
    assert len(records) == 42
    assert differ == []


def test_the_json_record_is_the_text_record_with_emit_json():
    text, js = (read_record(path) for path in RECORDS)
    assert [rec["argv"] for rec in js] == [rec["argv"] + ["--emit", "json"] for rec in text]
    assert [rec["exit"] for rec in js] == [rec["exit"] for rec in text]


# -- the frame: one load, one answer, one extension --------------------------------


@pytest.mark.parametrize("path", RECORDS)
def test_every_command_loads_its_workspace_once(path, at_root, monkeypatch, capsys):
    loads = count_calls(monkeypatch, workspace, "load")
    for rec in read_record(path):
        loads.clear()
        run_command(rec["argv"])
        file = next(tok for tok in rec["argv"] if tok.startswith("fixtures/"))
        assert loads == [(file,)], rec["argv"]
    capsys.readouterr()


@pytest.mark.parametrize("emit", ["text", "json"])
def test_extend_builds_its_extension_once(emit, at_root, monkeypatch, capsys):
    built = count_calls(monkeypatch, extension, "build_extension")
    assert run_command(["extend", "fixtures/fixture_gl21.json", "--cocycle", "zero2", "--emit", emit]) == 0
    assert len(built) == 1
    capsys.readouterr()


@pytest.mark.parametrize("emit", ["text", "json"])
@pytest.mark.parametrize(
    "argv, err",
    [
        (["cohomology", "--n", "-1"], "input error: --n must be >= 0\n"),
        (["cohomology", "--n", "1", "--module", "nope"], "input error: unknown module 'nope'; have ['adjoint']\n"),
        (["deform", "check", "--deformation", "nope"], "input error: unknown deformation 'nope'; have ['mu_t']\n"),
    ],
    ids=["negative-degree", "unknown-module", "unknown-deformation"],
)
def test_an_error_after_the_load_prints_no_answer(argv, err, emit, at_root, capsys):
    words = 2 if argv[0] == "deform" else 1
    argv = [*argv[:words], "fixtures/fixture_gl11_z2.json", *argv[words:], "--emit", emit]
    assert run_command(argv) == 2
    assert capsys.readouterr() == ("", err)
