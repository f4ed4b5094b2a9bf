"""The CLI grammar table against the hand-written argparse parsers it replaced.

cli.parse_args reads plain argv against cli.COMMANDS without argparse and
hands every other argv to parsers built from the same table.  The parsers
written out by hand (util.oracle_parsers) are the reference: the same
Namespace where they parse, the same exit code and bytes where they exit.
"""

import argparse
import contextlib
import io
import json
import os
import shlex
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercohom import cli
from util import oracle_parse_args, oracle_parsers

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def outcome(parse, argv):
    """(Namespace or exit code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def same_as_oracle(argv):
    # argparse wraps help and usage to the terminal width it reads from COLUMNS.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return outcome(cli.parse_args, argv) == outcome(oracle_parse_args, argv)


# -- the recorded commands and the README examples never build a parser -----------


def documented_argvs():
    with open(os.path.join(ROOT, "bench", "expected_cli.json"), encoding="utf-8") as fh:
        recorded = [(rec["argv"], rec["exit"]) for rec in json.load(fh)]
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = [shlex.split(line)[2:] for line in fh if line.startswith("$ supercohom ")]
    return recorded, readme


def test_documented_commands_build_no_argparse_parser(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    monkeypatch.chdir(ROOT)  # the argvs name fixtures relative to the root
    monkeypatch.delenv("SUPERCOHOM_THREADS", raising=False)
    recorded, readme = documented_argvs()
    assert len(recorded) == 42 and len(readme) == 3
    for argv, code in recorded:
        assert cli.run_command(argv) == code, argv
    for argv in readme:
        assert cli.run_command(argv) in (0, 1), argv
    capsys.readouterr()


# -- help -------------------------------------------------------------------------

HELP_WORDS = [
    [],
    ["validate"],
    ["cohomology"],
    ["mc-check"],
    ["deform"],
    ["derivations"],
    ["extend"],
    ["deform", "check"],
    ["deform", "obstruct"],
    ["extend", "build"],
    ["extend", "classify"],
]


@pytest.mark.parametrize("words", HELP_WORDS, ids=lambda w: " ".join(w) or "top")
def test_help_bytes_match_the_hand_built_parsers(words):
    argv = words + ["-h"]
    assert same_as_oracle(argv)
    # Without the `extend` rewrite of parse_args, so the help of the extend
    # group itself is compared too.
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        built = outcome(lambda a: cli._build_parsers().parse_args(a), argv)
        assert built == outcome(lambda a: oracle_parsers().parse_args(a), argv)
    code, out, err = built
    assert code == 0 and out.startswith("usage: supercohom") and err == ""


# -- every argv, plain or not --------------------------------------------------------

FILES = ["fixtures/fixture_gl11.json", "w.json", "", "-", "-f", "a b"]
VALUES = {
    "--n": ["1", "0", "12", " 2", "+4", "-1", "1.5", "x", "", "٣", "1_0"],
    "--emit": ["text", "json", "xml", "", "TEXT"],
}
NAMES = ["mu1", "triv", "adjoint", "", "a b", "-x"]
STRAY = ["--bogus", "-x", "--bogus=1", "-h", "--help", "--", "extra.json", "", "--n", "--emit=json",
         "-1", "frobnicate", "build", "classify"]


def abbreviate(draw, argv):
    spots = [i for i, tok in enumerate(argv) if tok.startswith("--") and len(tok) > 3]
    if not spots:
        return argv
    i = draw(st.sampled_from(spots))
    return argv[:i] + [argv[i][: draw(st.integers(3, len(argv[i]) - 1))]] + argv[i + 1 :]


def join_value(draw, argv):
    spots = [i for i, tok in enumerate(argv[:-1]) if tok.startswith("--")]
    if not spots:
        return argv
    i = draw(st.sampled_from(spots))
    return argv[:i] + [f"{argv[i]}={argv[i + 1]}"] + argv[i + 2 :]


def repeat(draw, argv):
    spots = [i for i, tok in enumerate(argv) if tok.startswith("--")]
    if not spots:
        return argv
    i = draw(st.sampled_from(spots))
    j = draw(st.integers(0, len(argv)))
    return argv[:j] + argv[i : i + 2] + argv[j:]


def drop(draw, argv):
    if not argv:
        return argv
    i = draw(st.integers(0, len(argv) - 1))
    return argv[:i] + argv[i + 1 :]


def insert(draw, argv):
    j = draw(st.integers(0, len(argv)))
    return argv[:j] + [draw(st.sampled_from(STRAY))] + argv[j:]


def replace(draw, argv):
    if not argv:
        return argv
    i = draw(st.integers(0, len(argv) - 1))
    return argv[:i] + [draw(st.sampled_from(STRAY))] + argv[i + 1 :]


@st.composite
def argvs(draw):
    """A command of the table with a FILE and some of its options in any order,
    then up to three perturbations."""
    cmd = draw(st.sampled_from(cli.COMMANDS))
    words = list(cmd.words)
    if words == ["extend", "build"] and draw(st.booleans()):
        words = ["extend"]  # the documented spelling
    parts = [[draw(st.sampled_from(FILES))]]
    for opt in (cli._EMIT, *cmd.options):
        if opt.required or draw(st.booleans()):
            value = [] if opt.flag else [draw(st.sampled_from(VALUES.get(opt.name, NAMES)))]
            parts.append([opt.name] + value)
    argv = words + [tok for part in draw(st.permutations(parts)) for tok in part]
    for _ in range(draw(st.integers(0, 3))):
        perturb = draw(st.sampled_from([abbreviate, join_value, repeat, drop, insert, replace]))
        argv = perturb(draw, argv)
    return argv


@settings(max_examples=8 * settings.default.max_examples)
@given(argvs())
@example(["cohomology", "w.json", "--mod", "triv", "--n", "1"])
@example(["cohomology", "w.json", "--n=1"])
@example(["cohomology", "w.json", "--module=triv", "x", "--n", "1"])
@example(["cohomology", "w.json", "--n", "1", "--n", "2"])
@example(["cohomology", "w.json", "--n", "-1"])
@example(["cohomology", "w.json", "--n", " 2"])
@example(["cohomology", "w.json", "--n", "1.5"])
@example(["cohomology", "w.json"])
@example(["deform", "check", "--strict", "w.json", "--deformation", "d"])
@example(["validate", "w.json", "--emit", "xml"])
@example(["validate", "w.json", "--bogus"])
@example(["validate", "--", "w.json"])
@example(["validate", "w.json", "extra.json"])
@example(["validate", ""])
@example(["extend", "build", "w.json", "--cocycle", "c"])
@example(["extend", "-h"])
@example(["extend", "--h"])
@example(["extend", "--he"])
@example(["extend", "--hel"])
@example(["extend"])
@example([""])
@example([])
def test_parse_matches_the_hand_built_parsers(argv):
    assert same_as_oracle(argv)


def test_extend_takes_the_build_word_and_shows_the_group_help():
    args = cli.parse_args(["extend", "build", "w.json", "--cocycle", "c"])
    assert (args.handler, args.file, args.cocycle) == (cli._cmd_extend, "w.json", "c")
    assert cli.parse_args(["extend", "w.json", "--cocycle", "c"]) == args
    # -h, --help and the abbreviations of --help all show the group help
    for flag in ("-h", "--h", "--he", "--hel", "--help"):
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            code, out, err = outcome(cli.parse_args, ["extend", flag])
        assert code == 0 and out.startswith("usage: supercohom extend [-h] {build,classify}") and err == ""
