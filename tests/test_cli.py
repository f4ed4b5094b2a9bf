"""CLI behaviour: exit codes, report content, and byte determinism."""

import json
import os
import subprocess
import sys

import pytest

from supercohom.cli import run_command
from supercohom.cohomology import annihilator
from supercohom.superalgebra import adjoint_module
from supercohom.workspace import load

HERE = os.path.dirname(__file__)
ROOT = os.path.abspath(os.path.join(HERE, ".."))
FIXDIR = os.path.join(ROOT, "fixtures")


def fx(name: str) -> str:
    return os.path.join(FIXDIR, name + ".json")


STRICT_DOC = {
    "field": "rational",
    "algebra": {
        "basis": [["a0", 0], ["a1", 0], ["x0", 1], ["x1", 1]],
        "brackets": {},
    },
    "cochains": {
        "mu1": {
            "arity": 2,
            "parity": 0,
            "coords": {
                "a0,x0|x0": "1",
                "a0,x1|x1": "-1",
                "a1,x0|x0": "-1",
                "a1,x1|x1": "1",
                "x0,x1|a0": "1",
                "x0,x1|a1": "1",
            },
        }
    },
    "deformations": {"d": {"terms": ["bracket", "mu1"]}},
}


@pytest.fixture
def strict_file(tmp_path):
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(STRICT_DOC))
    return str(path)


def run_json(capsys, argv):
    rc = run_command(argv + ["--emit", "json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


# -- validate ------------------------------------------------------------------


def test_validate_good_file_exits_zero(capsys):
    assert run_command(["validate", fx("fixture_gl11_z2")]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "action: ok" in out


def test_validate_json_reports_checks(capsys):
    rc, doc = run_json(capsys, ["validate", fx("fixture_super_poincare")])
    assert rc == 0
    assert doc["ok"] is True
    assert doc["field"] == "cyclotomic(4)"
    assert doc["group"] == {"order": 4}


def test_validate_rejects_broken_jacobi(tmp_path, capsys):
    doc = {
        "field": "rational",
        "algebra": {
            "basis": [["a", 0], ["b", 0], ["c", 0]],
            "brackets": {"a,b": {"c": "1"}, "a,c": {"a": "1"}, "b,c": {"b": "1"}},
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 1
    assert "jacobi" in capsys.readouterr().err


def test_missing_file_is_an_input_error(capsys):
    assert run_command(["validate", "no-such-file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"field": ')
    assert run_command(["validate", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_boolean_conductor_is_an_input_error(tmp_path, capsys):
    with open(fx("fixture_sl11")) as fh:
        doc = json.load(fh)
    doc["field"] = {"cyclotomic": True}
    path = tmp_path / "bool_field.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert "field.cyclotomic: conductor must be a positive integer" in captured.err
    assert "cyclotomic(True)" not in captured.out


def test_a_lone_sign_in_a_scalar_is_an_input_error(tmp_path, capsys):
    with open(fx("fixture_sl11")) as fh:
        doc = json.load(fh)
    doc["algebra"]["brackets"]["e12,e21"]["h1"] = "1 - - 2"
    path = tmp_path / "lone_sign.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad term '-'" in captured.err


def test_zero_denominator_is_an_input_error(tmp_path, capsys):
    with open(fx("fixture_sl11")) as fh:
        doc = json.load(fh)
    doc["algebra"]["brackets"]["e12,e21"]["h1"] = "1/0"
    path = tmp_path / "zero_den.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: algebra.brackets['e12,e21'].h1: zero denominator in term '1/0' of scalar '1/0'\n"
    )


@pytest.mark.parametrize(
    "key, value, err",
    [
        ("h1,e12", {"e12": "1", "h1": "1"},
         "validation failed: algebra.brackets: component at (0, 1) not homogeneous: parity 1 expected\n"),
        ("h1,h1", {"h1": "1"},
         "validation failed: algebra.brackets['h1,h1']: super-antisymmetry forces the bracket of an "
         "even vector with itself to vanish\n"),
        ("h1,e12", {"e12": "1"},
         "validation failed: algebra: structure constants violate the axioms:\n"
         "jacobi fails at (h1, e12, e21): lhs = 0, rhs = (1)*h1\n"
         "jacobi fails at (e12, e12, e21): lhs = (-1)*e12, rhs = (1)*e12\n"),
    ],
    ids=["inhomogeneous", "even-self-bracket", "jacobi"],
)
def test_malformed_bracket_is_a_validation_failure(tmp_path, capsys, key, value, err):
    with open(fx("fixture_sl11")) as fh:
        doc = json.load(fh)
    doc["algebra"]["brackets"][key] = value
    path = tmp_path / "bad_bracket.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def _module(basis, action, matrices=None):
    def edit(doc):
        doc["modules"] = {"W": {"basis": basis, "action": action}}
        if matrices is not None:
            doc["modules"]["W"]["matrices"] = matrices
    return edit


def _swap_action(mat):
    def edit(doc):
        doc["action"][1] = mat
    return edit


def _diag(*entries):
    return [[x if r == c else "0" for c, x in enumerate(entries)] for r in range(len(entries))]


ABELIAN_Z2 = {
    "field": "rational",
    "algebra": {"basis": [["a", 0], ["x", 1]], "brackets": {}},
    "group": {"identity": 0, "table": [[0, 1], [1, 0]]},
    "action": [[["1", "0"], ["0", "1"]], [["-1", "0"], ["1", "1"]]],
}


@pytest.mark.parametrize(
    "fixture, edit, err",
    [
        ("fixture_gl11", _module([["w", 0]], {"e11,w": {"w": "1"}}),
         "validation failed: modules.W: module axiom fails at (e12, e21, w): lhs = 0, rhs = (1)*w\n"
         "module axiom fails at (e21, e12, w): lhs = 0, rhs = (1)*w\n"),
        ("fixture_gl11", _module([["w", 0], ["u", 1]], {"e11,w": {"u": "1"}, "e22,w": {"u": "-1"}}),
         "validation failed: modules.W: homogeneity fails at (e11, w): lhs = (1)*u, rhs = parity 0 expected\n"
         "homogeneity fails at (e22, w): lhs = (-1)*u, rhs = parity 0 expected\n"),
        ("fixture_gl11_z2", lambda doc: doc.update(action=[_diag("0", "0", "0", "0")] * 2),
         "validation failed: action: identity fails at identity element\n"),
        ("fixture_gl11_z2", _swap_action(_diag("1", "1", "2", "1/2")),
         "validation failed: action: homomorphism fails at pair (1, 1)\n"),
        (None, lambda doc: doc.update(ABELIAN_Z2),
         "validation failed: action: degree fails at g=1, entry (1, 0)\n"),
        ("fixture_gl11_z2", _swap_action(_diag("1", "1", "-1", "1")),
         "validation failed: action: bracket equivariance fails at g=1, pair (e12, e21)\n"
         "bracket equivariance fails at g=1, pair (e21, e12)\n"),
        ("fixture_gl11_z2", _module([["w", 0]], {"e11,w": {"w": "1"}, "e22,w": {"w": "-1"}}, [[["1"]], [["1"]]]),
         "validation failed: modules.W: action equivariance fails at g=1, pair (e11, w)\n"
         "action equivariance fails at g=1, pair (e22, w)\n"),
        ("fixture_gl11", lambda doc: doc["algebra"]["basis"].append(["e11", 1]),
         "validation failed: algebra.basis: basis labels must be unique\n"),
        ("fixture_gl11_z2", lambda doc: doc["group"].update(table=[[0, 1], [1]]),
         "validation failed: group: Cayley table must be order x order\n"),
        ("fixture_gl11_z2", lambda doc: doc["group"].update(table=[[0, 1], [0, 1]]),
         "validation failed: group: column 0 of the Cayley table is not a permutation\n"),
    ],
    ids=[
        "module-axiom",
        "module-homogeneity",
        "identity",
        "homomorphism",
        "degree",
        "bracket-equivariance",
        "action-equivariance",
        "repeated-label",
        "ragged-cayley-table",
        "cayley-column",
    ],
)
def test_each_validator_failure_text_is_pinned(tmp_path, capsys, fixture, edit, err):
    doc = {}
    if fixture is not None:
        with open(fx(fixture)) as fh:
            doc = json.load(fh)
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


@pytest.mark.parametrize(
    "doc, code, err",
    [
        ({"field": "real", "algebra": {"basis": [], "brackets": {}}}, 2,
         'input error: field: expected "rational" or {"cyclotomic": m}\n'),
        # the zero entry is dropped before the even-self-bracket check
        ({"field": "rational", "algebra": {"basis": [["h", 0]], "brackets": {"h,h": {"h": "0"}}}}, 0, ""),
    ],
    ids=["unknown-field", "zero-even-self-bracket"],
)
def test_field_and_zero_self_bracket_exit_status_is_pinned(tmp_path, capsys, doc, code, err):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == code
    assert capsys.readouterr().err == err


REPEATED_BRACKET = (
    '{"field": "rational", "algebra": {"basis": [["h", 0], ["x", 1]], '
    '"brackets": {"x,x": {"h": "1"}, "x,x": {"h": "0"}}}}'
)
REPEATED_COORD = (
    '{"field": "rational", "algebra": {"basis": [["h", 0]], "brackets": {}}, '
    '"cochains": {"f": {"arity": 1, "parity": 0, "coords": {"h|h": "1", "h|h": "2"}}}}'
)


@pytest.mark.parametrize(
    "text, key",
    [(REPEATED_BRACKET, "x,x"), (REPEATED_COORD, "h|h")],
    ids=["bracket", "cochain-coordinate"],
)
def test_repeated_json_key_is_an_input_error(tmp_path, capsys, text, key):
    # json.loads alone keeps the last entry: the bracket would read as
    # abelian and the coordinate as 2, and validate would exit 0.
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert run_command(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: repeated key {key!r} in one object\n")


@pytest.mark.parametrize(
    "label, module, where",
    [("a,b", False, "algebra.basis[1]"), ("", False, "algebra.basis[1]"), ("m|n", True, "modules.W.basis[0]")],
    ids=["comma", "empty", "module-bar"],
)
def test_unnameable_label_is_an_input_error(tmp_path, capsys, label, module, where):
    doc = {"field": "rational", "algebra": {"basis": [["h", 0], ["k", 0]], "brackets": {}}}
    if module:
        doc["modules"] = {"W": {"basis": [[label, 0]], "action": {}}}
    else:
        doc["algebra"]["basis"][1][0] = label
    path = tmp_path / "label.json"
    path.write_text(json.dumps(doc))
    assert run_command(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        f"input error: {where}: labels must be nonempty, without ',' or '|', so keys can name them\n",
    )


def test_unknown_subcommand_is_an_input_error(capsys):
    assert run_command(["frobnicate", "x.json"]) == 2
    capsys.readouterr()


# -- cohomology ------------------------------------------------------------------


def test_cohomology_degree_zero_matches_annihilator(capsys):
    rc, doc = run_json(capsys, ["cohomology", fx("fixture_gl11_z2"), "--n", "0"])
    assert rc == 0
    ws = load(fx("fixture_gl11_z2"))
    ann = annihilator(ws.algebra, adjoint_module(ws.algebra), ws.rep)
    assert doc["h"][0] == len(ann) == 1


def test_cohomology_table_is_parity_split(capsys):
    assert run_command(["cohomology", fx("fixture_gl11"), "--n", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["parity", "cochains", "cocycles", "coboundaries", "H"]
    assert out[2].split() == ["0", "8", "3", "1", "2"]
    assert out[3].split() == ["1", "8", "2", "2", "0"]


def test_cohomology_unknown_module_is_an_input_error(capsys):
    assert run_command(["cohomology", fx("fixture_gl11"), "--n", "0", "--module", "W"]) == 2
    assert "unknown module" in capsys.readouterr().err


# -- mc-check --------------------------------------------------------------------


def test_mc_check_bracket_passes_on_all_shipped_algebras(capsys):
    for name in ("fixture_gl11", "fixture_gl21", "fixture_sl11", "fixture_super_poincare"):
        assert run_command(["mc-check", fx(name)]) == 0, name
    capsys.readouterr()


def test_mc_check_non_structure_candidate_fails(capsys):
    assert run_command(["mc-check", fx("fixture_gl11"), "--candidate", "mu1"]) == 1
    out = capsys.readouterr().out
    assert "[F, F] = 0: NO" in out
    assert "residual at (e11, e12, e12)" in out


# -- deform ----------------------------------------------------------------------


def test_deform_check_reports_order_one_failure(capsys):
    rc = run_command(
        ["deform", "check", fx("fixture_gl11_z2"), "--deformation", "mu_t"]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "order 0: ok" in out
    assert "order 1: FAIL (4 triples)" in out
    assert "(e11, e12, e12) -> -2*e11 + -2*e22" in out
    assert "deformation NOT valid" in out


def test_deform_check_strict_passes_on_genuine_deformation(strict_file, capsys):
    assert run_command(["deform", "check", strict_file, "--deformation", "d", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "order 2: ok" in out
    assert "deformation valid" in out


def test_deform_obstruct_solvable_on_genuine_deformation(strict_file, capsys):
    rc, doc = run_json(capsys, ["deform", "obstruct", strict_file, "--deformation", "d"])
    assert rc == 0
    assert doc["solvable"] is True and doc["closed"] is True
    assert doc["obstruction"] == {}


def test_deform_obstruct_refuses_invalid_deformation(capsys):
    rc = run_command(["deform", "obstruct", fx("fixture_gl11_z2"), "--deformation", "mu_t"])
    assert rc == 1
    assert "obstruction undefined" in capsys.readouterr().out


def test_deform_unknown_name_is_an_input_error(capsys):
    assert run_command(["deform", "check", fx("fixture_gl11_z2"), "--deformation", "nope"]) == 2
    capsys.readouterr()


# -- derivations -------------------------------------------------------------------


def test_derivations_counts(capsys):
    assert run_command(["derivations", fx("fixture_gl11")]) == 0
    assert "3 derivations into adjoint, 1 inner" in capsys.readouterr().out
    assert run_command(["derivations", fx("fixture_gl11_z2")]) == 0
    assert "1 invariant derivations into adjoint, 0 inner" in capsys.readouterr().out


# -- extend ------------------------------------------------------------------------


def test_extend_non_cocycle_fails(capsys):
    assert run_command(["extend", fx("fixture_gl11"), "--cocycle", "mu1"]) == 1
    out = capsys.readouterr().out
    assert "2-cocycle: NO" in out


def test_extend_zero_glue_builds_the_split_extension(tmp_path, capsys):
    doc = {
        "field": "rational",
        "algebra": {"basis": [["a", 0]], "brackets": {}},
        "cochains": {"h": {"arity": 2, "parity": 0, "coords": {}}},
    }
    path = tmp_path / "split.json"
    path.write_text(json.dumps(doc))
    assert run_command(["extend", str(path), "--cocycle", "h"]) == 0
    out = capsys.readouterr().out
    assert "2-cocycle: yes" in out
    assert "extension basis: a, a'" in out


@pytest.mark.parametrize("arity, parity", [(1, 0), (2, 1)], ids=["one-cochain", "odd-two-cochain"])
def test_extend_wrong_shape_cochain_is_an_input_error(tmp_path, capsys, arity, parity):
    doc = {
        "field": "rational",
        "algebra": {"basis": [["a", 0]], "brackets": {}},
        "cochains": {"h": {"arity": arity, "parity": parity, "coords": {}}},
    }
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    assert run_command(["extend", str(path), "--cocycle", "h"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "input error: extend cocycles must have arity 2 and parity 0\n")
    assert run_command(["mc-check", str(path), "--candidate", "h"]) == 2
    assert capsys.readouterr().err == "input error: mc-check candidates must have arity 2 and parity 0\n"


def test_extend_prints_a_coefficient_with_a_space_in_parentheses(tmp_path, capsys):
    doc = {
        "field": {"cyclotomic": 4},
        "algebra": {"basis": [["a", 0], ["b", 0]], "brackets": {}},
        "modules": {"triv": {"basis": [["m", 0]], "action": {}}},
        "cochains": {"h": {"arity": 2, "parity": 0, "module": "triv", "coords": {"a,b|m": "1 + z"}}},
    }
    path = tmp_path / "abelian_z4.json"
    path.write_text(json.dumps(doc))
    assert run_command(["extend", str(path), "--cocycle", "h"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["brackets:", "  [a, b] = (1 + z)*m"]


def test_extend_classify_finds_the_gl11_class(capsys):
    rc, doc = run_json(capsys, ["extend", "classify", fx("fixture_gl11")])
    assert rc == 0
    assert doc["count"] == 1
    assert len(doc["classes"]) == 1
    rc, doc = run_json(capsys, ["extend", "classify", fx("fixture_gl11_z2")])
    assert rc == 0
    assert doc["count"] == 0


def test_mc_check_refuses_a_candidate_of_another_module(capsys):
    assert run_command(["mc-check", fx("fixture_gl21"), "--candidate", "zero2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "input error: mc-check candidates must be adjoint-valued\n")


def test_any_other_library_error_is_an_error_line(capsys, monkeypatch):
    import supercohom.cli as cli
    from supercohom.errors import FieldMismatch

    def refuse(*args):
        raise FieldMismatch("rational vs cyclotomic(4)")

    monkeypatch.setattr(cli, "derivations", refuse)
    assert run_command(["derivations", fx("fixture_gl11")]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: rational vs cyclotomic(4)\n")


def test_oracle_disagreement_has_its_own_prefix(capsys, monkeypatch):
    # Drop one pivot column of the Reynolds operator: the remaining columns
    # are still fixed, but the character formula now disagrees.
    import supercohom.group_action as ga

    real = ga.pivot_columns
    monkeypatch.setattr(ga, "pivot_columns", lambda cols: real(cols)[:-1])
    rc = run_command(["cohomology", fx("fixture_gl11_z2"), "--n", "1"])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert err.startswith("internal error (oracle disagreement): character formula gives")
    assert err.count("\n") == 1


# -- environment and determinism ------------------------------------------------


def test_bad_thread_cap_is_an_input_error(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOHOM_THREADS", "0")
    assert run_command(["validate", fx("fixture_gl11")]) == 2
    assert "SUPERCOHOM_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("SUPERCOHOM_THREADS", "junk")
    assert run_command(["validate", fx("fixture_gl11")]) == 2
    capsys.readouterr()


def test_positive_thread_cap_is_accepted(capsys, monkeypatch):
    monkeypatch.setenv("SUPERCOHOM_THREADS", "8")
    assert run_command(["validate", fx("fixture_gl11")]) == 0
    capsys.readouterr()


DETERMINISM_COMMANDS = [
    ["validate", fx("fixture_super_poincare")],
    ["cohomology", fx("fixture_gl11_z2"), "--n", "1", "--emit", "json"],
    ["deform", "check", fx("fixture_gl11_z2"), "--deformation", "mu_t"],
    ["extend", "classify", fx("fixture_gl11")],
]


def _run_once(argv, seed, threads):
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    if threads is None:
        env.pop("SUPERCOHOM_THREADS", None)
    else:
        env["SUPERCOHOM_THREADS"] = str(threads)
    out = subprocess.run(
        [sys.executable, "-m", "supercohom.cli", *argv],
        capture_output=True,
        env=env,
        cwd=os.path.join(HERE, ".."),
    )
    return out.stdout


def test_output_bytes_identical_across_runs_and_thread_caps():
    for argv in DETERMINISM_COMMANDS:
        first = _run_once(argv, seed=0, threads=None)
        assert first  # every command prints something
        assert _run_once(argv, seed=1, threads=1) == first
        assert _run_once(argv, seed=2, threads=8) == first


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["deform", "check", fx("fixture_gl11_z2"), "--deformation", "mu_t"]
    proc = subprocess.run([sys.executable, "-m", "supercohom", *argv], capture_output=True, cwd=ROOT)
    rc = run_command(argv)
    got = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, got.out.encode(), got.err.encode())
    assert rc == 1 and b"deformation NOT valid" in proc.stdout

