"""Workspace files: round trips, mirror inference, and rejection paths."""

import json

import pytest

from supercohom.cohomology import Cochain
from supercohom.errors import ParseError, ValidationError
from supercohom.graded import GradedBasis, Vector
from supercohom.group_action import cyclic_group, diagonal_rep, permutation_rep, trivial_action
from supercohom.scalars import one, scalar
from supercohom.superalgebra import LModule, make_gl, make_super_poincare
from supercohom.workspace import (
    ADJOINT,
    BRACKET_TERM,
    CochainEntry,
    ModuleEntry,
    Workspace,
    parse,
    serialize,
)
from util import gl11_mu1, gl11_swap_rep

# -- document builders, independent of the serializer -------------------------


def gl11_doc():
    """gl(1|1) written out by hand, brackets listed lower index first."""
    return {
        "field": "rational",
        "algebra": {
            "basis": [["e11", 0], ["e22", 0], ["e12", 1], ["e21", 1]],
            "brackets": {
                "e11,e12": {"e12": "1"},
                "e11,e21": {"e21": "-1"},
                "e22,e12": {"e12": "-1"},
                "e22,e21": {"e21": "1"},
                "e12,e21": {"e11": "1", "e22": "1"},
            },
        },
    }


def with_z2(doc):
    eye = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    swap = [["0", "1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "1"], ["0", "0", "1", "0"]]
    doc["group"] = {"table": [[0, 1], [1, 0]], "identity": 0}
    doc["action"] = [eye, swap]
    return doc


MU1_COORDS = {
    "e11,e12|e21": "1",
    "e11,e21|e12": "-1",
    "e22,e12|e21": "-1",
    "e22,e21|e12": "1",
    "e12,e21|e11": "1",
    "e12,e21|e22": "1",
}


def gl11_workspace():
    L = make_gl(1, 1)
    rep = gl11_swap_rep(L)
    ws = Workspace(L, rep)
    ws.cochains["mu1"] = CochainEntry(gl11_mu1(L), ADJOINT)
    ws.deformations["mu_t"] = (BRACKET_TERM, "mu1")
    return ws


# -- round trips ---------------------------------------------------------------


def test_parse_of_handwritten_gl11_matches_constructor():
    ws = parse(json.dumps(gl11_doc()))
    L = make_gl(1, 1)
    assert ws.algebra == L
    assert ws.group is None and ws.rep is None


def test_mirror_entries_follow_super_antisymmetry():
    ws = parse(json.dumps(gl11_doc()))
    br = ws.algebra.bracket
    # mixed parity pair: [e12, e11] = -[e11, e12]
    assert br.at((2, 0)) == -br.at((0, 2))
    # odd-odd pair: [e21, e12] = +[e12, e21]
    assert br.at((3, 2)) == br.at((2, 3))
    assert not br.at((3, 2)).is_zero()


def test_serialize_parse_round_trip_equality():
    ws = gl11_workspace()
    assert parse(serialize(ws)) == ws


def test_serialize_is_canonical_on_reparse():
    text = serialize(gl11_workspace())
    assert serialize(parse(text)) == text


def test_noncanonical_input_parses_to_same_workspace():
    doc = with_z2(gl11_doc())
    doc["cochains"] = {"mu1": {"arity": 2, "parity": 0, "coords": MU1_COORDS}}
    doc["deformations"] = {"mu_t": {"terms": ["bracket", "mu1"]}}
    # scrambled key order, no indentation, integer scalars
    doc["algebra"]["brackets"]["e12,e21"] = {"e22": 1, "e11": 1}
    blob = json.dumps(doc, separators=(",", ":"))
    assert parse(blob) == gl11_workspace()
    assert serialize(parse(blob)) == serialize(gl11_workspace())


def test_round_trip_with_module_and_cyclotomic_field():
    L = make_super_poincare()
    ws = Workspace(L)
    space = GradedBasis(("w",), (0,))
    ws.modules["W"] = ModuleEntry(LModule(L.basis, space, {}), None)
    again = parse(serialize(ws))
    assert again == ws
    assert again.spec.conductor == 4


def test_module_with_group_round_trips_matrices():
    L = make_gl(1, 1)
    rep = gl11_swap_rep(L)
    ws = Workspace(L, rep)
    space = GradedBasis(("w",), (0,))
    rep_w = trivial_action(rep.group, L.spec, space.parities)
    ws.modules["W"] = ModuleEntry(LModule(L.basis, space, {}), rep_w)
    again = parse(serialize(ws))
    assert again == ws
    assert again.modules["W"].rep is not None


def test_deformation_accessor_builds_and_caches():
    ws = parse(serialize(gl11_workspace()))
    d = ws.deformation("mu_t")
    assert d.order == 1
    assert ws.deformation("mu_t") is d
    assert d.term(1) == gl11_mu1(make_gl(1, 1))


def test_fixture_files_match_their_generators(tmp_path):
    import os
    import subprocess
    import sys

    here = os.path.dirname(__file__)
    fixdir = os.path.join(here, "..", "fixtures")
    names = sorted(f for f in os.listdir(fixdir) if f.endswith(".json"))
    assert "fixture_gl11_z2.json" in names
    assert "fixture_super_poincare.json" in names
    for name in names:
        path = os.path.join(fixdir, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert serialize(parse(text)) == text, f"{name} is not in canonical form"
    # the generator reproduces the shipped files byte for byte
    subprocess.run(
        [
            sys.executable,
            os.path.join(here, "..", "scripts", "make_fixtures.py"),
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    regenerated = sorted(f for f in os.listdir(tmp_path) if f.endswith(".json"))
    assert regenerated == names
    for name in names:
        with open(os.path.join(fixdir, name), "rb") as fh:
            shipped = fh.read()
        assert (tmp_path / name).read_bytes() == shipped, f"{name} drifted"


# -- malformed input -----------------------------------------------------------


def test_json_syntax_error_reports_line_and_column():
    with pytest.raises(ParseError, match=r"line 3, column"):
        parse('{\n  "field": "rational",\n  "algebra" }\n')


def test_unknown_top_level_key_rejected():
    doc = gl11_doc()
    doc["extra"] = 1
    with pytest.raises(ParseError, match="unknown keys.*extra"):
        parse(json.dumps(doc))


def test_unknown_label_in_brackets_rejected():
    doc = gl11_doc()
    doc["algebra"]["brackets"]["e11,nope"] = {"e12": "1"}
    with pytest.raises(ParseError, match="unknown label 'nope'"):
        parse(json.dumps(doc))


def test_upper_index_first_rejected():
    doc = gl11_doc()
    doc["algebra"]["brackets"]["e21,e12"] = doc["algebra"]["brackets"].pop("e12,e21")
    with pytest.raises(ParseError, match="lower basis index first"):
        parse(json.dumps(doc))


def test_bad_scalar_rejected():
    doc = gl11_doc()
    doc["algebra"]["brackets"]["e11,e12"] = {"e12": "1/0x"}
    with pytest.raises(ParseError, match="e11,e12"):
        parse(json.dumps(doc))


@pytest.mark.parametrize("value", ["1/0", "-3/00", "1 + 2/0"])
def test_zero_denominator_is_a_parse_error_naming_the_cell(value):
    doc = gl11_doc()
    doc["algebra"]["brackets"]["e11,e12"] = {"e12": value}
    with pytest.raises(ParseError, match=r"^algebra\.brackets\['e11,e12'\]\.e12: zero denominator"):
        parse(json.dumps(doc))


def test_each_scalar_text_is_parsed_once_and_a_bad_one_names_its_first_cell(monkeypatch):
    import supercohom.workspace as workspace

    texts = []
    original = workspace.parse_scalar

    def counting(spec, text):
        texts.append(text)
        return original(spec, text)

    monkeypatch.setattr(workspace, "parse_scalar", counting)
    doc = with_z2(gl11_doc())
    assert parse(json.dumps(doc)) == parse(json.dumps(with_z2(gl11_doc())))
    assert texts and len(texts) == len(set(texts)) * 2  # two parses, each text once per parse
    for key in ("e11,e21", "e22,e21"):  # the same bad text twice, in parse order
        doc["algebra"]["brackets"][key] = {"e21": "1/0x"}
    with pytest.raises(ParseError, match=r"^algebra\.brackets\['e11,e21'\]\.e21: "):
        parse(json.dumps(doc))


def test_action_cells_read_into_the_same_action_and_name_their_place():
    # Zero cells written as 0, "0" or "0/5" add nothing; every other cell goes
    # through the scalar parser, so a bool is not read as zero.
    plain = parse(json.dumps(with_z2(gl11_doc()))).rep
    doc = with_z2(gl11_doc())
    doc["action"][1][0][2], doc["action"][1][0][3], doc["action"][1][0][1] = 0, "0/5", 1
    assert parse(json.dumps(doc)).rep == plain
    for cell in (False, "1/0x", 0.0):
        doc["action"][1][2][3] = cell
        with pytest.raises(ParseError, match=r"^action\[1\]\[2\]\[3\]: "):
            parse(json.dumps(doc))
    doc["action"][1][2] = ["0", "0", "1"]
    with pytest.raises(ParseError, match=r"^action\[1\]\[2\]: expected 4 entries"):
        parse(json.dumps(doc))
    doc["action"][1] = doc["action"][1][:3]
    with pytest.raises(ParseError, match=r"^action\[1\]: expected a 4 x 4 matrix"):
        parse(json.dumps(doc))


def test_action_without_group_rejected():
    doc = gl11_doc()
    doc["action"] = []
    with pytest.raises(ParseError, match='"action" given but no "group"'):
        parse(json.dumps(doc))


def test_group_without_action_rejected():
    doc = gl11_doc()
    doc["group"] = {"table": [[0]], "identity": 0}
    with pytest.raises(ParseError, match='needs an "action"'):
        parse(json.dumps(doc))


def test_module_matrices_required_with_group():
    doc = with_z2(gl11_doc())
    doc["modules"] = {"W": {"basis": [["w", 0]], "action": {}}}
    with pytest.raises(ParseError, match='needs "matrices"'):
        parse(json.dumps(doc))


def test_module_matrices_forbidden_without_group():
    doc = gl11_doc()
    doc["modules"] = {"W": {"basis": [["w", 0]], "action": {}, "matrices": [[["1"]]]}}
    with pytest.raises(ParseError, match="no group"):
        parse(json.dumps(doc))


def test_reserved_names_rejected():
    doc = gl11_doc()
    doc["modules"] = {ADJOINT: {"basis": [["w", 0]], "action": {}}}
    with pytest.raises(ParseError, match="reserved"):
        parse(json.dumps(doc))
    doc = gl11_doc()
    doc["cochains"] = {BRACKET_TERM: {"arity": 0, "parity": 0, "coords": {}}}
    with pytest.raises(ParseError, match="reserved"):
        parse(json.dumps(doc))


def test_unknown_deformation_term_rejected():
    doc = gl11_doc()
    doc["deformations"] = {"d": {"terms": ["bracket", "ghost"]}}
    with pytest.raises(ParseError, match="unknown cochain 'ghost'"):
        parse(json.dumps(doc))


def test_unresolved_names_raise_parse_errors_on_access():
    ws = parse(json.dumps(gl11_doc()))
    with pytest.raises(ParseError, match="unknown module"):
        ws.resolve_module("W")
    with pytest.raises(ParseError, match="unknown cochain"):
        ws.cochain("f")
    with pytest.raises(ParseError, match="unknown deformation"):
        ws.deformation("d")


# -- axiom violations ----------------------------------------------------------


def test_nonzero_even_diagonal_bracket_rejected():
    doc = gl11_doc()
    doc["algebra"]["brackets"]["e11,e11"] = {"e11": "1"}
    with pytest.raises(ValidationError, match="even vector with itself"):
        parse(json.dumps(doc))


def test_jacobi_violation_rejected_with_witness():
    doc = {
        "field": "rational",
        "algebra": {
            "basis": [["a", 0], ["b", 0], ["c", 0]],
            "brackets": {
                "a,b": {"c": "1"},
                "a,c": {"a": "1"},
                "b,c": {"b": "1"},
            },
        },
    }
    with pytest.raises(ValidationError, match="jacobi"):
        parse(json.dumps(doc))


def test_group_associativity_violation_rejected_with_triple():
    # a Latin square with two-sided identity that is not a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    doc = gl11_doc()
    doc["group"] = {"table": loop, "identity": 0}
    doc["action"] = []
    with pytest.raises(ValidationError, match=r"associative at \(\d, \d, \d\)"):
        parse(json.dumps(doc))


def test_action_that_breaks_the_bracket_rejected():
    doc = with_z2(gl11_doc())
    # e12 -> -e12 alone is not an automorphism of gl(1|1)
    doc["action"][1] = [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "-1", "0"],
        ["0", "0", "0", "1"],
    ]
    with pytest.raises(ValidationError, match="action"):
        parse(json.dumps(doc))


def test_noncanonical_cochain_key_rejected():
    doc = gl11_doc()
    doc["cochains"] = {
        "f": {"arity": 2, "parity": 0, "coords": {"e12,e11|e21": "1"}}
    }
    with pytest.raises(ValidationError, match="canonical"):
        parse(json.dumps(doc))


def test_cochain_parity_mismatch_rejected():
    doc = gl11_doc()
    doc["cochains"] = {
        "f": {"arity": 2, "parity": 1, "coords": {"e11,e12|e21": "1"}}
    }
    with pytest.raises(ValidationError, match="parity"):
        parse(json.dumps(doc))


def test_deformation_with_wrong_leading_term_rejected():
    doc = gl11_doc()
    doc["cochains"] = {"f": {"arity": 2, "parity": 0, "coords": MU1_COORDS}}
    doc["deformations"] = {"d": {"terms": ["f"]}}
    with pytest.raises(ValidationError, match="order-0"):
        parse(json.dumps(doc))


def test_deformation_with_nonequivariant_term_rejected():
    doc = with_z2(gl11_doc())
    doc["cochains"] = {"f": {"arity": 2, "parity": 0, "coords": {"e11,e12|e12": "1"}}}
    doc["deformations"] = {"d": {"terms": ["bracket", "f"]}}
    with pytest.raises(ValidationError, match="equivariant"):
        parse(json.dumps(doc))


def test_module_that_breaks_the_action_axiom_rejected():
    doc = gl11_doc()
    # q(e12) acting on w must square to zero along [e12, e12] = 0; a rank-one
    # projection P = e12 action with P([e12,e12] w) = 0 but the graded
    # commutator 2 P^2 w nonzero violates the module axiom.
    doc["modules"] = {
        "W": {
            "basis": [["w", 0], ["v", 1]],
            "action": {"e12,w": {"v": "1"}, "e12,v": {"w": "1"}},
        }
    }
    with pytest.raises(ValidationError, match="modules.W"):
        parse(json.dumps(doc))


def test_scalar_outside_declared_field_rejected():
    doc = gl11_doc()
    doc["algebra"]["brackets"]["e11,e12"] = {"e12": "z"}
    with pytest.raises(ParseError, match="rational"):
        parse(json.dumps(doc))


# -- JSON booleans are not integers ------------------------------------------------
# json.loads gives true/false as bool, a subclass of int; each integer field
# must refuse them with its own message.


def test_boolean_scalar_cell_rejected():
    doc = gl11_doc()
    doc["algebra"]["brackets"]["e11,e12"] = {"e12": True}
    with pytest.raises(ParseError, match=r"e11,e12.*scalars must be written as strings"):
        parse(json.dumps(doc))


def test_boolean_conductor_rejected():
    doc = gl11_doc()
    doc["field"] = {"cyclotomic": True}
    with pytest.raises(ParseError, match=r"^field.cyclotomic: conductor must be a positive integer"):
        parse(json.dumps(doc))


def test_boolean_group_table_entry_rejected():
    doc = with_z2(gl11_doc())
    doc["group"]["table"] = [[False, True], [True, False]]
    with pytest.raises(ParseError, match=r"^group.table\[0\]: entries are element indices"):
        parse(json.dumps(doc))


def test_boolean_group_identity_rejected():
    doc = with_z2(gl11_doc())
    doc["group"]["identity"] = False
    with pytest.raises(ParseError, match=r"^group.identity: expected an element index"):
        parse(json.dumps(doc))


def test_boolean_cochain_arity_rejected():
    doc = gl11_doc()
    doc["cochains"] = {"f": {"arity": True, "parity": 0, "coords": {"|e11": "1"}}}
    with pytest.raises(ParseError, match=r"^cochains.f.arity: expected an integer >= 0"):
        parse(json.dumps(doc))


def test_boolean_parities_rejected():
    doc = gl11_doc()
    doc["cochains"] = {"f": {"arity": 2, "parity": False, "coords": MU1_COORDS}}
    with pytest.raises(ParseError, match=r"^cochains.f.parity: expected 0 or 1"):
        parse(json.dumps(doc))
    doc = gl11_doc()
    doc["algebra"]["basis"][2] = ["e12", True]
    with pytest.raises(ParseError, match=r"^algebra.basis\[2\]: expected a \[label, parity\] pair"):
        parse(json.dumps(doc))
