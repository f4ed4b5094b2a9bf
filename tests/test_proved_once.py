"""One CLI call proves each fact once.

Parsing a workspace proves that the bracket is a Lie superalgebra structure
(the super-Jacobi sweep of validate_superalgebra) and that G acts by
automorphisms (the bracket sweep of validate_action).  The rest of the call
reads those verdicts instead of proving them again.  These tests count the
work; they do not time it.
"""

import os
import re

import pytest

from supercohom.cli import run_command
from supercohom.deformation import Deformation
from supercohom.errors import ValidationError
from supercohom.group_action import (
    acts_by_automorphisms,
    cyclic_group,
    diagonal_rep,
    is_representation,
    permutation_rep,
    validate_action,
)
from supercohom.nr_bracket import bracket_element, bracket_to_element
from supercohom.scalars import scalar
from supercohom.superalgebra import make_gl
from supercohom.workspace import load

from util import count_calls, equivariance_sweeps, gl11_swap_rep

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def bracket_sweeps(monkeypatch):
    """The bracket-equivariance sweeps, each as the elements it visits."""
    return equivariance_sweeps(monkeypatch, "bracket equivariance")


def test_deform_check_proves_each_fact_once(monkeypatch, capsys):
    import supercohom.cohomology
    import supercohom.nr_bracket
    import supercohom.superalgebra

    path = os.path.join(FIXTURES, "fixture_super_poincare.json")
    generators = load(path).group.generators
    jacobi = count_calls(monkeypatch, supercohom.superalgebra, "validate_superalgebra")
    element = count_calls(monkeypatch, supercohom.nr_bracket, "bracket_to_element")
    equivariant = count_calls(monkeypatch, supercohom.cohomology, "is_equivariant")
    sweeps = bracket_sweeps(monkeypatch)

    def no_compile(*args, **kwargs):
        raise AssertionError(f"a regex was compiled during the call: {args[:1]}")

    monkeypatch.setattr(re, "_compile", no_compile)
    rc = run_command(["deform", "check", path, "--deformation", "flat"])
    monkeypatch.undo()
    assert rc == 0, capsys.readouterr().err
    assert "deformation valid" in capsys.readouterr().out
    assert len(jacobi) == 1
    assert len(element) == 1
    assert sweeps == [list(generators)]
    assert equivariant == []  # "flat" has only the order-0 term, read off the sweep


def test_parsed_deformations_share_the_bracket_element():
    ws = load(os.path.join(FIXTURES, "fixture_gl11_z2.json"))
    mu = bracket_element(ws.algebra)
    for name in ws.deformations:
        assert ws.deformation(name).terms[0] is mu
    assert mu == bracket_to_element(ws.algebra)


def test_validate_action_records_its_verdict(monkeypatch):
    L = make_gl(1, 1)
    rep = gl11_swap_rep(L)
    assert validate_action(rep, L).ok
    sweeps = bracket_sweeps(monkeypatch)
    assert acts_by_automorphisms(rep, L)
    Deformation(L, rep, [bracket_to_element(L)])
    assert sweeps == []
    other = make_gl(1, 1)  # an equal algebra, but not the one that was proved
    assert acts_by_automorphisms(rep, other)
    assert sweeps == [list(rep.group.generators)]


def test_an_unvalidated_action_that_breaks_the_bracket_is_still_caught(monkeypatch):
    # Swapping only the odd e12 and e21 of gl(1|1) is a representation of Z/2,
    # but [e11, e12] = e12 goes to [e11, e21] = -e21, not to e21.
    L = make_gl(1, 1)
    rep = permutation_rep(cyclic_group(2), L.spec, L.basis.parities, [(0, 1, 2, 3), (0, 1, 3, 2)])
    assert is_representation(rep)
    sweeps = bracket_sweeps(monkeypatch)
    for _ in range(2):
        with pytest.raises(ValidationError, match="term 0 is not equivariant"):
            Deformation(L, rep, [bracket_to_element(L)])
    assert sweeps == [list(rep.group.generators)]  # proved once, read the second time
    assert not validate_action(rep, L).ok


def test_an_unvalidated_non_representation_is_checked_term_by_term(monkeypatch):
    # g doubles e11 and g^2 is not the identity: no representation, so term 0
    # goes through is_equivariant like every other term, and still fails.
    L = make_gl(1, 1)
    o, two = scalar(L.spec, 1), scalar(L.spec, 2)
    rep = diagonal_rep(cyclic_group(2), L.spec, L.basis.parities, [[o] * 4, [two, o, o, o]])
    assert not is_representation(rep)
    sweeps = bracket_sweeps(monkeypatch)
    with pytest.raises(ValidationError, match="term 0 is not equivariant"):
        Deformation(L, rep, [bracket_to_element(L)])
    assert sweeps == []
