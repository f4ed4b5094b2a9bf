"""Regenerate the workspace files under fixtures/.

Each fixture is built from the package's own constructors, serialized,
and parsed back as a round-trip check before being written.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from supercohom.cohomology import Cochain
from supercohom.graded import GradedBasis
from supercohom.group_action import cyclic_group, diagonal_rep, permutation_rep, trivial_action
from supercohom.scalars import one, root_of_unity
from supercohom.superalgebra import LModule, make_gl, make_sl, make_super_poincare
from supercohom.workspace import (
    ADJOINT,
    BRACKET_TERM,
    CochainEntry,
    ModuleEntry,
    Workspace,
    parse,
    serialize,
)


def mu1_cochain(L):
    """The symmetrised product direction on gl(1|1): (a, b) -> a*b - (-1)^{ab} b*a
    with e_ij * e_kl = [j == k] e_li, written out on the canonical pairs."""
    o = one(L.spec)
    coords = {
        ((0, 2), 3): o,
        ((0, 3), 2): -o,
        ((1, 2), 3): -o,
        ((1, 3), 2): o,
        ((2, 3), 0): o,
        ((2, 3), 1): o,
    }
    return Cochain(2, 0, L.basis, L.basis, coords)


def fixture_gl11_z2():
    L = make_gl(1, 1)
    rep = permutation_rep(
        cyclic_group(2), L.spec, L.basis.parities, [(0, 1, 2, 3), (1, 0, 3, 2)]
    )
    ws = Workspace(L, rep)
    ws.cochains["mu1"] = CochainEntry(mu1_cochain(L), ADJOINT)
    ws.deformations["mu_t"] = (BRACKET_TERM, "mu1")
    return ws


def fixture_gl11():
    L = make_gl(1, 1)
    ws = Workspace(L)
    ws.cochains["mu1"] = CochainEntry(mu1_cochain(L), ADJOINT)
    ws.deformations["mu_t"] = (BRACKET_TERM, "mu1")
    return ws


def add_probe_targets(ws):
    """Attach a 1-dim trivial module, a zero glue cochain into it, and the
    order-zero deformation so every CLI command has a small target on big
    algebras where adjoint-valued degree >= 1 runs are expensive."""
    L = ws.algebra
    space = GradedBasis(("t",), (0,))
    rep_m = None
    if ws.group is not None:
        rep_m = trivial_action(ws.group, L.spec, space.parities)
    ws.modules["triv"] = ModuleEntry(LModule(L.basis, space, {}), rep_m)
    ws.cochains["zero2"] = CochainEntry(Cochain(2, 0, L.basis, space, {}), "triv")
    ws.deformations["flat"] = (BRACKET_TERM,)
    return ws


def fixture_gl21():
    L = make_gl(2, 1)
    return add_probe_targets(Workspace(L))


def fixture_sl11():
    L = make_sl(1, 1)
    return add_probe_targets(Workspace(L))


def fixture_super_poincare():
    L = make_super_poincare()
    spec = L.spec
    diags = []
    for g in range(4):
        qs = root_of_unity(spec, g)
        qbs = root_of_unity(spec, (4 - g) % 4)
        diags.append([one(spec)] * 10 + [qs, qs, qbs, qbs])
    rep = diagonal_rep(cyclic_group(4), spec, L.basis.parities, diags)
    return add_probe_targets(Workspace(L, rep))


FIXTURES = {
    "fixture_gl11_z2": fixture_gl11_z2,
    "fixture_gl11": fixture_gl11,
    "fixture_gl21": fixture_gl21,
    "fixture_sl11": fixture_sl11,
    "fixture_super_poincare": fixture_super_poincare,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    default_dir = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    ap.add_argument("--out", default=default_dir, help="output directory")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    for name, build in sorted(FIXTURES.items()):
        ws = build()
        text = serialize(ws)
        again = parse(text)
        if again != ws:
            raise SystemExit(f"{name}: serialize/parse round trip changed the workspace")
        path = os.path.join(args.out, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
