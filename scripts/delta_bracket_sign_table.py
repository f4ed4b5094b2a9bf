"""Measure the sign relating the coboundary to bracketing with the structure
element: for each bidegree (z, parity), find s with delta f = s * [F0, f] on
random cochains, and print the table.

Usage: python3 scripts/delta_bracket_sign_table.py [--seed N] [--tries N]
"""

import argparse
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from supercohom.cohomology import Cochain, coboundary
from supercohom.nr_bracket import bracket_to_element, nr_bracket
from supercohom.scalars import scalar
from supercohom.superalgebra import adjoint_module, make_gl

from util import heisenberg_algebra, rand_cochain


def signs_for(L, arity, parity, rng, tries):
    M = adjoint_module(L)
    F0 = bracket_to_element(L)
    seen = set()
    for _ in range(tries):
        if arity == 0:
            idx = [i for i, p in enumerate(L.basis.parities) if p == parity]
            j = rng.choice(idx)
            f = Cochain(0, parity, L.basis, L.basis, {((), j): scalar(L.spec, 1)})
        else:
            f = rand_cochain(rng, L, M, arity, parity, zero_bias=0.3)
        d = coboundary(f, L, M)
        br = nr_bracket(F0, f)
        if d.is_zero() and br.is_zero():
            continue
        if d.coords == br.coords:
            seen.add("+1")
        elif d.coords == {k: -v for k, v in br.coords.items()}:
            seen.add("-1")
        else:
            seen.add("??")
    return seen


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tries", type=int, default=8)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    fixtures = [("gl(1|1)", make_gl(1, 1)), ("heisenberg(1|1)", heisenberg_algebra())]
    print(f"{'fixture':<16} {'arity':>5} {'z':>3} {'parity':>6}  sign")
    for name, L in fixtures:
        for arity in (0, 1, 2, 3):
            for parity in (0, 1):
                seen = signs_for(L, arity, parity, rng, args.tries)
                label = ",".join(sorted(seen)) if seen else "(all zero)"
                print(f"{name:<16} {arity:>5} {arity - 1:>3} {parity:>6}  {label}")


if __name__ == "__main__":
    main()
