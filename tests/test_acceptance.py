"""End-to-end acceptance checks, one test per shipped guarantee.

Every test prints a single verdict line (run with `pytest -s` to see the
checklist) before asserting, so the summary stays readable even when a
check fails.  Frozen identities are spelled out coordinate by coordinate;
randomized checks use fixed seeds so each run sees the same instances.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
import time

from supercohom.cli import run_command
from supercohom.cohomology import (
    Cochain,
    _matrix_from_basis,
    annihilator,
    coboundary,
    coboundary_matrix,
    cochain_basis,
    cohomology,
    derivations,
    zero_cochain,
)
from supercohom.deformation import (
    Deformation,
    GaugeTransform,
    gauge_transform,
    identity_endo,
    infinitesimals_cohomologous,
)
from supercohom.extension import (
    ExtensionDatum,
    classify_extensions,
    extensions_equivalent,
    jacobi_iff_cocycle,
)
from supercohom.graded import Vector, cochain_coords
from supercohom.group_action import cyclic_group, permutation_rep, validate_action
from supercohom.linalg import mat_mul
from supercohom.nr_bracket import (
    bracket_to_element,
    circ,
    element_to_bracket,
    mc_check,
    nr_bracket,
)
from supercohom.scalars import RATIONAL, one, root_of_unity, scalar
from supercohom.superalgebra import (
    adjoint_module,
    make_gl,
    make_sl,
    make_super_poincare,
    validate_superalgebra,
)
from supercohom.workspace import load

from util import (
    abelian_algebra,
    apply_rep,
    cochain_eval,
    gl11_mu1,
    gl11_swap_rep,
    is_zero_matrix,
    nullspace,
    rand_cochain,
    rand_instance,
    rand_module,
    rand_scalar,
    value_at,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

# gl(1|1) basis layout used by make_gl(1, 1): e11, e22 even, e12, e21 odd.
E = {(1, 1): 0, (2, 2): 1, (1, 2): 2, (2, 1): 3}


def fx(name):
    return os.path.join(FIXTURES, name + ".json")


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def cli(argv):
    """Exit code of an in-process CLI run with its output swallowed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        return run_command(argv)


def basis_vec(i, spec):
    return Vector({i: one(spec)})


def bracket_vec(L, v, w):
    out = Vector()
    for i, a in v.coords.items():
        for j, b in w.coords.items():
            out = out + L.bracket.at((i, j)).scale(a * b)
    return out


def jacobi_sweep(L):
    """Direct graded-Leibniz sweep over all basis triples.

    Independent of the validation report plumbing: only the stored structure
    constants and plain vector arithmetic are used.
    """
    par = L.basis.parities
    n = len(par)
    for a in range(n):
        va = basis_vec(a, L.spec)
        for b in range(n):
            vb = basis_vec(b, L.spec)
            sign = (par[a] * par[b]) % 2
            for c in range(n):
                vc = basis_vec(c, L.spec)
                lhs = bracket_vec(L, va, bracket_vec(L, vb, vc))
                rhs = bracket_vec(L, bracket_vec(L, va, vb), vc)
                t = bracket_vec(L, vb, bracket_vec(L, va, vc))
                rhs = rhs + (-t if sign else t)
                if lhs != rhs:
                    return False
    return True


# -- 1: the gl(1|1) swap action, identity by identity ---------------------------


def test_criterion_1_gl11_action_identities():
    t0 = time.monotonic()
    L = make_gl(1, 1)
    rep = gl11_swap_rep(L)
    spec = L.spec

    def e(i, j):
        return basis_vec(E[(i, j)], spec)

    def br(v, w):
        return bracket_vec(L, v, w)

    def s(v):
        return apply_rep(rep, 1, v)

    zero_v = Vector()
    checks = 0
    for i, j in ((1, 2), (2, 1)):
        assert s(br(e(i, i), e(i, i))) == zero_v == br(s(e(i, i)), s(e(i, i)))
        assert (
            s(br(e(i, i), e(j, j)))
            == zero_v
            == br(e(j, j), e(i, i))
            == br(s(e(i, i)), s(e(j, j)))
        )
        assert br(e(i, j), e(j, i)) == e(i, i) + e(j, j)
        assert s(br(e(i, j), e(j, i))) == e(j, j) + e(i, i) == br(s(e(i, j)), s(e(j, i)))
        assert s(br(e(i, j), e(i, j))) == zero_v == br(s(e(i, j)), s(e(i, j)))
        assert br(e(i, i), e(i, j)) == e(i, j)
        assert (
            s(br(e(i, i), e(i, j)))
            == e(j, i)
            == br(e(j, j), e(j, i))
            == br(s(e(i, i)), s(e(i, j)))
        )
        assert br(e(j, j), e(i, j)) == -e(i, j)
        assert (
            s(br(e(j, j), e(i, j)))
            == -e(j, i)
            == br(e(i, i), e(j, i))
            == br(s(e(j, j)), s(e(i, j)))
        )
        checks += 6
    rc = cli(["validate", fx("fixture_gl11_z2")])
    elapsed = time.monotonic() - t0
    verdict(
        1,
        checks == 12 and rc == 0 and elapsed < 1.0,
        f"{checks} bracket/action identities exact, validate rc={rc}, {elapsed:.2f}s",
    )
    assert checks == 12
    assert rc == 0
    assert elapsed < 1.0


# -- 2: the order-1 deformation direction on gl(1|1) ----------------------------


def test_criterion_2_mu1_equivariance_and_low_coboundary_values():
    t0 = time.monotonic()
    L = make_gl(1, 1)
    rep = gl11_swap_rep(L)
    spec = L.spec
    mu1 = gl11_mu1(L)
    M = adjoint_module(L)
    par = L.basis.parities

    def e(i, j):
        return basis_vec(E[(i, j)], spec)

    def m(v, w):
        return cochain_eval(mu1, [v, w])

    def br(v, w):
        return bracket_vec(L, v, w)

    def s(v):
        return apply_rep(rep, 1, v)

    zero_v = Vector()
    equiv_checks = 0
    for i, j in ((1, 2), (2, 1)):
        assert s(m(e(i, i), e(i, i))) == zero_v == m(s(e(i, i)), s(e(i, i)))
        assert (
            s(m(e(i, i), e(j, j)))
            == zero_v
            == m(e(j, j), e(i, i))
            == m(s(e(i, i)), s(e(j, j)))
        )
        assert m(e(i, j), e(j, i)) == e(j, j) + e(i, i)
        assert s(m(e(i, j), e(j, i))) == e(i, i) + e(j, j) == m(s(e(i, j)), s(e(j, i)))
        assert s(m(e(i, j), e(i, j))) == zero_v == m(s(e(i, j)), s(e(i, j)))
        assert m(e(i, i), e(i, j)) == e(j, i)
        assert (
            s(m(e(i, i), e(i, j)))
            == e(i, j)
            == m(e(j, j), e(j, i))
            == m(s(e(i, i)), s(e(i, j)))
        )
        assert m(e(j, j), e(i, j)) == -e(j, i)
        assert (
            s(m(e(j, j), e(i, j)))
            == -e(i, j)
            == m(e(i, i), e(j, i))
            == m(s(e(j, j)), s(e(i, j)))
        )
        equiv_checks += 6

    # The six-term expansion of the degree-2 coboundary, evaluated at the
    # eight argument triples whose vanishing covers (by permutation symmetry)
    # every triple of distinct basis elements.
    def d2(a, b, c):
        va, vb, vc = e(*a), e(*b), e(*c)
        sign = (par[E[a]] * par[E[b]]) % 2

        def pm(v):
            return -v if sign else v

        return (
            -m(va, br(vb, vc))
            + -br(va, m(vb, vc))
            + m(br(va, vb), vc)
            + pm(m(vb, br(va, vc)))
            + br(m(va, vb), vc)
            + pm(br(vb, m(va, vc)))
        )

    displayed = [
        ((1, 1), (1, 2), (2, 1)),
        ((1, 1), (2, 1), (1, 2)),
        ((1, 1), (1, 2), (2, 2)),
        ((1, 1), (2, 2), (1, 2)),
        ((1, 1), (2, 2), (2, 1)),
        ((1, 1), (2, 1), (2, 2)),
        ((2, 2), (1, 2), (2, 1)),
        ((2, 2), (2, 1), (1, 2)),
    ]
    dmu = coboundary(mu1, L, M)
    for a, b, c in displayed:
        assert d2(a, b, c) == zero_v, f"six-term expansion nonzero at ({a}, {b}, {c})"
        assert value_at(dmu, (E[a], E[b], E[c])) == zero_v

    rc = cli(["deform", "check", fx("fixture_gl11_z2"), "--deformation", "mu_t"])
    elapsed = time.monotonic() - t0
    verdict(
        2,
        equiv_checks == 12 and rc == 0 and elapsed < 1.0,
        f"{equiv_checks} equivariance identities and 8 coboundary values exact; "
        f"deform check rc={rc}, {elapsed:.2f}s",
    )
    assert equiv_checks == 12
    assert elapsed < 1.0
    assert rc == 0, (
        "deform check on mu_t exits 1: mu1 is equivariant and the eight "
        "coboundary evaluations above vanish, but the order-1 consistency "
        "check fails on the four canonical triples with a repeated odd slot: "
        "(e11,e12,e12) and (e22,e21,e21) give -2*(e11+e22), (e22,e12,e12) "
        "and (e11,e21,e21) give +2*(e11+e22).  Those triples are exactly the "
        "ones not covered by the displayed evaluations, so mu_t is not an "
        "order-1 deformation and the command honestly reports that."
    )


# -- 3: the coboundary squares to zero, as matrices -----------------------------


def test_criterion_3_coboundary_squares_to_zero():
    t0 = time.monotonic()
    rng = random.Random(103)
    products = 0
    for k in range(100):
        with_action = k % 2 == 1
        L, rep = rand_instance(rng, with_action=with_action)
        M = adjoint_module(L)
        for n in (0, 1, 2):
            lower = coboundary_matrix(n, L, M, rep)
            full_next = coboundary_matrix(n + 1, L, M, None)
            if not (lower and lower[0] and full_next and full_next[0]):
                continue
            prod = mat_mul(full_next, lower, L.spec)
            assert is_zero_matrix(prod), (
                f"delta^{n + 1} o delta^{n} has a nonzero entry on instance {k} "
                f"(dims {L.basis.dims}, action={with_action})"
            )
            products += 1
    elapsed = time.monotonic() - t0
    verdict(
        3,
        products >= 200 and elapsed < 60.0,
        f"{products} exact matrix products vanished over 100 instances, {elapsed:.1f}s",
    )
    assert products >= 200
    assert elapsed < 60.0


# -- 4: degree 0 and 1 against direct solvers -----------------------------------


def test_criterion_4_low_degrees_match_direct_solvers():
    rng = random.Random(104)
    instances = 0
    for k in range(24):
        L, rep = rand_instance(rng, with_action=k % 2 == 1)
        M, reps = rand_module(rng, L, rep)
        h0 = cohomology(0, L, M, rep=reps).h_dims[0]
        ann = len(annihilator(L, M, rep=reps))
        assert h0 == ann, f"H^0 dim {h0} != annihilator dim {ann} on instance {k}"
        h1 = cohomology(1, L, M, rep=reps).h_dims[0]
        der, inn = derivations(L, M, rep=reps)
        assert h1 == len(der) - len(inn), (
            f"H^1 dim {h1} != {len(der)} derivations - {len(inn)} inner on instance {k}"
        )
        instances += 1
    verdict(4, instances == 24, f"H^0/H^1 match annihilator and derivation counts on {instances} instances")
    assert instances == 24


# -- 5: the Maurer-Cartan test against a direct Jacobi sweep ---------------------


def sparse_perturbation(rng, L):
    """A nonzero parity-0 binary cochain supported on a few canonical pairs."""
    par = L.basis.parities
    keys = [
        (T, j)
        for T, j in cochain_coords(L.basis, 2, L.basis)
        if (par[T[0]] + par[T[1]] + par[j]) % 2 == 0
    ]
    coords = {}
    for key in rng.sample(keys, rng.randint(1, 4)):
        c = rand_scalar(L.spec, rng)
        while c.is_zero():
            c = rand_scalar(L.spec, rng)
        coords[key] = c
    return Cochain(2, 0, L.basis, L.basis, coords)


def test_criterion_5_mc_verdict_matches_jacobi_sweep():
    rng = random.Random(105)
    bases = [
        ("gl11", make_gl(1, 1), 17),
        ("gl21", make_gl(2, 1), 12),
        ("sl11", make_sl(1, 1), 13),
        ("super_poincare", make_super_poincare(), 8),
    ]
    agreements = 0
    failures = 0
    for name, L, count in bases:
        base = bracket_to_element(L)
        rpt = mc_check(base, L.spec)
        assert rpt.is_mc and rpt.jacobi_ok, f"{name} base bracket failed its own check"
        assert jacobi_sweep(L), f"{name} direct sweep disagrees on the base bracket"
        agreements += 1

        seen_failure = False
        for _ in range(count):
            pert = sparse_perturbation(rng, L)
            cand = base.add(pert)
            rpt = mc_check(cand, L.spec)
            direct = jacobi_sweep(element_to_bracket(cand, L.spec))
            assert rpt.is_mc == rpt.jacobi_ok == direct, (
                f"verdicts disagree on a perturbation of {name}"
            )
            agreements += 1
            if not rpt.is_mc:
                failures += 1
                seen_failure = True
        assert seen_failure, f"no failing perturbation of {name} was drawn"
    verdict(
        5,
        agreements == 54 and failures >= 10,
        f"{agreements} verdicts agree (4 bases + 50 perturbations, {failures} failing)",
    )
    assert agreements == 54
    assert failures >= 10


# -- 6: graded antisymmetry and the pre-Lie identity -----------------------------


def equivariant_element(rng, L, z, parity, pool):
    """A random equivariant element of degree z: a (z+1)-cochain."""
    f = zero_cochain(z + 1, parity, L, adjoint_module(L))
    for c in pool[(z, parity)]:
        f = f.add(c.scale(rand_scalar(L.spec, rng, zero_bias=0.35)))
    return f


def test_criterion_6_bracket_algebra_identities_on_equivariant_elements():
    rng = random.Random(106)
    minus = scalar(RATIONAL, -1)
    gl = make_gl(1, 1)
    ab = abelian_algebra(2, 2)
    ab_rep = permutation_rep(
        cyclic_group(2), ab.spec, ab.basis.parities, [(0, 1, 2, 3), (1, 0, 3, 2)]
    )
    fixtures = [(gl, gl11_swap_rep(gl)), (ab, ab_rep)]
    triples = 0
    seen = set()
    for L, rep in fixtures:
        M = adjoint_module(L)
        pool = {
            (z, p): [c for c in cochain_basis(z + 1, L, M, rep) if c.parity == p]
            for z in (0, 1)
            for p in (0, 1)
        }
        usable = [zp for zp, cs in pool.items() if cs]
        assert usable, "no equivariant cochains to draw from"
        for _ in range(25):
            (z1, f1), (z2, f2), (z3, f3) = (rng.choice(usable) for _ in range(3))
            F = equivariant_element(rng, L, z1, f1, pool)
            Fp = equivariant_element(rng, L, z2, f2, pool)
            Fpp = equivariant_element(rng, L, z3, f3, pool)
            seen.update({(z1, f1), (z2, f2), (z3, f3)})

            sign = minus if (z1 * z2 + f1 * f2) % 2 == 0 else one(RATIONAL)
            assert nr_bracket(F, Fp) == nr_bracket(Fp, F).scale(sign)

            lhs = circ(circ(F, Fp), Fpp).add(circ(F, circ(Fp, Fpp)).scale(minus))
            rhs = circ(circ(F, Fpp), Fp).add(circ(F, circ(Fpp, Fp)).scale(minus))
            if (z2 * z3 + f2 * f3) % 2:
                rhs = rhs.scale(minus)
            assert lhs == rhs, "pre-Lie identity failed"
            triples += 1
    verdict(
        6,
        triples == 50 and len(seen) >= 3,
        f"antisymmetry and pre-Lie identity exact on {triples} equivariant triples "
        f"({len(seen)} bidegrees drawn)",
    )
    assert triples == 50
    assert len(seen) >= 3


# -- 7: extensions against the cocycle condition ---------------------------------


def test_criterion_7_extension_correspondence():
    rng = random.Random(107)
    L = make_gl(1, 1)
    M = adjoint_module(L)
    minus = scalar(L.spec, -1)

    dom = [c for c in cochain_basis(2, L, M, None) if c.parity == 0]
    mat = _matrix_from_basis(dom, 2, L, M)
    kernel = nullspace(mat, len(dom), L.spec)
    assert kernel, "expected a nonzero space of cocycles"

    def random_cocycle():
        f = zero_cochain(2, 0, L, M)
        for coeffs in [rng.choice(kernel) for _ in range(2)]:
            a = rand_scalar(L.spec, rng, zero_bias=0.3)
            for c, base in zip(coeffs, dom):
                if not (c.is_zero() or a.is_zero()):
                    f = f.add(base.scale(a * c))
        return f

    cocycle_checks = 0
    for _ in range(10):
        h = random_cocycle()
        rpt = jacobi_iff_cocycle(ExtensionDatum(L, M, None, h))
        assert rpt.jacobi is True and rpt.is_cocycle is True
        cocycle_checks += 1

    non_cocycle_checks = 0
    for _ in range(10):
        h = rand_cochain(rng, L, M, 2, 0, zero_bias=0.5)
        while coboundary(h, L, M).is_zero():
            h = rand_cochain(rng, L, M, 2, 0, zero_bias=0.3)
        rpt = jacobi_iff_cocycle(ExtensionDatum(L, M, None, h))
        assert rpt.jacobi is False and rpt.is_cocycle is False
        non_cocycle_checks += 1

    certificates = 0
    for _ in range(6):
        h1 = random_cocycle()
        psi = rand_cochain(rng, L, M, 1, 0, zero_bias=0.4)
        h2 = h1.add(coboundary(psi, L, M).scale(minus))
        x1 = ExtensionDatum(L, M, None, h1)
        x2 = ExtensionDatum(L, M, None, h2)
        f = extensions_equivalent(x1, x2)
        assert f is not None, "equivalent extensions were not recognised"
        assert coboundary(f, L, M) == h1.add(h2.scale(minus)), (
            "certificate does not solve the coboundary equation"
        )
        certificates += 1

    classes = classify_extensions(L, M)
    assert classes, "expected a nonsplit extension class on gl(1|1)"
    r = classes[0]
    split = ExtensionDatum(L, M, None, zero_cochain(2, 0, L, M))
    shifted = coboundary(rand_cochain(rng, L, M, 1, 0, zero_bias=0.4), L, M)
    none_checks = 0
    for x1, x2 in [
        (ExtensionDatum(L, M, None, r), split),
        (split, ExtensionDatum(L, M, None, r)),
        (ExtensionDatum(L, M, None, shifted.add(r)), ExtensionDatum(L, M, None, shifted)),
    ]:
        assert extensions_equivalent(x1, x2) is None
        none_checks += 1
    verdict(
        7,
        cocycle_checks == 10 and non_cocycle_checks == 10 and certificates == 6 and none_checks == 3,
        f"{cocycle_checks}+{non_cocycle_checks} cocycle verdicts agree, "
        f"{certificates} certificates verified, {none_checks} inequivalent pairs rejected",
    )
    assert cocycle_checks == 10
    assert non_cocycle_checks == 10
    assert certificates == 6
    assert none_checks == 3


# -- 8: gauge transforms move infinitesimals by coboundaries ---------------------


def test_criterion_8_gauge_moves_infinitesimal_by_a_coboundary():
    rng = random.Random(108)
    L = make_gl(1, 1)
    rep = gl11_swap_rep(L)
    M = adjoint_module(L)
    minus = scalar(L.spec, -1)
    endo_pool = [c for c in cochain_basis(1, L, M, rep) if c.parity == 0]
    term_pool = [c for c in cochain_basis(2, L, M, rep) if c.parity == 0]
    assert endo_pool and term_pool

    def combo(pool, bias):
        f = zero_cochain(pool[0].arity, 0, L, M)
        for c in pool:
            f = f.add(c.scale(rand_scalar(L.spec, rng, zero_bias=bias)))
        return f

    pairs = 0
    for k in range(20):
        mu_1 = combo(term_pool, 0.3)
        d = Deformation(L, rep, [bracket_to_element(L), mu_1])
        maps = [identity_endo(L.basis, L.spec), combo(endo_pool, 0.2)]
        if k % 3 == 0:
            maps.append(combo(endo_pool, 0.4))
        g = GaugeTransform(L.spec, L.basis, maps)
        dt = gauge_transform(d, g)
        diff = d.term(1).add(dt.term(1).scale(minus))
        assert diff == coboundary(g.map_at(1), L, M), (
            f"mu_1 - gauged mu_1 is not the coboundary of psi_1 on pair {k}"
        )
        assert infinitesimals_cohomologous(d, dt, g) is True
        pairs += 1
    verdict(8, pairs == 20, f"infinitesimal moved by delta(psi_1) exactly on {pairs} gauge pairs")
    assert pairs == 20


# -- 9: the 14-dimensional fixture over Q(zeta_4) --------------------------------


def test_criterion_9_super_poincare_validates():
    t0 = time.monotonic()
    L = make_super_poincare()
    assert L.basis.dims == (10, 4)
    assert L.spec.kind == "cyclotomic" and L.spec.conductor == 4
    rpt = validate_superalgebra(L)
    assert rpt.ok, rpt.describe()

    ws = load(fx("fixture_super_poincare"))
    assert ws.algebra == L
    act = validate_action(ws.rep, ws.algebra)
    assert act.ok, act.describe()
    assert ws.rep.group.order == 4
    # the generator scales the supercharges by zeta_4 and the conjugate
    # charges by its inverse, and fixes the even part pointwise
    names = list(L.basis.names)
    for label, k in (("Q1", 1), ("Q2", 1), ("Qb1", 3), ("Qb2", 3)):
        i = names.index(label)
        assert apply_rep(ws.rep, 1, basis_vec(i, L.spec)) == Vector(
            {i: root_of_unity(L.spec, k)}
        )
    for i in range(10):
        assert apply_rep(ws.rep, 1, basis_vec(i, L.spec)) == basis_vec(i, L.spec)

    rc = cli(["validate", fx("fixture_super_poincare")])
    elapsed = time.monotonic() - t0
    verdict(
        9,
        rpt.ok and act.ok and rc == 0 and elapsed < 30.0,
        f"(10|4) fixture validates, action of Z/4 checks out, rc={rc}, {elapsed:.1f}s",
    )
    assert rc == 0
    assert elapsed < 30.0


# -- 10: byte-identical CLI output ------------------------------------------------


GL11_COMMANDS = [
    ["validate"],
    ["cohomology", "--n", "1"],
    ["mc-check"],
    ["mc-check", "--candidate", "mu1"],
    ["deform", "check", "--deformation", "mu_t"],
    ["deform", "obstruct", "--deformation", "mu_t"],
    ["derivations"],
    ["extend", "--cocycle", "mu1"],
    ["extend", "classify"],
]

PROBE_COMMANDS = [
    ["validate"],
    ["cohomology", "--n", "1", "--module", "triv"],
    ["mc-check"],
    ["deform", "check", "--deformation", "flat"],
    ["deform", "obstruct", "--deformation", "flat"],
    ["derivations", "--module", "triv"],
    ["extend", "--cocycle", "zero2"],
    ["extend", "classify", "--module", "triv"],
]

COMMAND_MATRIX = {
    "fixture_gl11": GL11_COMMANDS,
    "fixture_gl11_z2": GL11_COMMANDS,
    "fixture_gl21": PROBE_COMMANDS,
    "fixture_sl11": PROBE_COMMANDS,
    "fixture_super_poincare": PROBE_COMMANDS,
}


def run_cli_once(argv, hashseed, threads):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env.pop("SUPERCOHOM_THREADS", None)
    if threads is not None:
        env["SUPERCOHOM_THREADS"] = threads
    return subprocess.run(
        [sys.executable, "-m", "supercohom.cli", *argv],
        capture_output=True,
        env=env,
        timeout=240,
    )


def test_criterion_10_cli_output_is_byte_identical():
    commands = 0
    for name, forms in sorted(COMMAND_MATRIX.items()):
        for form in forms:
            # the file goes right after the (sub)command words
            if form[0] == "deform" or form[:2] == ["extend", "classify"]:
                argv = form[:2] + [fx(name)] + form[2:]
            else:
                argv = form[:1] + [fx(name)] + form[1:]
            first = run_cli_once(argv, "0", None)
            second = run_cli_once(argv, "42", "7")
            assert first.returncode != 2, f"{name}: {' '.join(form)} rejected its input"
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout, (
                f"{name}: {' '.join(form)} output differs between runs"
            )
            assert first.stderr == second.stderr
            commands += 1
    verdict(
        10,
        commands == 42,
        f"{commands} command/fixture pairs byte-identical across hash seeds and thread settings",
    )
    assert commands == 42
