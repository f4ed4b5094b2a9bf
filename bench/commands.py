"""The CLI command matrix of the cli-fixtures workload.

The same 42 (fixture, command) pairs as COMMAND_MATRIX in
tests/test_acceptance.py, kept here because the benchmark does not import the
test suite.  Fixture paths are relative to the repository root, which is the
working directory of every benchmark run.
"""

GL11_COMMANDS = (
    ("validate",),
    ("cohomology", "--n", "1"),
    ("mc-check",),
    ("mc-check", "--candidate", "mu1"),
    ("deform", "check", "--deformation", "mu_t"),
    ("deform", "obstruct", "--deformation", "mu_t"),
    ("derivations",),
    ("extend", "--cocycle", "mu1"),
    ("extend", "classify"),
)

PROBE_COMMANDS = (
    ("validate",),
    ("cohomology", "--n", "1", "--module", "triv"),
    ("mc-check",),
    ("deform", "check", "--deformation", "flat"),
    ("deform", "obstruct", "--deformation", "flat"),
    ("derivations", "--module", "triv"),
    ("extend", "--cocycle", "zero2"),
    ("extend", "classify", "--module", "triv"),
)

COMMAND_MATRIX = {
    "fixture_gl11": GL11_COMMANDS,
    "fixture_gl11_z2": GL11_COMMANDS,
    "fixture_gl21": PROBE_COMMANDS,
    "fixture_sl11": PROBE_COMMANDS,
    "fixture_super_poincare": PROBE_COMMANDS,
}


def command_argvs() -> list[list[str]]:
    """Every argv of the matrix, in a fixed order, file after the command words."""
    out = []
    for name, forms in sorted(COMMAND_MATRIX.items()):
        path = f"fixtures/{name}.json"
        for form in forms:
            words = 2 if form[0] == "deform" or form[:2] == ("extend", "classify") else 1
            out.append([*form[:words], path, *form[words:]])
    return out
