"""Command line front end.

Every subcommand takes a workspace file (see :mod:`supercohom.workspace`
for the format):

    supercohom validate FILE
    supercohom cohomology FILE --n N [--module NAME]
    supercohom mc-check FILE [--candidate NAME]
    supercohom deform check FILE --deformation NAME [--strict]
    supercohom deform obstruct FILE --deformation NAME
    supercohom derivations FILE [--module NAME]
    supercohom extend FILE --cocycle NAME
    supercohom extend classify FILE [--module NAME]

The grammar is stated once, in the table COMMANDS, and gives every command
``--emit`` besides its own options.  Plain argv (the command words, FILE and
full option names with their values) is read against it directly; argparse
parsers built from the same table read everything else, so help, usage and
error text are argparse's.  In a fresh process, building them took about a
fifth of the time of a typical command, so plain argv never builds them.

One frame, run_command, runs every command: it loads the workspace once,
hands it to the command's handler, which prints nothing and returns its
exit status, text lines and JSON data, prints the one that ``--emit``
names, and maps each error to its exit status and stderr line.

Exit status is 0 when every check passes, 1 when a mathematical check
fails, and 2 for unusable input (malformed file, unknown name, bad
flags).  Two independent computations that disagree point to a bug, not
to bad input; that also exits 1, but its message starts with
"internal error (oracle disagreement):" instead of "error:".  Output is
deterministic: rows are sorted, scalars use their canonical text form, and
``--emit json`` prints the same information as
a JSON object with sorted keys.  If SUPERCOHOM_THREADS is set it caps
the number of worker threads; all computations here are exact and run
on one thread, which satisfies any positive cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, NamedTuple

from . import deformation as dfm
from .cohomology import Cochain, cohomology, derivations
from .errors import NotValidated, OracleDisagreement, ParseError, SupercohomError, ValidationError
from .extension import ExtensionDatum, classify_extensions, jacobi_iff_cocycle
from .graded import GradedBasis, Vector
from .nr_bracket import bracket_element, mc_check
from .scalars import serialize_scalar
from .workspace import ADJOINT, Workspace, _brackets_doc, _coords_doc, _vector_doc, load


def _field_str(spec) -> str:
    if spec.kind == "rational":
        return "rational"
    return f"cyclotomic({spec.conductor})"


def _vec_str(space: GradedBasis, vec: Vector) -> str:
    parts = []
    for j, c in sorted(vec.coords.items()):
        s = serialize_scalar(c)
        name = space.names[j]
        if s == "1":
            parts.append(name)
        elif s == "-1":
            parts.append(f"-{name}")
        elif " " in s:
            parts.append(f"({s})*{name}")
        else:
            parts.append(f"{s}*{name}")
    return " + ".join(parts)


def _tuple_str(names, T) -> str:
    return "(" + ", ".join(names[i] for i in T) + ")"


def _cochain_text(ws: Workspace, f: Cochain, space: GradedBasis) -> list[str]:
    """One line per nonzero value of f, or one line "  0"."""
    names = ws.algebra.basis.names
    return [f"  {_tuple_str(names, T)} -> {_vec_str(space, vec)}" for T, vec in f.by_tuple().items()] or ["  0"]


# What a handler returns: the exit status, the text lines and the JSON data.
Answer = tuple[int, list[str], dict]


def _cmd_validate(ws: Workspace, args) -> Answer:
    # the load ran every check and raised on the first failure
    L = ws.algebra
    d0, d1 = L.basis.dims
    lines = [f"field: {_field_str(L.spec)}", f"algebra: dimension {d0}|{d1}"]
    checks = ["antisymmetry", "jacobi", "homogeneity"]
    lines += [f"  {check}: ok" for check in checks]
    if ws.group is not None:
        lines += [f"group: order {ws.group.order}", "  action: ok"]
        checks.append("action")
    for name in sorted(ws.modules):
        m0, m1 = ws.modules[name].module.space.dims
        lines.append(f"module {name}: dimension {m0}|{m1}, ok")
        checks.append(f"module {name}")
    for name in sorted(ws.cochains):
        f = ws.cochains[name].cochain
        lines.append(f"cochain {name}: arity {f.arity}, parity {f.parity}, module {ws.cochains[name].module}")
    for name in sorted(ws.deformations):
        lines.append(f"deformation {name}: order {len(ws.deformations[name]) - 1}")
    lines.append("all checks passed")
    return 0, lines, {
        "ok": True,
        "field": _field_str(L.spec),
        "algebra": {"dims": list(L.basis.dims)},
        "group": None if ws.group is None else {"order": ws.group.order},
        "checks": dict.fromkeys(checks, True),
        "cochains": sorted(ws.cochains),
        "deformations": sorted(ws.deformations),
        "modules": sorted(ws.modules),
    }


def _cmd_cohomology(ws: Workspace, args) -> Answer:
    if args.n < 0:
        raise ParseError("--n must be >= 0")
    module, rep_arg = ws.module_rep_arg(args.module)
    rpt = cohomology(args.n, ws.algebra, module, rep_arg)
    lines = [
        f"cohomology in degree {args.n}, module {args.module}",
        "parity  cochains  cocycles  coboundaries  H",
    ]
    for p in (0, 1):
        lines.append(f"{p:<7} {rpt.c_dims[p]:<9} {rpt.z_dims[p]:<9} {rpt.b_dims[p]:<13} {rpt.h_dims[p]}")
    return 0, lines, {
        "n": args.n,
        "module": args.module,
        "cochains": list(rpt.c_dims),
        "cocycles": list(rpt.z_dims),
        "coboundaries": list(rpt.b_dims),
        "h": list(rpt.h_dims),
    }


def _candidate_element(ws: Workspace, name: str | None) -> Cochain:
    if name is None:
        return bracket_element(ws.algebra)
    f = ws.cochain(name)
    if ws.cochains[name].module != ADJOINT:
        raise ParseError("mc-check candidates must be adjoint-valued")
    if (f.arity, f.parity) != (2, 0):
        raise ParseError("mc-check candidates must have arity 2 and parity 0")
    return f


def _cmd_mc_check(ws: Workspace, args) -> Answer:
    rpt = mc_check(_candidate_element(ws, args.candidate), ws.algebra.spec)
    label = args.candidate or "bracket"
    lines = [
        f"candidate: {label}",
        f"[F, F] = 0: {'yes' if rpt.is_mc else 'NO'}",
        f"jacobi identity: {'holds' if rpt.jacobi_ok else 'FAILS'}",
    ]
    names = ws.algebra.basis.names
    residual = []
    if not rpt.is_mc:
        for T, vec in rpt.residual.by_tuple().items():
            lines.append(f"  residual at {_tuple_str(names, T)}: {_vec_str(ws.algebra.basis, vec)}")
            residual.append({"at": [names[i] for i in T], "value": _vector_doc(ws.algebra.basis, vec)})
    data = {"candidate": label, "is_mc": rpt.is_mc, "jacobi_ok": rpt.jacobi_ok, "residual": residual}
    return 0 if rpt.is_mc else 1, lines, data


def _cmd_deform_check(ws: Workspace, args) -> Answer:
    d = ws.deformation(args.deformation)
    mode = "strict" if args.strict else "truncated"
    rpt = dfm.validate(d, mode)
    names = ws.algebra.basis.names
    lines = [
        f"deformation {args.deformation}, order {d.order}, mode {mode}",
        # Deformation proves both at construction; the lines stay for the output format.
        "terms equivariant: yes",
        "terms antisymmetric: yes",
    ]
    orders_doc = []
    for order_rpt in rpt.orders:
        if order_rpt.ok:
            lines.append(f"order {order_rpt.r}: ok")
        else:
            lines.append(f"order {order_rpt.r}: FAIL ({len(order_rpt.residual)} triples)")
            for T, vec in sorted(order_rpt.residual.items()):
                lines.append(f"  {_tuple_str(names, T)} -> {_vec_str(ws.algebra.basis, vec)}")
        orders_doc.append({"r": order_rpt.r, "ok": order_rpt.ok})
    lines.append("deformation valid" if rpt.ok else "deformation NOT valid")
    return 0 if rpt.ok else 1, lines, {
        "deformation": args.deformation,
        "mode": mode,
        "order": d.order,
        "ok": rpt.ok,
        "orders": orders_doc,
        "terms_antisymmetric": True,
        "terms_equivariant": True,
    }


def _cmd_deform_obstruct(ws: Workspace, args) -> Answer:
    d = ws.deformation(args.deformation)
    try:
        rpt = dfm.obstruction(d)
    except NotValidated as exc:
        at = f"order {exc.report.first_failure().r}"
        lines = [
            f"deformation {args.deformation} is not valid through order {d.order} ({at} fails)",
            "obstruction undefined",
        ]
        return 1, lines, {"deformation": args.deformation, "valid": False, "failing": at}
    basis = ws.algebra.basis
    lines = [f"obstruction at order {d.order + 1}:", *_cochain_text(ws, rpt.cochain, basis)]
    lines.append(f"closed under the differential: {'yes' if rpt.closed else 'NO'}")
    lines.append(f"solvable: {'yes' if rpt.solvable else 'NO'}")
    next_doc = None
    if rpt.solvable and rpt.next_term is not None:
        next_doc = _coords_doc(basis, basis, rpt.next_term)
        lines.append(f"a next term extending the deformation to order {d.order + 1}:")
        lines += _cochain_text(ws, rpt.next_term, basis)
    lines.append(
        "the deformation extends one order further" if rpt.solvable else "the deformation does NOT extend"
    )
    return 0 if rpt.solvable else 1, lines, {
        "deformation": args.deformation,
        "valid": True,
        "obstruction": _coords_doc(basis, basis, rpt.cochain),
        "closed": rpt.closed,
        "solvable": rpt.solvable,
        "next_term": next_doc,
    }


def _cmd_derivations(ws: Workspace, args) -> Answer:
    module, rep_arg = ws.module_rep_arg(args.module)
    der, inn = derivations(ws.algebra, module, rep_arg)
    invariant = " invariant" if ws.group is not None else ""
    lines = [
        f"{len(der)}{invariant} derivations into {args.module}, {len(inn)} inner",
        f"outer classes: {len(der) - len(inn)}",
    ]
    data = {"module": args.module, "derivations": len(der), "inner": len(inn), "outer": len(der) - len(inn)}
    return 0, lines, data


def _extension_datum(ws: Workspace, name: str) -> ExtensionDatum:
    h = ws.cochain(name)
    if (h.arity, h.parity) != (2, 0):
        raise ParseError("extend cocycles must have arity 2 and parity 0")
    module, rep_arg = ws.module_rep_arg(ws.cochains[name].module)
    return ExtensionDatum(ws.algebra, module, rep_arg, h)


def _cmd_extend(ws: Workspace, args) -> Answer:
    rpt = jacobi_iff_cocycle(_extension_datum(ws, args.cocycle))
    lines = [
        f"glue {args.cocycle} into module {ws.cochains[args.cocycle].module}",
        f"2-cocycle: {'yes' if rpt.is_cocycle else 'NO'}",
        f"extension satisfies jacobi: {'yes' if rpt.jacobi else 'NO'}",
    ]
    if rpt.jacobi:
        E = rpt.extension
        names = E.basis.names
        lines += [f"extension basis: {', '.join(names)}", "brackets:"]
        for (i, j), vec in bracket_element(E).by_tuple().items():
            lines.append(f"  [{names[i]}, {names[j]}] = {_vec_str(E.basis, vec)}")
    return 0 if rpt.is_cocycle and rpt.jacobi else 1, lines, {
        "cocycle": args.cocycle,
        "is_cocycle": rpt.is_cocycle,
        "jacobi": rpt.jacobi,
        "extension": _brackets_doc(rpt.extension) if rpt.jacobi else None,
    }


def _cmd_extend_classify(ws: Workspace, args) -> Answer:
    module, rep_arg = ws.module_rep_arg(args.module)
    classes = classify_extensions(ws.algebra, module, rep_arg)
    lines = [f"{len(classes)} nonsplit extension class(es) of the algebra by module {args.module}"]
    doc = []
    for k, f in enumerate(classes):
        lines.append(f"class {k + 1}:")
        lines += _cochain_text(ws, f, module.space)
        doc.append(_coords_doc(ws.algebra.basis, module.space, f))
    return 0, lines, {"module": args.module, "count": len(classes), "classes": doc}


class Option(NamedTuple):
    """One option of a command: ``NAME VALUE``, or with ``flag`` a
    ``store_true`` switch."""

    name: str
    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] | None = None
    help: str | None = None
    flag: bool = False

    @property
    def dest(self) -> str:
        return self.name[2:]


class Command(NamedTuple):
    """A command: its words, the handler, the help line and the options that
    follow its one positional workspace FILE, besides --emit."""

    words: tuple[str, ...]
    handler: Callable[[Workspace, argparse.Namespace], Answer]
    help: str
    options: tuple[Option, ...]


# The command grammar, stated once.  run_command reads plain argv against it
# (_parse_plain) and _build_parsers turns it into argparse parsers for the
# rest.  A two-word command belongs to the group named by its first word.
# Every command takes _EMIT, the frame's option, before its own.
GROUPS = {
    "deform": "formal deformation checks",
    "extend": "build or classify abelian extensions",
}
_EMIT = Option("--emit", choices=("text", "json"), default="text")
COMMANDS = (
    Command(("validate",), _cmd_validate, "check every axiom in a workspace file", ()),
    Command(("cohomology",), _cmd_cohomology, "parity-split cohomology dimensions", (
        Option("--n", type=int, required=True, help="cochain degree"),
        Option("--module", default=ADJOINT),
    )),
    Command(("mc-check",), _cmd_mc_check, "test [F, F] = 0 for a structure candidate", (
        Option("--candidate", help="cochain name (default: the bracket)"),
    )),
    Command(("deform", "check"), _cmd_deform_check, "validate a deformation order by order", (
        Option("--deformation", required=True),
        Option("--strict", default=False, flag=True, help="also check orders above the truncation"),
    )),
    Command(("deform", "obstruct"), _cmd_deform_obstruct, "next-order obstruction and solvability", (
        Option("--deformation", required=True),
    )),
    Command(("derivations",), _cmd_derivations, "derivation and inner-derivation counts", (
        Option("--module", default=ADJOINT),
    )),
    Command(("extend", "build"), _cmd_extend, "build the extension attached to a 2-cochain", (
        Option("--cocycle", required=True),
    )),
    Command(("extend", "classify"), _cmd_extend_classify, "representatives of every extension class", (
        Option("--module", default=ADJOINT),
    )),
)


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse builds for argv, for the argv that argparse can
    read in only one way; None for every other argv.

    That argv is a command's words, then its one FILE and its options in any
    order: each option by its full name and at most once, each value and the
    FILE not starting with "-", each value converted by the option's type and
    in its choices, and every required option given.  Help, ``--opt=value``,
    abbreviations, repeats, ``--`` and malformed values all return None, so
    argparse parses them and prints their help, usage and error text.
    """
    for cmd in COMMANDS:
        if tuple(argv[: len(cmd.words)]) == cmd.words:
            break
    else:
        return None
    options = {opt.name: opt for opt in (_EMIT, *cmd.options)}
    values: dict[str, object] = {}
    files = []
    rest = iter(argv[len(cmd.words) :])
    for token in rest:
        if not token.startswith("-"):
            files.append(token)
            continue
        opt = options.get(token)
        if opt is None or opt.dest in values:
            return None
        if opt.flag:
            values[opt.dest] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = opt.type(value)
        except (TypeError, ValueError):
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
    if len(files) != 1 or any(opt.required and opt.dest not in values for opt in options.values()):
        return None
    args = argparse.Namespace(command=cmd.words[0], file=files[0], handler=cmd.handler)
    if len(cmd.words) == 2:
        args.subcommand = cmd.words[1]
    for opt in options.values():
        setattr(args, opt.dest, values.get(opt.dest, opt.default))
    return args


def _build_parsers() -> argparse.ArgumentParser:
    """COMMANDS as argparse parsers, for the argv that _parse_plain declines."""
    top = argparse.ArgumentParser(
        prog="supercohom",
        description="exact cohomology, deformations, and extensions of Lie superalgebras",
    )
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for cmd in COMMANDS:
        parent = sub
        if len(cmd.words) == 2:
            group = cmd.words[0]
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUPS[group]).add_subparsers(
                    dest="subcommand", required=True
                )
            parent = groups[group]
        p = parent.add_parser(cmd.words[-1], help=cmd.help)
        p.add_argument("file", help="workspace file")
        for opt in (_EMIT, *cmd.options):
            if opt.flag:
                p.add_argument(opt.name, action="store_true", default=opt.default, help=opt.help)
            else:
                p.add_argument(
                    opt.name,
                    type=opt.type,
                    default=opt.default,
                    required=opt.required,
                    choices=opt.choices,
                    help=opt.help,
                )
        p.set_defaults(handler=cmd.handler)
    return top


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Read argv against COMMANDS; raises SystemExit after help or a usage
    error, as argparse does."""
    argv = list(argv)
    # `extend FILE --cocycle NAME` may be spelled without the word "build";
    # -h, --help and its abbreviations show the help of the extend group.
    words = ("build", "classify", "-h", "--h", "--he", "--hel", "--help")
    if len(argv) > 1 and argv[0] == "extend" and argv[1] not in words:
        argv.insert(1, "build")
    args = _parse_plain(argv)
    return args if args is not None else _build_parsers().parse_args(argv)


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation: read argv, load the workspace, run the
    handler and print its answer.  Returns the exit status without exiting."""
    threads = os.environ.get("SUPERCOHOM_THREADS")
    if threads is not None:
        try:
            cap = int(threads)
        except ValueError:
            cap = 0
        if cap < 1:
            print(f"SUPERCOHOM_THREADS must be a positive integer, got {threads!r}", file=sys.stderr)
            return 2
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, lines, data = args.handler(load(args.file), args)
    except OSError as exc:
        print(f"cannot read workspace: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    except OracleDisagreement as exc:
        print(f"internal error (oracle disagreement): {exc}", file=sys.stderr)
        return 1
    except SupercohomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(data, indent=2, sort_keys=True) if args.emit == "json" else "\n".join(lines))
    return code


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
