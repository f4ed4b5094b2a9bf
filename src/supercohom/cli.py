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

from . import deformation as dfm
from .cohomology import Cochain, cohomology, derivations
from .errors import NotValidated, OracleDisagreement, ParseError, SupercohomError, ValidationError
from .extension import ExtensionDatum, build_extension, classify_extensions, jacobi_iff_cocycle
from .graded import GradedBasis, Vector
from .nr_bracket import bracket_to_element, mc_check
from .scalars import serialize_scalar
from .workspace import ADJOINT, Workspace, _vector_doc, load


def _field_str(spec) -> str:
    if spec.kind == "rational":
        return "rational"
    return f"cyclotomic({spec.conductor})"


def _vec_str(space: GradedBasis, vec: Vector) -> str:
    if vec.is_zero():
        return "0"
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
    names = ws.algebra.basis.names
    return [
        f"  {_tuple_str(names, T)} -> {_vec_str(space, vec)}"
        for T, vec in f.by_tuple().items()
    ]


def _cochain_json(ws: Workspace, f: Cochain, space: GradedBasis) -> dict:
    names = ws.algebra.basis.names
    return {
        ",".join(names[i] for i in T) + "|" + space.names[j]: serialize_scalar(c)
        for (T, j), c in sorted(f.coords.items())
    }


class _Emitter:
    def __init__(self, mode: str):
        self.mode = mode
        self.lines: list[str] = []
        self.data: dict = {}

    def text(self, line: str):
        self.lines.append(line)

    def flush(self):
        if self.mode == "json":
            print(json.dumps(self.data, indent=2, sort_keys=True))
        else:
            for line in self.lines:
                print(line)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("file", help="workspace file")
    parser.add_argument("--emit", choices=("text", "json"), default="text")


def _cmd_validate(args) -> int:
    ws = load(args.file)  # parse runs every check and raises on the first failure
    out = _Emitter(args.emit)
    L = ws.algebra
    d0, d1 = L.basis.dims
    out.text(f"field: {_field_str(L.spec)}")
    out.text(f"algebra: dimension {d0}|{d1}")
    checks = ["antisymmetry", "jacobi", "homogeneity"]
    for check in checks:
        out.text(f"  {check}: ok")
    if ws.group is not None:
        out.text(f"group: order {ws.group.order}")
        out.text("  action: ok")
        checks.append("action")
    for name in sorted(ws.modules):
        m0, m1 = ws.modules[name].module.space.dims
        out.text(f"module {name}: dimension {m0}|{m1}, ok")
        checks.append(f"module {name}")
    for name in sorted(ws.cochains):
        f = ws.cochains[name].cochain
        out.text(f"cochain {name}: arity {f.arity}, parity {f.parity}, module {ws.cochains[name].module}")
    for name in sorted(ws.deformations):
        out.text(f"deformation {name}: order {len(ws.deformations[name]) - 1}")
    out.text("all checks passed")
    out.data = {
        "ok": True,
        "field": _field_str(L.spec),
        "algebra": {"dims": list(L.basis.dims)},
        "group": None if ws.group is None else {"order": ws.group.order},
        "checks": dict.fromkeys(checks, True),
        "cochains": sorted(ws.cochains),
        "deformations": sorted(ws.deformations),
        "modules": sorted(ws.modules),
    }
    out.flush()
    return 0


def _cmd_cohomology(args) -> int:
    ws = load(args.file)
    if args.n < 0:
        raise ParseError("--n must be >= 0")
    module, rep_arg = ws.module_rep_arg(args.module)
    rpt = cohomology(args.n, ws.algebra, module, rep_arg)
    out = _Emitter(args.emit)
    out.text(f"cohomology in degree {args.n}, module {args.module}")
    out.text("parity  cochains  cocycles  coboundaries  H")
    for p in (0, 1):
        out.text(
            f"{p:<7} {rpt.c_dims[p]:<9} {rpt.z_dims[p]:<9} {rpt.b_dims[p]:<13} {rpt.h_dims[p]}"
        )
    out.data = {
        "n": args.n,
        "module": args.module,
        "cochains": list(rpt.c_dims),
        "cocycles": list(rpt.z_dims),
        "coboundaries": list(rpt.b_dims),
        "h": list(rpt.h_dims),
    }
    out.flush()
    return 0


def _candidate_element(ws: Workspace, name: str | None) -> Cochain:
    if name is None:
        return bracket_to_element(ws.algebra)
    entry = ws.cochains.get(name)
    if entry is None:
        raise ParseError(f"unknown cochain {name!r}; have {sorted(ws.cochains)}")
    if entry.module != ADJOINT:
        raise ParseError("mc-check candidates must be adjoint-valued")
    f = entry.cochain
    if (f.arity, f.parity) != (2, 0):
        raise ParseError("mc-check candidates must have arity 2 and parity 0")
    return f


def _cmd_mc_check(args) -> int:
    ws = load(args.file)
    elt = _candidate_element(ws, args.candidate)
    rpt = mc_check(elt, ws.algebra.spec)
    out = _Emitter(args.emit)
    label = args.candidate or "bracket"
    out.text(f"candidate: {label}")
    out.text(f"[F, F] = 0: {'yes' if rpt.is_mc else 'NO'}")
    out.text(f"jacobi identity: {'holds' if rpt.jacobi_ok else 'FAILS'}")
    names = ws.algebra.basis.names
    residual = []
    if not rpt.is_mc:
        for T, vec in rpt.residual.by_tuple().items():
            out.text(f"  residual at {_tuple_str(names, T)}: {_vec_str(ws.algebra.basis, vec)}")
            residual.append(
                {"at": [names[i] for i in T], "value": _vector_doc(ws.algebra.basis, vec)}
            )
    out.data = {
        "candidate": label,
        "is_mc": rpt.is_mc,
        "jacobi_ok": rpt.jacobi_ok,
        "residual": residual,
    }
    out.flush()
    return 0 if rpt.is_mc else 1


def _cmd_deform_check(args) -> int:
    ws = load(args.file)
    d = ws.deformation(args.deformation)
    mode = "strict" if args.strict else "truncated"
    rpt = dfm.validate(d, mode)
    out = _Emitter(args.emit)
    names = ws.algebra.basis.names
    out.text(f"deformation {args.deformation}, order {d.order}, mode {mode}")
    out.text(f"terms equivariant: {'yes' if rpt.terms_equivariant else 'NO'}")
    out.text(f"terms antisymmetric: {'yes' if rpt.terms_antisymmetric else 'NO'}")
    orders_doc = []
    for order_rpt in rpt.orders:
        if order_rpt.ok:
            out.text(f"order {order_rpt.r}: ok")
        else:
            out.text(f"order {order_rpt.r}: FAIL ({len(order_rpt.residual)} triples)")
            for T, vec in sorted(order_rpt.residual.items()):
                out.text(f"  {_tuple_str(names, T)} -> {_vec_str(ws.algebra.basis, vec)}")
        orders_doc.append({"r": order_rpt.r, "ok": order_rpt.ok})
    out.text("deformation valid" if rpt.ok else "deformation NOT valid")
    out.data = {
        "deformation": args.deformation,
        "mode": mode,
        "order": d.order,
        "ok": rpt.ok,
        "orders": orders_doc,
        "terms_antisymmetric": rpt.terms_antisymmetric,
        "terms_equivariant": rpt.terms_equivariant,
    }
    out.flush()
    return 0 if rpt.ok else 1


def _cmd_deform_obstruct(args) -> int:
    ws = load(args.file)
    d = ws.deformation(args.deformation)
    out = _Emitter(args.emit)
    try:
        rpt = dfm.obstruction(d)
    except NotValidated as exc:
        first = exc.report.first_failure()
        at = f"order {first.r}" if first is not None else "term checks"
        out.text(f"deformation {args.deformation} is not valid through order {d.order} ({at} fails)")
        out.text("obstruction undefined")
        out.data = {"deformation": args.deformation, "valid": False, "failing": at}
        out.flush()
        return 1
    names = ws.algebra.basis.names
    out.text(f"obstruction at order {d.order + 1}:")
    if rpt.cochain.is_zero():
        out.text("  0")
    for line in _cochain_text(ws, rpt.cochain, ws.algebra.basis):
        out.text(line)
    out.text(f"closed under the differential: {'yes' if rpt.closed else 'NO'}")
    out.text(f"solvable: {'yes' if rpt.solvable else 'NO'}")
    next_doc = None
    if rpt.solvable and rpt.next_term is not None:
        next_doc = _cochain_json(ws, rpt.next_term, ws.algebra.basis)
        out.text(f"a next term extending the deformation to order {d.order + 1}:")
        if rpt.next_term.is_zero():
            out.text("  0")
        for line in _cochain_text(ws, rpt.next_term, ws.algebra.basis):
            out.text(line)
    out.text(
        "the deformation extends one order further"
        if rpt.solvable
        else "the deformation does NOT extend"
    )
    out.data = {
        "deformation": args.deformation,
        "valid": True,
        "obstruction": _cochain_json(ws, rpt.cochain, ws.algebra.basis),
        "closed": rpt.closed,
        "solvable": rpt.solvable,
        "next_term": next_doc,
    }
    out.flush()
    return 0 if rpt.solvable else 1


def _cmd_derivations(args) -> int:
    ws = load(args.file)
    module, rep_arg = ws.module_rep_arg(args.module)
    der, inn = derivations(ws.algebra, module, rep_arg)
    out = _Emitter(args.emit)
    invariant = " invariant" if ws.group is not None else ""
    out.text(f"{len(der)}{invariant} derivations into {args.module}, {len(inn)} inner")
    out.text(f"outer classes: {len(der) - len(inn)}")
    out.data = {
        "module": args.module,
        "derivations": len(der),
        "inner": len(inn),
        "outer": len(der) - len(inn),
    }
    out.flush()
    return 0


def _extension_datum(ws: Workspace, name: str) -> tuple[ExtensionDatum, GradedBasis]:
    entry = ws.cochains.get(name)
    if entry is None:
        raise ParseError(f"unknown cochain {name!r}; have {sorted(ws.cochains)}")
    module, rep_arg = ws.module_rep_arg(entry.module)
    datum = ExtensionDatum(ws.algebra, module, rep_arg, entry.cochain)
    return datum, module.space


def _cmd_extend(args) -> int:
    ws = load(args.file)
    datum, space = _extension_datum(ws, args.cocycle)
    rpt = jacobi_iff_cocycle(datum)
    out = _Emitter(args.emit)
    out.text(f"glue {args.cocycle} into module {ws.cochains[args.cocycle].module}")
    out.text(f"2-cocycle: {'yes' if rpt.is_cocycle else 'NO'}")
    out.text(f"extension satisfies jacobi: {'yes' if rpt.jacobi else 'NO'}")
    doc_brackets = {}
    if rpt.jacobi:
        E = build_extension(datum)
        names = E.basis.names
        out.text(f"extension basis: {', '.join(names)}")
        out.text("brackets:")
        for (i, j), vec in sorted(E.bracket.components.items()):
            if i > j or vec.is_zero():
                continue
            out.text(f"  [{names[i]}, {names[j]}] = {_vec_str(E.basis, vec)}")
            doc_brackets[f"{names[i]},{names[j]}"] = _vector_doc(E.basis, vec)
    out.data = {
        "cocycle": args.cocycle,
        "is_cocycle": rpt.is_cocycle,
        "jacobi": rpt.jacobi,
        "extension": doc_brackets if rpt.jacobi else None,
    }
    out.flush()
    return 0 if rpt.is_cocycle and rpt.jacobi else 1


def _cmd_extend_classify(args) -> int:
    ws = load(args.file)
    module, rep_arg = ws.module_rep_arg(args.module)
    classes = classify_extensions(ws.algebra, module, rep_arg)
    out = _Emitter(args.emit)
    out.text(
        f"{len(classes)} nonsplit extension class(es) of the algebra by module {args.module}"
    )
    doc = []
    for k, f in enumerate(classes):
        out.text(f"class {k + 1}:")
        for line in _cochain_text(ws, f, module.space):
            out.text(line)
        doc.append(_cochain_json(ws, f, module.space))
    out.data = {"module": args.module, "count": len(classes), "classes": doc}
    out.flush()
    return 0


def _build_parsers():
    top = argparse.ArgumentParser(
        prog="supercohom",
        description="exact cohomology, deformations, and extensions of Lie superalgebras",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every axiom in a workspace file")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("cohomology", help="parity-split cohomology dimensions")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="cochain degree")
    p.add_argument("--module", default=ADJOINT)
    p.set_defaults(handler=_cmd_cohomology)

    p = sub.add_parser("mc-check", help="test [F, F] = 0 for a structure candidate")
    _add_common(p)
    p.add_argument("--candidate", default=None, help="cochain name (default: the bracket)")
    p.set_defaults(handler=_cmd_mc_check)

    deform = sub.add_parser("deform", help="formal deformation checks")
    dsub = deform.add_subparsers(dest="subcommand", required=True)
    p = dsub.add_parser("check", help="validate a deformation order by order")
    _add_common(p)
    p.add_argument("--deformation", required=True)
    p.add_argument("--strict", action="store_true", help="also check orders above the truncation")
    p.set_defaults(handler=_cmd_deform_check)
    p = dsub.add_parser("obstruct", help="next-order obstruction and solvability")
    _add_common(p)
    p.add_argument("--deformation", required=True)
    p.set_defaults(handler=_cmd_deform_obstruct)

    p = sub.add_parser("derivations", help="derivation and inner-derivation counts")
    _add_common(p)
    p.add_argument("--module", default=ADJOINT)
    p.set_defaults(handler=_cmd_derivations)

    extend = sub.add_parser("extend", help="build or classify abelian extensions")
    esub = extend.add_subparsers(dest="subcommand", required=True)
    p = esub.add_parser("build", help="build the extension attached to a 2-cochain")
    _add_common(p)
    p.add_argument("--cocycle", required=True)
    p.set_defaults(handler=_cmd_extend)
    p = esub.add_parser("classify", help="representatives of every extension class")
    _add_common(p)
    p.add_argument("--module", default=ADJOINT)
    p.set_defaults(handler=_cmd_extend_classify)

    return top


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the exit status without exiting."""
    threads = os.environ.get("SUPERCOHOM_THREADS")
    if threads is not None:
        try:
            cap = int(threads)
        except ValueError:
            cap = 0
        if cap < 1:
            print(f"SUPERCOHOM_THREADS must be a positive integer, got {threads!r}", file=sys.stderr)
            return 2
    argv = list(argv)
    # `extend FILE --cocycle NAME` is spelled without the word "build".
    if argv and argv[0] == "extend" and len(argv) > 1 and argv[1] != "classify":
        argv.insert(1, "build")
    top = _build_parsers()
    try:
        args = top.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
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


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
