"""Reading and writing workspace files.

A workspace file is a JSON document bundling everything one computation
needs: the scalar field, a superalgebra given by structure constants, an
optional finite symmetry group with its action, and optional named
modules, cochains, and deformations.  The layout:

    {
      "field": "rational",                      // or {"cyclotomic": m}
      "algebra": {
        "basis": [["e11", 0], ["e12", 1]],      // [label, parity], evens first
        "brackets": {"e11,e12": {"e12": "1"}}   // only pairs with i <= j
      },
      "group": {"table": [[0,1],[1,0]], "identity": 0},
      "action": [[...], [...]],                 // one matrix per group element
      "modules": {"W": {"basis": [...], "action": {...}, "matrices": [...]}},
      "cochains": {"f": {"arity": 2, "parity": 0, "module": "adjoint",
                         "coords": {"e11,e12|e12": "1"}}},
      "deformations": {"mu": {"terms": ["bracket", "f"]}}
    }

Structure constants list each bracket once, lower basis index first; the
mirrored pairs follow from super-antisymmetry and are filled in by
superalgebra.from_pairs.  All scalars are written as exact strings
("2/3", "1 - z^2").  Cochain coordinate keys are "arg,arg,...|target"
with the argument tuple in canonical order, so a label must be nonempty
and hold no ',' or '|'.  Parsing is eager: a file that repeats a key in
one object, names an unknown label or breaks an axiom is rejected up
front, with a ParseError for malformed input and a ValidationError
(naming the axiom and a witness) for well-formed input that fails a
mathematical check.

``parse`` and ``serialize`` are inverse in both directions: serializing
a parsed file yields its canonical form, and parsing a serialized
workspace reproduces it exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .cohomology import Cochain
from .deformation import Deformation
from .errors import ParseError, ValidationError
from .graded import GradedBasis, Vector
from .group_action import (
    ActionRep,
    FiniteGroup,
    resolve_reps,
    validate_action,
    validate_module_action,
)
from .nr_bracket import bracket_element
from .scalars import RATIONAL, FieldSpec, Scalar, cyclo, parse_scalar, serialize_scalar
from .superalgebra import LieSuperalgebra, LModule, adjoint_module, from_pairs, validate_module

ADJOINT = "adjoint"
BRACKET_TERM = "bracket"

_TOP_KEYS = {"field", "algebra", "group", "action", "modules", "cochains", "deformations"}


@dataclass
class ModuleEntry:
    module: LModule
    rep: ActionRep | None


@dataclass
class CochainEntry:
    cochain: Cochain
    module: str


@dataclass
class Workspace:
    algebra: LieSuperalgebra
    rep: ActionRep | None = None
    modules: dict[str, ModuleEntry] = field(default_factory=dict)
    cochains: dict[str, CochainEntry] = field(default_factory=dict)
    deformations: dict[str, tuple[str, ...]] = field(default_factory=dict)
    _deformation_cache: dict[str, tuple[tuple[str, ...], Deformation]] = field(
        default_factory=dict, compare=False, repr=False
    )
    # the one adjoint module of the workspace, so its complexes are built once
    adjoint: LModule = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.adjoint = adjoint_module(self.algebra)

    @property
    def spec(self) -> FieldSpec:
        return self.algebra.spec

    @property
    def group(self) -> FiniteGroup | None:
        return None if self.rep is None else self.rep.group

    def module_names(self) -> list[str]:
        return [ADJOINT] + sorted(self.modules)

    def resolve_module(self, name: str) -> tuple[LModule, ActionRep | None]:
        if name == ADJOINT:
            return self.adjoint, self.rep
        entry = self.modules.get(name)
        if entry is None:
            raise ParseError(f"unknown module {name!r}; have {self.module_names()}")
        return entry.module, entry.rep

    def module_rep_arg(self, name: str):
        """The module and its ``rep`` argument, resolved: None without a
        group, else the pair (action on the algebra, action on the module)."""
        module, rep_m = self.resolve_module(name)
        rep = None if self.rep is None else (self.rep, rep_m)
        return module, resolve_reps(rep, self.algebra, module)

    def cochain(self, name: str) -> Cochain:
        entry = self.cochains.get(name)
        if entry is None:
            raise ParseError(f"unknown cochain {name!r}; have {sorted(self.cochains)}")
        return entry.cochain

    def deformation(self, name: str) -> Deformation:
        """The deformation named name, built from its term names, the
        cochains they name and the action.  A built one is reused only while
        all three are the objects it was built from."""
        if name not in self.deformations:
            raise ParseError(
                f"unknown deformation {name!r}; have {sorted(self.deformations)}"
            )
        names = self.deformations[name]
        terms = [
            bracket_element(self.algebra) if term == BRACKET_TERM else self.cochains[term].cochain
            for term in names
        ]
        built_from, d = self._deformation_cache.get(name, (None, None))
        if built_from is names and d.rep is self.rep and [*map(id, d.terms)] == [*map(id, terms)]:
            return d
        d = Deformation(self.algebra, self.rep, terms)
        self._deformation_cache[name] = (names, d)
        return d


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        raise ParseError(f"{path}: {msg}")


def _is_int(raw) -> bool:
    # JSON true/false load as bool, which is a subclass of int.
    return type(raw) is int


def _as_dict(raw, path: str) -> dict:
    _expect(isinstance(raw, dict), path, f"expected an object, got {type(raw).__name__}")
    return raw


def _as_list(raw, path: str) -> list:
    _expect(isinstance(raw, list), path, f"expected an array, got {type(raw).__name__}")
    return raw


class _ScalarReader:
    """parse_scalar for the scalars of one parse: each distinct text is
    parsed once (Scalars are immutable, so repeats share one).  A text that
    fails is not stored, so every occurrence raises, each with its path, and
    the first one in parse order is the one reported."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self._seen: dict[str, Scalar] = {}

    def __call__(self, raw, path: str) -> Scalar:
        if _is_int(raw):
            raw = str(raw)
        _expect(isinstance(raw, str), path, "scalars must be written as strings")
        x = self._seen.get(raw)
        if x is None:
            try:
                x = self._seen[raw] = parse_scalar(self.spec, raw)
            except ParseError as exc:
                raise ParseError(f"{path}: {exc}") from exc
        return x


def _parse_field(raw) -> FieldSpec:
    if raw == "rational":
        return RATIONAL
    if isinstance(raw, dict) and set(raw) == {"cyclotomic"}:
        m = raw["cyclotomic"]
        _expect(_is_int(m) and m >= 1, "field.cyclotomic", "conductor must be a positive integer")
        return cyclo(m)
    raise ParseError('field: expected "rational" or {"cyclotomic": m}')


def _parse_basis(raw, path: str) -> GradedBasis:
    rows = _as_list(raw, path)
    names, parities = [], []
    for k, row in enumerate(rows):
        _expect(
            isinstance(row, list) and len(row) == 2 and isinstance(row[0], str)
            and _is_int(row[1]) and row[1] in (0, 1),
            f"{path}[{k}]",
            "expected a [label, parity] pair with parity 0 or 1",
        )
        nameable = row[0] != "" and "," not in row[0] and "|" not in row[0]
        _expect(nameable, f"{path}[{k}]", "labels must be nonempty, without ',' or '|', so keys can name them")
        names.append(row[0])
        parities.append(row[1])
    try:
        return GradedBasis(tuple(names), tuple(parities))
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _label_index(basis: GradedBasis, label: str, path: str) -> int:
    if label not in basis.names:
        raise ParseError(f"{path}: unknown label {label!r}; basis is {list(basis.names)}")
    return basis.names.index(label)


def _parse_vector(read: _ScalarReader, space: GradedBasis, raw, path: str) -> Vector:
    table = _as_dict(raw, path)
    coords = {}
    for label, val in table.items():
        j = _label_index(space, label, path)
        coords[j] = read(val, f"{path}.{label}")
    return Vector(coords)


def _parse_brackets(read: _ScalarReader, basis: GradedBasis, raw, path: str) -> dict[tuple[int, int], Vector]:
    """The listed brackets, {(i, j): [x_i, x_j]} with i <= j."""
    table = _as_dict(raw, path)
    components: dict[tuple[int, int], Vector] = {}
    par = basis.parities
    for key, val in table.items():
        parts = key.split(",")
        _expect(len(parts) == 2, f"{path}[{key!r}]", 'keys look like "a,b"')
        i = _label_index(basis, parts[0], f"{path}[{key!r}]")
        j = _label_index(basis, parts[1], f"{path}[{key!r}]")
        _expect(i <= j, f"{path}[{key!r}]", "list each pair once, lower basis index first")
        vec = _parse_vector(read, basis, val, f"{path}[{key!r}]")
        if vec.is_zero():
            continue
        if i == j and par[i] == 0:
            raise ValidationError(
                f"{path}[{key!r}]: super-antisymmetry forces the bracket of an even "
                "vector with itself to vanish"
            )
        components[(i, j)] = vec
    return components


def _parse_group(raw) -> FiniteGroup:
    body = _as_dict(raw, "group")
    _expect(set(body) <= {"table", "identity"}, "group", f"unknown keys {sorted(set(body) - {'table', 'identity'})}")
    _expect("table" in body and "identity" in body, "group", 'needs "table" and "identity"')
    table = _as_list(body["table"], "group.table")
    for r, row in enumerate(table):
        cells = _as_list(row, f"group.table[{r}]")
        _expect(all(_is_int(c) for c in cells), f"group.table[{r}]", "entries are element indices")
    _expect(_is_int(body["identity"]), "group.identity", "expected an element index")
    try:
        return FiniteGroup(len(table), tuple(tuple(r) for r in table), body["identity"])
    except ValidationError as exc:
        raise ValidationError(f"group: {exc}") from exc


def _parse_action(read: _ScalarReader, group, basis, raw, path: str) -> ActionRep:
    """One dim x dim matrix per group element, read straight into the sparse
    columns ActionRep keeps; a cell that is exactly "0" or 0 adds nothing."""
    mats = _as_list(raw, path)
    _expect(len(mats) == group.order, path, "one matrix per group element")
    dim = len(basis)
    columns = []
    for g, mat in enumerate(mats):
        mpath = f"{path}[{g}]"
        rows = _as_list(mat, mpath)
        _expect(len(rows) == dim, mpath, f"expected a {dim} x {dim} matrix")
        cols: list[dict[int, Scalar]] = [{} for _ in range(dim)]
        for r, row in enumerate(rows):
            cells = _as_list(row, f"{mpath}[{r}]")
            _expect(len(cells) == dim, f"{mpath}[{r}]", f"expected {dim} entries")
            for k, c in enumerate(cells):
                if c == "0" or (type(c) is int and c == 0):
                    continue
                x = read(c, f"{mpath}[{r}][{k}]")
                if not x.is_zero():
                    cols[k][r] = x
        columns.append(cols)
    return ActionRep(group, read.spec, basis.parities, columns=columns)


def _parse_module(ws: Workspace, read: _ScalarReader, name: str, raw) -> ModuleEntry:
    path = f"modules.{name}"
    body = _as_dict(raw, path)
    allowed = {"basis", "action", "matrices"}
    _expect(set(body) <= allowed, path, f"unknown keys {sorted(set(body) - allowed)}")
    _expect("basis" in body and "action" in body, path, 'needs "basis" and "action"')
    space = _parse_basis(body["basis"], f"{path}.basis")
    L = ws.algebra
    act: dict[tuple[int, int], Vector] = {}
    for key, val in _as_dict(body["action"], f"{path}.action").items():
        parts = key.split(",")
        _expect(len(parts) == 2, f"{path}.action[{key!r}]", 'keys look like "x,m"')
        i = _label_index(L.basis, parts[0], f"{path}.action[{key!r}]")
        j = _label_index(space, parts[1], f"{path}.action[{key!r}]")
        act[(i, j)] = _parse_vector(read, space, val, f"{path}.action[{key!r}]")
    module = LModule(L.basis, space, act)
    report = validate_module(L, module)
    if not report.ok:
        raise ValidationError(f"{path}: {report.describe()}")
    rep_m = None
    if ws.group is not None:
        _expect(
            "matrices" in body,
            path,
            'a workspace with a group needs "matrices" giving the action on the module',
        )
        rep_m = _parse_action(read, ws.group, space, body["matrices"], f"{path}.matrices")
        pair = validate_module_action(ws.rep, rep_m, L, module)
        if not pair.ok:
            raise ValidationError(f"{path}: {pair.describe()}")
    else:
        _expect("matrices" not in body, path, '"matrices" given but the workspace has no group')
    return ModuleEntry(module, rep_m)


def _parse_cochain(ws: Workspace, read: _ScalarReader, name: str, raw) -> CochainEntry:
    path = f"cochains.{name}"
    body = _as_dict(raw, path)
    allowed = {"arity", "parity", "module", "coords"}
    _expect(set(body) <= allowed, path, f"unknown keys {sorted(set(body) - allowed)}")
    for key in ("arity", "parity", "coords"):
        _expect(key in body, path, f'needs "{key}"')
    arity, parity = body["arity"], body["parity"]
    _expect(_is_int(arity) and arity >= 0, f"{path}.arity", "expected an integer >= 0")
    _expect(_is_int(parity) and parity in (0, 1), f"{path}.parity", "expected 0 or 1")
    module_name = body.get("module", ADJOINT)
    _expect(isinstance(module_name, str), f"{path}.module", "expected a module name")
    module, _ = ws.resolve_module(module_name)
    L = ws.algebra
    coords: dict[tuple[tuple[int, ...], int], Scalar] = {}
    for key, val in _as_dict(body["coords"], f"{path}.coords").items():
        kpath = f"{path}.coords[{key!r}]"
        _expect(key.count("|") == 1, kpath, 'keys look like "args|target"')
        args_part, target = key.split("|")
        labels = args_part.split(",") if args_part else []
        _expect(len(labels) == arity, kpath, f"expected {arity} argument labels")
        T = tuple(_label_index(L.basis, lab, kpath) for lab in labels)
        j = _label_index(module.space, target, kpath)
        coords[(T, j)] = read(val, kpath)
    try:
        cochain = Cochain(arity, parity, L.basis, module.space, coords)
    except (ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return CochainEntry(cochain, module_name)


def _parse_deformation(ws: Workspace, name: str, raw) -> tuple[str, ...]:
    path = f"deformations.{name}"
    body = _as_dict(raw, path)
    _expect(set(body) == {"terms"}, path, 'expected exactly one key, "terms"')
    terms = _as_list(body["terms"], f"{path}.terms")
    _expect(len(terms) >= 1, f"{path}.terms", "at least the order-0 term is needed")
    for k, term in enumerate(terms):
        tpath = f"{path}.terms[{k}]"
        _expect(isinstance(term, str), tpath, "expected a cochain name")
        if term == BRACKET_TERM:
            continue
        entry = ws.cochains.get(term)
        if entry is None:
            raise ParseError(f"{tpath}: unknown cochain {term!r}")
        _expect(entry.module == ADJOINT, tpath, "deformation terms must be adjoint-valued")
    return tuple(terms)


def _json_object(pairs: list) -> dict:
    """A JSON object with distinct keys: json.loads alone keeps the last of
    two equal keys without saying so."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ParseError(f"repeated key {next(k for k in obj if keys.count(k) > 1)!r} in one object")
    return obj


def parse(text: str) -> Workspace:
    """Parse the JSON text of a workspace file, validating everything."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    body = _as_dict(doc, "top level")
    unknown = set(body) - _TOP_KEYS
    _expect(not unknown, "top level", f"unknown keys {sorted(unknown)}")
    _expect("field" in body, "top level", 'needs "field"')
    _expect("algebra" in body, "top level", 'needs "algebra"')

    spec = _parse_field(body["field"])
    read = _ScalarReader(spec)
    alg = _as_dict(body["algebra"], "algebra")
    _expect(set(alg) <= {"basis", "brackets"}, "algebra", f"unknown keys {sorted(set(alg) - {'basis', 'brackets'})}")
    _expect("basis" in alg and "brackets" in alg, "algebra", 'needs "basis" and "brackets"')
    basis = _parse_basis(alg["basis"], "algebra.basis")
    pairs = _parse_brackets(read, basis, alg["brackets"], "algebra.brackets")
    try:
        algebra = from_pairs(basis, spec, pairs)
    except ValueError as exc:  # a bracket of the wrong parity
        raise ValidationError(f"algebra.brackets: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"algebra: {exc}") from exc

    ws = Workspace(algebra)

    if "group" in body:
        group = _parse_group(body["group"])
        _expect("action" in body, "top level", 'a workspace with a "group" needs an "action"')
        ws.rep = _parse_action(read, group, basis, body["action"], "action")
        report = validate_action(ws.rep, algebra)
        if not report.ok:
            raise ValidationError(f"action: {report.describe()}")
    else:
        _expect("action" not in body, "top level", '"action" given but no "group"')

    for name in sorted(_as_dict(body.get("modules", {}), "modules")):
        _expect(name != ADJOINT, f"modules.{name}", f"{ADJOINT!r} is reserved for the algebra itself")
        ws.modules[name] = _parse_module(ws, read, name, body["modules"][name])

    for name in sorted(_as_dict(body.get("cochains", {}), "cochains")):
        _expect(name != BRACKET_TERM, f"cochains.{name}", f"{BRACKET_TERM!r} is reserved")
        ws.cochains[name] = _parse_cochain(ws, read, name, body["cochains"][name])

    for name in sorted(_as_dict(body.get("deformations", {}), "deformations")):
        ws.deformations[name] = _parse_deformation(ws, name, body["deformations"][name])
        try:
            ws.deformation(name)  # eager: bad leading term or equivariance fails here
        except ValidationError as exc:
            raise ValidationError(f"deformations.{name}: {exc}") from exc

    return ws


def _field_doc(spec: FieldSpec):
    if spec.kind == "rational":
        return "rational"
    return {"cyclotomic": spec.conductor}


def _basis_doc(basis: GradedBasis) -> list:
    return [[name, parity] for name, parity in zip(basis.names, basis.parities)]


def _vector_doc(space: GradedBasis, vec: Vector) -> dict:
    return {space.names[j]: serialize_scalar(c) for j, c in sorted(vec.coords.items())}


def _brackets_doc(L: LieSuperalgebra) -> dict:
    """The canonical half of the bracket: the values of mu, the bracket as
    an even 2-cochain (nr_bracket.bracket_element)."""
    names = L.basis.names
    mu = bracket_element(L).by_tuple()
    return {f"{names[i]},{names[j]}": _vector_doc(L.basis, vec) for (i, j), vec in mu.items()}


def _matrix_doc(mat) -> list:
    return [[serialize_scalar(c) for c in row] for row in mat]


def _coords_doc(algebra: GradedBasis, space: GradedBasis, f: Cochain) -> dict:
    """A cochain's coordinates as {"x,y|m": scalar text}."""
    return {
        ",".join(algebra.names[i] for i in T) + "|" + space.names[j]: serialize_scalar(c)
        for (T, j), c in f.coords.items()
    }


def _cochain_doc(ws: Workspace, entry: CochainEntry) -> dict:
    f = entry.cochain
    module, _ = ws.resolve_module(entry.module)
    coords = _coords_doc(ws.algebra.basis, module.space, f)
    return {"arity": f.arity, "parity": f.parity, "module": entry.module, "coords": coords}


def serialize(ws: Workspace) -> str:
    """Canonical JSON text; ``parse`` reproduces the workspace exactly."""
    doc = {
        "field": _field_doc(ws.spec),
        "algebra": {
            "basis": _basis_doc(ws.algebra.basis),
            "brackets": _brackets_doc(ws.algebra),
        },
    }
    if ws.group is not None:
        doc["group"] = {
            "table": [list(row) for row in ws.group.table],
            "identity": ws.group.identity,
        }
        doc["action"] = [_matrix_doc(m) for m in ws.rep.matrices]
    if ws.modules:
        doc["modules"] = {}
        for name, entry in sorted(ws.modules.items()):
            names = ws.algebra.basis.names
            space = entry.module.space
            action = {
                f"{names[i]},{space.names[j]}": _vector_doc(space, vec)
                for (i, j), vec in sorted(entry.module.act.items())
            }
            mod_doc = {"basis": _basis_doc(space), "action": action}
            if entry.rep is not None:
                mod_doc["matrices"] = [_matrix_doc(m) for m in entry.rep.matrices]
            doc["modules"][name] = mod_doc
    if ws.cochains:
        doc["cochains"] = {
            name: _cochain_doc(ws, entry) for name, entry in sorted(ws.cochains.items())
        }
    if ws.deformations:
        doc["deformations"] = {
            name: {"terms": list(terms)} for name, terms in sorted(ws.deformations.items())
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load(path: str) -> Workspace:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def save(ws: Workspace, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(ws))
