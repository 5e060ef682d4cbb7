"""JSON presentations of every object the command line reads and writes.

Polynomials travel as text in the input grammar, so any residual printed in
a report can be pasted back in.  Pair keys are comma-joined basis names
("L,W"); missing pairs mean zero.  Every reader checks the shapes it reads,
and the variables each polynomial may use (d and x in algebra and action
tables and conformal maps, d in module maps and elements, x in forms, d1 and
d2 in tensor entries, besides the declared parameters), and names the JSON
path of the first one that is wrong.
A reader of polynomials takes an optional `Substitution`, applied to each
one as it is parsed; the command line passes its `--param` values this way.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING

from .algebra import LEFT_SYMMETRIC, LIE, ConformalAlgebra, ProductTable
from .poly import Poly, PolyError, Substitution, Sums, VarTable, _numeral, parse

if TYPE_CHECKING:
    from .catalog import CatalogEntry
    from .gd import GDBialgebra
    from .linmap import ConformalLinearMap, ModuleMap
    from .operators import BilinearForm, PolySystem
    from .reps import Representation
    from .tensor import Tensor2


class InputError(Exception):
    pass


def _type(value) -> str:
    return "null" if value is None else type(value).__name__


def _container(doc, kind: type, path: str):
    """A JSON object (kind dict) or list (kind list); a missing one reads as empty."""
    if doc is None:
        return kind()
    if not isinstance(doc, kind):
        what = "an object" if kind is dict else "a list"
        raise InputError(f"{path} must be {what}, got {_type(doc)}")
    return doc


def _names(doc, path: str, nonempty: bool = True) -> tuple[str, ...]:
    """A list of distinct names that a pair key can address, nonempty unless told otherwise."""
    if not (isinstance(doc, list) and all(isinstance(n, str) for n in doc)) or (nonempty and not doc):
        what = "a nonempty list" if nonempty else "a list"
        raise InputError(f"{path} must be {what} of names, got {_type(doc)}")
    if bad := [n for n in doc if "," in n or n != n.strip()]:
        raise InputError(f"{path} name {bad[0]!r} holds a comma or surrounding whitespace")
    repeated = sorted(n for n, count in Counter(doc).items() if count > 1)
    if repeated:
        raise InputError(f"repeated name(s) {', '.join(repeated)} in {path}")
    return tuple(doc)


def _poly(table: VarTable, text, path: str, names: tuple[str, ...] | None = None,
          at: Substitution | None = None) -> Poly:
    """Cell reader: a polynomial is a string in the input grammar; with
    `names`, one that may use only those variables and the parameters; with
    `at`, substituted after the check."""
    if not isinstance(text, str):
        raise InputError(f"{path} must be a polynomial string, got {_type(text)}")
    try:
        p = parse(table, text)
    except (PolyError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from None
    if names is not None and (extra := p.variables() - set(names) - set(table.params)):
        raise InputError(f"{path} may use only {', '.join(names)} and parameters,"
                         f" got {', '.join(sorted(extra))}")
    return p if at is None else at(p)


def _rational(table: VarTable, text, path: str) -> Fraction:
    """Cell reader: a bialgebra structure constant is a rational string or an integer."""
    if type(text) not in (str, int):
        raise InputError(f"{path} must be a rational string or an integer, got {_type(text)}")
    value = _poly(table, str(text), path).constant_value()
    if value is None:
        raise InputError(f"{path} must be a rational, got {text!r}")
    return value


def _cells(doc, names: tuple[str, ...], path: str, cell) -> dict:
    """{name: value} with every name in `names`, read to {index: cell(value, path)}."""
    idx = {n: i for i, n in enumerate(names)}
    out = {}
    for name, value in _container(doc, dict, path).items():
        if name not in idx:
            raise InputError(f"unknown basis name {name!r} in {path}")
        out[idx[name]] = cell(value, f"{path}.{name}")
    return out


def _table(doc, rows: tuple[str, ...], cols: tuple[str, ...], path: str, cell,
           targets: tuple[str, ...] | None = None) -> dict:
    """{"a,b": {target: value}} with a in `rows` and b in `cols`, read to
    {(i, j): {k: cell(value, path)}}; without `targets`, {"a,b": value}."""
    idx_r = {n: i for i, n in enumerate(rows)}
    idx_c = {n: i for i, n in enumerate(cols)}
    out = {}
    for key, value in _container(doc, dict, path).items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2 or parts[0] not in idx_r or parts[1] not in idx_c:
            raise InputError(f"bad key {key!r} in {path}")
        sub = f"{path}[{json.dumps(key)}]"
        out[(idx_r[parts[0]], idx_c[parts[1]])] = (
            cell(value, sub) if targets is None else _cells(value, targets, sub, cell))
    return out


def _table_to_dict(tbl: dict, rows: tuple[str, ...], cols: tuple[str, ...],
                   targets: tuple[str, ...]) -> dict:
    """Inverse of `_table` with targets, of a table without zero cells or empty entries."""
    return {f"{rows[i]},{cols[j]}": {targets[k]: str(c) if isinstance(c, Poly) else _numeral(c)
                                     for k, c in sorted(cells.items())}
            for (i, j), cells in sorted(tbl.items())}


def _matrix(cells: dict, rows: int, cols: int, table: VarTable) -> list[list[Poly]]:
    zero = Poly.zero(table)
    return [[cells.get((i, j), zero) for j in range(cols)] for i in range(rows)]


# -- algebras ----------------------------------------------------------------

def algebra_from_dict(doc: dict, table: VarTable,
                      at: Substitution | None = None) -> ConformalAlgebra:
    kind = doc.get("kind", LIE)
    if kind not in (LIE, LEFT_SYMMETRIC):
        raise InputError(f"unknown algebra kind {kind!r}")
    basis = _names(doc.get("basis"), "algebra.basis")
    products = _table(doc.get("products"), basis, basis, "algebra.products",
                      partial(_poly, table, names=("d", "x"), at=at), basis)
    return ConformalAlgebra(kind, basis, table, products)


def algebra_to_dict(A: ConformalAlgebra) -> dict:
    """Refuses a basis with repeated names, whose product keys would collide."""
    return {
        "kind": A.kind,
        "basis": list(_names(list(A.basis), "the algebra's basis")),
        "params": list(A.table.params),
        "products": _table_to_dict(A.products, A.basis, A.basis, A.basis),
    }


# -- representations ----------------------------------------------------------

def rep_from_dict(doc: dict | str, A: ConformalAlgebra,
                  at: Substitution | None = None) -> Representation:
    """A table with module_basis and action (or action_l/action_r), or a
    standard construction: its name, or {"standard": name, "dual": bool}."""
    from .reps import Representation, dual_rep, standard_rep
    if isinstance(doc, str):
        doc = {"standard": doc}
    if "standard" in doc:
        which, dual = doc["standard"], doc.get("dual", False)
        if not isinstance(which, str):
            raise InputError(f"representation.standard must be a name, got {_type(which)}")
        if not isinstance(dual, bool):
            raise InputError(f"representation.dual must be a boolean, got {_type(dual)}")
        rep = standard_rep(A, which)
        return dual_rep(rep) if dual else rep
    mbasis = _names(doc.get("module_basis"), "representation.module_basis")

    def action(key: str) -> ProductTable:
        return _table(doc.get(key), A.basis, mbasis, f"representation.{key}",
                      partial(_poly, A.table, names=("d", "x"), at=at), mbasis)

    if "action" in doc:
        return Representation(A, mbasis, rho=action("action"))
    if "action_l" in doc or "action_r" in doc:
        return Representation(A, mbasis, left=action("action_l"), right=action("action_r"))
    raise InputError("representation needs action or action_l/action_r")


def rep_to_dict(rep: Representation) -> dict:
    out: dict = {"module_basis": list(rep.mbasis)}
    b, m = rep.algebra.basis, rep.mbasis
    if rep.is_lie:
        out["action"] = _table_to_dict(rep.rho, b, m, m)
    else:
        out["action_l"] = _table_to_dict(rep.left, b, m, m)
        out["action_r"] = _table_to_dict(rep.right, b, m, m)
    return out


# -- tensors -------------------------------------------------------------------

def tensor_from_dict(doc: dict, A: ConformalAlgebra, at: Substitution | None = None) -> Tensor2:
    from .tensor import Tensor2
    idx = {n: i for i, n in enumerate(A.basis)}
    coeffs = Sums(A.table)
    for n, item in enumerate(_container(doc.get("entries"), list, "tensor.entries")):
        path = f"tensor.entries[{n}]"
        item = _container(item, dict, path)
        i, j = item.get("i"), item.get("j")
        if not all(isinstance(name, str) and name in idx for name in (i, j)):
            raise InputError(f"{path} needs basis names i and j, got {i!r}, {j!r}")
        c = _poly(A.table, item.get("c", "0"), f"{path}.c", ("d1", "d2"), at)
        coeffs.add((idx[i], idx[j]), c)
    return Tensor2(A, coeffs.close())


def tensor_to_dict(r: Tensor2) -> dict:
    b = r.algebra.basis
    return {"entries": [{"i": b[i], "j": b[j], "c": str(p)}
                        for (i, j), p in sorted(r.coeffs.items())]}


# -- linear maps ---------------------------------------------------------------

def map_from_dict(doc: dict, src: tuple[str, ...], dst: tuple[str, ...], table: VarTable,
                  conformal: bool = False,
                  at: Substitution | None = None) -> ModuleMap | ConformalLinearMap:
    """{source name: {target name: poly}}; a module map over d, or with
    `conformal` a conformal linear map, in d and x."""
    from .linmap import ConformalLinearMap, ModuleMap
    rows = _cells(doc, src, "map", lambda row, path: _cells(
        row, dst, path, partial(_poly, table, names=("d", "x") if conformal else ("d",), at=at)))
    cells = {(i, j): p for i, row in rows.items() for j, p in row.items()}
    cls = ConformalLinearMap if conformal else ModuleMap
    return cls(table, _matrix(cells, len(src), len(dst), table))


def map_to_dict(m: ModuleMap | ConformalLinearMap, src: tuple[str, ...],
                dst: tuple[str, ...]) -> dict:
    return {src[i]: {dst[j]: str(p) for j, p in enumerate(row) if not p.is_zero}
            for i, row in enumerate(m.matrix)}


# -- forms ---------------------------------------------------------------------

def form_from_dict(doc: dict, basis: tuple[str, ...], table: VarTable,
                   at: Substitution | None = None) -> BilinearForm:
    """{"matrix": {"a,b": poly}, "kind": "lie" | "lsc"}; ``cocycle_check`` reads
    a form without a kind as a 2-cocycle of its algebra's kind."""
    from .operators import BilinearForm
    kind = doc.get("kind")
    if kind not in (None, "lie", "lsc"):
        raise InputError(f"unknown form kind {kind!r}")
    cells = _table(doc.get("matrix"), basis, basis, "form.matrix",
                   partial(_poly, table, names=("x",), at=at))
    return BilinearForm(table, basis, _matrix(cells, len(basis), len(basis), table), kind)


def form_to_dict(form: BilinearForm) -> dict:
    basis = form.basis
    out = {"matrix": {f"{basis[i]},{basis[j]}": str(p[0]) for (i, j), p in form.products.items()}}
    if form.kind is not None:
        out["kind"] = form.kind
    return out


# -- bialgebras ------------------------------------------------------------------

def gd_from_dict(doc: dict, table: VarTable) -> GDBialgebra:
    from .gd import GDBialgebra
    basis = _names(doc.get("basis"), "gd.basis")
    circ, lie = (_table(doc.get(key), basis, basis, f"gd.{key}", partial(_rational, table), basis)
                 for key in ("circ", "lie"))
    return GDBialgebra(basis, table, circ, lie)


def gd_to_dict(V: GDBialgebra) -> dict:
    b = V.basis
    return {"dim": V.dim, "basis": list(b),
            "circ": _table_to_dict(V.circ, b, b, b), "lie": _table_to_dict(V.lie, b, b, b)}


# -- elements and systems ----------------------------------------------------------

def element_from_dict(doc: dict, A: ConformalAlgebra,
                      at: Substitution | None = None) -> tuple[Poly, ...]:
    cells = _cells(doc, A.basis, "element", partial(_poly, A.table, names=("d",), at=at))
    zero = Poly.zero(A.table)
    return tuple(cells.get(i, zero) for i in range(A.rank))


def system_to_dict(system: PolySystem) -> dict:
    return {
        "params": [p for p in system.table.params if p not in system.unknowns],
        "unknowns": list(system.unknowns),
        "equations": [str(eq) for eq in system.equations],
    }


def system_from_dict(doc: dict) -> PolySystem:
    from .operators import PolySystem
    doc = _container(doc, dict, "system")
    if doc.get("equations") is None:
        raise InputError("system needs equations, a list of polynomial strings")
    params = _names(doc.get("params", []), "system.params", nonempty=False)
    unknowns = _names(doc.get("unknowns", []), "system.unknowns", nonempty=False)
    table = VarTable(params=params + unknowns)
    eqs = [_poly(table, text, f"system.equations[{n}]")
           for n, text in enumerate(_container(doc.get("equations"), list, "system.equations"))]
    return PolySystem(table, unknowns, eqs)


def entry_to_dict(entry: CatalogEntry) -> dict:
    out: dict = {"name": entry.name, "note": entry.note}
    if entry.algebra is not None:
        out["algebra"] = algebra_to_dict(entry.algebra)
    if entry.linmap is not None:
        out["map"] = map_to_dict(entry.linmap, entry.algebra.basis, entry.algebra.basis)
    if entry.tensor is not None:
        out["tensor"] = tensor_to_dict(entry.tensor)
    if entry.gd is not None:
        out["gd"] = gd_to_dict(entry.gd)
    return out
