"""JSON presentations of every object the command line reads and writes.

Polynomials travel as text in the input grammar, so any residual printed in
a report can be pasted back in.  Pair keys are comma-joined basis names
("L,W"); missing pairs mean zero.
"""

from __future__ import annotations

from .algebra import LEFT_SYMMETRIC, LIE, ConformalAlgebra, ProductTable
from .catalog import CatalogEntry
from .gd import ConstTable, GDBialgebra
from .linmap import ConformalLinearMap, ModuleMap
from .operators import BilinearForm, PolySystem
from .poly import Poly, VarTable, accumulate, parse
from .reps import Representation, dual_rep, standard_rep
from .tensor import Tensor2


class InputError(Exception):
    pass


def _index(names: tuple[str, ...]) -> dict[str, int]:
    return {n: i for i, n in enumerate(names)}


def _check_unique(names: tuple[str, ...], what: str) -> None:
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise InputError(f"repeated name(s) {', '.join(repeated)} in {what}")


def _pair_table(doc: dict, names: tuple[str, ...], table: VarTable,
                what: str) -> ProductTable:
    idx = _index(names)
    out: ProductTable = {}
    for key, targets in (doc or {}).items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2 or parts[0] not in idx or parts[1] not in idx:
            raise InputError(f"bad {what} key {key!r}")
        entry = {}
        for tname, text in targets.items():
            if tname not in idx:
                raise InputError(f"unknown target basis name {tname!r} in {what}")
            entry[idx[tname]] = parse(table, text)
        out[(idx[parts[0]], idx[parts[1]])] = entry
    return out


def _pair_table_to_dict(tbl: ProductTable, src: tuple[str, ...],
                        dst: tuple[str, ...]) -> dict:
    out: dict = {}
    for (i, j), targets in sorted(tbl.items()):
        entry = {dst[k]: str(p) for k, p in sorted(targets.items()) if not p.is_zero}
        if entry:
            out[f"{src[i]},{src[j]}"] = entry
    return out


# -- algebras ----------------------------------------------------------------

def algebra_from_dict(doc: dict, table: VarTable) -> ConformalAlgebra:
    kind = doc.get("kind", LIE)
    if kind not in (LIE, LEFT_SYMMETRIC):
        raise InputError(f"unknown algebra kind {kind!r}")
    basis = tuple(doc.get("basis", ()))
    if not basis:
        raise InputError("algebra needs a nonempty basis")
    _check_unique(basis, "algebra basis")
    products = _pair_table(doc.get("products", {}), basis, table, "product")
    return ConformalAlgebra(kind, basis, table, products)


def algebra_to_dict(A: ConformalAlgebra) -> dict:
    return {
        "kind": A.kind,
        "basis": list(A.basis),
        "params": list(A.table.params),
        "products": _pair_table_to_dict(A.products, A.basis, A.basis),
    }


# -- representations ----------------------------------------------------------

def rep_from_dict(doc: dict, A: ConformalAlgebra) -> Representation:
    if "standard" in doc:
        rep = standard_rep(A, doc["standard"])
        if doc.get("dual"):
            rep = dual_rep(rep)
        return rep
    mbasis = tuple(doc.get("module_basis", ()))
    if not mbasis:
        raise InputError("representation needs module_basis")
    _check_unique(mbasis, "module_basis")

    def mixed_table(key: str) -> ProductTable:
        idx_a = _index(A.basis)
        idx_m = _index(mbasis)
        out: ProductTable = {}
        for pair, targets in (doc.get(key) or {}).items():
            parts = [p.strip() for p in pair.split(",")]
            if len(parts) != 2 or parts[0] not in idx_a or parts[1] not in idx_m:
                raise InputError(f"bad action key {pair!r}")
            entry = {}
            for tname, text in targets.items():
                if tname not in idx_m:
                    raise InputError(f"unknown module basis name {tname!r}")
                entry[idx_m[tname]] = parse(A.table, text)
            out[(idx_a[parts[0]], idx_m[parts[1]])] = entry
        return out

    if "action" in doc:
        return Representation(A, mbasis, rho=mixed_table("action"))
    if "action_l" in doc or "action_r" in doc:
        return Representation(A, mbasis, left=mixed_table("action_l"),
                              right=mixed_table("action_r"))
    raise InputError("representation needs action or action_l/action_r")


def _mixed_table_to_dict(tbl: ProductTable, abasis: tuple[str, ...],
                         mbasis: tuple[str, ...]) -> dict:
    out: dict = {}
    for (i, j), targets in sorted(tbl.items()):
        entry = {mbasis[k]: str(p) for k, p in sorted(targets.items()) if not p.is_zero}
        if entry:
            out[f"{abasis[i]},{mbasis[j]}"] = entry
    return out


def rep_to_dict(rep: Representation) -> dict:
    out: dict = {"module_basis": list(rep.mbasis)}
    if rep.is_lie:
        out["action"] = _mixed_table_to_dict(rep.rho, rep.algebra.basis, rep.mbasis)
    else:
        out["action_l"] = _mixed_table_to_dict(rep.left, rep.algebra.basis, rep.mbasis)
        out["action_r"] = _mixed_table_to_dict(rep.right, rep.algebra.basis, rep.mbasis)
    return out


# -- tensors -------------------------------------------------------------------

def tensor_from_dict(doc: dict, A: ConformalAlgebra) -> Tensor2:
    idx = _index(A.basis)
    coeffs: dict[tuple[int, int], Poly] = {}
    for item in doc.get("entries", []):
        i, j = item.get("i"), item.get("j")
        if i not in idx or j not in idx:
            raise InputError(f"unknown basis name in tensor entry {item!r}")
        key = (idx[i], idx[j])
        accumulate(coeffs, key, parse(A.table, item.get("c", "0")))
    return Tensor2(A, coeffs)


def tensor_to_dict(r: Tensor2) -> dict:
    b = r.algebra.basis
    return {"entries": [{"i": b[i], "j": b[j], "c": str(p)}
                        for (i, j), p in sorted(r.coeffs.items())]}


# -- linear maps ---------------------------------------------------------------

def _map_matrix(doc: dict, src: tuple[str, ...], dst: tuple[str, ...],
                table: VarTable) -> list[list[Poly]]:
    idx_d = _index(dst)
    matrix = [[Poly.zero(table) for _ in dst] for _ in src]
    given = doc or {}
    idx_s = _index(src)
    for sname, row in given.items():
        if sname not in idx_s:
            raise InputError(f"unknown source basis name {sname!r} in map")
        for tname, text in (row or {}).items():
            if tname not in idx_d:
                raise InputError(f"unknown target basis name {tname!r} in map")
            matrix[idx_s[sname]][idx_d[tname]] = parse(table, text)
    return matrix


def module_map_from_dict(doc: dict, src: tuple[str, ...], dst: tuple[str, ...],
                         table: VarTable) -> ModuleMap:
    return ModuleMap(table, _map_matrix(doc.get("map", {}), src, dst, table))


def conformal_map_from_dict(doc: dict, src: tuple[str, ...], dst: tuple[str, ...],
                            table: VarTable) -> ConformalLinearMap:
    return ConformalLinearMap(table, _map_matrix(doc.get("map", {}), src, dst, table))


def map_to_dict(m: ModuleMap | ConformalLinearMap, src: tuple[str, ...],
                dst: tuple[str, ...]) -> dict:
    out: dict = {}
    for i, row in enumerate(m.matrix):
        entry = {dst[j]: str(p) for j, p in enumerate(row) if not p.is_zero}
        out[src[i]] = entry
    return {"map": out}


# -- forms ---------------------------------------------------------------------

def _form_matrix(doc: dict, basis: tuple[str, ...], table: VarTable) -> list[list[Poly]]:
    idx = _index(basis)
    matrix = [[Poly.zero(table) for _ in basis] for _ in basis]
    for key, text in (doc or {}).items():
        parts = [p.strip() for p in key.split(",")]
        if len(parts) != 2 or parts[0] not in idx or parts[1] not in idx:
            raise InputError(f"bad form key {key!r}")
        matrix[idx[parts[0]]][idx[parts[1]]] = parse(table, text)
    return matrix


def cocycle_from_dict(doc: dict, basis: tuple[str, ...], table: VarTable) -> BilinearForm:
    kind = doc.get("kind", "lie")
    if kind not in ("lie", "lsc"):
        raise InputError(f"unknown form kind {kind!r}")
    return BilinearForm(table, basis, _form_matrix(doc.get("matrix", {}), basis, table), kind)


def bilinear_from_dict(doc: dict, basis: tuple[str, ...], table: VarTable) -> BilinearForm:
    return BilinearForm(table, basis, _form_matrix(doc.get("matrix", {}), basis, table))


def form_to_dict(form: BilinearForm) -> dict:
    matrix = {}
    for i, row in enumerate(form.matrix):
        for j, p in enumerate(row):
            if not p.is_zero:
                matrix[f"{form.basis[i]},{form.basis[j]}"] = str(p)
    out = {"matrix": matrix}
    if form.kind is not None:
        out["kind"] = form.kind
    return out


# -- bialgebras ------------------------------------------------------------------

def gd_from_dict(doc: dict, table: VarTable) -> GDBialgebra:
    basis = tuple(doc.get("basis", ()))
    if not basis:
        raise InputError("bialgebra needs a basis")
    _check_unique(basis, "bialgebra basis")
    idx = _index(basis)

    def const_table(key: str) -> ConstTable:
        out: ConstTable = {}
        for pair, targets in (doc.get(key) or {}).items():
            parts = [p.strip() for p in pair.split(",")]
            if len(parts) != 2 or parts[0] not in idx or parts[1] not in idx:
                raise InputError(f"bad {key} key {pair!r}")
            entry = {}
            for tname, text in targets.items():
                if tname not in idx:
                    raise InputError(f"unknown basis name {tname!r} in {key}")
                value = parse(table, str(text)).constant_value()
                if value is None:
                    raise InputError(f"bialgebra structure constants must be rational, got {text!r}")
                entry[idx[tname]] = value
            out[(idx[parts[0]], idx[parts[1]])] = entry
        return out

    return GDBialgebra(basis, table, const_table("circ"), const_table("lie"))


def gd_to_dict(V: GDBialgebra) -> dict:
    def conv(tbl: ConstTable) -> dict:
        out = {}
        for (i, j), targets in sorted(tbl.items()):
            out[f"{V.basis[i]},{V.basis[j]}"] = {
                V.basis[k]: str(c) for k, c in sorted(targets.items())}
        return out

    return {"dim": V.dim, "basis": list(V.basis), "circ": conv(V.circ), "lie": conv(V.lie)}


# -- elements and systems ----------------------------------------------------------

def element_from_dict(doc: dict, A: ConformalAlgebra):
    idx = _index(A.basis)
    vec = [Poly.zero(A.table) for _ in A.basis]
    for name, text in (doc or {}).items():
        if name not in idx:
            raise InputError(f"unknown basis name {name!r} in element")
        vec[idx[name]] = parse(A.table, text)
    return tuple(vec)


def system_to_dict(system: PolySystem) -> dict:
    return {
        "params": [p for p in system.table.params if p not in system.unknowns],
        "unknowns": list(system.unknowns),
        "equations": [str(eq) for eq in system.equations],
    }


def system_from_dict(doc: dict) -> PolySystem:
    params = tuple(doc.get("params", ())) + tuple(doc.get("unknowns", ()))
    table = VarTable(params=params)
    eqs = [parse(table, text) for text in doc.get("equations", [])]
    return PolySystem(table, tuple(doc.get("unknowns", ())), eqs)


def entry_to_dict(entry: CatalogEntry) -> dict:
    out: dict = {"name": entry.name, "note": entry.note}
    if entry.algebra is not None:
        out["algebra"] = algebra_to_dict(entry.algebra)
    if entry.representation is not None:
        out["representation"] = rep_to_dict(entry.representation)
    if entry.linmap is not None:
        out["map"] = map_to_dict(entry.linmap, entry.algebra.basis, entry.algebra.basis)["map"]
    if entry.tensor is not None:
        out["tensor"] = tensor_to_dict(entry.tensor)
    if entry.gd is not None:
        out["gd"] = gd_to_dict(entry.gd)
    return out
