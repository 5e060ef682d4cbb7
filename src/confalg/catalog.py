"""Builtin catalog: the worked rank-1 and rank-2 structures and the objects
derived from them (operator families, induced products, canonical tensors).

Each entry records a note describing what the object is; derived entries are
constructed by the package's own operations so that loading the catalog
exercises the constructions it documents.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .algebra import LIE, ConformalAlgebra
from .poly import Poly, Record, VarTable, parse

if TYPE_CHECKING:
    from .gd import GDBialgebra
    from .linmap import ModuleMap
    from .tensor import Tensor2


class UnknownEntry(Exception):
    pass


class CatalogEntry(Record):
    def __init__(self, name: str, note: str, algebra: ConformalAlgebra | None = None,
                 linmap: ModuleMap | None = None, tensor: Tensor2 | None = None,
                 gd: GDBialgebra | None = None) -> None:
        self.name, self.note, self.algebra = name, note, algebra
        self.linmap, self.tensor, self.gd = linmap, tensor, gd


def virasoro(table: VarTable) -> ConformalAlgebra:
    return ConformalAlgebra(LIE, ("L",), table,
                            {(0, 0): {0: parse(table, "d+2*x")}})


def heisenberg_virasoro(table: VarTable) -> ConformalAlgebra:
    return ConformalAlgebra(LIE, ("L", "W"), table, {
        (0, 0): {0: parse(table, "d+2*x")},
        (0, 1): {1: parse(table, "d+x")},
        (1, 0): {1: parse(table, "x")},
    })


def rb_family1(table: VarTable) -> ModuleMap:
    from .linmap import ModuleMap
    b = Poly.var(table, "b")
    return ModuleMap(table, [[-b, -b], [b, b]])


def rb_family2(table: VarTable) -> ModuleMap:
    from .linmap import ModuleMap
    g = parse(table, "g0 + g1*d + g2*d^2 + g3*d^3")
    z = Poly.zero(table)
    return ModuleMap(table, [[z, g], [z, z]])


def _lsc(table: VarTable, family: int) -> ConformalAlgebra:
    from .operators import induced_lsc
    hv = heisenberg_virasoro(table)
    T = rb_family1(table) if family == 1 else rb_family2(table)
    return induced_lsc(T, mode="rb", algebra=hv)


def _skew_entry(table: VarTable, family: int) -> dict:
    from .reps import REGULAR_LEFT, dual_rep, semidirect, standard_rep
    from .tensor import canonical_skew_tensor
    A = _lsc(table, family)
    dual = dual_rep(standard_rep(A, REGULAR_LEFT))
    S = semidirect(dual.algebra, dual, checked=False)
    return {"algebra": S, "tensor": canonical_skew_tensor(S, A.rank)}


def _sym_entry(table: VarTable, family: int) -> dict:
    from .reps import REGULAR_LEFT, dual_rep, semidirect, standard_rep, with_zero_right
    from .tensor import canonical_sym_tensor
    A = _lsc(table, family)
    dual = dual_rep(standard_rep(A, REGULAR_LEFT))
    S = semidirect(A, with_zero_right(A, dual), checked=False)
    return {"algebra": S, "tensor": canonical_sym_tensor(S, A.rank)}


def _gd_entry(A: ConformalAlgebra) -> dict:
    from .gd import gd_from_algebra
    return {"gd": gd_from_algebra(A)}


FAMILY1 = ("b",)
FAMILY2 = ("g0", "g1", "g2", "g3")

# name -> (free parameters, note, builder); a builder takes the variable table
# and returns the CatalogEntry fields besides the name and the note.
ENTRIES: dict[str, tuple[tuple[str, ...], str, Callable[[VarTable], dict]]] = {
    "vir": ((), "rank-1 algebra with bracket (d+2x) on its generator",
            lambda t: {"algebra": virasoro(t)}),
    "hv": ((), "rank-2 algebra: (d+2x) on L, (d+x) on L with W, x on W with L",
           lambda t: {"algebra": heisenberg_virasoro(t)}),
    "vir_gd": ((), "dimension-1 Novikov product L.L = L, zero bracket",
               lambda t: _gd_entry(virasoro(t))),
    "hv_gd": ((), "dimension-2 Novikov product L.L = L, W.L = W, zero bracket",
              lambda t: _gd_entry(heisenberg_virasoro(t))),
    "hv_rb_family1": (
        FAMILY1, "weight-0 family T(L) = -b(L+W), T(W) = b(L+W) on the rank-2 algebra",
        lambda t: {"algebra": heisenberg_virasoro(t), "linmap": rb_family1(t)}),
    "hv_rb_family2": (
        FAMILY2, "weight-0 family T(L) = g(d) W, T(W) = 0 with cubic symbolic g",
        lambda t: {"algebra": heisenberg_virasoro(t), "linmap": rb_family2(t)}),
    "hv_lsc1": (FAMILY1, "left-symmetric product induced by operator family 1",
                lambda t: {"algebra": _lsc(t, 1)}),
    "hv_lsc2": (FAMILY2, "left-symmetric product induced by operator family 2",
                lambda t: {"algebra": _lsc(t, 2)}),
    "hv_lsc1_skew_r": (FAMILY1, "skew canonical tensor over the rank-4 sum with the dual module "
                                "(family 1)", lambda t: _skew_entry(t, 1)),
    "hv_lsc2_skew_r": (FAMILY2, "skew canonical tensor over the rank-4 sum with the dual module "
                                "(family 2)", lambda t: _skew_entry(t, 2)),
    "hv_lsc1_sym_r": (FAMILY1, "symmetric canonical tensor over the rank-4 left-symmetric sum "
                               "(family 1)", lambda t: _sym_entry(t, 1)),
    "hv_lsc2_sym_r": (FAMILY2, "symmetric canonical tensor over the rank-4 left-symmetric sum "
                               "(family 2)", lambda t: _sym_entry(t, 2)),
}


def names() -> list[str]:
    return sorted(ENTRIES)


def required_params(name: str) -> tuple[str, ...]:
    if name not in ENTRIES:
        raise UnknownEntry(f"unknown catalog entry {name!r}; available: {', '.join(names())}")
    return ENTRIES[name][0]


def catalog(name: str, table: VarTable | None = None) -> CatalogEntry:
    """Build a catalog entry, optionally over a caller-supplied table."""
    needed = required_params(name)
    if table is None:
        table = VarTable(params=needed)
    for p in needed:
        if p not in table:
            raise UnknownEntry(f"entry {name} needs parameter {p} in the variable table")
    _, note, build = ENTRIES[name]
    return CatalogEntry(name, note, **build(table))
