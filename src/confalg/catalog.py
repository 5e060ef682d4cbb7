"""Builtin catalog: the worked rank-1 and rank-2 structures and what each
weight-0 Rota-Baxter family T on the rank-2 one yields through ``_family``:
T, its induced left-symmetric product A, and A's skew and symmetric canonical
tensors over g(A) x A* and A x A*.  Each entry records a note describing what
the object is; derived entries are constructed by the package's own operations
so that loading the catalog exercises the constructions it documents.
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


def _lsc(table: VarTable, family: Callable[[VarTable], ModuleMap]) -> ConformalAlgebra:
    from .operators import induced_lsc
    return induced_lsc(family(table), mode="rb", algebra=heisenberg_virasoro(table))


def _canonical(table: VarTable, family: Callable[[VarTable], ModuleMap], symmetric: bool) -> dict:
    from .reps import REGULAR_LEFT, dual_rep, semidirect, standard_rep, with_zero_right
    from .tensor import canonical_skew_tensor, canonical_sym_tensor
    A = _lsc(table, family)
    dual = dual_rep(standard_rep(A, REGULAR_LEFT))
    module = with_zero_right(A, dual) if symmetric else dual
    S = semidirect(module.algebra, module, checked=False)
    canonical = canonical_sym_tensor if symmetric else canonical_skew_tensor
    return {"algebra": S, "tensor": canonical(S, A.rank)}


def _gd_entry(A: ConformalAlgebra) -> dict:
    from .gd import gd_from_algebra
    return {"gd": gd_from_algebra(A)}


def _family(f: int, family: Callable[[VarTable], ModuleMap], params: tuple[str, ...],
            note: str) -> dict:
    return {
        f"hv_rb_family{f}": (params, f"weight-0 family {note}", lambda t: {
            "algebra": heisenberg_virasoro(t), "linmap": family(t)}),
        f"hv_lsc{f}": (params, f"left-symmetric product induced by operator family {f}",
                       lambda t: {"algebra": _lsc(t, family)}),
        f"hv_lsc{f}_skew_r": (params, "skew canonical tensor over the rank-4 sum with the dual "
                                      f"module (family {f})",
                              lambda t: _canonical(t, family, False)),
        f"hv_lsc{f}_sym_r": (params, "symmetric canonical tensor over the rank-4 left-symmetric "
                                     f"sum (family {f})", lambda t: _canonical(t, family, True)),
    }


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
    **_family(1, rb_family1, ("b",), "T(L) = -b(L+W), T(W) = b(L+W) on the rank-2 algebra"),
    **_family(2, rb_family2, ("g0", "g1", "g2", "g3"),
              "T(L) = g(d) W, T(W) = 0 with cubic symbolic g"),
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
