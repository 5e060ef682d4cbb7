"""Conformal linear maps and module maps between free modules.

A ConformalLinearMap is a matrix a_ij(x, d) in the bracket argument x,
T_x(v_i) = sum_j a_ij(x, d) e_j, acting on coefficient vectors.  A ModuleMap
is a conformal linear map free of x, a matrix t_ij(d); it commutes with the
derivation by construction, and ``at_zero`` specializes any conformal linear
map to one.  Invertibility over the polynomial ring in d means the
determinant is a nonzero rational constant; the inverse comes from
Gauss-Jordan on unit pivots, then Faddeev-LeVerrier on the block left over.
Every check that reads a map's entries reads them through `_checked_entries`,
which refuses a map whose rows are not the shape the check expects, ragged
rows included, with one message, and gives the nonzero entries row by row.

Over Q, `rref` reduces sparse rows {column: rational} one at a time, by
sparse Gauss-Jordan over the integers, and `kernel` gives a basis of their
common null space.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .algebra import AlgebraError, PreconditionError
from .poly import Poly, Record, Substitution, Sums, VarTable, _constant


class NotInvertible(AlgebraError):
    pass


def _matmul(left: list[list[Poly]], right: list[list[Poly]], table: VarTable) -> list[list[Poly]]:
    """left * right, with rows of ``right`` indexed by columns of ``left``, as
    one ``Sums`` keyed by (row, column) over the nonzero entry pairs."""
    sums = Sums(table)
    for i, row in enumerate(left):
        for k, f in enumerate(row):
            if not f.is_zero:
                for j, g in enumerate(right[k]):
                    if not g.is_zero:
                        sums.add((i, j), f, g)
    out, zero = sums.close(), Poly.zero(table)
    cols = range(len(right[0]) if right else 0)
    return [[out.get((i, j), zero) for j in cols] for i in range(len(left))]


class ConformalLinearMap(Record):
    """Matrix a_ij(x, d): the map at bracket argument x; rows index the source."""

    def __init__(self, table: VarTable, matrix: list[list[Poly]]) -> None:
        self.table, self.matrix = table, matrix

    @property
    def src_rank(self) -> int:
        return len(self.matrix)

    def at_zero(self) -> ModuleMap:
        at = Substitution(self.table, {"x": 0})
        return ModuleMap(self.table, [list(map(at, row)) for row in self.matrix])


class ModuleMap(ConformalLinearMap):
    """A conformal linear map free of x: a matrix over the polynomial ring in d."""

    def __init__(self, table: VarTable, matrix: list[list[Poly]]) -> None:
        for row in matrix:
            for p in row:
                if p.packed and (extra := p.variables() - {"d", *table.params}):
                    raise PreconditionError(
                        f"module map entries may use only d and parameters, got {sorted(extra)}")
        super().__init__(table, matrix)

    @classmethod
    def identity(cls, table: VarTable, rank: int) -> "ModuleMap":
        one = Poly.const(table, 1)
        z = Poly.zero(table)
        return cls(table, [[one if i == j else z for j in range(rank)] for i in range(rank)])

    def perturbed(self, i: int, j: int, delta: Poly | int) -> "ModuleMap":
        out = [list(row) for row in self.matrix]
        out[i][j] = out[i][j] + delta
        return ModuleMap(self.table, out)


def _checked_entries(T: ConformalLinearMap, src: int, dst: int, onto: str) -> list[tuple]:
    """The nonzero entries (i, j, T_ij) of a map with `src` rows of `dst`
    entries each, row by row; every reader of a map's entries comes here."""
    if len(T.matrix) != src or any(len(row) != dst for row in T.matrix):
        raise PreconditionError(f"map shape does not match {onto}")
    return [(i, j, f) for i, row in enumerate(T.matrix) for j, f in enumerate(row) if f.packed]


def lift_constant(m: ModuleMap) -> ConformalLinearMap:
    return ConformalLinearMap(m.table, [list(row) for row in m.matrix])


def _faddeev_leverrier(a: list[list[Poly]], table: VarTable) -> tuple[Poly, list[list[Poly]]]:
    """c_n and M_n of the Faddeev-LeVerrier recurrence on an n x n matrix a: M_1 = 1,
    c_k = -tr(a M_k)/k, M_{k+1} = a M_k + c_k; det a = (-1)^n c_n, a^-1 = -M_n/c_n."""
    n = len(a)
    M, c = ModuleMap.identity(table, n).matrix, Poly.const(table, 1)
    for k in range(1, n + 1):
        AM = _matmul(a, M, table)
        c = sum((AM[i][i] for i in range(n)), Poly.zero(table)) * Fraction(-1, k)
        if k < n:
            M = [[p + c if i == j else p for j, p in enumerate(row)] for i, row in enumerate(AM)]
    return c, M


def _subtract(row: dict, f: Poly, pivot: dict) -> None:
    """row -= f * pivot on sparse rows {column: Poly}; an entry that cancels leaves."""
    for k, h in pivot.items():
        if (g := row.pop(k, 0) - f * h).packed:
            row[k] = g


def invert_module_map(m: ModuleMap) -> ModuleMap:
    """Inverse of an invertible module map (unit determinant over d-polynomials).

    Raises NotInvertible when the determinant is zero or non-constant; this
    is the non-degeneracy test used throughout.  Gauss-Jordan on the sparse
    rows of [A | 1] pivots each column on the first row without a pivot that
    holds a unit (a nonzero rational) there; Faddeev-LeVerrier takes the
    block S left over.  det A = sign(sigma) (product of the pivots) det S,
    sigma mapping each column to its row; the unpivoted columns' inverse
    rows are S^-1 Y, Y the rest of S's rows, cleared from the pivot rows.
    """
    n, table = m.src_rank, m.table
    if any(len(row) != n for row in m.matrix):
        raise NotInvertible("matrix is not square")
    # row i of [A | 1] as its nonzero entries, column j of the 1 as n + j
    rows = [{j: p for j, p in enumerate(row) if p.packed} | {n + i: Poly.const(table, 1)}
            for i, row in enumerate(m.matrix)]
    taken, units, zero = {}, 1, Poly.zero(table)  # pivot row -> its column
    for c in range(n):
        held = [i for i, row in enumerate(rows) if c in row]
        p = next((i for i in held if i not in taken and _constant(rows[i][c]) is not None), None)
        if p is not None:
            if (u := _constant(rows[p].pop(c))) != 1:
                rows[p] = {k: h * Fraction(1, u) for k, h in rows[p].items()}
            taken[p], units = c, units * u
            for i in (i for i in held if i != p):
                _subtract(rows[i], rows[i].pop(c), rows[p])
    left, cols = sorted({*range(n)} - {*taken}), sorted({*range(n)} - {*taken.values()})
    c_n, M = _faddeev_leverrier([[rows[i].get(j, zero) for j in cols] for i in left], table)
    sigma = [*taken.items(), *zip(left, cols)]  # (row, column) pairs
    parity = len(cols) + sum((a < b) != (x < y) for (a, x), (b, y) in combinations(sigma, 2))
    det = c_n * (-units if parity % 2 else units)
    if (value := det.constant_value()) is None:
        raise NotInvertible(f"determinant {det} is not a unit")
    if value == 0:
        raise NotInvertible("determinant is zero")
    Z = _matmul([[f * Fraction(-1, _constant(c_n)) for f in row] for row in M],  # S^-1 Y
                [[rows[i].get(n + k, zero) for k in range(n)] for i in left], table)
    solved = {j: {n + k: p for k, p in enumerate(z) if p.packed} for j, z in zip(cols, Z)}
    for i in taken:
        for j in [j for j in rows[i] if j < n]:
            _subtract(rows[i], rows[i].pop(j), solved[j])
    inverse = solved | {j: rows[i] for i, j in taken.items()}
    return ModuleMap(table, [[inverse[j].get(n + k, zero) for k in range(n)] for j in range(n)])


def _eliminate(row: dict, pivot_row: dict, p) -> dict:
    """a * row - b * pivot_row, in which column p cancels, over its content."""
    a, b = pivot_row[p], row[p]
    out = {k: a * v for k, v in row.items()}
    for k, v in pivot_row.items():
        if s := out.get(k, 0) - b * v:
            out[k] = s
        else:  # a cancellation, so k is in row
            del out[k]
    g = math.gcd(*out.values())
    return {k: v // g for k, v in out.items()} if g > 1 else out


def rref(rows, columns) -> tuple[list[dict], list]:
    """Reduced row echelon form over Q of sparse rows {column: rational}.

    `columns` is the column order.  Returns the nonzero reduced rows, each
    {column: Fraction} with pivot 1, and their pivot columns in that order.
    Gauss-Jordan over the integers, one row at a time: each row is cleared
    of denominators and reduced by the kept rows whose pivots it holds, then
    pivots at its first remaining column, which is cleared from the kept
    rows.  The kept rows are always the RREF, up to scale, of the rows read.
    """
    index = {c: i for i, c in enumerate(columns)}
    kept: dict[int, dict[int, int]] = {}  # pivot position -> row
    for row in rows:
        den = math.lcm(*(v.denominator for v in row.values()))
        new = {index[c]: v.numerator * (den // v.denominator) for c, v in row.items() if v}
        for p in [p for p in new if p in kept]:
            new = _eliminate(new, kept[p], p)
        if new:
            p = min(new)
            for q, old in kept.items():
                if p in old:
                    kept[q] = _eliminate(old, new, p)
            kept[p] = new
    pivots = sorted(kept)
    reduced = [{columns[k]: Fraction(kept[p][k], kept[p][p]) for k in sorted(kept[p])}
               for p in pivots]
    return reduced, [columns[p] for p in pivots]


def kernel(rows, columns) -> list[dict]:
    """A basis of the vectors v with sum_c row[c] * v[c] = 0 for every row:
    one {column: Fraction} per free column of `rref`, in `columns` order, with
    1 there and minus that column of the reduced rows at their pivots."""
    reduced, pivots = rref(rows, columns)
    pivoted = set(pivots)
    return [{f: Fraction(1), **{p: -row[f] for row, p in zip(reduced, pivots) if f in row}}
            for f in columns if f not in pivoted]
