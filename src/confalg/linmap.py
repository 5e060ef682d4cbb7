"""Conformal linear maps and module maps between free modules.

A ConformalLinearMap is a matrix a_ij(x, d) in the bracket argument x,
T_x(v_i) = sum_j a_ij(x, d) e_j, acting on coefficient vectors.  A ModuleMap
is a conformal linear map free of x, a matrix t_ij(d); it commutes with the
derivation by construction, and ``at_zero`` specializes any conformal linear
map to one.  Invertibility over the polynomial ring in d means the
determinant is a nonzero rational constant; the inverse comes from the
Faddeev-LeVerrier recurrence, n products of n x n matrices.

Over Q, `rref` row-reduces sparse rows {column: rational} over the
integers, and `kernel` gives a basis of their common null space.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import AlgebraError
from .poly import Poly, Record, Substitution, Sums, VarTable


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

    @property
    def dst_rank(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def at_zero(self) -> ModuleMap:
        at = Substitution(self.table, {"x": 0})
        return ModuleMap(self.table, [list(map(at, row)) for row in self.matrix])

    def map_polys(self, fn) -> "ConformalLinearMap":
        return type(self)(self.table, [[fn(p) for p in row] for row in self.matrix])


class ModuleMap(ConformalLinearMap):
    """A conformal linear map free of x: a matrix over the polynomial ring in d."""

    def __init__(self, table: VarTable, matrix: list[list[Poly]]) -> None:
        for row in matrix:
            for p in row:
                extra = p.variables() - set(table.params) - {"d"}
                if extra:
                    raise ValueError(f"module map entries may use only d and parameters, got {sorted(extra)}")
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


def lift_constant(m: ModuleMap) -> ConformalLinearMap:
    return ConformalLinearMap(m.table, [list(row) for row in m.matrix])


def invert_module_map(m: ModuleMap) -> ModuleMap:
    """Inverse of an invertible module map (unit determinant over d-polynomials).

    Raises NotInvertible when the determinant is zero or non-constant; this
    is the non-degeneracy test used throughout.  Faddeev-LeVerrier: with
    M_1 = 1, c_k = -tr(A M_k)/k and M_{k+1} = A M_k + c_k, the determinant
    is (-1)^n c_n and the inverse -M_n/c_n, after n matrix products.
    """
    n, table = m.src_rank, m.table
    if any(len(row) != n for row in m.matrix):
        raise NotInvertible("matrix is not square")
    M, c = ModuleMap.identity(table, n).matrix, Poly.const(table, 1)
    for k in range(1, n + 1):
        AM = _matmul(m.matrix, M, table)
        c = sum((AM[i][i] for i in range(n)), Poly.zero(table)) * Fraction(-1, k)
        if k < n:
            M = [[p + c if i == j else p for j, p in enumerate(row)] for i, row in enumerate(AM)]
    det = -c if n % 2 else c
    value = det.constant_value()
    if value is None:
        raise NotInvertible(f"determinant {det} is not a unit")
    if value == 0:
        raise NotInvertible("determinant is zero")
    scale = Fraction(-1) / c.constant_value()
    return ModuleMap(table, [[p * scale for p in row] for row in M])


def rref(rows, columns) -> tuple[list[dict], list]:
    """Reduced row echelon form over Q of sparse rows {column: rational}.

    `columns` is the column order.  Returns the nonzero reduced rows, each
    {column: Fraction} with pivot 1, and their pivot columns in that order.
    The rows are cleared of denominators and reduced over the integers,
    fraction-free (Bareiss, Math. Comp. 22, 1968): each step divides exactly
    by the previous pivot, and in the end all pivots equal the last one.
    """
    index = {c: i for i, c in enumerate(columns)}
    mat = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row.values()))
        dense = [0] * len(columns)
        for c, v in row.items():
            dense[index[c]] = v.numerator * (den // v.denominator)
        mat.append(dense)
    pivots, prev = [], 1
    for j in range(len(columns)):
        r = len(pivots)
        hit = next((i for i in range(r, len(mat)) if mat[i][j]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        top = mat[r]
        mat = [row if i == r else [(top[j] * x - row[j] * y) // prev for x, y in zip(row, top)]
               for i, row in enumerate(mat)]
        prev = top[j]
        pivots.append(j)
    reduced = [{columns[k]: Fraction(x, prev) for k, x in enumerate(row) if x}
               for row in mat[:len(pivots)]]
    return reduced, [columns[j] for j in pivots]


def kernel(rows, columns) -> list[dict]:
    """A basis of the vectors v with sum_c row[c] * v[c] = 0 for every row:
    one {column: Fraction} per free column of `rref`, in `columns` order, with
    1 there and minus that column of the reduced rows at their pivots."""
    reduced, pivots = rref(rows, columns)
    pivoted = set(pivots)
    return [{f: Fraction(1), **{p: -row[f] for row, p in zip(reduced, pivots) if f in row}}
            for f in columns if f not in pivoted]
