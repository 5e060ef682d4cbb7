"""Module maps and conformal linear maps between free modules.

A ModuleMap commutes with the derivation by construction: it is a matrix
t_ij(d) acting on coefficient vectors, T(v_i) = sum_j t_ij(d) e_j.  A
ConformalLinearMap additionally depends on the bracket argument,
T_x(v_i) = sum_j a_ij(x, d) e_j; its specialization at x = 0 is a plain
ModuleMap.  Invertibility over the polynomial ring in d means the
determinant is a nonzero rational constant; the inverse is adjugate over
determinant.

Over Q, `rref` row-reduces sparse rows {column: rational} over the
integers, and `kernel` gives a basis of their common null space.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import Poly, Record, Substitution, VarTable

Vector = tuple[Poly, ...]


class NotInvertible(Exception):
    pass


def _apply_matrix(matrix: list[list[Poly]], w: Vector, table: VarTable) -> Vector:
    cols = len(matrix[0]) if matrix else 0
    out = [Poly.zero(table) for _ in range(cols)]
    for i, h in enumerate(w):
        if h.is_zero:
            continue
        for j in range(cols):
            entry = matrix[i][j]
            if not entry.is_zero:
                out[j] = out[j] + h * entry
    return tuple(out)


class ModuleMap(Record):
    """Matrix over the polynomial ring in d; rows index the source basis."""

    def __init__(self, table: VarTable, matrix: list[list[Poly]]) -> None:
        for row in matrix:
            for p in row:
                extra = p.variables() - set(table.params) - {"d"}
                if extra:
                    raise ValueError(f"module map entries may use only d and parameters, got {sorted(extra)}")
        self.table, self.matrix = table, matrix

    @property
    def src_rank(self) -> int:
        return len(self.matrix)

    @property
    def dst_rank(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @classmethod
    def zero(cls, table: VarTable, src: int, dst: int) -> "ModuleMap":
        z = Poly.zero(table)
        return cls(table, [[z for _ in range(dst)] for _ in range(src)])

    @classmethod
    def identity(cls, table: VarTable, rank: int) -> "ModuleMap":
        one = Poly.const(table, 1)
        z = Poly.zero(table)
        return cls(table, [[one if i == j else z for j in range(rank)] for i in range(rank)])

    def apply(self, w: Vector) -> Vector:
        return _apply_matrix(self.matrix, w, self.table)

    def row(self, i: int) -> Vector:
        return tuple(self.matrix[i])

    def map_polys(self, fn) -> "ModuleMap":
        return ModuleMap(self.table, [[fn(p) for p in row] for row in self.matrix])

    def perturbed(self, i: int, j: int, delta: Poly | int) -> "ModuleMap":
        out = [list(row) for row in self.matrix]
        out[i][j] = out[i][j] + delta
        return ModuleMap(self.table, out)


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
        return ConformalLinearMap(self.table, [[fn(p) for p in row] for row in self.matrix])


def lift_constant(m: ModuleMap) -> ConformalLinearMap:
    return ConformalLinearMap(m.table, [list(row) for row in m.matrix])


def determinant(matrix: list[list[Poly]], table: VarTable) -> Poly:
    n = len(matrix)
    if n == 0:
        return Poly.const(table, 1)
    if any(len(row) != n for row in matrix):
        raise NotInvertible("matrix is not square")
    if n == 1:
        return matrix[0][0]
    det = Poly.zero(table)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        cofactor = determinant(minor, table)
        signed = entry * cofactor
        det = det + (signed if j % 2 == 0 else -signed)
    return det


def invert_module_map(m: ModuleMap) -> ModuleMap:
    """Inverse of an invertible module map (unit determinant over d-polynomials).

    Raises NotInvertible when the determinant is zero or non-constant; this
    is the non-degeneracy test used throughout.
    """
    n = m.src_rank
    if n != m.dst_rank:
        raise NotInvertible("matrix is not square")
    det = determinant(m.matrix, m.table)
    value = det.constant_value()
    if value is None:
        raise NotInvertible(f"determinant {det} is not a unit")
    if value == 0:
        raise NotInvertible("determinant is zero")
    inv_det = Fraction(1) / value
    adj = [[Poly.zero(m.table) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m.matrix[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = determinant(minor, m.table)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof * inv_det
    return ModuleMap(m.table, adj)


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
