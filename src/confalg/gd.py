"""Novikov algebras, Lie algebras and their compatible pairs, and the
dictionary with conformal algebras whose basis brackets are affine in the
derivation and the bracket argument.

The dictionary reads, for basis elements a, b:

    [a_x b] = d (b o a) + x (a * b) + [b, a],      a * b = a o b + b o a,

so the derivative part stores the Novikov product with reversed arguments,
the constant part the reversed Lie bracket, and skew-symmetry of the
conformal bracket forces the argument part to equal the star product.

The Novikov and Lie parts are checked as conformal algebras whose structure
constants are constants: left symmetry, skew-symmetry and the Jacobi identity
are ``check_axioms`` of the two, and right commutativity and compatibility
are nested products of the two tables, contracted as in ``check_axioms``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from .algebra import (LEFT_SYMMETRIC, LIE, AlgebraError, ConformalAlgebra, PreconditionError,
                      _nest, _nested, _require, check_axioms)
from .linmap import ModuleMap, kernel
from .operators import rota_baxter_residuals
from .poly import Poly, Record, Sums, VarTable, _shown
from .report import Report

ConstTable = dict[tuple[int, int], dict[int, Fraction]]


class NotQuadratic(AlgebraError):
    pass


def _clean_const(table: ConstTable) -> ConstTable:
    kept = {pair: {k: Fraction(c) for k, c in targets.items() if c != 0}
            for pair, targets in table.items()}
    return {pair: targets for pair, targets in kept.items() if targets}


class GDBialgebra(Record):
    """A Novikov product and a Lie bracket on one space, with compatibility."""

    def __init__(self, basis: tuple[str, ...], table: VarTable, circ: ConstTable,
                 lie: ConstTable) -> None:
        self.basis, self.table = basis, table
        self.circ, self.lie = _clean_const(circ), _clean_const(lie)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _algebras(V: GDBialgebra) -> tuple[ConformalAlgebra, ConformalAlgebra]:
    """The Novikov product as a left-symmetric algebra and the Lie bracket as
    a Lie algebra, on constant structure constants."""
    def constants(table: ConstTable):
        return {pair: {k: Poly.const(V.table, c) for k, c in targets.items()}
                for pair, targets in table.items()}

    return (ConformalAlgebra(LEFT_SYMMETRIC, V.basis, V.table, constants(V.circ)),
            ConformalAlgebra(LIE, V.basis, V.table, constants(V.lie)))


# check_gd's names of the identities that check_axioms checks
_AXIOM_NAMES = {"left_symmetry": "novikov_left_symmetry", "skew_symmetry": "lie_antisymmetry",
                "jacobi": "lie_jacobi"}


def check_gd(V: GDBialgebra) -> Report:
    """Novikov axioms, Lie axioms, and the mixed compatibility identity."""
    novikov, lie = _algebras(V)
    C, L, X = novikov.products, lie.products, Poly.var(V.table, "x")
    # the tables are constant, so the bracket arguments do not matter
    right_commutativity, compatibility = Sums(V.table), Sums(V.table)
    # (a o b) o c - (a o c) o b
    _nested(right_commutativity, C, C, X, X, right=False)
    _nested(right_commutativity, C, C, X, X, right=False, order=(0, 2, 1), sign=-1)
    # [a o b, c] + [a, b] o c - a o [b, c] - [a o c, b] - [a, c] o b
    _nested(compatibility, C, L, X, X, right=False)
    _nested(compatibility, L, C, X, X, right=False)
    _nested(compatibility, L, C, X, X, right=True, sign=-1)
    _nested(compatibility, C, L, X, X, right=False, order=(0, 2, 1), sign=-1)
    _nested(compatibility, L, C, X, X, right=False, order=(0, 2, 1), sign=-1)

    report = Report()
    triples = (V.basis,) * 3
    report.sweep("novikov_right_commutativity", triples, right_commutativity.close(), V.basis)
    for item in check_axioms(novikov).checks + check_axioms(lie).checks:
        item.name = _AXIOM_NAMES[item.name]
        report.checks.append(item)
    report.sweep("compatibility", triples, compatibility.close(), V.basis)
    return report


def gd_from_algebra(A: ConformalAlgebra) -> GDBialgebra:
    """Extract the bialgebra from an algebra with affine basis brackets.

    Raises NotQuadratic when the bialgebra read off the rational coefficients
    of d and of 1 does not give back every bracket: a coefficient that holds
    a parameter, a nonlinear or mixed monomial, or an x part other than the
    star product.
    """
    if A.kind != LIE:
        raise NotQuadratic("the correspondence applies to Lie-kind algebras")
    parts: dict[tuple[int, int], ConstTable] = {(1, 0): {}, (0, 0): {}}  # circ, lie
    for (i, j), targets in A.products.items():
        for k, P in targets.items():
            for key, cof in P.split(("d", "x")).items():
                if key in parts and (value := cof.constant_value()) is not None:
                    parts[key].setdefault((j, i), {})[k] = value
    V = GDBialgebra(A.basis, A.table, parts[1, 0], parts[0, 0])
    back = algebra_from_gd(V, checked=False)
    for i, j in sorted(A.products.keys() | back.products.keys()):
        if A.product(i, j) != back.product(i, j):
            raise NotQuadratic(f"the bracket on ({A.basis[i]},{A.basis[j]}) is not"
                               " d (b o a) + x (a * b) + [b, a] of the extracted bialgebra")
    return V


def algebra_from_gd(V: GDBialgebra, checked: bool = True) -> ConformalAlgebra:
    """The conformal algebra with affine brackets determined by a bialgebra."""
    if checked:
        _require(check_gd(V), "bialgebra axioms fail")
    t = V.table
    D, X = Poly.var(t, "d"), Poly.var(t, "x")
    one, sums = Poly.const(t, 1), Sums(t)
    for (j, i), targets in V.circ.items():
        # circ[(j, i)] holds b o a for the bracket on (e_i, e_j)
        for k, c in targets.items():
            sums.add((i, j, k), D + X, None, c)
            sums.add((j, i, k), X, None, c)
    for (j, i), targets in V.lie.items():
        for k, c in targets.items():
            sums.add((i, j, k), one, None, c)
    return ConformalAlgebra(LIE, V.basis, t, _nest(sums.close()))


class ProbeResult(Record):
    def __init__(self, status: str,
                 witness: tuple[tuple[Fraction, ...], tuple[Fraction, ...]] | None = None) -> None:
        self.status = status  # "no_zero_divisors" | "witness" | "unknown"
        self.witness = witness

    def witness_names(self, V: GDBialgebra) -> tuple[str, str] | None:
        """Basis names when both witness vectors are basis elements."""
        if self.witness is None:
            return None
        names = []
        for vec in self.witness:
            hits = [i for i, c in enumerate(vec) if c != 0]
            if len(hits) != 1 or vec[hits[0]] != 1:
                return None
            names.append(V.basis[hits[0]])
        return tuple(names)


def _star_matrices(V: GDBialgebra) -> list[list[list[int]]]:
    """Integer matrices M_i, rows indexed by the target, with M_i b = den * (e_i * b)."""
    den = math.lcm(*(c.denominator for t in V.circ.values() for c in t.values()))
    dims = range(V.dim)

    def circ(i, j, k):
        return V.circ.get((i, j), {}).get(k, 0) * den

    return [[[int(circ(i, j, k) + circ(j, i, k)) for j in dims] for k in dims] for i in dims]


def _candidate_key(tup) -> tuple:
    return (sum(abs(c) for c in tup), tuple(abs(c) for c in tup),
            tuple(0 if c >= 0 else 1 for c in tup))


def _coprime(v: dict[int, Fraction], columns: range) -> tuple[Fraction, ...]:
    """v in coprime integers: v times lcm(denominators) / gcd(numerators)."""
    scale = Fraction(math.lcm(*(c.denominator for c in v.values())),
                     math.gcd(*(c.numerator for c in v.values())))
    return tuple(v.get(j, 0) * scale for j in columns)


# without a witness the probe takes one determinant per vector of its box;
# this is [-3, 3]^6
MAX_PROBE_CANDIDATES = 7 ** 6


def _det(M: list[list[int]]) -> int:
    """The determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: each division by the previous pivot is exact."""
    M, n, sign, prev = [row[:] for row in M], len(M), 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            if (swap := next((i for i in range(k + 1, n) if M[i][k]), None)) is None:
                return 0
            M[k], M[swap], sign = M[swap], M[k], -sign
        pivot, top = M[k][k], M[k]
        for row in M[k + 1:]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - c * top[j]) // prev
        prev = pivot
    return sign * M[-1][-1]


def _box(bound: int, dim: int):
    """The nonzero vectors of [-bound, bound]^dim in ``_candidate_key`` order,
    one at a time: the magnitude tuples sorted by (sum, tuple), and for each
    its sign patterns, + before - position by position."""
    magnitudes = sorted(itertools.product(range(bound + 1), repeat=dim), key=lambda m: (sum(m), m))
    for mag in magnitudes[1:]:  # the first is the zero vector
        yield from itertools.product(*((c, -c) if c else (0,) for c in mag))


def zero_divisor_probe(V: GDBialgebra, bound: int = 3) -> ProbeResult:
    """Search for a nonzero pair with zero star product.

    Dimension 1 is decided exactly.  In higher dimension the probe tries
    integer vectors a in [-bound, bound]^n, simplest first, and stops at the
    first a with a nonzero kernel of b -> a * b over Q.  That integer matrix
    has a nonzero kernel exactly when its determinant is 0, so each a takes
    one determinant, and only a singular one a kernel.  The partner b is the
    kernel basis vector in coprime integers that comes first in the same
    order; it may lie outside the box.  Otherwise the result is Unknown:
    absence is never claimed.  The box is enumerated lazily, so a witness
    near the origin returns at once; a box of more than MAX_PROBE_CANDIDATES
    vectors is refused before the star matrices are built.
    """
    if V.dim > 1 and (size := (2 * bound + 1) ** V.dim) > MAX_PROBE_CANDIDATES:
        raise PreconditionError(f"the probe box [-{bound}, {bound}]^{V.dim} holds {_shown(size)}"
                                f" vectors, over the cap of {MAX_PROBE_CANDIDATES}")
    mats = _star_matrices(V)
    if V.dim == 1:
        if mats[0][0][0]:
            return ProbeResult("no_zero_divisors")
        return ProbeResult("witness", ((Fraction(1),),) * 2)
    columns = range(V.dim)
    # entries[k][j] holds M_i[k][j] for each i, so that a's matrix sum_i a_i M_i
    # is one sum of products per entry
    entries = [[tuple(m[k][j] for m in mats) for j in columns] for k in columns]
    for a in _box(bound, V.dim):
        M = [[sum(map(mul, a, e)) for e in row] for row in entries]
        if _det(M):
            continue
        if null := kernel([dict(zip(columns, row)) for row in M], columns):
            b = min((_coprime(v, columns) for v in null), key=_candidate_key)
            return ProbeResult("witness", (tuple(map(Fraction, a)), b))
    return ProbeResult("unknown")


def rb_gd_check(V: GDBialgebra, T: ModuleMap, weight: Poly | Fraction | int = 0) -> Report:
    """Weight-alpha Rota-Baxter identity for both operations, plus the lift.

    The lift reuses the same constant matrix as an operator on the
    corresponding conformal algebra; the two verdicts agree for valid input.
    """
    _require(check_gd(V), "bialgebra axioms fail")
    if any("d" in p.variables() for row in T.matrix for p in row):
        raise PreconditionError("the operator on a bialgebra must be constant")
    report = Report()
    names = ("rota_baxter_novikov", "rota_baxter_lie", "lifted_rota_baxter")
    for name, A in zip(names, (*_algebras(V), algebra_from_gd(V, checked=False))):
        report.sweep(name, (V.basis,) * 2, rota_baxter_residuals(A, T, weight), V.basis)
    return report
