"""Novikov algebras, Lie algebras and their compatible pairs, and the
dictionary with conformal algebras whose basis brackets are affine in the
derivation and the bracket argument.

The dictionary reads, for basis elements a, b:

    [a_x b] = d (b o a) + x (a * b) + [b, a],      a * b = a o b + b o a,

so the derivative part stores the Novikov product with reversed arguments,
the constant part the reversed Lie bracket, and skew-symmetry of the
conformal bracket forces the argument part to equal the star product.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import (LIE, ConformalAlgebra, PreconditionError, _nest, unit_vector, vec_add,
                      vec_sub)
from .linmap import ModuleMap, kernel
from .operators import rota_baxter_residuals
from .poly import Poly, Record, Sums, VarTable
from .report import Report

ConstTable = dict[tuple[int, int], dict[int, Fraction]]


class NotQuadratic(Exception):
    pass


def _clean_const(table: ConstTable) -> ConstTable:
    out: ConstTable = {}
    for pair, targets in table.items():
        kept = {k: Fraction(c) for k, c in targets.items() if c != 0}
        if kept:
            out[pair] = kept
    return out


class GDBialgebra(Record):
    """A Novikov product and a Lie bracket on one space, with compatibility."""

    def __init__(self, basis: tuple[str, ...], table: VarTable, circ: ConstTable,
                 lie: ConstTable) -> None:
        self.basis, self.table = basis, table
        self.circ, self.lie = _clean_const(circ), _clean_const(lie)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _prod(self, tbl: ConstTable, a, b) -> tuple[Poly, ...]:
        out = [Poly.zero(self.table) for _ in range(self.dim)]
        for i, p in enumerate(a):
            if p.is_zero:
                continue
            for j, q in enumerate(b):
                targets = tbl.get((i, j))
                if q.is_zero or not targets:
                    continue
                pq = p * q
                for k, c in targets.items():
                    out[k] = out[k] + pq * c
        return tuple(out)

    def circ_prod(self, a, b) -> tuple[Poly, ...]:
        return self._prod(self.circ, a, b)

    def lie_prod(self, a, b) -> tuple[Poly, ...]:
        return self._prod(self.lie, a, b)

    def basis_vector(self, i: int) -> tuple[Poly, ...]:
        return unit_vector(self.table, self.dim, i)


def check_gd(V: GDBialgebra) -> Report:
    """Novikov axioms, Lie axioms, and the mixed compatibility identity."""
    basis = [V.basis_vector(i) for i in range(V.dim)]
    circ, lie = V.circ_prod, V.lie_prod

    def right_commutativity(i, j, k):
        a, b, c = basis[i], basis[j], basis[k]
        return vec_sub(circ(circ(a, b), c), circ(circ(a, c), b))

    def left_symmetry(i, j, k):
        a, b, c = basis[i], basis[j], basis[k]
        return vec_sub(vec_sub(circ(circ(a, b), c), circ(a, circ(b, c))),
                       vec_sub(circ(circ(b, a), c), circ(b, circ(a, c))))

    def antisymmetry(i, j):
        return vec_add(lie(basis[i], basis[j]), lie(basis[j], basis[i]))

    def jacobi(i, j, k):
        a, b, c = basis[i], basis[j], basis[k]
        return vec_sub(lie(a, lie(b, c)), vec_add(lie(lie(a, b), c), lie(b, lie(a, c))))

    def compatibility(i, j, k):
        a, b, c = basis[i], basis[j], basis[k]
        return vec_sub(vec_add(lie(circ(a, b), c), circ(lie(a, b), c)),
                       vec_add(vec_add(circ(a, lie(b, c)), lie(circ(a, c), b)),
                               circ(lie(a, c), b)))

    report = Report()
    pairs, triples = (V.basis,) * 2, (V.basis,) * 3
    report.sweep("novikov_right_commutativity", triples, right_commutativity, V.basis)
    report.sweep("novikov_left_symmetry", triples, left_symmetry, V.basis)
    report.sweep("lie_antisymmetry", pairs, antisymmetry, V.basis)
    report.sweep("lie_jacobi", triples, jacobi, V.basis)
    report.sweep("compatibility", triples, compatibility, V.basis)
    return report


def gd_from_algebra(A: ConformalAlgebra) -> GDBialgebra:
    """Extract the bialgebra from an algebra with affine basis brackets.

    Raises NotQuadratic when any structure constant has a nonlinear or mixed
    monomial, or a non-rational coefficient.
    """
    if A.kind != LIE:
        raise NotQuadratic("the correspondence applies to Lie-kind algebras")
    circ: ConstTable = {}
    lie: ConstTable = {}
    for (i, j), targets in A.products.items():
        for k, P in targets.items():
            pieces = P.split(("d", "x"))
            for key, cof in pieces.items():
                value = cof.constant_value()
                if value is None:
                    raise NotQuadratic(
                        f"structure constant on ({A.basis[i]},{A.basis[j]}) has"
                        f" non-constant coefficient {cof}")
                if key == (1, 0):
                    circ.setdefault((j, i), {})[k] = value
                elif key == (0, 0):
                    lie.setdefault((j, i), {})[k] = value
                elif key != (0, 1):
                    raise NotQuadratic(
                        f"monomial d^{key[0]}*x^{key[1]} on ({A.basis[i]},{A.basis[j]})")
    return GDBialgebra(A.basis, A.table, circ, lie)


def algebra_from_gd(V: GDBialgebra, checked: bool = True) -> ConformalAlgebra:
    """The conformal algebra with affine brackets determined by a bialgebra."""
    if checked:
        rep = check_gd(V)
        if not rep.ok:
            raise PreconditionError("bialgebra axioms fail", rep)
    t = V.table
    D = Poly.var(t, "d")
    X = Poly.var(t, "x")
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


def zero_divisor_probe(V: GDBialgebra, bound: int = 3) -> ProbeResult:
    """Search for a nonzero pair with zero star product.

    Dimension 1 is decided exactly.  In higher dimension the probe tries
    integer vectors a in [-bound, bound]^n, simplest first, and stops at the
    first a with a nonzero kernel of b -> a * b over Q.  The partner b is the
    kernel basis vector in coprime integers that comes first in the same
    order; it may lie outside the box.  Otherwise the result is Unknown:
    absence is never claimed.
    """
    mats = _star_matrices(V)
    if V.dim == 1:
        if mats[0][0][0]:
            return ProbeResult("no_zero_divisors")
        return ProbeResult("witness", ((Fraction(1),),) * 2)
    columns = range(V.dim)
    box = itertools.product(range(-bound, bound + 1), repeat=V.dim)
    for a in sorted((a for a in box if any(a)), key=_candidate_key):
        rows = [{j: sum(x * m[k][j] for x, m in zip(a, mats)) for j in columns} for k in columns]
        if null := kernel(rows, columns):
            b = min((_coprime(v, columns) for v in null), key=_candidate_key)
            return ProbeResult("witness", (tuple(map(Fraction, a)), b))
    return ProbeResult("unknown")


def rb_gd_check(V: GDBialgebra, T: ModuleMap, weight: Poly | Fraction | int = 0) -> Report:
    """Weight-alpha Rota-Baxter identity for both operations, plus the lift.

    The lift reuses the same constant matrix as an operator on the
    corresponding conformal algebra; the two verdicts agree for valid input.
    """
    gdrep = check_gd(V)
    if not gdrep.ok:
        raise PreconditionError("bialgebra axioms fail", gdrep)
    for row in T.matrix:
        for p in row:
            if "d" in p.variables():
                raise PreconditionError("the operator on a bialgebra must be constant")
    report = Report()
    for name, table in (("rota_baxter_novikov", V.circ), ("rota_baxter_lie", V.lie)):
        P = {pair: {k: Poly.const(V.table, c) for k, c in targets.items()}
             for pair, targets in table.items()}
        res = rota_baxter_residuals(ConformalAlgebra(LIE, V.basis, V.table, P), T, weight)
        report.sweep(name, (V.basis,) * 2, lambda i, j, res=res: res[i, j], V.basis)
    lifted = rota_baxter_residuals(algebra_from_gd(V, checked=False), T, weight)
    report.sweep("lifted_rota_baxter", (V.basis,) * 2, lambda i, j: lifted[i, j], V.basis)
    return report
