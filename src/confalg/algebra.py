"""Finite conformal algebras presented by structure constants.

An algebra of rank n is a free module over the polynomial ring of the
derivation ``d`` with basis e_1..e_n and a bilinear lambda-product given on
basis pairs by polynomials P_ijk(d, x), meaning

    (e_i)_x (e_j) = sum_k P_ijk(d, x) e_k,

where d acts on the output basis element and x is the bracket argument.
Products of general elements follow from two extension rules: a power of d
on the first argument becomes (-x)^m, on the second argument (x + d)^m.
The same engine, ``apply_bilinear``, evaluates products at shifted arguments
such as -x-d by first expanding against the reserved variable z1 and
substituting it last, and evaluates scalar-valued forms.  It handles general
elements and remains the reference for the identity checks.

The axioms, module and 2-cocycle checks evaluate every basis tuple at once
instead: a nested product of basis elements is a sum over chains of nonzero
structure constants (``_chains``), so their cost follows the number of
nonzero entries, not the n^5 slot visits of calling ``apply_bilinear`` per
instance.
"""

from __future__ import annotations

from .poly import Poly, Record, Sums, VarTable
from .report import Report

LIE = "lie"
LEFT_SYMMETRIC = "left_symmetric"

Vector = tuple[Poly, ...]
ProductTable = dict[tuple[int, int], dict[int, Poly]]


class AlgebraError(Exception):
    pass


class PreconditionError(AlgebraError):
    def __init__(self, message: str, report: Report | None = None):
        super().__init__(message)
        self.report = report


def clean_table(products: ProductTable) -> ProductTable:
    out: ProductTable = {}
    for pair, targets in products.items():
        kept = {k: p for k, p in targets.items() if not p.is_zero}
        if kept:
            out[pair] = kept
    return out


class ConformalAlgebra(Record):
    def __init__(self, kind: str, basis: tuple[str, ...], table: VarTable,
                 products: ProductTable) -> None:
        if kind not in (LIE, LEFT_SYMMETRIC):
            raise AlgebraError(f"unknown algebra kind {kind!r}")
        self.kind, self.basis, self.table = kind, basis, table
        self.products = clean_table(products)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def product(self, i: int, j: int) -> dict[int, Poly]:
        return self.products.get((i, j), {})

    def zero_vector(self) -> Vector:
        z = Poly.zero(self.table)
        return (z,) * self.rank

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.table, self.rank, i)

    def map_polys(self, fn, table: VarTable | None = None) -> "ConformalAlgebra":
        t = table or self.table
        prods = {
            pair: {k: fn(p) for k, p in targets.items()}
            for pair, targets in self.products.items()
        }
        return ConformalAlgebra(self.kind, self.basis, t, prods)

    def embed(self, table: VarTable) -> "ConformalAlgebra":
        return self.map_polys(lambda p: p.embed(table), table)


def unit_vector(table: VarTable, rank: int, i: int) -> Vector:
    """The i-th of `rank` unit coordinate vectors."""
    one = Poly.const(table, 1)
    z = Poly.zero(table)
    return tuple(one if k == i else z for k in range(rank))


def apply_bilinear(
    table: VarTable,
    products: ProductTable,
    a: Vector,
    b: Vector,
    lam: Poly,
    out_rank: int,
    out: str | int = "d",
) -> Vector:
    """Sesquilinear extension of a structure-constant table.

    ``a`` indexes the first factor's basis, ``b`` the second's, both with
    coefficients in d.  ``out`` is the derivation acting on the result: ``d``
    by default, or ``0`` for a scalar-valued form.  A power of the first
    factor's d becomes (-z)^m, of the second's (z + out)^m, and the table's d
    becomes ``out``; the product is expanded at the reserved variable z = z1,
    which is substituted by ``lam`` at the end, so arguments like -x-d behave
    correctly.
    """
    z = Poly.var(table, "z1")
    dout = Poly.var(table, out) if isinstance(out, str) else Poly.const(table, out)
    at_z = {"x": z} if out == "d" else {"d": dout, "x": z}
    acc = [Poly.zero(table) for _ in range(out_rank)]
    shifted_b = [None] * len(b)
    for i, fi in enumerate(a):
        if fi.is_zero:
            continue
        fi_s = fi.subs({"d": -z})
        for j, gj in enumerate(b):
            targets = products.get((i, j))
            if gj.is_zero or not targets:
                continue
            if shifted_b[j] is None:
                shifted_b[j] = gj.subs({"d": z + dout})
            prod = fi_s * shifted_b[j]
            for k, P in targets.items():
                acc[k] = acc[k] + prod * P.subs(at_z)
    return tuple(p.subs({"z1": lam}) for p in acc)


def mul_at(A: ConformalAlgebra, a: Vector, b: Vector, lam: Poly) -> Vector:
    """The lambda-product a_lam b of two elements of A."""
    return apply_bilinear(A.table, A.products, a, b, lam, A.rank)


def bracket(A: ConformalAlgebra, a: Vector, b: Vector) -> Vector:
    """a_x b as an element-valued polynomial in the bracket argument x."""
    return mul_at(A, a, b, Poly.var(A.table, "x"))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(p - q for p, q in zip(a, b))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(p + q for p, q in zip(a, b))


def _chains(inner: ProductTable, outer: ProductTable, lam_in: Poly, lam_out: Poly,
            *, right: bool, swap: bool = False, scalar: bool = False):
    """Nested products of basis elements, as sums over chains of nonzero entries.

    right:  (i, j, k) -> e_i _lam_out (e_j _lam_in v_k)
                       = sum_l inner_jkl(d, lam_in)|_{d -> lam_out + d} outer_ilm(d, lam_out)
    left:   (i, j, k) -> (e_i _lam_in e_j) _lam_out v_k
                       = sum_l inner_ijl(d, lam_in)|_{d -> -lam_out} outer_lkm(d, lam_out)

    Yields one ((i, j, k, m), inner factor, outer factor) per chain, for
    ``_signed_sum``; with ``swap`` the key is (j, i, k, m).  The inner
    argument is substituted before d is shifted, as in ``apply_bilinear``, so
    lam_in may contain d.  With ``scalar`` the outer table is a form, whose
    output carries no d, so the right shift is d -> lam_out.
    """
    d_out = Poly.zero(lam_out.table) if scalar else Poly.var(lam_out.table, "d")
    shift = {"d": lam_out + d_out} if right else {"d": -lam_out}
    by_factor: dict[int, list[tuple[int, dict[int, Poly]]]] = {}
    for (a, b), targets in outer.items():
        at_out = {m: P.subs({"x": lam_out}) for m, P in targets.items()}
        by_factor.setdefault(b if right else a, []).append((a if right else b, at_out))
    for (p, q), targets in inner.items():
        for l, P in targets.items():
            chains = by_factor.get(l)
            if not chains:
                continue
            s = P.subs({"x": lam_in}).subs(shift)
            for o, at_out in chains:
                i, j, k = (o, p, q) if right else (p, q, o)
                i, j = (j, i) if swap else (i, j)
                for m, Q in at_out.items():
                    yield (i, j, k, m), s, Q


def _nest(sums: dict) -> dict:
    """{(*head, last): value} as {head: {last: value}}, e.g. a product table."""
    out: dict = {}
    for key, value in sums.items():
        out.setdefault(key[:-1], {})[key[-1]] = value
    return out


def _signed_sum(table: VarTable, *terms):
    """Residual idx -> {target: poly}, the sum of sign * a * b over the
    ((*idx, target), a, b) each (sign, chain) term yields (b may be None);
    ``Report.sweep`` reads a missing target as zero."""
    sums = Sums(table)
    for sign, chain in terms:
        for key, a, b in chain:
            sums.add(key, a, b, sign)
    nested = _nest(sums.close())
    return lambda *idx: nested.get(idx, {})


def check_axioms(A: ConformalAlgebra) -> Report:
    """Defining identities on all basis pairs/triples, as residuals.

    Lie kind: skew-symmetry and the Jacobi identity.  Left-symmetric kind:
    symmetry of the associator in the first two arguments.  Each identity is
    a signed sum of nested products from ``_chains``.
    """
    t = A.table
    X = Poly.var(t, "x")
    Y = Poly.var(t, "y")
    D = Poly.var(t, "d")
    P = A.products
    report = Report()

    if A.kind == LIE:
        cells = [((i, j, k), Q, None) for (i, j), targets in P.items() for k, Q in targets.items()]
        flipped = [((j, i, k), Q.subs({"x": -X - D}), None) for (i, j, k), Q, _ in cells]
        report.sweep("skew_symmetry", (A.basis,) * 2, _signed_sum(t, (1, cells), (1, flipped)),
                     A.basis)
        jacobi = _signed_sum(t, (1, _chains(P, P, Y, X, right=True)),
                             (-1, _chains(P, P, X, X + Y, right=False)),
                             (-1, _chains(P, P, X, Y, right=True, swap=True)))
        report.sweep("jacobi", (A.basis,) * 3, jacobi, A.basis)
    else:
        left_symmetry = _signed_sum(t, (1, _chains(P, P, X, X + Y, right=False)),
                                    (-1, _chains(P, P, Y, X, right=True)),
                                    (-1, _chains(P, P, Y, X + Y, right=False, swap=True)),
                                    (1, _chains(P, P, X, Y, right=True, swap=True)))
        report.sweep("left_symmetry", (A.basis,) * 3, left_symmetry, A.basis)
    return report


def sub_adjacent(A: ConformalAlgebra, checked: bool = True) -> ConformalAlgebra:
    """Commutator Lie algebra of a left-symmetric algebra.

    [a_x b] = a_x b - b_{-x-d} a, given on basis pairs by
    Q_ijk(d, x) = P_ijk(d, x) - P_jik(d, -x-d).
    """
    if A.kind != LEFT_SYMMETRIC:
        raise PreconditionError("sub_adjacent expects a left-symmetric algebra")
    if checked:
        rep = check_axioms(A)
        if not rep.ok:
            raise PreconditionError("input fails left-symmetry", rep)
    t = A.table
    X = Poly.var(t, "x")
    D = Poly.var(t, "d")
    sums = Sums(t)
    for i in range(A.rank):
        for j in range(A.rank):
            for k, P in A.product(i, j).items():
                sums.add((i, j, k), P)
            for k, P in A.product(j, i).items():
                sums.add((i, j, k), P.subs({"x": -X - D}), None, -1)
    return ConformalAlgebra(LIE, A.basis, t, _nest(sums.close()))
