"""Representations of conformal algebras and the standard constructions.

A representation of a rank-n algebra on a rank-m module is a table
rho_ijk(d, x) meaning rho(e_i)_x v_j = sum_k rho_ijk(d, x) v_k.  For a
left-symmetric algebra a module is a pair of such tables (left and right
action).  Standard constructions: adjoint, regular left multiplication,
its right analogue, their difference, conformal duals, and semidirect sums.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    LEFT_SYMMETRIC,
    LIE,
    AlgebraError,
    ConformalAlgebra,
    PreconditionError,
    ProductTable,
    Vector,
    apply_bilinear,
    clean_table,
    mul_at,
    sub_adjacent,
    vec_add,
    vec_sub,
)
from .poly import Poly, VarTable, accumulate
from .report import Report

ADJOINT = "adjoint"
REGULAR_LEFT = "regular_left"
REGULAR_RIGHT = "regular_right"
LEFT_MINUS_RIGHT = "left_minus_right"


@dataclass
class Representation:
    """Module over a conformal algebra, given by action tables.

    Lie kind: ``rho`` is set.  Left-symmetric kind: ``left`` and ``right``
    are set (either may be empty for the zero action).
    """

    algebra: ConformalAlgebra
    mbasis: tuple[str, ...]
    rho: ProductTable | None = None
    left: ProductTable | None = None
    right: ProductTable | None = None

    def __post_init__(self) -> None:
        if self.rho is not None:
            self.rho = clean_table(self.rho)
        if self.left is not None:
            self.left = clean_table(self.left)
        if self.right is not None:
            self.right = clean_table(self.right)
        if (self.rho is None) == (self.left is None and self.right is None):
            raise AlgebraError("give either rho (lie) or left/right tables (lsc)")
        if self.left is not None and self.right is None:
            self.right = {}
        if self.right is not None and self.left is None:
            self.left = {}

    @property
    def is_lie(self) -> bool:
        return self.rho is not None

    @property
    def mrank(self) -> int:
        return len(self.mbasis)

    def mbasis_vector(self, j: int) -> Vector:
        one = Poly.const(self.algebra.table, 1)
        z = Poly.zero(self.algebra.table)
        return tuple(one if k == j else z for k in range(self.mrank))

    def map_polys(self, fn, table: VarTable | None = None) -> "Representation":
        def conv(tbl):
            if tbl is None:
                return None
            return {pair: {k: fn(p) for k, p in tg.items()} for pair, tg in tbl.items()}

        A = self.algebra.map_polys(fn, table)
        return Representation(A, self.mbasis, conv(self.rho), conv(self.left), conv(self.right))

    def embed(self, table: VarTable) -> "Representation":
        return self.map_polys(lambda p: p.embed(table), table)


def act_at(rep: Representation, table: ProductTable, a: Vector, w: Vector,
           lam: Poly) -> Vector:
    """Action of algebra element ``a`` on module element ``w`` at argument lam."""
    return apply_bilinear(rep.algebra.table, table, a, w, lam, rep.mrank)


def act(rep: Representation, a: Vector, w: Vector, lam: Poly) -> Vector:
    if not rep.is_lie:
        raise AlgebraError("plain action is defined for lie-kind representations")
    return act_at(rep, rep.rho, a, w, lam)


def check_rep(rep: Representation) -> Report:
    """Module axioms as residuals on algebra pairs x module basis."""
    A = rep.algebra
    t = A.table
    X = Poly.var(t, "x")
    Y = Poly.var(t, "y")
    D = Poly.var(t, "d")
    report = Report()
    eb = [A.basis_vector(i) for i in range(A.rank)]
    vb = [rep.mbasis_vector(j) for j in range(rep.mrank)]

    def label(i, j, k):
        return f"({A.basis[i]},{A.basis[j]};{rep.mbasis[k]})"

    if rep.is_lie:
        chk = report.new_check("module_axiom")
        for i in range(A.rank):
            for j in range(A.rank):
                for k in range(rep.mrank):
                    lhs = act(rep, mul_at(A, eb[i], eb[j], X), vb[k], X + Y)
                    rhs = vec_sub(act(rep, eb[i], act(rep, eb[j], vb[k], Y), X),
                                  act(rep, eb[j], act(rep, eb[i], vb[k], X), Y))
                    chk.add_vector(label(i, j, k), rep.mbasis, vec_sub(lhs, rhs))
    else:
        left, right = rep.left, rep.right
        c1 = report.new_check("left_action_axiom")
        c2 = report.new_check("right_action_axiom")
        for i in range(A.rank):
            for j in range(A.rank):
                for k in range(rep.mrank):
                    l_ab = act_at(rep, left, mul_at(A, eb[i], eb[j], X), vb[k], X + Y)
                    l_a_l_b = act_at(rep, left, eb[i], act_at(rep, left, eb[j], vb[k], Y), X)
                    l_ba = act_at(rep, left, mul_at(A, eb[j], eb[i], Y), vb[k], X + Y)
                    l_b_l_a = act_at(rep, left, eb[j], act_at(rep, left, eb[i], vb[k], X), Y)
                    res = vec_sub(vec_sub(l_ab, l_a_l_b), vec_sub(l_ba, l_b_l_a))
                    c1.add_vector(label(i, j, k), rep.mbasis, res)

                    t1 = act_at(rep, right, eb[j],
                                act_at(rep, left, eb[i], vb[k], X), -X - Y - D)
                    t2 = act_at(rep, left, eb[i],
                                act_at(rep, right, eb[j], vb[k], -Y - D), X)
                    t3 = act_at(rep, right, eb[j],
                                act_at(rep, right, eb[i], vb[k], X), -X - Y - D)
                    t4 = act_at(rep, right, mul_at(A, eb[i], eb[j], X), vb[k], -Y - D)
                    res = vec_add(vec_sub(vec_sub(t1, t2), t3), t4)
                    c2.add_vector(label(i, j, k), rep.mbasis, res)
    return report


def standard_rep(A: ConformalAlgebra, which: str) -> Representation:
    """Representation tables read off the structure constants.

    adjoint (lie A): rho = P.  For left-symmetric A the other three give
    representations of the sub-adjacent Lie algebra: regular_left is the
    left-multiplication table, regular_right the table of
    R(e_i)_x e_j = (e_j)_{-x-d} e_i, left_minus_right their difference.
    """
    t = A.table
    X = Poly.var(t, "x")
    D = Poly.var(t, "d")
    if which == ADJOINT:
        if A.kind != LIE:
            raise PreconditionError("adjoint requires a Lie-kind algebra")
        return Representation(A, A.basis, rho=dict(A.products))
    if A.kind != LEFT_SYMMETRIC:
        raise PreconditionError(f"{which} requires a left-symmetric algebra")
    g = sub_adjacent(A)

    def right_table() -> ProductTable:
        out: ProductTable = {}
        for (j, i), targets in A.products.items():
            entry = out.setdefault((i, j), {})
            for k, P in targets.items():
                accumulate(entry, k, P.subs({"x": -X - D}))
        return out

    if which == REGULAR_LEFT:
        return Representation(g, A.basis, rho=dict(A.products))
    if which == REGULAR_RIGHT:
        return Representation(g, A.basis, rho=right_table())
    if which == LEFT_MINUS_RIGHT:
        rt = right_table()
        out: ProductTable = {}
        for pair in set(A.products) | set(rt):
            entry: dict[int, Poly] = {}
            for k, P in A.products.get(pair, {}).items():
                accumulate(entry, k, P)
            for k, P in rt.get(pair, {}).items():
                accumulate(entry, k, -P)
            out[pair] = entry
        return Representation(g, A.basis, rho=out)
    raise AlgebraError(f"unknown standard representation {which!r}")


def regular_module(A: ConformalAlgebra) -> Representation:
    """The regular module (A, left mult, right mult) of a left-symmetric algebra."""
    if A.kind != LEFT_SYMMETRIC:
        raise PreconditionError("regular module requires a left-symmetric algebra")
    rr = standard_rep(A, REGULAR_RIGHT)
    return Representation(A, A.basis, left=dict(A.products), right=rr.rho)


def dual_rep(rep: Representation) -> Representation:
    """Contragredient representation on the dual basis.

    rho*_ijk(d, x) = -rho_ikj(-x-d, x); dual module basis names get a star.
    """
    if not rep.is_lie:
        raise PreconditionError("dual_rep expects a lie-kind representation")
    t = rep.algebra.table
    X = Poly.var(t, "x")
    D = Poly.var(t, "d")
    out: ProductTable = {}
    for (i, k), targets in rep.rho.items():
        for j, P in targets.items():
            entry = out.setdefault((i, j), {})
            accumulate(entry, k, -P.subs({"d": -X - D}))
    names = tuple(n + "*" for n in rep.mbasis)
    return Representation(rep.algebra, names, rho=out)


def with_zero_right(A: ConformalAlgebra, rep: Representation) -> Representation:
    """View a representation of the sub-adjacent Lie algebra as an A-module (sigma, 0)."""
    if A.kind != LEFT_SYMMETRIC or not rep.is_lie:
        raise PreconditionError("expected a left-symmetric algebra and a lie representation")
    return Representation(A, rep.mbasis, left=dict(rep.rho), right={})


def semidirect(A: ConformalAlgebra, rep: Representation, checked: bool = True) -> ConformalAlgebra:
    """Semidirect sum of A with a module, on the concatenated basis.

    Lie kind:   [(a+u)_x (b+v)] = [a_x b] + rho(a)_x v - rho(b)_{-x-d} u.
    LSC kind:   (a+u)_x (b+v) = a_x b + l(a)_x v + r(b)_{-x-d} u.
    """
    if checked:
        rr = check_rep(rep)
        if not rr.ok:
            raise PreconditionError("module axioms fail", rr)
    t = A.table
    X = Poly.var(t, "x")
    D = Poly.var(t, "d")
    n = A.rank
    products: ProductTable = {}
    for pair, targets in A.products.items():
        products[pair] = dict(targets)

    def put(pair, k, poly):
        accumulate(products.setdefault(pair, {}), k, poly)

    if rep.is_lie != (A.kind == LIE):
        raise PreconditionError("a Lie-kind algebra needs a Lie-kind module, "
                                "a left-symmetric one a bimodule")
    if A.kind == LIE:
        if rep.algebra is not A and rep.algebra.products != A.products:
            raise PreconditionError("representation is not over the given algebra")
        for (i, j), targets in rep.rho.items():
            for k, P in targets.items():
                put((i, n + j), n + k, P)
                put((n + j, i), n + k, -P.subs({"x": -X - D}))
    else:
        for (i, j), targets in rep.left.items():
            for k, P in targets.items():
                put((i, n + j), n + k, P)
        for (i, j), targets in rep.right.items():
            for k, P in targets.items():
                put((n + j, i), n + k, P.subs({"x": -X - D}))
    basis = A.basis + rep.mbasis
    return ConformalAlgebra(A.kind, basis, t, products)
