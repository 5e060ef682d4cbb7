"""Representations of conformal algebras and the standard constructions.

A representation of a rank-n algebra on a rank-m module is a table
rho_ijk(d, x) meaning rho(e_i)_x v_j = sum_k rho_ijk(d, x) v_k.  For a
left-symmetric algebra a module is a pair of such tables (left and right
action).  Standard constructions: adjoint, regular left multiplication,
its right analogue, their difference, conformal duals, and semidirect sums.
"""

from __future__ import annotations

from .algebra import (
    LEFT_SYMMETRIC,
    LIE,
    AlgebraError,
    ConformalAlgebra,
    PreconditionError,
    ProductTable,
    _contract,
    _nest,
    _nested,
    clean_table,
    sub_adjacent,
)
from .poly import Poly, Record, Sums
from .report import Report

ADJOINT = "adjoint"
REGULAR_LEFT = "regular_left"
REGULAR_RIGHT = "regular_right"
LEFT_MINUS_RIGHT = "left_minus_right"


class Representation(Record):
    """Module over a conformal algebra, given by action tables.

    Lie kind: ``rho`` is set.  Left-symmetric kind: ``left`` and ``right``
    are set (either may be empty for the zero action).
    """

    def __init__(self, algebra: ConformalAlgebra, mbasis: tuple[str, ...],
                 rho: ProductTable | None = None, left: ProductTable | None = None,
                 right: ProductTable | None = None) -> None:
        if (rho is None) == (left is None and right is None):
            raise AlgebraError("give either rho (lie) or left/right tables (lsc)")
        self.algebra, self.mbasis = algebra, mbasis
        if rho is None:  # a missing left or right table is the zero action
            self.rho, self.left, self.right = None, clean_table(left or {}), clean_table(right or {})
        else:
            self.rho, self.left, self.right = clean_table(rho), None, None

    @property
    def is_lie(self) -> bool:
        return self.rho is not None

    @property
    def mrank(self) -> int:
        return len(self.mbasis)


def check_rep(rep: Representation) -> Report:
    """Module axioms as residuals on algebra pairs x module basis, each a
    signed sum of nested actions from ``_nested``."""
    A = rep.algebra
    t = A.table
    X = Poly.var(t, "x")
    Y = Poly.var(t, "y")
    D = Poly.var(t, "d")
    P = A.products
    report = Report()
    axes = (A.basis, A.basis, rep.mbasis)
    label = "({},{};{})"

    if rep.is_lie:
        rho, module_axiom = rep.rho, Sums(t)
        _nested(module_axiom, P, rho, X, X + Y, right=False)
        _nested(module_axiom, rho, rho, Y, X, right=True, sign=-1)
        _nested(module_axiom, rho, rho, X, Y, right=True, order=(1, 0, 2))
        report.sweep("module_axiom", axes, _nest(module_axiom.close()), rep.mbasis, label)
        return report
    left, right = rep.left, rep.right
    left_action, right_action = Sums(t), Sums(t)
    _nested(left_action, P, left, X, X + Y, right=False)
    _nested(left_action, left, left, Y, X, right=True, sign=-1)
    _nested(left_action, P, left, Y, X + Y, right=False, order=(1, 0, 2), sign=-1)
    _nested(left_action, left, left, X, Y, right=True, order=(1, 0, 2))
    _nested(right_action, left, right, X, -X - Y - D, right=True, order=(1, 0, 2))
    _nested(right_action, right, left, -Y - D, X, right=True, sign=-1)
    _nested(right_action, right, right, X, -X - Y - D, right=True, order=(1, 0, 2), sign=-1)
    _nested(right_action, P, right, X, -Y - D, right=False)
    report.sweep("left_action_axiom", axes, _nest(left_action.close()), rep.mbasis, label)
    report.sweep("right_action_axiom", axes, _nest(right_action.close()), rep.mbasis, label)
    return report


def standard_rep(A: ConformalAlgebra, which: str) -> Representation:
    """Representation tables read off the structure constants.

    adjoint (lie A): rho = P.  For left-symmetric A the other three give
    representations of the sub-adjacent Lie algebra: regular_left is the
    left-multiplication table, regular_right the table of
    R(e_i)_x e_j = (e_j)_{-x-d} e_i, left_minus_right their difference.
    """
    t = A.table
    if which == ADJOINT:
        if A.kind != LIE:
            raise PreconditionError("adjoint requires a Lie-kind algebra")
        return Representation(A, A.basis, rho=dict(A.products))
    if A.kind != LEFT_SYMMETRIC:
        raise PreconditionError(f"{which} requires a left-symmetric algebra")
    g = sub_adjacent(A)
    if which == REGULAR_LEFT:
        return Representation(g, A.basis, rho=dict(A.products))
    if which == REGULAR_RIGHT:
        sums = Sums(t)
        _contract(sums, A.products, {"x": -Poly.var(t, "x") - Poly.var(t, "d")},
                  lambda j, i, k: (i, j, k))
        return Representation(g, A.basis, rho=_nest(sums.close()))
    if which == LEFT_MINUS_RIGHT:
        # L - R has the table P_ij - P_ji(-x-d): the adjoint of g
        return Representation(g, A.basis, rho=g.products)
    raise AlgebraError(f"unknown standard representation {which!r}")


def dual_rep(rep: Representation) -> Representation:
    """Contragredient representation on the dual basis.

    rho*_ijk(d, x) = -rho_ikj(-x-d, x); dual module basis names get a star.
    """
    if not rep.is_lie:
        raise PreconditionError("dual_rep expects a lie-kind representation")
    t = rep.algebra.table
    sums = Sums(t)
    _contract(sums, rep.rho, {"d": -Poly.var(t, "x") - Poly.var(t, "d")},
              lambda i, k, j: (i, j, k), sign=-1)
    names = tuple(n + "*" for n in rep.mbasis)
    return Representation(rep.algebra, names, rho=_nest(sums.close()))


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
    if rep.is_lie != (A.kind == LIE):
        raise PreconditionError("a Lie-kind algebra needs a Lie-kind module, "
                                "a left-symmetric one a bimodule")
    if A.kind == LIE and rep.algebra is not A and rep.algebra.products != A.products:
        raise PreconditionError("representation is not over the given algebra")
    t, n = A.table, A.rank
    sums = Sums(t)
    _contract(sums, A.products, {}, lambda i, j, k: (i, j, k))
    left, right, sign = (rep.rho, rep.rho, -1) if A.kind == LIE else (rep.left, rep.right, 1)
    # l(a)_x v at (a, v), and r(b)_{-x-d} u (or -rho(b)_{-x-d} u) at (u, b)
    _contract(sums, left, {}, lambda i, j, k: (i, n + j, n + k))
    _contract(sums, right, {"x": -Poly.var(t, "x") - Poly.var(t, "d")},
              lambda i, j, k: (n + j, i, n + k), sign=sign)
    return ConformalAlgebra(A.kind, A.basis + rep.mbasis, t, _nest(sums.close()))
