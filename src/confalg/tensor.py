"""Tensor squares and cubes of a conformal algebra, and the two master equations.

A tensor-square element is a table of coefficients f_ij(d1, d2) per basis
pair, with d1 the derivation acting on the first slot and d2 on the second;
a cube element likewise in d1, d2 and a third slot derivation d3.  Identities
on the cube hold modulo the diagonal derivation d1 + d2 + d3, so every
residual here is built in normal form, with d3 := -d1 - d2 substituted: d3 is
never a variable.

The quadratic expressions evaluated here place each product or bracket of
two tensor factors in a fixed slot at an argument mu given by the slot
variables; within a bracket the first factor's derivation becomes -mu, the
second factor's mu + d_slot, and the table's d becomes d_slot, while passive
slots keep their own variable.  Once the argument is fixed every factor is a
plain substitution, taken directly at d3 := -d1 - d2, so each term is one
``algebra._contract`` of the table with the entries of r viewed by row or
column, each entry and table value substituted once per term, as the
general-element entry ``algebra.apply_bilinear`` does for two elements.
Equal entries of r are one object, so a view substitutes each distinct value
once; the cobracket views only the rows and columns its element reaches.
"""

from __future__ import annotations

from .algebra import (
    LEFT_SYMMETRIC,
    LIE,
    ConformalAlgebra,
    PreconditionError,
    Vector,
    _contract,
    _require,
    _view,
    sub_adjacent,
)
from .linmap import ConformalLinearMap, _checked_entries
from .poly import Poly, Record, Substitution, Sums
from .report import Report
from .reps import Representation, check_rep, dual_rep, semidirect


class Tensor2(Record):
    """An element of the tensor square, coeffs[i, j] = f_ij(d1, d2), nonzero
    only.  Each coefficient equal to an earlier one, in variable table and
    terms, is replaced by it, as ``algebra.clean_table`` does for tables."""

    def __init__(self, algebra: ConformalAlgebra, coeffs: dict[tuple[int, int], Poly]) -> None:
        self.algebra = algebra
        first: dict[Poly, Poly] = {}
        self.coeffs = {k: first.setdefault(p, p) for k, p in coeffs.items() if not p.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Tensor2") -> "Tensor2":
        out = Sums(self.algebra.table)
        for k, p in (*self.coeffs.items(), *other.coeffs.items()):
            out.add(k, p)
        return Tensor2(self.algebra, out.close())

    def __neg__(self) -> "Tensor2":
        return Tensor2(self.algebra, {k: -p for k, p in self.coeffs.items()})

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        return self + (-other)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Tensor2) and self.algebra.basis == other.algebra.basis
                and self.coeffs == other.coeffs)


class Tensor3(Record):
    def __init__(self, algebra: ConformalAlgebra, coeffs: dict[tuple[int, int, int], Poly]) -> None:
        self.algebra = algebra
        self.coeffs = {k: p for k, p in coeffs.items() if not p.is_zero}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


def flip(r: Tensor2) -> Tensor2:
    """r^21: swap the tensor factors (basis indices and d1 <-> d2)."""
    table = r.algebra.table
    swap = Substitution(table, {"d1": Poly.var(table, "d2"), "d2": Poly.var(table, "d1")})
    return Tensor2(r.algebra, {(j, i): swap(p) for (i, j), p in r.coeffs.items()})


def _entries(A: ConformalAlgebra, r: Tensor2) -> tuple[list, list]:
    """r's entries as (row, column, f) and as (column, row, f) triples, for
    ``_view``, after checking them against the rank of A."""
    n = A.rank
    rows = [(p, q, f) for (p, q), f in r.coeffs.items()]
    if any(not (0 <= p < n and 0 <= q < n) for p, q, _ in rows):
        raise PreconditionError("tensor indices exceed the algebra rank")
    return rows, [(q, p, f) for p, q, f in rows]


def cybe_residual(A: ConformalAlgebra, r: Tensor2) -> Tensor3:
    """Left side of the conformal classical Yang-Baxter equation, reduced.

    Three terms, each a bracket of two tensor factors placed in one slot:
    bracket of the two first factors in slot 1 (argument := d2), bracket of
    the second first factor against the first second factor in slot 2
    (argument := d3), bracket of the two second factors in slot 3
    (argument := d2); r solves the equation iff the result is zero.
    """
    if A.kind != LIE:
        raise PreconditionError("conformal CYBE lives in a Lie-kind algebra")
    t, P = A.table, A.products
    d1, d2 = Poly.var(t, "d1"), Poly.var(t, "d2")
    d3 = -d1 - d2
    rows, cols = _entries(A, r)
    rows_a = _view(rows, {"d1": -d2})                      # f(-d2, d2)
    rows_b = _view(rows, {"d1": d1 + d2, "d2": d3})        # f(d1+d2, d3)
    cols_c = _view(cols, {"d2": -d1})                      # f(d1, -d1)
    cols_e = _view(cols, {"d1": d2, "d2": -d2})            # f(d2, -d2)
    out = Sums(t)
    # [a_i mu a_j] ox b_i ox b_j, mu := d2
    _contract(out, P, {"d": d1, "x": d2}, lambda i, j, k: (k, i, j), rows_a, rows_b)
    # - a_i ox [a_j mu b_i] ox b_j, mu := d3
    _contract(out, P, {"d": d2, "x": d3}, lambda j, i, k: (i, k, j), rows_b, cols_c, sign=-1)
    # - a_i ox a_j ox [b_j mu b_i], mu := d2
    _contract(out, P, {"d": d3, "x": d2}, lambda j, i, k: (i, j, k), cols_e, cols_c, sign=-1)
    return Tensor3(A, out.close())


def s_residual(A: ConformalAlgebra, r: Tensor2) -> Tensor3:
    """Left side of the conformal S-equation, reduced.

    Writing r = sum r_i ox l_i: product l_j.r_i in slot 1 (argument := d2),
    minus the same product in slot 2 (argument := d1), minus the commutator
    bracket of l_i and l_j in slot 3 (argument := d1); the bracket is taken
    in the sub-adjacent Lie algebra.
    """
    if A.kind != LEFT_SYMMETRIC:
        raise PreconditionError("the conformal S-equation lives in a left-symmetric algebra")
    t, P = A.table, A.products
    Q = sub_adjacent(A, checked=False).products
    d1, d2 = Poly.var(t, "d1"), Poly.var(t, "d2")
    d3 = -d1 - d2
    rows, cols = _entries(A, r)
    rows_b = _view(rows, {"d1": d1 + d2, "d2": d3})        # f(d1+d2, d3)
    cols_c = _view(cols, {"d2": -d1})                      # f(d1, -d1)
    cols_e = _view(cols, {"d1": d2, "d2": -d2})            # f(d2, -d2)
    out = Sums(t)
    # (l_j mu r_i) ox r_j ox l_i, mu := d2
    _contract(out, P, {"d": d1, "x": d2}, lambda j, i, k: (k, j, i), cols_e, rows_b)
    # - r_j ox (l_j mu r_i) ox l_i, mu := d1
    _contract(out, P, {"d": d2, "x": d1}, lambda j, i, k: (j, k, i), cols_c, rows_b, sign=-1)
    # - r_i ox r_j ox [l_i mu l_j], mu := d1
    _contract(out, Q, {"d": d3, "x": d1}, lambda i, j, k: (i, j, k), cols_c, cols_e, sign=-1)
    return Tensor3(A, out.close())


def t_from_r(A: ConformalAlgebra, r: Tensor2) -> ConformalLinearMap:
    """The conformal linear map from the dual determined by a tensor.

    T_x(e_i*) = sum_k f_ik(-x-d, d) e_k; the source is the dual basis of A
    and the target is A itself.
    """
    table = A.table
    D = Poly.var(table, "d")
    at = Substitution(table, {"d1": -Poly.var(table, "x") - D, "d2": D})
    n = A.rank
    zero = Poly.zero(table)
    matrix = [[zero] * n for _ in range(n)]
    for i, k, f in _entries(A, r)[0]:
        matrix[i][k] = at(f)
    return ConformalLinearMap(table, matrix)


def r_from_t(T: ConformalLinearMap, rep: Representation, mode: str = "skew") -> Tensor2:
    """Tensor over the semidirect sum with the dual module, read off a map.

    Entry on (e_j, v_i*) is a_ij with x := -d1-d2 and d := d1.  Mode skew
    subtracts the flip, sym adds it, raw returns the bare tensor.  The module
    axioms of `rep` are checked first.
    """
    _require(check_rep(rep), "module axioms fail")
    if mode not in ("skew", "sym", "raw"):
        raise PreconditionError(f"unknown mode {mode!r}")
    A = rep.algebra
    table = A.table
    n = A.rank
    entries = _checked_entries(T, rep.mrank, n, "the representation")
    S = semidirect(A, dual_rep(rep), checked=False)
    d1 = Poly.var(table, "d1")
    at = Substitution(table, {"x": -d1 - Poly.var(table, "d2"), "d": d1})
    rT = Tensor2(S, {(j, n + i): at(a) for i, j, a in entries})
    if mode == "raw":
        return rT
    return rT - flip(rT) if mode == "skew" else rT + flip(rT)


def cobracket_from_r(A: ConformalAlgebra, r: Tensor2, a: Vector) -> Tensor2:
    """Action of an element on both tensor slots, then argument := -d1-d2."""
    if len(a) != A.rank:
        raise PreconditionError(f"element has {len(a)} components, the algebra rank is {A.rank}")
    t, P = A.table, A.products
    d1, d2 = Poly.var(t, "d1"), Poly.var(t, "d2")
    lam = -d1 - d2
    shift = Substitution(t, {"d": -lam})
    element = {p: [(p, shift(h))] for p, h in enumerate(a) if not h.is_zero}
    reach = {q for p, q in P if p in element}  # the only rows and columns _contract looks up
    rows, cols = ([e for e in view if e[0] in reach] for view in _entries(A, r))
    out = Sums(t)
    _contract(out, P, {"d": d1, "x": lam}, lambda _, i, k: (k, i), element,
              _view(rows, {"d1": -d2}))
    _contract(out, P, {"d": d2, "x": lam}, lambda _, i, k: (i, k), element,
              _view(cols, {"d2": -d1}))
    return Tensor2(A, out.close())


def tensor3_report(name: str, t: Tensor3) -> Report:
    """One check whose residuals are the nonzero entries of a cube element."""
    report = Report()
    report.sweep(name, (t.algebra.basis,) * 3, t.coeffs)
    return report


def _canonical_tensor(S: ConformalAlgebra, n: int, skew: bool) -> Tensor2:
    one = Poly.const(S.table, 1)
    coeffs: dict[tuple[int, int], Poly] = {}
    for i in range(n):
        coeffs[(i, n + i)] = one
        coeffs[(n + i, i)] = -one if skew else one
    return Tensor2(S, coeffs)


def canonical_skew_tensor(S: ConformalAlgebra, n: int) -> Tensor2:
    """sum_i (e_i ox e_i* - e_i* ox e_i) over a rank-2n semidirect sum."""
    return _canonical_tensor(S, n, skew=True)


def canonical_sym_tensor(S: ConformalAlgebra, n: int) -> Tensor2:
    """sum_i (e_i ox e_i* + e_i* ox e_i) over a rank-2n semidirect sum."""
    return _canonical_tensor(S, n, skew=False)
