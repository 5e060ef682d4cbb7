"""Finite conformal algebras presented by structure constants.

An algebra of rank n is a free module over the polynomial ring of the
derivation ``d`` with basis e_1..e_n and a bilinear lambda-product given on
basis pairs by polynomials P_ijk(d, x), meaning

    (e_i)_x (e_j) = sum_k P_ijk(d, x) e_k,

where d acts on the output basis element and x is the bracket argument.
Products of general elements follow from two extension rules: a power of d
on the first argument becomes (-x)^m, on the second argument (x + d)^m.
``apply_bilinear`` is the one entry for general elements: it evaluates the
product a_lam b of an algebra (its own table), the action of an algebra
element on a module element (a module table, out rank the module's) and a
form's value (a form's ``products``, ``out=0``), at shifted arguments like
-x-d too, as one contraction of the table with the two elements viewed at
their shifted derivations.  Its dense reference, which first expands at a
scratch variable of a table extended for it, lives with the tests.

Every identity check evaluates all its basis tuples at once through one
table contraction, ``_contract``: a sum over the nonzero table entries
(p, q) -> l and the entries of three views, one per factor, that holds each
instance's residual.  A nested product of basis elements is one contraction
of the outer table with the inner table viewed by its targets (``_nested``),
so the cost follows the number of nonzero entries, not the n^5 slot visits
of calling ``apply_bilinear`` per instance; ``Report.sweep`` then visits only
the nonzero sums, keyed (instance..., target), not every basis tuple.

Each law is expanded once: ``_law`` for Jacobi and left-symmetry, whose
tables are arguments (algebra, module and 2-cocycle alike), and
``_commutator`` for skew-symmetry and the sub-adjacent bracket.
"""

from __future__ import annotations

from .poly import Poly, Record, Substitution, Sums, VarTable
from .report import Report

LIE = "lie"
LEFT_SYMMETRIC = "left_symmetric"

Vector = tuple[Poly, ...]
ProductTable = dict[tuple[int, int], dict[int, Poly]]


class AlgebraError(Exception):
    pass


class PreconditionError(AlgebraError):
    pass


def _require(report: Report, message: str) -> None:
    """PreconditionError unless `report` passes: `message`, then the report's
    first failing check and the label of its first failing instance."""
    if not report.ok:
        check = next(c for c in report.checks if not c.ok)
        raise PreconditionError(f"{message}: {check.name} at {check.residuals[0][0]}")


def clean_table(products: ProductTable) -> ProductTable:
    """The table without its zero entries, and with equal entries one object:
    each entry equal to an earlier one, in variable table and terms, is
    replaced by it, so the memos keyed by object (``Substitution``,
    ``_contract``) treat copies of a value as the value."""
    out: ProductTable = {}
    first: dict[Poly, Poly] = {}  # Poly hashes and compares by (table, terms)
    for pair, targets in products.items():
        kept = {k: first.setdefault(p, p) for k, p in targets.items() if not p.is_zero}
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

    def basis_vector(self, i: int) -> Vector:
        return unit_vector(self.table, self.rank, i)


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
    by default, or ``0`` for a scalar-valued form.  One ``_contract`` of the
    table at x := lam (and d := out) with the two elements viewed at
    d := -lam and d := lam + out; the substitutions are simultaneous, so lam
    may hold d.  A product of A passes A's table and rank, a module action a
    module table and the module's rank, a form its ``products``, 1 and ``out=0``.
    """
    dout = Poly.var(table, out) if isinstance(out, str) else Poly.const(table, out)
    sums = Sums(table)
    _contract(sums, products, {"x": lam} if out == "d" else {"d": dout, "x": lam},
              lambda i, j, k: k, _view(((i, 0, f) for i, f in enumerate(a)), {"d": -lam}),
              _view(((j, 0, g) for j, g in enumerate(b)), {"d": lam + dout}))
    acc, zero = sums.close(), Poly.zero(table)
    return tuple(acc.get(k, zero) for k in range(out_rank))


def _contract(sums: Sums, products: ProductTable, at: dict, place, left: dict | None = None,
              right: dict | None = None, out: dict | None = None, sign: int = 1) -> None:
    """Add sign * a * b * P_pql|at * c at place(i, j, m) for every nonzero table
    entry (p, q) -> l, every (i, a) in left[p], every (j, b) in right[q] and
    every (m, c) in out[l].

    A view maps an index to [(index, factor)]; a missing view is the identity,
    which yields (p, None) for p, and a None factor is 1.  Within a table
    entry, a * b and, when there is an out view, a * b * P are memoised by the
    ids of their factors, which views share where a map's entries are one
    object; ``Sums.add`` multiplies in the last factor.
    Without an out view, a pair (a * b, P) that recurs anywhere in the
    contraction, as equal table entries (one object after ``clean_table``)
    and shared view entries make it, is multiplied once: its first use
    multiplies into the sum in place, its second forms a * b * P, and every
    later use adds that product.
    """
    memo: dict = {}
    pairs: dict = {}  # (id(ab), id(P)) -> (ab, P), then (ab, P, P * ab), for the whole contraction
    at = Substitution(sums.table, at)

    def times(f, g):  # the memo holds the factors, so their ids stay theirs
        key = id(f), id(g)
        if key not in memo:
            memo[key] = f * g, f, g
        return memo[key][0]

    for (p, q), targets in products.items():
        fs = [(p, None)] if left is None else left.get(p)
        gs = [(q, None)] if right is None else right.get(q)
        if not fs or not gs:
            continue
        at_targets = [(l, at(P)) for l, P in targets.items()]
        memo.clear()
        for i, a in fs:
            for j, b in gs:
                ab = b if a is None else a if b is None else times(a, b)
                for l, P in at_targets:
                    if out is not None:
                        if cs := out.get(l):
                            abP = P if ab is None else times(ab, P)
                            for m, c in cs:
                                sums.add(place(i, j, m), abP, c, sign)
                    elif ab is None:
                        sums.add(place(i, j, l), P, None, sign)
                    elif (seen := pairs.get(key := (id(ab), id(P)))) is None:
                        pairs[key] = ab, P
                        sums.add(place(i, j, l), P, ab, sign)
                    else:
                        if len(seen) == 2:
                            pairs[key] = seen = (ab, P, P * ab)
                        sums.add(place(i, j, l), seen[2], None, sign)


def _view(entries, at: dict | None = None) -> dict:
    """{key: [(index, f|at)]} of (key, index, f) triples, a view for
    ``_contract``; an f|at that is zero is left out, and an f that several
    entries share is substituted once, into one shared object, as
    ``Substitution`` memoises by object."""
    out: dict = {}
    sub = None
    for key, index, f in entries:
        if at:
            sub = sub or Substitution(f.table, at)
            f = sub(f)
        if not f.is_zero:
            out.setdefault(key, []).append((index, f))
    return out


def _nested(sums: Sums, inner: ProductTable, outer: ProductTable, lam_in: Poly, lam_out: Poly,
            *, right: bool, order: tuple[int, int, int] = (0, 1, 2), scalar: bool = False,
            sign: int = 1) -> None:
    """Add sign * the nested products of basis elements at (i, j, k, m):

    right:  e_i _lam_out (e_j _lam_in v_k)
            = sum_l inner_jkl(d, lam_in)|_{d -> lam_out + d} outer_ilm(d, lam_out)
    left:   (e_i _lam_in e_j) _lam_out v_k
            = sum_l inner_ijl(d, lam_in)|_{d -> -lam_out} outer_lkm(d, lam_out)

    as one contraction of the outer table with the inner table viewed by its
    targets l; ``order`` permutes (i, j, k) in the key, so (1, 0, 2) puts the
    product at (j, i, k, m).  The shift d -> s acts on the whole inner product,
    lam_in included, so the view is the one simultaneous substitution
    {d: s, x: lam_in|_{d -> s}}, which holds when lam_in contains d.  With
    ``scalar`` the outer table is a form, whose output carries no d, so the
    right shift is d -> lam_out.
    """
    d_out = Poly.zero(lam_out.table) if scalar else Poly.var(lam_out.table, "d")
    s = lam_out + d_out if right else -lam_out
    view = _view(((l, (p, q), P) for (p, q), targets in inner.items() for l, P in targets.items()),
                 {"d": s, "x": Substitution(sums.table, {"d": s})(lam_in)})

    i, j, k = order

    def place(a, b, m):  # the inner pair is b on the right, a on the left
        ijk = (a, *b) if right else (*a, b)
        return ijk[i], ijk[j], ijk[k], m

    _contract(sums, outer, {"x": lam_out}, place, None if right else view, view if right else None,
              sign=sign)


def _nest(sums: dict) -> dict:
    """Sums keyed (i, j, k) as the product table {(i, j): {k: value}}."""
    out: dict = {}
    for key, value in sums.items():
        out.setdefault(key[:-1], {})[key[-1]] = value
    return out


def _law(t: VarTable, kind: str, P: ProductTable, inner: ProductTable, outer: ProductTable,
         scalar: bool = False, sign: int = 1) -> dict:
    """sign * the Jacobi identity (Lie kind) or left-symmetry on basis triples,
    closed sums keyed (i, j, k, m).  a_x b and b_y a come from P, b_y c and
    a_x c from ``inner``, each outer product from ``outer``, a form when ``scalar``:

    Lie:  a_x (b_y c) - (a_x b)_{x+y} c - b_y (a_x c)
    LSC:  (a_x b)_{x+y} c - a_x (b_y c) - (b_y a)_{x+y} c + b_y (a_x c)
    """
    X, Y = Poly.var(t, "x"), Poly.var(t, "y")
    s = sign if kind == LIE else -sign  # LSC is minus Jacobi's three terms, minus (b_y a) c
    sums = Sums(t)
    _nested(sums, inner, outer, Y, X, right=True, scalar=scalar, sign=s)
    _nested(sums, P, outer, X, X + Y, right=False, sign=-s)
    _nested(sums, inner, outer, X, Y, right=True, order=(1, 0, 2), scalar=scalar, sign=-s)
    if kind != LIE:
        _nested(sums, P, outer, Y, X + Y, right=False, order=(1, 0, 2), sign=s)
    return sums.close()


def _commutator(t: VarTable, P: ProductTable, sign: int) -> dict:
    """P_ijk(d, x) + sign * P_jik(d, -x-d), closed sums keyed (i, j, k)."""
    sums = Sums(t)
    _contract(sums, P, {}, lambda i, j, k: (i, j, k))
    _contract(sums, P, {"x": -Poly.var(t, "x") - Poly.var(t, "d")}, lambda i, j, k: (j, i, k),
              sign=sign)
    return sums.close()


def check_axioms(A: ConformalAlgebra) -> Report:
    """Defining identities on all basis pairs/triples, as residuals.

    Lie kind: skew-symmetry and the Jacobi identity.  Left-symmetric kind:
    symmetry of the associator in the first two arguments.
    """
    t, P = A.table, A.products
    report = Report()
    if A.kind == LIE:
        report.sweep("skew_symmetry", (A.basis,) * 2, _commutator(t, P, 1), A.basis)
    name = "jacobi" if A.kind == LIE else "left_symmetry"
    report.sweep(name, (A.basis,) * 3, _law(t, A.kind, P, P, P), A.basis)
    return report


def sub_adjacent(A: ConformalAlgebra, checked: bool = True) -> ConformalAlgebra:
    """Commutator Lie algebra of a left-symmetric algebra.

    [a_x b] = a_x b - b_{-x-d} a, given on basis pairs by
    Q_ijk(d, x) = P_ijk(d, x) - P_jik(d, -x-d).
    """
    if A.kind != LEFT_SYMMETRIC:
        raise PreconditionError("sub_adjacent expects a left-symmetric algebra")
    if checked:
        _require(check_axioms(A), "input fails left-symmetry")
    return ConformalAlgebra(LIE, A.basis, A.table, _nest(_commutator(A.table, A.products, -1)))
