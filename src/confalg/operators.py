"""Operator identities: Rota-Baxter and related maps, cocycles, bilinear forms.

Everything here is an exact residual computation: an operator satisfies an
identity iff the listed residual polynomials are all zero, and identities
checked with free parameters left symbolic hold for every value at once.
Every identity and every table ``induced_lsc`` builds is a few
``algebra._contract`` sums over nonzero table entries, with a map's entries
viewed by row or column; ``_rb_sums`` builds the Rota-Baxter and O-operator
identities and the rb and o_product tables.  A form's value on general
elements is ``algebra.apply_bilinear`` of its ``products`` with ``out=0``.
The constraint generator turns the Rota-Baxter identity for an undetermined
polynomial operator into a list of coefficient Polys, whose ``packed`` dicts
are the rows, solved (when possible) by a deliberately small elimination
loop that substitutes one unknown at a time; it forms each coefficient
polynomial once per table entry and pair of degrees, not via ``_rb_sums``,
and relabels it to every pair of unknowns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import or_
from typing import TYPE_CHECKING

from .algebra import (
    LEFT_SYMMETRIC,
    LIE,
    AlgebraError,
    ConformalAlgebra,
    PreconditionError,
    ProductTable,
    _commutator,
    _contract,
    _law,
    _nest,
    _nested,
    _require,
    _view,
)
from .linmap import (ConformalLinearMap, ModuleMap, NotInvertible, _checked_entries, _matmul,
                     invert_module_map)
from .poly import (MAX_PARSE_DEGREE, MAX_PARSE_TERM_PRODUCTS, Poly, Record, Substitution, Sums,
                   VarTable, VarTableMismatch, _key_degree, _make, _normal, _power, _shown,
                   _slot, _unit, _widen)
from .report import Report

if TYPE_CHECKING:
    from .reps import Representation
    from .tensor import Tensor2


# -- O-operators and Rota-Baxter operators ----------------------------------

def check_o_operator(T: ModuleMap, rep: Representation, ker_mode: bool = False) -> Report:
    """O-operator identity on all module pairs; with ker_mode, only up to ker(rho).

    The residual on (u, v) is [T(u)_x T(v)] - T( rho(T(u))_x v - rho(T(v))_{-x-d} u ),
    the weight-0 Rota-Baxter residual at (n+u, n+v) of T^(a + u) = T(u) on the
    semidirect sum A x_rho M (Bai 2007), whose M x A block is rho at x := -x-d.
    In ker_mode the residual element is itself pushed through the
    representation at the argument y, which neither the residuals nor rho
    hold, and must act as zero.
    """
    from .reps import semidirect
    A = rep.algebra
    if A.kind != LIE:
        raise PreconditionError("O-operators are defined against a Lie-kind representation")
    entries = _checked_entries(T, rep.mrank, A.rank, "the representation")
    t, n, S = A.table, A.rank, semidirect(A, rep, checked=False)
    sums = {(u - n, v - n, m): R for (u, v, m), R in _rb_sums(
        t, S.products, [(n + u, p, f) for u, p, f in entries], 0).close().items()}
    report = Report()
    if not ker_mode:
        report.sweep("o_operator", (rep.mbasis,) * 2, sums, A.basis)
        return report
    # rho(R_uv)_y v_k = sum R_uvl(-y, x) rho_lkn(d, y) v_n
    Y = Poly.var(t, "y")
    pushed = Sums(t)
    _contract(pushed, rep.rho, {"x": Y}, lambda uv, k, n: (*uv, k, n),
              _view(((l, (u, v), R) for (u, v, l), R in sums.items()), {"d": -Y}))
    report.sweep("o_operator_mod_kernel", (rep.mbasis,) * 3, pushed.close(), rep.mbasis,
                 "({},{});{}")
    return report


def _rb_sums(t: VarTable, P: ProductTable, entries: list[tuple], weight=None) -> Sums:
    """The weight-alpha Rota-Baxter residual of a map T as four sums over the
    nonzero table entries (p, q) -> l and the concrete map's entries (i, p, T_ip(d)):

        sum T_ip(-x) T_jq(x+d) P_pqm - sum T_jq(x+d) P_iql T_lm(d)
        - sum T_ip(-x) P_pjl T_lm(d) - alpha sum P_ijl T_lm(d);

    with no weight, the product [T(e_i)_x e_j] = sum T_ip(-x) P_pjm alone.  The
    accumulator returned is keyed (i, j, m).  Each sum is one ``_contract``,
    with each map entry substituted once at each argument; a zero weight skips
    the last sum.
    """
    X = Poly.var(t, "x")
    cols = [(p, i, f) for i, p, f in entries]
    at_neg, at_shift = _view(cols, {"d": -X}), _view(cols, {"d": X + Poly.var(t, "d")})
    rows = _view(entries)
    ident = {k: [(k, None)] for pair, targets in P.items() for k in (*pair, *targets)}
    views = [(at_neg, ident, ident, 1)]
    if weight is not None:
        alpha = weight if isinstance(weight, Poly) else Poly.const(t, weight)
        views = [(at_neg, at_shift, ident, 1), (ident, at_shift, rows, -1),
                 (at_neg, ident, rows, -1)]
        if not alpha.is_zero:
            views.append(({k: [(k, alpha)] for k in ident}, ident, rows, -1))
    acc = Sums(t)
    for left, right, out, sign in views:
        _contract(acc, P, {}, lambda i, j, m: (i, j, m), left, right, out, sign)
    return acc


def rota_baxter_residuals(A: ConformalAlgebra, T: ModuleMap,
                          weight: Poly | Fraction | int) -> dict[tuple[int, int, int], Poly]:
    """The nonzero residuals of the weight-alpha Rota-Baxter identity,
    {(i, j, m): residual} over basis pairs and components:

    [T(a)_x T(b)] - T([a_x T(b)]) - T([T(a)_x b]) - alpha T([a_x b]).
    """
    entries = _checked_entries(T, A.rank, A.rank, "the algebra")
    return _rb_sums(A.table, A.products, entries, weight).close()


def check_rota_baxter(A: ConformalAlgebra, T: ModuleMap,
                      weight: Poly | Fraction | int = 0) -> Report:
    report = Report()
    report.sweep("rota_baxter", (A.basis,) * 2, rota_baxter_residuals(A, T, weight), A.basis)
    return report


# -- induced left-symmetric structures ---------------------------------------

def induced_lsc(T: ModuleMap, rep: Representation | None = None,
                mode: str = "rb", algebra: ConformalAlgebra | None = None) -> ConformalAlgebra:
    """Left-symmetric algebra induced by an operator.

    o_product:  u *_x v = rho(T(u))_x v on the module (T an O-operator).
    bijective:  a  *_x b = T(rho(a)_x T^-1(b)) on the algebra (T invertible
                O-operator).
    rb:         a *_x b = [T(a)_x b] on the algebra (T Rota-Baxter, weight 0,
                pass ``algebra``).
    The rb and o_product tables are the weight-free sums of ``_rb_sums``.
    """
    if mode == "rb":
        if algebra is None:
            raise PreconditionError("rb mode needs the ambient Lie algebra")
        _require(check_rota_baxter(algebra, T, 0), "map is not Rota-Baxter of weight 0")
        A, table, basis, onto = algebra, algebra.products, algebra.basis, "the algebra"
    else:
        if rep is None:
            raise PreconditionError(f"mode {mode!r} needs a representation")
        if mode not in ("o_product", "bijective"):
            raise PreconditionError(f"unknown mode {mode!r}")
        _require(check_o_operator(T, rep), "map is not an O-operator")
        A, table, basis, onto = rep.algebra, rep.rho, rep.mbasis, "the representation"
    t, entries = A.table, _checked_entries(T, len(basis), A.rank, onto)
    if mode == "bijective":
        # sum T^-1_jk(x+d) rho_ikn(d, x) T_nm(d)
        inverse = _checked_entries(invert_module_map(T), A.rank, len(basis), onto)
        shift = {"d": Poly.var(t, "x") + Poly.var(t, "d")}
        sums, basis = Sums(t), A.basis
        _contract(sums, table, {}, lambda i, j, m: (i, j, m), None,
                  _view(((k, j, f) for j, k, f in inverse), shift), _view(entries))
    else:
        sums = _rb_sums(t, table, entries)
    return ConformalAlgebra(LEFT_SYMMETRIC, basis, t, _nest(sums.close()))


# -- bilinear forms and 2-cocycles ----------------------------------------------

class BilinearForm(Record):
    """Conformal bilinear form: values B_ij(x) on basis pairs.

    Conformal bilinearity is definitional through the extension rule
    form(d^s e_i, d^t e_j) at x = (-x)^s x^t B_ij(x), so only the basis
    matrix is stored; its entries may use only x and parameters.  ``products``
    holds the nonzero entries as a table with one output, the form ``F`` of
    ``cocycle_check``'s chain sums; ``apply_bilinear`` of it with ``out=0``
    evaluates the form on general elements.  A 2-cocycle form carries its
    ``kind`` ("lie" or "lsc"), which fixes its symmetry law.
    """

    _uncompared = ("products",)

    def __init__(self, table: VarTable, basis: tuple[str, ...], matrix: list[list[Poly]],
                 kind: str | None = None) -> None:
        self.table, self.basis, self.matrix, self.kind = table, basis, matrix, kind
        allowed = set(table.params) | {"x"}
        self.products: ProductTable = {}
        for i, row in enumerate(matrix):
            for j, p in enumerate(row):
                if p.packed:
                    if extra := p.variables() - allowed:
                        raise PreconditionError(
                            f"form entries may use only x and parameters, got {sorted(extra)}")
                    self.products[(i, j)] = {0: p}

    def induced_map(self) -> ModuleMap:
        """The map into the dual, a matrix over d: row i is B_ij(-d)."""
        at = Substitution(self.table, {"x": -Poly.var(self.table, "d")})
        return ModuleMap(self.table, [list(map(at, row)) for row in self.matrix])


def cocycle_from_r(A: ConformalAlgebra, r: Tensor2, kind: str) -> BilinearForm:
    """The form a, b -> pairing of T0^-1(a) with b, for non-degenerate r.

    Requires r skew (lie) or symmetric (lsc); raises NotInvertible when the
    associated module map is degenerate.
    """
    from .tensor import flip, t_from_r
    if kind not in ("lie", "lsc"):
        raise PreconditionError(f"unknown cocycle kind {kind!r}")
    if kind == "lie" and not (r + flip(r)).is_zero:
        raise PreconditionError("a lie-kind cocycle needs a skew-symmetric tensor")
    if kind == "lsc" and not (r - flip(r)).is_zero:
        raise PreconditionError("an lsc-kind cocycle needs a symmetric tensor")
    T0 = t_from_r(A, r).at_zero()
    inv = invert_module_map(T0)
    at = Substitution(A.table, {"d": -Poly.var(A.table, "x")})
    matrix = [[at(inv.matrix[i][j]) for j in range(A.rank)] for i in range(A.rank)]
    return BilinearForm(A.table, A.basis, matrix, kind)


def cocycle_check(A: ConformalAlgebra, form: BilinearForm) -> Report:
    """Cocycle identity and the symmetry law, on all basis pairs/triples.

    Symmetry is ``_commutator`` of the form, a scalar table: B_ij(x) + B_ji(-x)
    (lie) or B_ij(x) - B_ji(-x) (lsc).  The cocycle identity is the algebra's
    law from ``_law`` with the form as outer table, e.g. form(e_i, e_j _y e_k)
    at x = sum_l B_il(x) P_jkl(x, y) and form(e_i _x e_j, e_k) at x+y =
    sum_l P_ijl(-x-y, x) B_lk(x+y).  A form without a kind is checked as a
    cocycle of its algebra's kind.
    """
    kind = "lie" if A.kind == LIE else "lsc"
    if form.kind not in (None, kind):
        raise PreconditionError(f"form kind {form.kind!r} does not match algebra kind")
    _check_size(A, form)
    symmetry = _commutator(A.table, form.products, 1 if kind == "lie" else -1, scalar=True)
    residuals = _law(A.table, A.kind, A.products, A.products, form.products, scalar=True)
    report = Report()
    report.sweep("symmetry", (A.basis,) * 2, {k[:-1]: p for k, p in symmetry.items()})
    report.sweep("cocycle_identity", (A.basis,) * 3, {k[:-1]: p for k, p in residuals.items()})
    return report


def _check_size(A: ConformalAlgebra, form: BilinearForm) -> None:
    n = A.rank
    if len(form.basis) != n or len(form.matrix) != n or any(len(row) != n for row in form.matrix):
        raise PreconditionError(f"form size does not match the algebra rank {n}")


# -- Rota-Baxter constraint systems -------------------------------------------

# the largest rank^3 (D + 1)^2, the order of its equation count, rb_constraints builds
MAX_RB_SIZE = 5000


class PolySystem(Record):
    """Fully expanded polynomial equations in the unknown parameters: a list of
    Polys over ``table``, whose ``packed`` dicts are the rows the solver reads."""

    def __init__(self, table: VarTable, unknowns: tuple[str, ...],
                 equations: list[Poly] | None = None) -> None:
        self.table, self.unknowns, self.equations = table, unknowns, list(equations or ())
        if any(eq.table != table for eq in self.equations):
            raise VarTableMismatch("equation over another variable table")


def _substitution(v: int, value: dict, spend):
    """row -> row with the unknown whose key is ``v`` replaced by the row
    ``value``; a row that does not hold v is returned as it is.  Each power of
    ``value`` is formed once, for all rows, by one row product on the power
    below.  A row product adds c*m*row to an output, each pair of keys added.
    Each first hands ``spend`` the number of term products it is about to
    take, and a product whose monomial passes ``poly.MAX_PARSE_DEGREE`` is
    refused."""
    slot, powers = _slot(v), [{0: 1}, value]

    def product(out: dict, c, m: int, row: dict) -> None:
        spend(len(row))
        for m2, c2 in row.items():
            if (degree := _key_degree(key := m + m2)) > MAX_PARSE_DEGREE:
                raise PreconditionError(f"elimination reaches total degree {degree}, "
                                        f"over the cap of {MAX_PARSE_DEGREE}")
            out[key] = out.get(key, 0) + c * c2

    def apply(row: dict) -> dict:
        out = {m: c for m, c in row.items() if not m & slot}
        if len(out) == len(row):
            return row
        if not value:
            return out
        for m, c in row.items():
            if e := _power(m, v):
                while len(powers) <= e:
                    power = {}
                    for m2, c2 in powers[-1].items():
                        product(power, c2, m2, value)
                    powers.append(_normal(power))
                product(out, c, m - e * v, powers[e])
        return _normal(out)

    return apply


def rb_constraints(A: ConformalAlgebra, degree_bound: int,
                   weight: Poly | Fraction | int = 0) -> tuple[PolySystem, ModuleMap]:
    """Equations on the coefficients of an undetermined Rota-Baxter operator.

    The candidate is T(e_i) = sum_{j, k <= degree_bound} t_i_j_k d^k e_j with
    one unknown per coefficient; each (d, x)-monomial of each residual
    contributes one equation.  Returns the system and the generic map.

    Each unknown enters as d^k, so for a table entry (p, q) -> l : P and
    degrees (k, k') the polynomials (-x)^k (x+d)^k' P, -(x+d)^k P d^k',
    -(-x)^k P d^k' and -alpha P d^k' are formed once and summed into the
    rows of every (f, g) they reach, as the comments below say: a term's
    parameters' key over the extended table plus the keys of the label's
    unknowns.  The equations come out in (i, j, m, d-exponent, x-exponent)
    order; of two equal up to sign, only the first is kept.
    """
    if degree_bound < 0:
        raise PreconditionError(f"degree bound {degree_bound} is negative")
    n, k1 = A.rank, degree_bound + 1
    if (size := n ** 3 * k1 ** 2) > MAX_RB_SIZE:
        raise PreconditionError(f"rank^3 (degree + 1)^2 = {_shown(size)} is over the cap "
                                f"of {MAX_RB_SIZE}")
    unknowns = tuple(f"t{i}_{j}_{k}" for i in range(n) for j in range(n) for k in range(k1))
    for u in unknowns:
        if u in A.table:
            raise PreconditionError(f"unknown name {u} collides with an existing variable")
    t, ext = A.table, A.table.extended(unknowns)
    X, XD = Poly.var(t, "x"), Poly.var(t, "x") + Poly.var(t, "d")
    neg, shift = [(-X) ** k for k in range(k1)], [XD ** k for k in range(k1)]
    alpha = weight if isinstance(weight, Poly) else Poly.const(t, weight)
    base = len(t.names)  # unknowns follow t's names
    N = range(n)  # keys[p][k][i] is the key of t_i_p_k
    keys = [[[_unit(ext, base + (i * n + p) * k1 + k) for i in N] for k in range(k1)] for p in N]
    groups: dict[tuple, dict] = {}  # (i, j, m) -> {(d-exponent, x-exponent): equation row}

    memo: dict[int, tuple] = {}  # a key over t -> its (d, x) exponents, its parameters over ext

    def split(poly: Poly) -> list:  # [((d-exponent, x-exponent), parameters' key over ext, c)]
        for e in poly.packed.keys() - memo.keys():
            (dx, rest), = _make(t, {e: 1}).split(("d", "x")).items()
            memo[e] = dx, _widen(*rest.packed, t, ext)
        return [(*memo[e], c) for e, c in poly.packed.items()]

    def scatter(terms: list, labels, sign: int = 1, dshift: int = 0) -> None:
        """Add sign * d^dshift times the split ``terms`` at each (i, j, m) of ``labels``."""
        terms = [((d + dshift, x), params, sign * c) for (d, x), params, c in terms]
        for at, tag in labels:
            group = groups.setdefault(at, {})
            for dx, params, c in terms:
                row = group.setdefault(dx, {})
                m = params + tag if params else tag  # keys without parameters are shared
                row[m] = row.get(m, 0) + c

    for (p, q), targets in A.products.items():
        for l, P in targets.items():
            for k in range(k1):
                left = neg[k] * P
                left_split, right_split = split(left), split(shift[k] * P)
                for k2 in range(k1):
                    lg = [keys[g][k2][l] for g in N]  # t_l_g_k2 for each g
                    # T_fp(-x) T_gq(x+d) P_pql at (f, g, l)
                    scatter(split(left * shift[k2]), (((f, g, l), a + b)
                            for f, a in zip(N, keys[p][k]) for g, b in zip(N, keys[q][k2])))
                    # -T_fq(x+d) P_pql T_lg(d) at (p, f, g)
                    scatter(right_split, (((p, f, g), a + b)
                            for f, a in zip(N, keys[q][k]) for g, b in zip(N, lg)), -1, k2)
                    # -T_fp(-x) P_pql T_lg(d) at (f, q, g)
                    scatter(left_split, (((f, q, g), a + b)
                            for f, a in zip(N, keys[p][k]) for g, b in zip(N, lg)), -1, k2)
            if not alpha.is_zero:  # -alpha P_pql T_lg(d) at (p, q, g)
                scaled = split(alpha * P)
                for k2 in range(k1):
                    scatter(scaled, (((p, q, g), keys[g][k2][l]) for g in N), -1, k2)
    system, seen = PolySystem(ext, unknowns), set()
    for key in sorted(groups):
        group = groups.pop(key)  # each group is freed once its rows are out
        for dx in sorted(group):
            if not (row := _normal(group[dx])):
                continue
            # the row or its negation, whichever has a positive coefficient at its smallest key
            sign = 1 if row[min(row)] > 0 else -1
            if (items := frozenset((e, sign * c) for e, c in row.items())) not in seen:
                seen.add(items)
                system.equations.append(_make(ext, row))
    d = _unit(ext, ext.index["d"])  # t_i_j_k d^k has the key keys[j][k][i] + k d
    generic = ModuleMap(ext, [[_make(ext, {keys[j][k][i] + k * d: 1 for k in range(k1)})
                               for j in N] for i in N])
    return system, generic


# -- the limited square/linear elimination solver -----------------------------

class InconsistentSystem(Exception):
    pass


class SolveResult(Record):
    def __init__(self, status: str, assignment: dict[str, Poly], remaining: list[Poly]) -> None:
        self.status = status  # "solved" | "partial"
        self.assignment, self.remaining = assignment, remaining

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def _match(row: dict, unknowns: dict[int, str]) -> tuple | None:
    """The elimination ``row`` allows, or None: (v, None) for q*v^2, or
    (v, c) for c*v + rest with v in no other term, v an unknown's key; the
    square comes first, then the linear unknown first by name.  Raises
    InconsistentSystem when the row is a nonzero constant."""
    if len(row) == 1:
        (m, c), = row.items()
        if not m:
            raise InconsistentSystem(f"equation reduces to {_shown(c)}")
        if m % 2 == 0 and m // 2 in unknowns:
            return m // 2, None
    if not (units := [m for m in row if _key_degree(m) == 1 and m in unknowns]):
        return None
    v = min((v for v in units if not any(m & _slot(v) for m in row if m != v)),
            key=unknowns.__getitem__, default=None)
    return None if v is None else (v, row[v])


def solve_squares(system: PolySystem) -> SolveResult:
    """Iterated square and linear elimination; sound, deliberately incomplete.

    Each round eliminates one unknown through the first equation, in list
    order, that matches: q*v^2 sets v := 0, and c*v + rest with v in no other
    term sets v := -rest/c. Within an equation the square comes first, then
    the linear unknown first by name. An assigned unknown appears in no live
    equation and in no value assigned after it.

    ``held`` keeps the OR of each equation's keys, which has a bit in the
    slot of every unknown the equation may hold, and a heap holds the
    positions whose equation had a match when it last changed; the smallest
    that still matches is the first match.  Eliminating v visits only the
    positions that may hold v, in order: v := 0 drops the terms that hold v,
    and any other value is substituted.  A changed equation is matched again
    only when it can match: one term is left, or a term is a single unknown.

    Raises InconsistentSystem when an equation reduces to a nonzero constant,
    and PreconditionError when the substitutions would take more than
    ``poly.MAX_PARSE_TERM_PRODUCTS`` term products, counted before they are
    taken, or reach a monomial of total degree over ``poly.MAX_PARSE_DEGREE``.
    """
    from heapq import heappop, heappush  # loaded only by the solver
    table = system.table
    unknowns = {_unit(table, table.index[v]): v for v in set(system.unknowns) if v in table.index}
    spent = 0

    def spend(products: int) -> None:
        nonlocal spent
        spent += products
        if spent > MAX_PARSE_TERM_PRODUCTS:
            raise PreconditionError(f"elimination exceeds the cap of {MAX_PARSE_TERM_PRODUCTS} "
                                    "term products")

    rows = [eq.packed for eq in system.equations if eq.packed]  # a row made zero stays as {}
    heap = [pos for pos, row in enumerate(rows) if _match(row, unknowns)]  # sorted, so a heap
    held = [reduce(or_, row, 0) for row in rows]
    assignment: dict[int, dict] = {}
    while heap:
        if not (match := _match(row := rows[at := heappop(heap)], unknowns)):
            continue
        v, c = match
        value = assignment[v] = {} if c is None else _normal(
            {m: q * (Fraction(-1) / c) for m, q in row.items() if m != v})
        rows[at] = {}  # the value makes its own row zero
        eliminate, brought = _substitution(v, value, spend), reduce(or_, value, 0)
        for pos in [*compress(range(len(held)), map(_slot(v).__and__, held))]:
            if (kept := eliminate(row := rows[pos])) is row:
                continue  # an earlier round cleared the row of v
            rows[pos] = kept
            held[pos] |= brought
            if (len(kept) == 1 or any(_key_degree(m) == 1 and m in unknowns for m in kept)) \
                    and _match(kept, unknowns):  # raises on a nonzero constant
                heappush(heap, pos)
    # back-substitute in reverse elimination order, so solved values are
    # unknown-free: a value holds only unknowns eliminated after its own,
    # whose final values are substituted one at a time
    substitutes: dict = {}  # an unknown's key -> the substitution of its final value
    for v in reversed(assignment):
        holds = reduce(or_, value := assignment[v], 0)
        for w, substitute in substitutes.items():
            if holds & _slot(w):
                value = substitute(value)
        assignment[v], substitutes[v] = value, _substitution(v, value, spend)
    remaining = [_make(table, row) for row in rows if row]
    every = sum(map(_slot, unknowns))
    fixed = sum(not reduce(or_, row, 0) & every for row in assignment.values())
    status = "solved" if not remaining and fixed == len(set(system.unknowns)) else "partial"
    return SolveResult(status, {unknowns[v]: _make(table, row) for v, row in assignment.items()},
                       remaining)


# -- invariant bilinear forms --------------------------------------------------

class DegenerateForm(AlgebraError):
    pass


def form_pr_map(A: ConformalAlgebra, B: BilinearForm, r: Tensor2) -> ConformalLinearMap:
    """The endomorphism determined by r through a non-degenerate form.

    Defined by pairing(r, u ox v) = pairing(P_{x-d}(u), v).  The form's
    inverse cancels against its pairing, so P(e_i) = sum_p B_pi(x+d) T(e_p*)
    with T = t_from_r(A, r).
    """
    from .tensor import t_from_r
    _check_size(A, B)
    t = A.table
    shift = Substitution(t, {"x": Poly.var(t, "x") + Poly.var(t, "d")})
    shifted_transpose = [list(map(shift, column)) for column in zip(*B.matrix)]
    return ConformalLinearMap(t, _matmul(shifted_transpose, t_from_r(A, r).matrix, t))


def invariant_form_suite(A: ConformalAlgebra, B: BilinearForm,
                         r: Tensor2 | None = None) -> Report:
    """Symmetry, invariance and non-degeneracy of a form; optionally the
    Rota-Baxter identity for the endomorphism induced by a tensor.

    Symmetry: B_ij(x) = B_ji(-x).  Invariance on basis triples:
    pairing([a_y b], c) at x  =  pairing(a, [b_{x-d} c]) at y.
    """
    if A.kind != LIE:
        raise PreconditionError("the invariant form suite expects a Lie-kind algebra")
    _check_size(A, B)
    t = A.table
    X = Poly.var(t, "x")
    Y = Poly.var(t, "y")
    D = Poly.var(t, "d")
    sums = Sums(t)
    _nested(sums, A.products, B.products, Y, X, right=False)
    _nested(sums, A.products, B.products, X - D, Y, right=True, scalar=True, sign=-1)
    report = Report()
    symmetry = _commutator(t, B.products, -1, scalar=True)
    report.sweep("symmetry", (A.basis,) * 2, {k[:-1]: p for k, p in symmetry.items()})
    report.sweep("invariance", (A.basis,) * 3, {k[:-1]: p for k, p in sums.close().items()})
    nondeg = report.new_check("non_degenerate")
    nondeg.evaluated = 1  # the determinant of the induced map
    try:
        invert_module_map(B.induced_map())
    except NotInvertible as exc:
        nondeg.residuals.append(("det", str(exc)))
    if r is not None:
        if not nondeg.ok:
            raise DegenerateForm("tensor checks need a non-degenerate form")
        report.sweep("induced_rota_baxter", (A.basis,) * 2,
                     rota_baxter_residuals(A, form_pr_map(A, B, r).at_zero(), 0), A.basis)
    return report
