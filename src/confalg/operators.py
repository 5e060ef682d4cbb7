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
polynomial operator into a plain polynomial system in its coefficients,
solved (when possible) by a deliberately small elimination loop; it forms
each coefficient polynomial of the identity once per table entry and pair
of degrees, and relabels it to every pair of unknowns, not via ``_rb_sums``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING

from .algebra import (
    LEFT_SYMMETRIC,
    LIE,
    AlgebraError,
    ConformalAlgebra,
    PreconditionError,
    ProductTable,
    _contract,
    _law,
    _nest,
    _nested,
    _require,
    _view,
)
from .linmap import ConformalLinearMap, ModuleMap, NotInvertible, _matmul, invert_module_map
from .poly import (MAX_PARSE_TERM_PRODUCTS, Poly, Record, Substitution, Sums, VarTable,
                   VarTableMismatch, _make, _normal, _shown)
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
    if T.src_rank != rep.mrank or T.dst_rank != A.rank:
        raise PreconditionError("map shape does not match the representation")
    t, n, S = A.table, A.rank, semidirect(A, rep, checked=False)
    sums = {(u - n, v - n, m): R for (u, v, m), R in _rb_sums(
        t, S.products, [(n + u, p, f) for u, p, f in _entries(T)], 0).close().items()}
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


def _entries(T: ModuleMap) -> list[tuple]:
    return [(i, p, f) for i, row in enumerate(T.matrix) for p, f in enumerate(row)
            if not f.is_zero]


def rota_baxter_residuals(A: ConformalAlgebra, T: ModuleMap,
                          weight: Poly | Fraction | int) -> dict[tuple[int, int, int], Poly]:
    """The nonzero residuals of the weight-alpha Rota-Baxter identity,
    {(i, j, m): residual} over basis pairs and components:

    [T(a)_x T(b)] - T([a_x T(b)]) - T([T(a)_x b]) - alpha T([a_x b]).
    """
    if T.src_rank != A.rank or T.dst_rank != A.rank:
        raise PreconditionError("map shape does not match the algebra")
    return _rb_sums(A.table, A.products, _entries(T), weight).close()


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
        t, table, basis = algebra.table, algebra.products, algebra.basis
    else:
        if rep is None:
            raise PreconditionError(f"mode {mode!r} needs a representation")
        if mode not in ("o_product", "bijective"):
            raise PreconditionError(f"unknown mode {mode!r}")
        _require(check_o_operator(T, rep), "map is not an O-operator")
        t, table, basis = rep.algebra.table, rep.rho, rep.mbasis
        if mode == "bijective":
            # sum T^-1_jk(x+d) rho_ikn(d, x) T_nm(d)
            shift = {"d": Poly.var(t, "x") + Poly.var(t, "d")}
            sums = Sums(t)
            _contract(sums, rep.rho, {}, lambda i, j, m: (i, j, m), None,
                      _view(((k, j, f) for j, k, f in _entries(invert_module_map(T))), shift),
                      _view(_entries(T)))
            return ConformalAlgebra(LEFT_SYMMETRIC, rep.algebra.basis, t, _nest(sums.close()))
    products = _nest(_rb_sums(t, table, _entries(T)).close())
    return ConformalAlgebra(LEFT_SYMMETRIC, basis, t, products)


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
                if p.terms:
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

    Symmetry reads the matrix: B_ij(x) + B_ji(-x) (lie) or B_ij(x) - B_ji(-x)
    (lsc).  The cocycle identity is the algebra's law from ``_law`` with the
    form as outer table, e.g. form(e_i, e_j _y e_k) at x = sum_l B_il(x) P_jkl(x, y)
    and form(e_i _x e_j, e_k) at x+y = sum_l P_ijl(-x-y, x) B_lk(x+y).  A form
    without a kind is checked as a cocycle of its algebra's kind.
    """
    kind = "lie" if A.kind == LIE else "lsc"
    if form.kind not in (None, kind):
        raise PreconditionError(f"form kind {form.kind!r} does not match algebra kind")
    _check_size(A, form)
    residuals = _law(A.table, A.kind, A.products, A.products, form.products, scalar=True)
    report = Report()
    report.sweep("symmetry", (A.basis,) * 2, _symmetry(form, 1 if kind == "lie" else -1))
    report.sweep("cocycle_identity", (A.basis,) * 3, {k[:-1]: p for k, p in residuals.items()})
    return report


def _symmetry(form: BilinearForm, sign: int) -> dict[tuple[int, int], Poly]:
    """B_ij(x) + sign * B_ji(-x) on the nonzero entries and their transposes."""
    t, B = form.table, form.matrix
    reflect = Substitution(t, {"x": -Poly.var(t, "x")})
    pairs = {k for i, j in form.products for k in ((i, j), (j, i))}
    return {(i, j): B[i][j] + reflect(B[j][i]) * sign for i, j in pairs}


def _check_size(A: ConformalAlgebra, form: BilinearForm) -> None:
    n = A.rank
    if len(form.basis) != n or len(form.matrix) != n or any(len(row) != n for row in form.matrix):
        raise PreconditionError(f"form size does not match the algebra rank {n}")


# -- Rota-Baxter constraint systems -------------------------------------------

# the largest rank^3 (D + 1)^2, the order of its equation count, rb_constraints builds
MAX_RB_SIZE = 5000


class PolySystem(Record):
    """Fully expanded polynomial equations in the unknown parameters, kept as
    rows {monomial: rational}: a monomial is the sorted tuple of its variables'
    positions in ``table``, one per power.  ``equations`` reads them as Polys."""

    def __init__(self, table: VarTable, unknowns: tuple[str, ...],
                 equations: list[Poly] | None = None) -> None:
        self.table, self.unknowns, self.rows = table, unknowns, []
        for eq in equations or ():
            if eq.table != table:
                raise VarTableMismatch("equation over another variable table")
            self.rows.append({tuple(i for i, e in enumerate(exps) for _ in range(e)): c
                              for exps, c in eq.terms.items()})

    @property
    def equations(self) -> list[Poly]:
        """The rows as Polys over ``table``, in a new list on each read."""
        return [_poly(self.table, row) for row in self.rows]


def _poly(table: VarTable, row: dict) -> Poly:
    terms = {}
    for m, c in row.items():
        exps = [0] * len(table.names)
        for i in m:
            exps[i] += 1
        terms[tuple(exps)] = c
    return _make(table, terms)


def _substitution(values: dict[int, dict], spend):
    """row -> row with each variable position in ``values`` replaced by its
    row.  Each pattern of replaced positions is expanded once, for all rows,
    from its longest expanded prefix, one row product per position: each
    pair of monomials merged and sorted; a one-position pattern is its value.
    Every expansion and application first hands ``spend`` the number of term
    products it is about to take."""
    expansions: dict[tuple, dict] = {(v,): value for v, value in values.items()}
    replaced = values.keys()

    def expand(pattern: tuple) -> dict:  # a loop, not recursion: no closure cycle
        k = max(k for k in range(1, len(pattern) + 1) if pattern[:k] in expansions)
        for k in range(k, len(pattern)):
            head, value, out = expansions[pattern[:k]], values[pattern[k]], {}
            spend(len(head) * len(value))
            for m1, c1 in head.items():
                for m2, c2 in value.items():
                    m = tuple(sorted(m1 + m2))
                    out[m] = out.get(m, 0) + c1 * c2
            expansions[pattern[:k + 1]] = _normal(out)
        return expansions[pattern]

    def apply(row: dict) -> dict:
        out = {m: c for m, c in row.items() if replaced.isdisjoint(m)}
        touched = [t for t in ((m, c, expand(tuple(i for i in m if i in values)))
                               for m, c in row.items() if not replaced.isdisjoint(m)) if t[2]]
        spend(sum(len(expansion) for _, _, expansion in touched))
        for m, c, expansion in touched:  # a term whose expansion is zero is dropped
            rest = tuple(i for i in m if i not in values)
            for m2, c2 in expansion.items():
                key = tuple(sorted(rest + m2))
                out[key] = out.get(key, 0) + c * c2
        return _normal(out) if touched else out

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
    rows of every (f, g) they reach, as the comments below say.  A term's
    monomial is its parameters' positions, then the sorted positions of its
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
    t = A.table
    X, XD = Poly.var(t, "x"), Poly.var(t, "x") + Poly.var(t, "d")
    neg, shift = [(-X) ** k for k in range(k1)], [XD ** k for k in range(k1)]
    alpha = weight if isinstance(weight, Poly) else Poly.const(t, weight)
    base, di, xi = len(t.names), t.index["d"], t.index["x"]  # unknowns follow t's names
    N = range(n)  # pos[p][k][i] is the position of t_i_p_k
    pos = [[[base + (i * n + p) * k1 + k for i in N] for k in range(k1)] for p in N]
    split: dict[tuple, tuple] = {}  # a term's exponents -> its d- and x-exponent, parameters
    groups: dict[tuple, dict] = {}  # (i, j, m) -> {(d-exponent, x-exponent): equation row}

    def scatter(poly: Poly, labels, sign: int = 1, dshift: int = 0) -> None:
        """Add sign * poly * d^dshift at each (i, j, m) of ``labels``, each
        term's monomial its parameters, then the label's unknowns."""
        terms = []
        for e, c in poly.terms.items():
            if (s := split.get(e)) is None:
                s = split[e] = e[di], e[xi], tuple(
                    p for p, k in enumerate(e) if p != di and p != xi for _ in range(k))
            terms.append(((s[0] + dshift, s[1]), s[2], sign * c))
        for key, tag in labels:
            group = groups.setdefault(key, {})
            for dx, params, c in terms:
                row = group.setdefault(dx, {})
                m = params + tag
                row[m] = row.get(m, 0) + c

    for (p, q), targets in A.products.items():
        for l, P in targets.items():
            for k in range(k1):
                left, right = neg[k] * P, shift[k] * P
                for k2 in range(k1):
                    lg = [pos[g][k2][l] for g in N]  # t_l_g_k2 for each g
                    # T_fp(-x) T_gq(x+d) P_pql at (f, g, l)
                    scatter(left * shift[k2], (((f, g, l), (a, b) if a < b else (b, a))
                            for f, a in zip(N, pos[p][k]) for g, b in zip(N, pos[q][k2])))
                    # -T_fq(x+d) P_pql T_lg(d) at (p, f, g)
                    scatter(right, (((p, f, g), (a, b) if a < b else (b, a))
                            for f, a in zip(N, pos[q][k]) for g, b in zip(N, lg)), -1, k2)
                    # -T_fp(-x) P_pql T_lg(d) at (f, q, g)
                    scatter(left, (((f, q, g), (a, b) if a < b else (b, a))
                            for f, a in zip(N, pos[p][k]) for g, b in zip(N, lg)), -1, k2)
            if not alpha.is_zero:  # -alpha P_pql T_lg(d) at (p, q, g)
                scaled = alpha * P
                for k2 in range(k1):
                    scatter(scaled, (((p, q, g), (pos[g][k2][l],)) for g in N), -1, k2)
    ext = t.extended(unknowns)
    system, seen = PolySystem(ext, unknowns), set()
    for key in sorted(groups):
        group = groups.pop(key)  # each group is freed once its rows are out
        for dx in sorted(group):
            if not (row := _normal(group[dx])):
                continue
            items = frozenset(row.items())
            if items not in seen and frozenset((e, -c) for e, c in items) not in seen:
                seen.add(items)
                system.rows.append(row)
    D = Poly.var(ext, "d")
    generic = ModuleMap(ext, [[sum(Poly.var(ext, f"t{i}_{j}_{k}") * D ** k for k in range(k1))
                               for j in range(n)] for i in range(n)])
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


def _live(row: dict, unknowns: dict[int, str]) -> list | None:
    """[row, the unknowns it holds, its match], or None when the row is zero.

    The match is (v, None) for q*v^2, or (v, c) for c*v + rest with v in no
    other term; the square comes first, then the linear unknown first by name.
    Raises InconsistentSystem when the row is a nonzero constant.
    """
    if not row:
        return None
    if len(row) == 1:
        (m, c), = row.items()
        if not m:
            raise InconsistentSystem(f"equation reduces to {_shown(c)}")
        if len(m) == 2 and m[0] == m[1] and m[0] in unknowns:
            return [row, {m[0]}, (m[0], None)]
    flat = [*chain.from_iterable(row)]  # a unit c*v is in no other term iff v occurs once
    linear = [m[0] for m in row if len(m) == 1 and m[0] in unknowns and flat.count(m[0]) == 1]
    if not linear:
        return [row, unknowns.keys() & flat, None]
    v = min(linear, key=unknowns.__getitem__)
    return [row, unknowns.keys() & flat, (v, row[(v,)])]


def solve_squares(system: PolySystem) -> SolveResult:
    """Iterated square and linear elimination; sound, deliberately incomplete.

    Each round eliminates one unknown through the first equation, in list
    order, that matches: q*v^2 sets v := 0, and c*v + rest with v in no other
    term sets v := -rest/c. Within an equation the square comes first, then
    the linear unknown first by name. An assigned unknown appears in no live
    equation and in no value assigned after it.

    ``holds`` maps each unknown to the positions of the equations that may
    hold it, and a heap holds the positions whose equation had a match when
    it last changed; the smallest that still matches is the first match.
    Eliminating v visits only the positions that hold v, in order: v := 0
    drops the terms that hold v, and any other value is substituted.  A
    changed equation is matched again only when it can match: one term is
    left, or a term is a single unknown.

    Raises InconsistentSystem when an equation reduces to a nonzero constant,
    and PreconditionError when the substitutions would take more than
    ``poly.MAX_PARSE_TERM_PRODUCTS`` term products, counted before they are taken.
    """
    from heapq import heappop, heappush  # loaded only by the solver
    table = system.table
    unknowns = {table.index[v]: v for v in set(system.unknowns) if v in table.index}
    spent = 0

    def spend(products: int) -> None:
        nonlocal spent
        spent += products
        if spent > MAX_PARSE_TERM_PRODUCTS:
            raise PreconditionError(f"elimination exceeds the cap of {MAX_PARSE_TERM_PRODUCTS} "
                                    "term products")

    live = [state for state in (_live(row, unknowns) for row in system.rows) if state]
    rows = [state[0] for state in live]  # a zero row stays as {}, so positions hold
    holds: dict[int, list[int]] = {v: [] for v in unknowns}
    for pos, (_, held, _) in enumerate(live):
        for v in held:
            holds[v].append(pos)
    heap = [pos for pos, state in enumerate(live) if state[2] is not None]  # sorted, so a heap
    del live  # its held sets are in holds now; keeping them raised the peak
    assignment: dict[int, dict] = {}
    while heap:
        state = _live(rows[at := heappop(heap)], unknowns)
        if not state or state[2] is None:
            continue
        row, _, (v, c) = state
        value = assignment[v] = {} if c is None else _normal(
            {m: q * (Fraction(-1) / c) for m, q in row.items() if m != (v,)})
        rows[at] = {}  # the value makes its own row zero
        eliminate = value and _substitution({v: value}, spend)  # none for v := 0
        brought = unknowns.keys() & chain.from_iterable(value)
        for pos in sorted(set(holds.pop(v))):
            row = rows[pos]
            kept = {m: q for m, q in row.items() if v not in m}
            if len(kept) == len(row):
                continue  # an earlier round cleared the row of v
            rows[pos] = kept = eliminate(row) if value else kept
            for u in brought:
                holds[u].append(pos)
            if len(kept) == 1 or any(len(m) == 1 and m[0] in unknowns for m in kept):
                state = _live(kept, unknowns)  # raises on a nonzero constant
                if state and state[2] is not None:
                    heappush(heap, pos)
    # back-substitute in reverse elimination order, so solved values are
    # unknown-free: a value holds no unknown eliminated before its own
    for v in reversed(assignment):
        assignment[v] = _substitution(assignment, spend)(assignment[v])
    solved = {unknowns[v]: _poly(table, row) for v, row in assignment.items()}
    names = set(system.unknowns)
    fixed = {v for v, p in solved.items() if not (p.variables() & names)}
    remaining = [_poly(table, row) for row in rows if row]
    if not remaining and fixed == names:
        return SolveResult("solved", solved, [])
    return SolveResult("partial", solved, remaining)


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
    report.sweep("symmetry", (A.basis,) * 2, _symmetry(B, -1))
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
