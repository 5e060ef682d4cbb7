"""Truncated coefficient algebras of a conformal algebra.

The table stores the lambda-bracket by its x^j coefficients
c_j = a_(j) b / j!, so the n-th products a_(j) b = j! c_j never need to be
formed: the coefficient algebra lives on symbols v_m with

    a_m . b_n = sum_j binom(m, j) (a_(j) b)_{m+n-j}
              = sum_j m(m-1)...(m-j+1) (c_j)_{m+n-j},
    (d u)_k = -k u_{k-1}.

Only a finite symmetric index window [-N, N] is materialized; a product that
needs an index outside the window is None, which property checks treat as
"skip".  An optional per-generator shift relabels v_m as v_{m+s} to
reproduce textbook index conventions.

``window_checks`` brackets no general elements.  It builds one unit-pair
table, the bracket of every two window symbols, and evaluates each identity
as a sum over chains of its entries (``_chain``): [a,[b,c]] = sum_k C_bc^k C_ak.
The lifted operator is linear, so T(x) = sum_k x_k T(u_k) with each lifted unit
computed once, and so is each row [T a, u_l], so that
[T a, T b] = sum_l q_l [T a, u_l].  Every coefficient is split into rationals,
one per monomial in the parameters, and each monomial is packed into an
integer in base B = 1 + 3e, with e the largest exponent of any variable in the
table's cofactors, the map's entries and the weight (Monagan & Pearce, CASC
2007): no chain multiplies more than three of them, so a product of monomials
is the sum of their keys, without a carry.  A row over n symbols is
[(symbol, n * packed, rational)], each chain sums in a plain dict keyed
symbol + n * packed, and a Poly is built only for a nonzero sum.
``_chain`` stays apart from ``algebra._contract``, the sum every other
identity uses: a row of the unit-pair table may leave the window, which skips
the instance, and the structure-constant contraction has no such case.  Two
symbols are negated when their table rows are exactly each other's
negatives, or both None.  For any bracket
J(a,b,c) + J(b,a,c) = -[[a,b] + [b,a], c], with J the Jacobi residual, so a
negated pair is evaluated in one order and the other order's residuals and
skips are written from it; the lifted residual of (b, a) is likewise minus
that of (a, b) when every pair of {a} + supp Ta and {b} + supp Tb is negated.
The test is per pair, because a window edge can leave [a,b] out of the window
while [b,a] is zero.  The Jacobi sweep spans (rank * (2N + 1))^3 triples,
those written from a mirror included, and a window past
``MAX_WINDOW_TRIPLES`` of them is refused before any is built.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LIE, ConformalAlgebra, PreconditionError
from .linmap import ModuleMap
from .poly import Poly, Record, VarTableMismatch, _shown
from .report import Report


# the most Jacobi triples, (rank * (2N + 1))^3, that window_checks sweeps
MAX_WINDOW_TRIPLES = 1_000_000

# window element: (basis index, user index) -> coefficient (parameter poly)
WinElem = dict[tuple[int, int], Poly]


def _falling(t: int, s: int) -> int:
    out = 1
    for k in range(s):
        out *= t - k
    return out


def _d_split(p: Poly) -> list:
    """p as [(s, terms)]: the term dict of the cofactor of each power d^s."""
    return [(s, cof.terms) for (s,), cof in p.split(("d",)).items()]


def _polys(table, split: dict) -> WinElem:
    """A window element split by monomial, {(symbol, exponents): rational}, as
    {symbol: Poly}."""
    out = {}
    for (sym, e), q in split.items():
        out.setdefault(sym, {})[e] = q
    return {sym: Poly(table, terms) for sym, terms in out.items()}


class CoeffWindow(Record):
    """Symbols v_m for each generator v and |m + shift_v| <= N."""

    _uncompared = ("_entries", "_shift")

    def __init__(self, algebra: ConformalAlgebra, N: int,
                 shifts: dict[int, int] | None = None) -> None:
        if N < 0:
            raise PreconditionError(f"window size {N} is negative")
        self.algebra, self.N = algebra, N
        self.shifts = {} if shifts is None else shifts
        # (i, j) -> [(k, n, d-split of the x^n coefficient of the entry P_ijk)]
        self._entries = {ij: [(k, n, _d_split(cof))
                              for k, P in targets.items()
                              for (n,), cof in P.split(("x",)).items()]
                         for ij, targets in algebra.products.items()}
        self._shift = [self.shift(i) for i in range(algebra.rank)]

    def shift(self, i: int) -> int:
        return self.shifts.get(i, 0)

    def symbols(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.algebra.rank):
            s = self.shift(i)
            out.extend((i, raw - s) for raw in range(-self.N, self.N + 1))
        return out

    def unit(self, i: int, m: int) -> WinElem:
        if abs(m + self.shift(i)) > self.N:
            raise PreconditionError(f"symbol index {m} outside the window")
        return {(i, m): Poly.const(self.algebra.table, 1)}

    def label(self, i: int, m: int) -> str:
        return f"{self.algebra.basis[i]}_{m}"

    def _reduce(self, terms) -> dict | None:
        """The sum of scale * p(d) u_t over the (k, t, split, scale) in `terms`,
        split by monomial: u_t is generator k at raw index t, split the d-split
        of p, (d^s u)_t = (-1)^s t(t-1)...(t-s+1) u_{t-s} and scale an integer;
        None as soon as an index leaves the window."""
        out, shift = {}, self._shift
        for k, t, split, scale in terms:
            for s, cof in split:
                factor = (-1) ** s * _falling(t, s)
                if not factor:
                    continue
                raw = t - s
                if abs(raw) > self.N:
                    return None
                sym = k, raw - shift[k]
                for e, q in cof.items():
                    out[sym, e] = out.get((sym, e), 0) + scale * factor * q
        return {key: q for key, q in out.items() if q}

    def _pair_split(self, i: int, m: int, j: int, n: int) -> dict | None:
        """The product of the unit symbols (i, m) and (j, n), split by monomial."""
        mu = m + self._shift[i]
        nu = n + self._shift[j]
        if abs(mu) > self.N or abs(nu) > self.N:
            return None
        # a_m . b_n = sum_deg m(m-1)...(m-deg+1) (c_deg)_{m+n-deg}, with
        # c_deg = a_(deg) b / deg! the x^deg coefficient of the bracket
        return self._reduce((k, mu + nu - deg, split, f)
                            for k, deg, split in self._entries.get((i, j), ())
                            if (f := _falling(mu, deg)))

    def _pair_bracket(self, i: int, m: int, j: int, n: int) -> WinElem | None:
        """The product of the unit symbols (i, m) and (j, n)."""
        split = self._pair_split(i, m, j, n)
        return None if split is None else _polys(self.algebra.table, split)

    def _lift_rows(self, T: ModuleMap) -> list:
        """Each row of T as [(j, d-split of T_ij)] over its nonzero entries."""
        if T.src_rank != self.algebra.rank or T.dst_rank != self.algebra.rank:
            raise PreconditionError("map shape does not match the algebra")
        if T.table != self.algebra.table:
            raise VarTableMismatch("the map and the algebra have different variable tables")
        return [[(j, _d_split(entry)) for j, entry in enumerate(row) if not entry.is_zero]
                for row in T.matrix]

    def _lift_unit(self, rows: list, i: int, m: int) -> dict | None:
        """T of the unit symbol (i, m), split by monomial, for the rows of T."""
        return self._reduce((j, m + self._shift[i], split, 1) for j, split in rows[i])

    def lift_map(self, T: ModuleMap):
        """The operator a_n -> T(a)_n, with d-powers reduced into index shifts."""
        rows = self._lift_rows(T)

        def lifted(elem):
            if elem is None:
                return None
            out = {}
            for (i, m), c in elem.items():
                if c.is_zero:
                    continue
                if (unit := self._lift_unit(rows, i, m)) is None:
                    return None
                for (sym, e), q in unit.items():
                    for f, v in c.terms.items():
                        key = sym, tuple(x + y for x, y in zip(e, f))
                        out[key] = out.get(key, 0) + q * v
            return _polys(self.algebra.table, {key: q for key, q in out.items() if q})

        return lifted


def _chain(out, terms, rows, sign: int = 1) -> bool:
    """Add sign * sum of c x_p rows[k] over (k, p, c) in `terms` into the plain
    dict `out`, where a row is [(symbol, q, v)] for v x_q and each monomial is
    n times its packed key, so that x_p x_q is at the key symbol + p + q;
    False as soon as a needed row is None."""
    for k, p, c in terms:
        if (row := rows[k]) is None:
            return False
        c *= sign
        for m, q, v in row:
            key = m + p + q
            out[key] = out.get(key, 0) + c * v
    return True


def window_checks(w: CoeffWindow, T: ModuleMap | None = None,
                  weight: Poly | Fraction | int = 0) -> Report:
    """Lie axioms on window symbols, and the lifted Rota-Baxter identity.

    A triple (or pair) is skipped when a unit pair it needs leaves the window,
    or when a symbol in the support of an argument of the lift lifts out of
    it; each sweep gets the nonzero residuals of the instances evaluated and
    the number skipped.  A negated pair is evaluated in one order, and the
    other order's residuals and skips are written from it.
    """
    if w.algebra.kind != LIE:
        raise PreconditionError("window checks expect a Lie-kind algebra")
    n = w.algebra.rank * (2 * w.N + 1)
    if n ** 3 > MAX_WINDOW_TRIPLES:
        raise PreconditionError(f"window {w.N} needs {_shown(n ** 3)} Jacobi triples, "
                                f"over the cap of {MAX_WINDOW_TRIPLES}")
    t, syms = w.algebra.table, w.symbols()
    index = {sym: a for a, sym in enumerate(syms)}
    names = tuple(w.label(*sym) for sym in syms)
    factors = [cof for row in w._entries.values() for *_, split in row for _, cof in split]
    if T is not None:
        rows = w._lift_rows(T)
        weight = weight if isinstance(weight, Poly) else Poly.const(t, weight)
        if weight.table != t:
            raise VarTableMismatch("the weight and the algebra have different variable tables")
        factors += [cof for row in rows for _, split in row for _, cof in split] + [weight.terms]
    # no chain multiplies more than three monomials, so no packed digit carries
    base = 1 + 3 * max((x for terms in factors for e in terms for x in e), default=0)
    packed = {}

    def pack(e):  # n times the exponents e read as the digits of a base-B number
        if (p := packed.get(e)) is None:
            p = packed[e] = n * sum(x * base ** i for i, x in enumerate(e))
        return p

    def row(split):  # a split element as a row [(symbol, n * packed, rational)]
        if split is not None:
            return [(index[sym], pack(e), q) for (sym, e), q in split.items()]

    def polys(out):  # an instance's nonzero sums as {symbol: Poly}
        split = {}
        for key, q in out.items():
            if q:
                p, m = divmod(key, n)
                e = []
                for _ in t.names:
                    p, x = divmod(p, base)
                    e.append(x)
                split[m, tuple(e)] = q
        return _polys(t, split)

    table = [[row(w._pair_split(*sa, *sb)) for sb in syms] for sa in syms]
    cols = list(zip(*table))
    report = Report()

    residuals, skipped = {}, 0
    for a, row_a in enumerate(table):
        for b, ab in enumerate(row_a):
            ba = table[b][a]
            if ab is None or ba is None:
                skipped += 1
                continue
            out = {}
            for m, p, q in ab + ba:
                out[m + p] = out.get(m + p, 0) + q
            for m, poly in polys(out).items():
                residuals[a, b, m] = poly
    report.sweep("antisymmetry", (names,) * 2, residuals, names, "[{},{}]", skipped)

    # negated[a][b]: [b,a] is exactly -[a,b], or both leave the window
    negated = [[ab is None is ba or None not in (ab, ba)
                and {m + p: q for m, p, q in ab} == {m + p: -q for m, p, q in ba}
                for ab, ba in zip(row_a, col_a)] for row_a, col_a in zip(table, cols)]

    residuals, skipped = {}, 0
    for a, row_a in enumerate(table):
        for b, ab in enumerate(row_a):
            # a negated pair's (b, a, c) is written from its (a, b, c)
            mirror = a != b and negated[a][b]
            if mirror and b < a:
                continue
            if ab is None:
                skipped += n * (1 + mirror)
                continue
            row_b = table[b]
            for c, (bc, ac) in enumerate(zip(row_b, row_a)):
                if (bc is None or ac is None
                        or not (_chain(out := {}, bc, row_a)
                                and _chain(out, ab, cols[c], -1) and _chain(out, ac, row_b, -1))):
                    skipped += 1 + mirror
                    continue
                if any(out.values()):
                    for m, p in polys(out).items():
                        residuals[a, b, c, m] = p
                        if mirror:
                            residuals[b, a, c, m] = -p
    report.sweep("jacobi", (names,) * 3, residuals, names, "[{},[{},{}]]", skipped)

    if T is not None:
        units = [row(w._lift_unit(rows, *sym)) for sym in syms]
        # a zero weight still needs each symbol of [a, b] to lift into the window
        omega = [(pack(e), q) for e, q in weight.terms.items()] or [(0, 0)]

        def chained(terms, rows):  # a chain sum as a row, or None
            out = {}
            if _chain(out, terms, rows):
                return [(key % n, key - key % n, q) for key, q in out.items() if q]

        # the rows [T a, u_l] of each a that lifts into the window, each closed or None
        lifted_rows = [None if ta is None else [chained(ta, col) for col in cols] for ta in units]

        def residual(a, b):
            # [T a, T b] - T([T a, b] + [a, T b] + weight [a, b]), None for a skip
            rows_a, tb, ab = lifted_rows[a], units[b], table[a][b]
            out = {}
            if (rows_a is not None and tb is not None and ab is not None
                    and rows_a[b] is not None and _chain(out, tb, rows_a)
                    and (right := chained(tb, table[a])) is not None
                    and _chain(out, rows_a[b], units, -1)
                    and _chain(out, right, units, -1)
                    and _chain(out, [(k, p + r, c * v) for k, p, c in ab for r, v in omega],
                               units, -1)):
                return out

        # R(b,a) = -R(a,b) when every pair of {a} + supp Ta and {b} + supp Tb is negated
        spans = [None if ta is None else {a, *(k for k, _, _ in ta)} for a, ta in enumerate(units)]
        mirrored = {(a, b) for a, sa in enumerate(spans) for b, sb in enumerate(spans)
                    if a < b and sa and sb and all(negated[k][l] for k in sa for l in sb)}
        residuals, skipped = {}, 0
        for a in range(n):
            for b in range(n):
                if (b, a) in mirrored:
                    continue
                mirror = (a, b) in mirrored
                if (out := residual(a, b)) is None:
                    skipped += 1 + mirror
                    continue
                for m, p in polys(out).items():
                    residuals[a, b, m] = p
                    if mirror:
                        residuals[b, a, m] = -p
        report.sweep("lifted_rota_baxter", (names,) * 2, residuals, names, skipped=skipped)
    return report
