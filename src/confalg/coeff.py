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
table, the bracket of every two window symbols as [(symbol, coefficient)],
and evaluates each identity as a sum over chains of its entries (``_chain``):
[a,[b,c]] = sum_k C_bc^k C_ak.  The lifted operator is linear, so
T(x) = sum_k x_k T(u_k) with each lifted unit computed once, and so is each
row [T a, u_l], so that [T a, T b] = sum_l q_l [T a, u_l].  The table's
entries pick the kind of rows.  When every d-split cofactor of the entries is
constant, as for a table free of parameters, the unit-pair table is built as
rationals and every sweep sums an instance in plain dicts, building a Poly
only for a nonzero residual; the lifted sweep splits each lifted unit and
the weight into monomials and sums by monomial (``_split_lift``).  Otherwise
every row holds Polys, summed in ``Sums`` (``_sums_lift``).  ``_chain`` stays
apart from ``algebra._contract``, the sum every other identity uses: a row of
the unit-pair table may leave the window, which skips the instance, and the
structure-constant contraction has no such case.  Two symbols are negated
when their table rows are exactly each other's negatives, or both None.  For
any bracket J(a,b,c) + J(b,a,c) = -[[a,b] + [b,a], c], with J the Jacobi
residual, so a negated pair is evaluated in one order and the other order's
residuals and skips are written from it; the lifted residual of (b, a) is
likewise minus that of (a, b) when every pair of {a} + supp Ta and
{b} + supp Tb is negated.  The test is per pair, because a window edge can
leave [a,b] out of the window while [b,a] is zero.  The Jacobi sweep spans
(rank * (2N + 1))^3 triples, those written from a mirror included, and a
window past ``MAX_WINDOW_TRIPLES`` of them is refused before any is built.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LIE, ConformalAlgebra, PreconditionError
from .linmap import ModuleMap
from .poly import Poly, Record, Sums, VarTableMismatch, _constant, _shown
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


class CoeffWindow(Record):
    """Symbols v_m for each generator v and |m + shift_v| <= N."""

    _uncompared = ("_entries", "_rational")

    def __init__(self, algebra: ConformalAlgebra, N: int,
                 shifts: dict[int, int] | None = None) -> None:
        if N < 0:
            raise PreconditionError(f"window size {N} is negative")
        self.algebra, self.N = algebra, N
        self.shifts = {} if shifts is None else shifts
        # (i, j) -> [(k, n, d-split of the x^n coefficient of the entry P_ijk)]
        self._entries = {ij: [(k, n, cof.split(("d",)))
                              for k, P in targets.items()
                              for (n,), cof in P.split(("x",)).items()]
                         for ij, targets in algebra.products.items()}
        # the same with each cofactor a rational, or None when one is not constant
        rational = {ij: [(k, n, {s: _constant(cof) for s, cof in split.items()})
                         for k, n, split in row] for ij, row in self._entries.items()}
        self._rational = None if any(q is None for row in rational.values()
                                     for *_, split in row for q in split.values()) else rational

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

    def _reduce(self, terms, rational: bool = False) -> WinElem | None:
        """The sum of scale * c * p(d) u_t over the (k, t, split, c, scale) in
        `terms`: u_t is generator k at raw index t, split the d-split of p,
        (d^s u)_t = (-1)^s t(t-1)...(t-s+1) u_{t-s}, c a polynomial or None for 1
        and scale an integer; None as soon as an index leaves the window.  With
        `rational`, cofactors are rationals and the sum a {symbol: rational} dict."""
        out = {} if rational else Sums(self.algebra.table)
        for k, t, split, c, scale in terms:
            for (s,), cof in split.items():
                factor = (-1) ** s * _falling(t, s)
                if not factor:
                    continue
                raw = t - s
                if abs(raw) > self.N:
                    return None
                key = k, raw - self.shift(k)
                if rational:
                    out[key] = out.get(key, 0) + scale * factor * cof
                else:
                    out.add(key, cof, c, scale * factor)
        return {key: q for key, q in out.items() if q} if rational else out.close()

    def _pair_bracket(self, i: int, m: int, j: int, n: int,
                      rational: bool = False) -> WinElem | None:
        """The product of the unit symbols (i, m) and (j, n), as rationals with `rational`."""
        mu = m + self.shift(i)
        nu = n + self.shift(j)
        if abs(mu) > self.N or abs(nu) > self.N:
            return None
        # a_m . b_n = sum_deg m(m-1)...(m-deg+1) (c_deg)_{m+n-deg}, with
        # c_deg = a_(deg) b / deg! the x^deg coefficient of the bracket
        entries = self._rational if rational else self._entries
        return self._reduce(((k, mu + nu - deg, split, None, f)
                             for k, deg, split in entries.get((i, j), ())
                             if (f := _falling(mu, deg))), rational)

    def lift_map(self, T: ModuleMap):
        """The operator a_n -> T(a)_n, with d-powers reduced into index shifts."""
        if T.src_rank != self.algebra.rank or T.dst_rank != self.algebra.rank:
            raise PreconditionError("map shape does not match the algebra")
        rows = [[(j, entry.split(("d",))) for j, entry in enumerate(row) if not entry.is_zero]
                for row in T.matrix]

        def lifted(elem):
            if elem is None:
                return None
            return self._reduce((j, m + self.shift(i), split, c, 1)
                                for (i, m), c in elem.items() if not c.is_zero
                                for j, split in rows[i])

        return lifted


def _chain(out, terms, rows, sign: int = 1) -> bool:
    """Add sign * sum of c * rows[k] over (k, c) in `terms` into `out`, where a
    row is [(symbol, coefficient)]; False as soon as a needed row is None.
    `out` is a plain {symbol: rational} dict when c and the rows are rational,
    else a Sums."""
    plain = type(out) is dict
    for k, c in terms:
        row = rows[k]
        if row is None:
            return False
        if plain:
            for m, q in row:
                out[m] = out.get(m, 0) + sign * c * q
        else:
            for m, q in row:
                out.add(m, c, q, sign)
    return True


def _sums_lift(t, table, cols, lifted, weight):
    """The lifted residual R(a, b), or None for a skip, on a table of Polys:
    each row [T a, u_l] is closed once, and each R sums in a Sums."""
    def chained(terms, rows):
        out = Sums(t)
        return list(out.close().items()) if _chain(out, terms, rows) else None

    # the rows [T a, u_l] of each a that lifts into the window, each closed or None
    lifted_rows = [None if ta is None else [chained(ta, col) for col in cols] for ta in lifted]

    def residual(a, b):
        rows_a, tb, ab = lifted_rows[a], lifted[b], table[a][b]
        out = Sums(t)
        if (rows_a is not None and tb is not None and ab is not None
                and rows_a[b] is not None and _chain(out, tb, rows_a)
                and (right := chained(tb, table[a])) is not None
                and _chain(out, rows_a[b], lifted, -1)
                and _chain(out, right, lifted, -1)
                and _chain(out, [(k, c * weight) for k, c in ab], lifted, -1)):
            return out.close()

    return residual


def _split_chain(out, terms, rows, prod, sign: int = 1) -> bool:
    """``_chain`` by monomials: add sign * sum of c x_p rows[k] over (k, p, c) in
    `terms` into the plain dict `out`, keyed (symbol, monomial), where a row is
    [(symbol, q, v)] for v x_q and x_p x_q is the monomial prod[p][q]; False as
    soon as a needed row is None."""
    for k, p, c in terms:
        if (row := rows[k]) is None:
            return False
        pp = prod[p]
        for m, q, v in row:
            key = m, pp[q]
            out[key] = out.get(key, 0) + sign * c * v
    return True


def _split_lift(t, table, lifted, weight):
    """The lifted residual R(a, b), or None for a skip, on a table of rationals,
    as ``_sums_lift`` computes it: each coefficient of a lifted unit and of the
    weight is split into monomials, indexed once, rows hold rationals keyed by
    (symbol, monomial) and R sums in a plain dict, through ``_split_chain``; a
    Poly is built only for a nonzero residual."""
    monos = {(0,) * len(t.names): 0}  # exponent tuple -> index, the monomial 1 first

    def split(ta):  # [(symbol, Poly)] -> [(symbol, monomial, rational)]
        return ta and [(k, monos.setdefault(e, len(monos)), c)
                       for k, q in ta for e, c in q.terms.items()]

    units = [split(ta) for ta in lifted]
    # a zero weight still needs each symbol of [a, b] to lift into the window
    omega = split([(None, weight)]) or [(None, 0, 0)]
    factors = list(monos)
    prod = [[monos.setdefault(tuple(x + y for x, y in zip(e, f)), len(monos)) for f in factors]
            for e in factors]
    exps = list(monos)
    table = [[r and [(m, 0, v) for m, v in r] for r in row] for row in table]  # monomial 1
    cols = list(zip(*table))

    def chained(terms, rows):
        out = {}
        if _split_chain(out, terms, rows, prod):
            return [(m, p, v) for (m, p), v in out.items() if v]

    # the rows [T a, u_l] of each a that lifts into the window, each closed or None
    lifted_rows = [None if ta is None else [chained(ta, col) for col in cols] for ta in units]

    def residual(a, b):
        rows_a, tb, ab = lifted_rows[a], units[b], table[a][b]
        out = {}
        if (rows_a is not None and tb is not None and ab is not None
                and rows_a[b] is not None and _split_chain(out, tb, rows_a, prod)
                and (right := chained(tb, table[a])) is not None
                and _split_chain(out, rows_a[b], units, prod, -1)
                and _split_chain(out, right, units, prod, -1)
                and _split_chain(out, [(k, p, c * w) for k, _, c in ab for _, p, w in omega],
                                 units, prod, -1)):
            terms = {}
            for (m, e), v in out.items():
                if v:
                    terms.setdefault(m, {})[exps[e]] = v
            return {m: Poly(t, ts) for m, ts in terms.items()}

    return residual


def window_checks(w: CoeffWindow, T: ModuleMap | None = None,
                  weight: Poly | Fraction | int = 0) -> Report:
    """Lie axioms on window symbols, and the lifted Rota-Baxter identity.

    Each is a chain sum over the unit-pair table, whose entry is None for a
    pair that leaves the window.  A triple (or pair) is skipped when a pair it
    needs leaves the window, or when a symbol in the support of an argument of
    the lift lifts out of it; each sweep gets the nonzero residuals of the
    instances evaluated and the number skipped.  Where the row of [b,a] is
    exactly minus that of [a,b], or both are None, J(b,a,c) = -J(a,b,c) with
    the same skips, since J(a,b,c) + J(b,a,c) = -[[a,b] + [b,a], c]; so is the
    lifted R(b,a) = -R(a,b) when every pair of {a} + supp Ta and {b} + supp Tb
    is such a pair.  Each such pair is evaluated in one order.
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

    def row(elem):
        return None if elem is None else [(index[k], c) for k, c in elem.items()]

    def constants(out):  # an instance's nonzero rational sums as Polys
        return {m: Poly.const(t, v) for m, v in out.items() if v}

    # a table whose cofactors are all constant is built and summed as rationals
    rational = w._rational is not None
    table = [[row(w._pair_bracket(*sa, *sb, rational)) for sb in syms] for sa in syms]
    close = constants if rational else Sums.close
    cols = list(zip(*table))
    report = Report()

    antisymmetry, skipped = {} if rational else Sums(t), 0
    for a, row_a in enumerate(table):
        for b, ab in enumerate(row_a):
            ba = table[b][a]
            if ab is None or ba is None:
                skipped += 1
                continue
            for m, q in ab + ba:
                if rational:
                    antisymmetry[a, b, m] = antisymmetry.get((a, b, m), 0) + q
                else:
                    antisymmetry.add((a, b, m), q)
    report.sweep("antisymmetry", (names,) * 2, close(antisymmetry), names, "[{},{}]", skipped)

    # negated[a][b]: [b,a] is exactly -[a,b], or both leave the window
    negated = [[ab is None is ba or None not in (ab, ba) and dict(ab) == {k: -q for k, q in ba}
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
                        or not (_chain(out := {} if rational else Sums(t), bc, row_a)
                                and _chain(out, ab, cols[c], -1) and _chain(out, ac, row_b, -1))):
                    skipped += 1 + mirror
                    continue
                for m, p in close(out).items():
                    residuals[a, b, c, m] = p
                    if mirror:
                        residuals[b, a, c, m] = -p
    report.sweep("jacobi", (names,) * 3, residuals, names, "[{},[{},{}]]", skipped)

    if T is not None:
        lift = w.lift_map(T)
        weight = weight if isinstance(weight, Poly) else Poly.const(t, weight)
        if weight.table != t:
            raise VarTableMismatch("the weight and the algebra have different variable tables")
        lifted = [row(lift(w.unit(*sym))) for sym in syms]
        residual = (_split_lift(t, table, lifted, weight) if rational
                    else _sums_lift(t, table, cols, lifted, weight))
        # R(b,a) = -R(a,b) when every pair of {a} + supp Ta and {b} + supp Tb is negated
        spans = [None if ta is None else {a, *(k for k, _ in ta)} for a, ta in enumerate(lifted)]
        mirrored = {(a, b) for a, sa in enumerate(spans) for b, sb in enumerate(spans)
                    if a < b and sa and sb and all(negated[k][l] for k in sa for l in sb)}
        residuals, skipped = {}, 0
        for a in range(n):
            for b in range(n):
                if (b, a) in mirrored:
                    continue
                mirror = (a, b) in mirrored
                # [T a, T b] - T([T a, b] + [a, T b] + weight [a, b]), None for a skip
                if (out := residual(a, b)) is None:
                    skipped += 1 + mirror
                    continue
                for m, p in out.items():
                    residuals[a, b, m] = p
                    if mirror:
                        residuals[b, a, m] = -p
        report.sweep("lifted_rota_baxter", (names,) * 2, residuals, names, skipped=skipped)
    return report
