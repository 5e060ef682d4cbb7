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
row [T a, u_l], so that [T a, T b] = sum_l q_l [T a, u_l].  Rows are of two
kinds: when every coefficient of the table is constant, as for a table free
of parameters, its rows hold rationals, which an instance sums in a plain
dict, building a Poly only for a nonzero residual; otherwise, and for the
lifted rows, which carry the map's parameters, rows hold Polys summed in
``Sums``, into which a rational coefficient enters as the sign.  ``_chain`` stays
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
from .poly import Poly, Record, Sums, _constant, _shown
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

    _uncompared = ("_entries",)

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

    def _reduce(self, terms) -> WinElem | None:
        """The sum of scale * c * p(d) u_t over the (k, t, split, c, scale) in
        `terms`: u_t is generator k at raw index t, split the d-split of p,
        (d^s u)_t = (-1)^s t(t-1)...(t-s+1) u_{t-s}, c a polynomial or None for 1
        and scale an integer; None as soon as an index leaves the window."""
        out = Sums(self.algebra.table)
        for k, t, split, c, scale in terms:
            for (s,), cof in split.items():
                factor = (-1) ** s * _falling(t, s)
                if not factor:
                    continue
                raw = t - s
                if abs(raw) > self.N:
                    return None
                out.add((k, raw - self.shift(k)), cof, c, scale * factor)
        return out.close()

    def _pair_bracket(self, i: int, m: int, j: int, n: int) -> WinElem | None:
        """The product of the unit symbols (i, m) and (j, n)."""
        mu = m + self.shift(i)
        nu = n + self.shift(j)
        if abs(mu) > self.N or abs(nu) > self.N:
            return None
        # a_m . b_n = sum_deg m(m-1)...(m-deg+1) (c_deg)_{m+n-deg}, with
        # c_deg = a_(deg) b / deg! the x^deg coefficient of the bracket
        return self._reduce((k, mu + nu - deg, split, None, f)
                            for k, deg, split in self._entries.get((i, j), ())
                            if (f := _falling(mu, deg)))

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


def _chain(out, terms, rows, sign: int = 1, rational_rows: bool = False) -> bool:
    """Add sign * sum of c * rows[k] over (k, c) in `terms` into `out`, where a
    row is [(symbol, coefficient)]; False as soon as a needed row is None.
    `out` is a plain {symbol: rational} dict when c and the rows are rational,
    else a Sums, into which each coefficient of `rational_rows` enters as the sign."""
    plain = type(out) is dict
    for k, c in terms:
        row = rows[k]
        if row is None:
            return False
        if plain:
            for m, q in row:
                out[m] = out.get(m, 0) + sign * c * q
        elif rational_rows:
            for m, q in row:
                out.add(m, c, None, sign * q)
        else:
            for m, q in row:
                out.add(m, c, q, sign)
    return True


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

    def chained(terms, rows):
        out = Sums(t)
        return list(out.close().items()) if _chain(out, terms, rows, 1, rational) else None

    def constants(out):  # an instance's nonzero rational sums as Polys
        return {m: Poly.const(t, v) for m, v in out.items() if v}

    table = [[row(w._pair_bracket(*sa, *sb)) for sb in syms] for sa in syms]
    # a table whose coefficients are all constant holds them as rationals
    if rational := all(_constant(q) for row_a in table for r in row_a if r for _, q in r):
        table = [[r and [(m, _constant(q)) for m, q in r] for r in row_a] for row_a in table]
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
        # a Poly weight makes each c * weight a Poly, as _chain takes into Sums
        weight = weight if isinstance(weight, Poly) else Poly.const(t, weight)
        lifted = [row(lift(w.unit(*sym))) for sym in syms]
        # the rows [T a, u_l] of each a that lifts into the window, each closed or None
        lifted_rows = [None if ta is None else [chained(ta, col) for col in cols]
                       for ta in lifted]
        # R(b,a) = -R(a,b) when every pair of {a} + supp Ta and {b} + supp Tb is negated
        spans = [None if ta is None else {a, *(k for k, _ in ta)} for a, ta in enumerate(lifted)]
        mirrored = {(a, b) for a, sa in enumerate(spans) for b, sb in enumerate(spans)
                    if a < b and sa and sb and all(negated[k][l] for k in sa for l in sb)}
        residuals, skipped = {}, 0
        for a, rows_a in enumerate(lifted_rows):
            for b, (tb, ab) in enumerate(zip(lifted, table[a])):
                if (b, a) in mirrored:
                    continue
                mirror = (a, b) in mirrored
                # [T a, T b] - T([T a, b] + [a, T b] + weight [a, b])
                out = Sums(t)
                if (rows_a is not None and tb is not None and ab is not None
                        and rows_a[b] is not None and _chain(out, tb, rows_a)
                        and (right := chained(tb, table[a])) is not None
                        and _chain(out, rows_a[b], lifted, -1)
                        and _chain(out, right, lifted, -1)
                        and _chain(out, [(k, c * weight) for k, c in ab], lifted, -1)):
                    for m, p in out.close().items():
                        residuals[a, b, m] = p
                        if mirror:
                            residuals[b, a, m] = -p
                else:
                    skipped += 1 + mirror
        report.sweep("lifted_rota_baxter", (names,) * 2, residuals, names, skipped=skipped)
    return report
