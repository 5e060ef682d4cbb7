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
one per monomial in the parameters, keyed by the monomial's ``poly`` key,
which the d-split cofactors already carry, so that a product of monomials is
the sum of their keys.  No chain multiplies more than three of them, so a
window whose largest degree, tripled, would pass the kernel's slots is
refused before any chain is summed.  A row over n symbols is [(symbol, n * key, rational)],
each chain sums in a plain dict keyed symbol + n * key, and a Poly is built
only for a nonzero sum.
``_chain`` stays apart from ``algebra._contract``, the sum every other
identity uses: a row of the unit-pair table may leave the window, which skips
the instance, and the structure-constant contraction has no such case.  Two
symbols are negated when their antisymmetry sum is zero, or when both their
brackets leave the window.  For any bracket
J(a,b,c) + J(b,a,c) = -[[a,b] + [b,a], c], with J the Jacobi residual, and
the lifted residual of (b, a) is likewise minus that of (a, b) when every
pair of {a} + supp Ta and {b} + supp Tb is negated.  So one mirror rule
serves both sweeps: with spans[a] = {a} for Jacobi and {a} + supp Ta for the
lift, an ordered pair is evaluated once, and the other order's residuals and
skips are written from it, when every pair of spans[a] x spans[b] is negated.
The test is per pair, because a window edge can leave [a,b] out of the window
while [b,a] is zero.  The Jacobi sweep spans (rank * (2N + 1))^3 triples,
those written from a mirror included, and a window past
``MAX_WINDOW_TRIPLES`` of them is refused before any is built.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import LIE, ConformalAlgebra, PreconditionError
from .linmap import ModuleMap, _checked_entries
from .poly import Poly, Record, VarTableMismatch, _degree, _fit, _make, _normal, _shown
from .report import Report


# the most Jacobi triples, (rank * (2N + 1))^3, that window_checks sweeps
MAX_WINDOW_TRIPLES = 1_000_000


def _falling(t: int, s: int) -> int:
    out = 1
    for k in range(s):
        out *= t - k
    return out


def _d_split(p: Poly) -> list:
    """p as [(s, terms)]: the terms by key of the cofactor of each power d^s."""
    return [(s, cof.packed) for (s,), cof in p.split(("d",)).items()]


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
        self._shift = [self.shifts.get(i, 0) for i in range(algebra.rank)]

    def symbols(self) -> list[tuple[int, int]]:
        return [(i, raw - s) for i, s in enumerate(self._shift)
                for raw in range(-self.N, self.N + 1)]

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
        """The product of the window symbols (i, m) and (j, n), split by monomial."""
        mu = m + self._shift[i]
        nu = n + self._shift[j]
        # a_m . b_n = sum_deg m(m-1)...(m-deg+1) (c_deg)_{m+n-deg}, with
        # c_deg = a_(deg) b / deg! the x^deg coefficient of the bracket
        return self._reduce((k, mu + nu - deg, split, f)
                            for k, deg, split in self._entries.get((i, j), ())
                            if (f := _falling(mu, deg)))

    def _lift_rows(self, T: ModuleMap) -> list:
        """Each row of T as [(j, d-split of T_ij)] over its nonzero entries."""
        n = self.algebra.rank
        entries = _checked_entries(T, n, n, "the algebra")
        if T.table != self.algebra.table:
            raise VarTableMismatch("the map and the algebra have different variable tables")
        rows = [[] for _ in range(n)]
        for i, j, entry in entries:
            rows[i].append((j, _d_split(entry)))
        return rows

    def _lift_unit(self, rows: list, i: int, m: int) -> dict | None:
        """T of the unit symbol (i, m), split by monomial, for the rows of T."""
        return self._reduce((j, m + self._shift[i], split, 1) for j, split in rows[i])


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
        factors += [cof for row in rows for _, split in row for _, cof in split] + [weight.packed]
    # no chain multiplies more than three monomials
    _fit(3 * max(map(_degree, factors), default=0))

    def row(split):  # a split element as a row [(symbol, n * key, rational)]
        if split is not None:
            return [(index[sym], n * e, q) for (sym, e), q in split.items()]

    def polys(out):  # an instance's nonzero sums as {symbol: Poly}
        split = {}
        for key, q in out.items():
            if q:
                p, m = divmod(key, n)
                split.setdefault(m, {})[p] = q
        return {m: _make(t, _normal(terms)) for m, terms in split.items()}

    table = [[row(w._pair_split(*sa, *sb)) for sb in syms] for sa in syms]
    cols = list(zip(*table))
    report = Report()

    # negated[a]: each b with [a,b] + [b,a] zero, or with both out of the window
    residuals, skipped, negated = {}, 0, [set() for _ in syms]
    for a, row_a in enumerate(table):
        for b, ab in enumerate(row_a):
            ba = table[b][a]
            if ab is None or ba is None:
                if ab is None is ba:
                    negated[a].add(b)
                skipped += 1
                continue
            out = {}
            for m, p, q in ab + ba:
                out[m + p] = out.get(m + p, 0) + q
            if not (sums := polys(out)):
                negated[a].add(b)
            for m, poly in sums.items():
                residuals[a, b, m] = poly
    report.sweep("antisymmetry", (names,) * 2, residuals, names, "[{},{}]", skipped)

    def pair_sweep(spans, evaluate):
        # evaluate(a, b) gives the nonzero residuals {rest: Poly} of the
        # instances (a, b, *rest) and the number it skipped; (b, a)'s are
        # written from (a, b)'s when every pair of spans[a] x spans[b] is negated
        residuals, skipped = {}, 0
        for a, sa in enumerate(spans):
            # the symbols negated with every symbol of spans[a]
            common = set.intersection(*(negated[k] for k in sa)) if sa else set()
            for b, sb in enumerate(spans):
                mirror = a != b and sb is not None and sb <= common
                if mirror and b < a:
                    continue
                sums, skips = evaluate(a, b)
                skipped += skips * (1 + mirror)
                for rest, p in sums.items():
                    residuals[(a, b, *rest)] = p
                    if mirror:
                        residuals[(b, a, *rest)] = -p
        return residuals, skipped

    def jacobi(a, b):  # [a,[b,c]] - [[a,b],c] - [b,[a,c]] over every c
        row_a, row_b, ab = table[a], table[b], table[a][b]
        if ab is None:
            return {}, n
        sums, skips = {}, 0
        for c, (bc, ac) in enumerate(zip(row_b, row_a)):
            if (bc is None or ac is None
                    or not (_chain(out := {}, bc, row_a)
                            and _chain(out, ab, cols[c], -1) and _chain(out, ac, row_b, -1))):
                skips += 1
            elif any(out.values()):
                for m, p in polys(out).items():
                    sums[c, m] = p
        return sums, skips

    residuals, skipped = pair_sweep([{a} for a in range(n)], jacobi)
    report.sweep("jacobi", (names,) * 3, residuals, names, "[{},[{},{}]]", skipped)

    if T is not None:
        units = [row(w._lift_unit(rows, *sym)) for sym in syms]
        # a zero weight still needs each symbol of [a, b] to lift into the window
        omega = [(n * e, q) for e, q in weight.packed.items()] or [(0, 0)]

        def chained(terms, rows):  # a chain sum as a row, or None
            out = {}
            if _chain(out, terms, rows):
                return [(key % n, key - key % n, q) for key, q in out.items() if q]

        # the rows [T a, u_l] of each a that lifts into the window, each closed or None
        lifted_rows = [None if ta is None else [chained(ta, col) for col in cols] for ta in units]

        def lifted(a, b):  # [T a, T b] - T([T a, b] + [a, T b] + weight [a, b])
            rows_a, tb, ab = lifted_rows[a], units[b], table[a][b]
            out = {}
            if (rows_a is not None and tb is not None and ab is not None
                    and rows_a[b] is not None and _chain(out, tb, rows_a)
                    and (right := chained(tb, table[a])) is not None
                    and _chain(out, rows_a[b], units, -1)
                    and _chain(out, right, units, -1)
                    and _chain(out, [(k, p + r, c * v) for k, p, c in ab for r, v in omega],
                               units, -1)):
                return {(m,): p for m, p in polys(out).items()}, 0
            return {}, 1

        spans = [None if ta is None else {a, *(k for k, _, _ in ta)} for a, ta in enumerate(units)]
        residuals, skipped = pair_sweep(spans, lifted)
        report.sweep("lifted_rota_baxter", (names,) * 2, residuals, names, skipped=skipped)
    return report
