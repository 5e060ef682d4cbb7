import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from confalg import (
    ConformalAlgebra,
    GDBialgebra,
    LIE,
    LEFT_SYMMETRIC,
    PreconditionError,
    Poly,
    Representation,
    Tensor3,
    VarTable,
    VarTableMismatch,
    parse,
    standard_rep,
)
from confalg.linmap import ModuleMap, NotInvertible
from confalg.poly import Substitution, _make, _normal

# Every run draws the same examples, so that a failure, or a kill in a
# mutation run, repeats from one run to the next.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def bare_modules():
    """The modules a bare `python -c` child holds, with the package on its
    path: what start-up and any `site` hook import outside the package."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    child = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                           capture_output=True, text=True, env=env, timeout=60, check=True)
    return set(child.stdout.split())


@pytest.fixture(scope="session")
def table():
    return VarTable(params=("b", "g0", "g1", "g2", "g3"))


@pytest.fixture(scope="session")
def P(table):
    def _parse(text):
        return parse(table, text)

    return _parse


@pytest.fixture(scope="session")
def vir(table, P):
    return ConformalAlgebra(LIE, ("L",), table, {(0, 0): {0: P("d+2*x")}})


@pytest.fixture(scope="session")
def hv(table, P):
    return ConformalAlgebra(LIE, ("L", "W"), table, {
        (0, 0): {0: P("d+2*x")},
        (0, 1): {1: P("d+x")},
        (1, 0): {1: P("x")},
    })


@pytest.fixture(scope="session")
def comm1(table):
    # rank-1 commutative product: e_x e = e
    return ConformalAlgebra(LEFT_SYMMETRIC, ("e",), table,
                            {(0, 0): {0: Poly.const(table, 1)}})


def poly_strategy(table, names=("d", "x", "y"), max_terms=4, max_degree=3):
    idx = [table.index[n] for n in names]
    width = len(table.names)

    def build(pairs):
        terms = {}
        for exps, num in pairs:
            full = [0] * width
            for i, e in zip(idx, exps):
                full[i] = e
            key = tuple(full)
            terms[key] = terms.get(key, 0) + Fraction(num)
        return Poly(table, terms)

    exp_tuple = st.tuples(*[st.integers(0, max_degree) for _ in names])
    coeff = st.integers(-6, 6).filter(lambda n: n != 0)
    return st.lists(st.tuples(exp_tuple, coeff), max_size=max_terms).map(build)


GD_CONSTANT = st.sampled_from([Fraction(c) for c in (1, -1, 2, -3)]
                              + [Fraction(1, 2), Fraction(-2, 3)])


def _constant_table(n):
    """Sparse rational tables {(i, j): {k: c}} on n basis elements."""
    cell = st.dictionaries(st.integers(0, n - 1), GD_CONSTANT, min_size=1, max_size=2)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.dictionaries(pair, cell, max_size=n * n // 2 + 1)


@st.composite
def gd_tables(draw, max_dim=4, antisymmetric=False):
    """Bialgebras of dimension 1 to max_dim with sparse rational tables, so
    that both passing and failing ones are common; with ``antisymmetric`` the
    Lie part is [e_j, e_i] = -[e_i, e_j] with a zero diagonal."""
    n = draw(st.integers(1, max_dim))
    circ, lie = draw(_constant_table(n)), draw(_constant_table(n))
    if antisymmetric:
        upper = {(i, j): targets for (i, j), targets in lie.items() if i < j}
        lie = {**upper, **{(j, i): {k: -c for k, c in targets.items()}
                           for (i, j), targets in upper.items()}}
    return GDBialgebra(tuple(f"e{i}" for i in range(n)), VarTable(), circ, lie)


def regular_module(A):
    """The regular module (A, left mult, right mult) of a left-symmetric algebra."""
    if A.kind != LEFT_SYMMETRIC:
        raise PreconditionError("regular module requires a left-symmetric algebra")
    rr = standard_rep(A, "regular_right")
    return Representation(A, A.basis, left=dict(A.products), right=rr.rho)


def load_script(name):
    """A fresh module of scripts/<name>.py."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_benchmark(name):
    """A fresh module of perfbench/<name>.py."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while defined
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


# -- dense references ------------------------------------------------------------
# The bodies the library replaced with table contractions and one sparse
# accumulator, kept as they were so that the differential tests compare the
# library with code that does not share its engine.

class Scratch:
    """``table`` extended by scratch variables ``names``, for a dense reference
    that expands at variables the library's tables do not hold: ``embed``
    takes a polynomial over ``table`` into the extended table ``ext`` (a
    scalar stays as it is), and ``project`` takes a result back once its
    scratch variables are substituted away."""

    def __init__(self, table, names):
        self.table, self.ext = table, table.extended(names)

    def var(self, name):
        return Poly.var(self.ext, name)

    def embed(self, p):
        return p.embed(self.ext) if isinstance(p, Poly) else p

    def project(self, p):
        """``p``, over any table that extends ``table`` by variables ``p``
        does not hold, over ``table``."""
        width = len(self.table.names)
        assert p.table.names[:width] == self.table.names, p.table
        assert not any(any(e[width:]) for e in p.terms), f"{p} holds a scratch variable"
        return Poly(self.table, {e[:width]: c for e, c in p.terms.items()})


def oracle_apply_bilinear(table, products, a, b, lam, out_rank, out="d"):
    """Sesquilinear extension of a structure-constant table, visiting every
    slot pair: a power of the first factor's d becomes (-z)^m, of the second's
    (z + out)^m, and the table's d becomes ``out``; the product is expanded at
    the scratch variable z, which is substituted by ``lam`` at the end."""
    s = Scratch(table, ("z",))
    z = s.var("z")
    dout = s.var(out) if isinstance(out, str) else Poly.const(s.ext, out)
    at_z = Substitution(s.ext, {"x": z} if out == "d" else {"d": dout, "x": z})
    left, right = Substitution(s.ext, {"d": -z}), Substitution(s.ext, {"d": z + dout})
    acc = [Poly.zero(s.ext) for _ in range(out_rank)]
    shifted_b = [None] * len(b)
    for i, fi in enumerate(a):
        if fi.is_zero:
            continue
        fi_s = left(s.embed(fi))
        for j, gj in enumerate(b):
            targets = products.get((i, j))
            if gj.is_zero or not targets:
                continue
            if shifted_b[j] is None:
                shifted_b[j] = right(s.embed(gj))
            prod = fi_s * shifted_b[j]
            for k, P in targets.items():
                acc[k] = acc[k] + prod * at_z(s.embed(P))
    at_lam = Substitution(s.ext, {"z": s.embed(lam)})
    return tuple(s.project(at_lam(p)) for p in acc)


def normal_form3(t):
    """Reduce a cube modulo the diagonal derivation: substitute d3 := -d1-d2,
    with d3 a scratch variable of the coefficients' table, and project the
    coefficients to the algebra's table; a coefficient over that table is
    already reduced.  The residuals of ``confalg.tensor`` are built reduced;
    the oracles that expand a cube first reduce it with this."""
    back = Scratch(t.algebra.table, ())
    out = {}
    for k, p in t.coeffs.items():
        if "d3" in p.table:
            p = p.subs({"d3": -Poly.var(p.table, "d1") - Poly.var(p.table, "d2")})
        out[k] = back.project(p)
    return Tensor3(t.algebra, out)


def window_unit(w, i, m):
    """The window element u_m of generator i."""
    return {(i, m): Poly.const(w.algebra.table, 1)}


def window_modes(out, w, scale, k, P, t, x_factor):
    """Add scale times the modes of P(x, d) u_k at raw index t into `out`, by
    the textbook rule: a term c x^p d^s gives x_factor(p) (d^s c u_k)_{t-p},
    and (d^s u)_t = (-1)^s t(t-1)...(t-s+1) u_{t-s}.  False when a mode with a
    nonzero factor leaves the window [-N, N] of raw indices."""
    table = P.table
    ix, id_ = table.index["x"], table.index["d"]
    for exps, c in P.terms.items():
        p, s = exps[ix], exps[id_]
        f = x_factor(p) * (-1) ** s * math.prod(range(t - p - s + 1, t - p + 1))
        if f == 0:
            continue
        raw = t - p - s
        if abs(raw) > w.N:
            return False
        rest = list(exps)
        rest[ix] = rest[id_] = 0
        key = (k, raw - w.shifts.get(k, 0))
        piece = scale * Poly(table, {tuple(rest): f * c})
        out[key] = out[key] + piece if key in out else piece
    return True


def window_bracket(w, a, b):
    """The bracket of the window elements a and b of ``w``, by the textbook
    formula: with raw indices m, n (the user's plus the shift) and c_p the
    x^p coefficient of the table entry,
    a_m . b_n = sum_p m(m-1)...(m-p+1) (c_p)_{m+n-p}.  None, out of the
    window, propagates, and zero sums are dropped."""
    if a is None or b is None:
        return None
    out = {}
    for (i, m), ca in a.items():
        mu = m + w.shifts.get(i, 0)
        for (j, n), cb in b.items():
            nu = n + w.shifts.get(j, 0)
            if abs(mu) > w.N or abs(nu) > w.N:
                return None
            for k, P in w.algebra.products.get((i, j), {}).items():
                if not window_modes(out, w, ca * cb, k, P, mu + nu,
                                    lambda p: math.prod(range(mu - p + 1, mu + 1))):
                    return None
    return {key: c for key, c in out.items() if not c.is_zero}


def window_lift(w, T, a):
    """T(a) for the window element a of ``w``, by the textbook rule: u_m of
    generator i at raw index m (the user's plus the shift of i) lifts to
    sum_j (T_ij(d) u_j)_m.  None, out of the window, propagates, and zero
    sums are dropped."""
    if a is None:
        return None
    out = {}
    for (i, m), c in a.items():
        for j, P in enumerate(T.matrix[i]):
            if not window_modes(out, w, c, j, P, m + w.shifts.get(i, 0), lambda p: 1):
                return None
    return {key: c for key, c in out.items() if not c.is_zero}


def package_bracket(w, i, m, j, n):
    """The package's bracket of the unit symbols (i, m) and (j, n), read from
    the monomial split that ``window_checks`` builds its table from, as
    {symbol: Poly}; None out of the window.  The split is keyed by the
    kernel's packed monomial keys."""
    split = w._pair_split(i, m, j, n)
    if split is None:
        return None
    out = {}
    for (sym, e), q in split.items():
        out.setdefault(sym, {})[e] = q
    return {sym: _make(w.algebra.table, _normal(terms)) for sym, terms in out.items()}


def oracle_apply_matrix(matrix, w, table):
    """The row vector w times a matrix of polynomials, entry by entry."""
    cols = len(matrix[0]) if matrix else 0
    out = [Poly.zero(table) for _ in range(cols)]
    for i, h in enumerate(w):
        if h.is_zero:
            continue
        for j in range(cols):
            entry = matrix[i][j]
            if not entry.is_zero:
                out[j] = out[j] + h * entry
    return tuple(out)


def oracle_determinant(matrix, table):
    """Laplace expansion along the first row."""
    n = len(matrix)
    if n == 0:
        return Poly.const(table, 1)
    if any(len(row) != n for row in matrix):
        raise NotInvertible("matrix is not square")
    if n == 1:
        return matrix[0][0]
    det = Poly.zero(table)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        cofactor = oracle_determinant(minor, table)
        signed = entry * cofactor
        det = det + (signed if j % 2 == 0 else -signed)
    return det


def oracle_invert_module_map(m):
    """Adjugate over the Laplace determinant, one minor per entry."""
    n = m.src_rank
    if any(len(row) != n for row in m.matrix):
        raise NotInvertible("matrix is not square")
    det = oracle_determinant(m.matrix, m.table)
    value = det.constant_value()
    if value is None:
        raise NotInvertible(f"determinant {det} is not a unit")
    if value == 0:
        raise NotInvertible("determinant is zero")
    inv_det = Fraction(1) / value
    adj = [[Poly.zero(m.table) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m.matrix[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = oracle_determinant(minor, m.table)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof * inv_det
    return ModuleMap(m.table, adj)


def oracle_rref(rows, columns) -> tuple[list[dict], list]:
    """Reduced row echelon form over Q of sparse rows {column: rational}:
    the dense body ``linmap.rref`` had before its sparse elimination.

    `columns` is the column order.  Returns the nonzero reduced rows, each
    {column: Fraction} with pivot 1, and their pivot columns in that order.
    The rows are cleared of denominators and reduced over the integers,
    fraction-free (Bareiss, Math. Comp. 22, 1968): each step divides exactly
    by the previous pivot, and in the end all pivots equal the last one.
    """
    index = {c: i for i, c in enumerate(columns)}
    mat = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row.values()))
        dense = [0] * len(columns)
        for c, v in row.items():
            dense[index[c]] = v.numerator * (den // v.denominator)
        mat.append(dense)
    pivots, prev = [], 1
    for j in range(len(columns)):
        r = len(pivots)
        hit = next((i for i in range(r, len(mat)) if mat[i][j]), None)
        if hit is None:
            continue
        mat[r], mat[hit] = mat[hit], mat[r]
        top = mat[r]
        mat = [row if i == r else [(top[j] * x - row[j] * y) // prev for x, y in zip(row, top)]
               for i, row in enumerate(mat)]
        prev = top[j]
        pivots.append(j)
    reduced = [{columns[k]: Fraction(x, prev) for k, x in enumerate(row) if x}
               for row in mat[:len(pivots)]]
    return reduced, [columns[j] for j in pivots]


def oracle_regular_right(A):
    """R(e_i)_x e_j = (e_j)_{-x-d} e_i, re-keyed entry by entry."""
    t = A.table
    out = {}
    skew = Substitution(t, {"x": -Poly.var(t, "x") - Poly.var(t, "d")})
    for (j, i), targets in A.products.items():
        out[(i, j)] = {k: skew(P) for k, P in targets.items()}
    return out


def oracle_dual_rep(rep):
    """rho*_ijk(d, x) = -rho_ikj(-x-d, x), re-keyed entry by entry."""
    t = rep.algebra.table
    skew = Substitution(t, {"d": -Poly.var(t, "x") - Poly.var(t, "d")})
    out = {}
    for (i, k), targets in rep.rho.items():
        for j, P in targets.items():
            out.setdefault((i, j), {})[k] = -skew(P)
    names = tuple(n + "*" for n in rep.mbasis)
    return Representation(rep.algebra, names, rho=out)


def oracle_semidirect(A, rep):
    """The semidirect sum's table, copied and put entry by entry."""
    t = A.table
    skew = Substitution(t, {"x": -Poly.var(t, "x") - Poly.var(t, "d")})
    n = A.rank
    products = {}
    for pair, targets in A.products.items():
        products[pair] = dict(targets)

    def put(pair, k, poly):
        products.setdefault(pair, {})[k] = poly  # every (pair, k) is set once

    if A.kind == LIE:
        for (i, j), targets in rep.rho.items():
            for k, P in targets.items():
                put((i, n + j), n + k, P)
                put((n + j, i), n + k, -skew(P))
    else:
        for (i, j), targets in rep.left.items():
            for k, P in targets.items():
                put((i, n + j), n + k, P)
        for (i, j), targets in rep.right.items():
            for k, P in targets.items():
                put((n + j, i), n + k, skew(P))
    return ConformalAlgebra(A.kind, A.basis + rep.mbasis, t, products)


# -- full-width kernel references -------------------------------------------------
# The kernel's term arithmetic as it was before products and substitutions
# touched only a term's nonzero exponents: every product key is built across
# every slot of the table.  A sum merges its terms one by one, normalising each.

def _oracle_check(*polys):
    if any(q.table != polys[0].table for q in polys):
        raise VarTableMismatch("polynomials over different variable tables")


def oracle_add(a, b):
    """Poly + Poly or scalar: b's terms merged into a copy of a's, each sum
    dropped when zero and stored as an int when integral."""
    if not isinstance(b, Poly):
        b = Poly.const(a.table, b)
    _oracle_check(a, b)
    out = dict(a.terms)
    get = out.get
    for exps, c in b.terms.items():
        s = get(exps, 0) + c
        if not s:
            del out[exps]
        elif type(s) is int or s.denominator != 1:
            out[exps] = s
        else:
            out[exps] = s.numerator
    return Poly(a.table, out)


def oracle_mul(a, b):
    """Poly * Poly, each product key ``tuple(map(add, e1, e2))``."""
    _oracle_check(a, b)
    out = {}
    get = out.get
    right = list(b.terms.items())
    for e1, c1 in a.terms.items():
        for e2, c2 in right:
            key = tuple(map(add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return Poly(a.table, out)


def oracle_sums_add(sums, key, a, b=None, sign=1):
    """``sums.add(key, a, b, sign)``, each product key built full width, into
    a ``Sums`` that ``oracle_sums_close`` closes."""
    _oracle_check(a, *(() if b is None else (b,)))
    if a.table != sums.table:
        raise VarTableMismatch("polynomials over different variable tables")
    terms = sums.raw.setdefault(key, {})
    get = terms.get
    if b is None:
        for e, c in a.terms.items():
            terms[e] = get(e, 0) + sign * c
        return
    right = b.terms.items()
    for e1, c1 in a.terms.items():
        c1 *= sign
        for e2, c2 in right:
            e = tuple(map(add, e1, e2))
            terms[e] = get(e, 0) + c1 * c2


def oracle_sums_close(sums):
    """``sums.close()`` of the exponent-tuple sums ``oracle_sums_add`` made."""
    return {key: q for key, terms in sums.raw.items() if not (q := Poly(sums.table, terms)).is_zero}


def _oracle_pow(q, n):
    result, base = Poly.const(q.table, 1), q
    while n:
        if n & 1:
            result = oracle_mul(result, base)
        n >>= 1
        if n:
            base = oracle_mul(base, base)
    return result


def oracle_substitute(mapping, p):
    """``p.subs(mapping)``: each touched term's product of powers of the
    values, shifted by the term's own powers of the substituted variables and
    added to the term, full width."""
    table = p.table
    values = {}
    for name, value in mapping.items():
        if not isinstance(value, Poly):
            value = Poly.const(table, value)
        _oracle_check(p, value)
        values[table.index[name]] = value
    out = {}
    get = out.get
    for exps, c in p.terms.items():
        prod, shift = None, [0] * len(exps)
        for i, value in values.items():
            if e := exps[i]:
                power = value if e == 1 else _oracle_pow(value, e)
                prod = power if prod is None else oracle_mul(prod, power)
                shift[i] = -e
        if prod is None:
            out[exps] = get(exps, 0) + c
            continue
        for e2, c2 in prod.terms.items():
            key = tuple(map(add, exps, map(add, e2, shift)))
            out[key] = get(key, 0) + c * c2
    return Poly(table, out)
