"""Differential tests: the tensor equations, the cobracket, form evaluation and
the endomorphism a tensor induces through a form, against reference oracles
that expand every entry pair by hand.

Each oracle spells out, per pair of tensor entries (or per pair of element
components), the expansion of one sesquilinear product at the reserved
variable z1, the shift by the slot derivation and the final substitution of
z1.  The library computes the same sums through ``apply_bilinear``; the two
must agree exactly, term for term, on zero and nonzero residuals alike.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confalg import (
    Poly,
    Tensor2,
    Tensor3,
    VarTable,
    catalog,
    cobracket_from_r,
    cocycle_from_r,
    cybe_residual,
    invert_module_map,
    normal_form3,
    s_residual,
    sub_adjacent,
)
from confalg.operators import BilinearForm, form_pr_map
from conftest import poly_strategy

T = VarTable(params=("b", "g0", "g1", "g2", "g3"))
LIE_ENTRY = catalog("hv_lsc1_skew_r", table=T)
LSC_ENTRY = catalog("hv_lsc2_sym_r", table=T)
RANK = LIE_ENTRY.algebra.rank


# -- reference oracles ---------------------------------------------------------

def oracle_cybe(A, r):
    table = A.table
    z1 = Poly.var(table, "z1")
    d1 = Poly.var(table, "d1")
    d2 = Poly.var(table, "d2")
    d3 = Poly.var(table, "d3")
    out = {}

    def put(key, poly):
        out[key] = out.get(key, Poly.zero(table)) + poly

    entries = list(r.coeffs.items())
    for (p_, q_), f in entries:
        for (u_, v_), g in entries:
            # [a_i mu a_j] ox b_i ox b_j, mu := d2
            fa = f.subs({"d1": -z1})
            ga = g.subs({"d1": z1 + d1, "d2": d3})
            for k, P in A.product(p_, u_).items():
                put((k, q_, v_), (fa * ga * P.subs({"d": d1, "x": z1})).subs({"z1": d2}))
            # - a_i ox [a_j mu b_i] ox b_j, mu := d3
            fb = f.subs({"d2": z1 + d2})
            gb = g.subs({"d1": -z1, "d2": d3})
            for k, P in A.product(u_, q_).items():
                put((p_, k, v_), -(fb * gb * P.subs({"d": d2, "x": z1})).subs({"z1": d3}))
            # - a_i ox a_j ox [b_j mu b_i], mu := d2
            fc = f.subs({"d2": z1 + d3})
            gc = g.subs({"d1": d2, "d2": -z1})
            for k, P in A.product(v_, q_).items():
                put((p_, u_, k), -(fc * gc * P.subs({"d": d3, "x": z1})).subs({"z1": d2}))
    return normal_form3(Tensor3(A, out))


def oracle_s(A, r):
    table = A.table
    g_alg = sub_adjacent(A, checked=False)
    z1 = Poly.var(table, "z1")
    d1 = Poly.var(table, "d1")
    d2 = Poly.var(table, "d2")
    d3 = Poly.var(table, "d3")
    out = {}

    def put(key, poly):
        out[key] = out.get(key, Poly.zero(table)) + poly

    entries = list(r.coeffs.items())
    for (p_, q_), f in entries:
        for (u_, v_), g in entries:
            # (l_j mu r_i) ox r_j ox l_i, mu := d2
            fa = f.subs({"d1": z1 + d1, "d2": d3})
            ga = g.subs({"d1": d2, "d2": -z1})
            for k, P in A.product(v_, p_).items():
                put((k, u_, q_), (fa * ga * P.subs({"d": d1, "x": z1})).subs({"z1": d2}))
            # - r_j ox (l_j mu r_i) ox l_i, mu := d1
            fb = f.subs({"d1": z1 + d2, "d2": d3})
            gb = g.subs({"d2": -z1})
            for k, P in A.product(v_, p_).items():
                put((u_, k, q_), -(fb * gb * P.subs({"d": d2, "x": z1})).subs({"z1": d1}))
            # - r_i ox r_j ox [l_i mu l_j], mu := d1
            fc = f.subs({"d2": -z1})
            gc = g.subs({"d1": d2, "d2": z1 + d3})
            for k, Q in g_alg.product(q_, v_).items():
                put((p_, u_, k), -(fc * gc * Q.subs({"d": d3, "x": z1})).subs({"z1": d1}))
    return normal_form3(Tensor3(A, out))


def oracle_cobracket(A, r, a):
    table = A.table
    z1 = Poly.var(table, "z1")
    d1 = Poly.var(table, "d1")
    d2 = Poly.var(table, "d2")
    lam = -d1 - d2
    out = {}

    def put(key, poly):
        out[key] = out.get(key, Poly.zero(table)) + poly

    for (p_, q_), f in r.coeffs.items():
        for i, h in enumerate(a):
            if h.is_zero:
                continue
            hs = h.subs({"d": -z1})
            f1 = f.subs({"d1": z1 + d1})
            for k, P in A.product(i, p_).items():
                put((k, q_), (hs * f1 * P.subs({"d": d1, "x": z1})).subs({"z1": lam}))
            f2 = f.subs({"d2": z1 + d2})
            for k, P in A.product(i, q_).items():
                put((p_, k), (hs * f2 * P.subs({"d": d2, "x": z1})).subs({"z1": lam}))
    return Tensor2(A, out)


def oracle_eval_at(form, a, b, lam):
    t = form.table
    z1 = Poly.var(t, "z1")
    out = Poly.zero(t)
    for i, p in enumerate(a):
        if p.is_zero:
            continue
        ps = p.subs({"d": -z1})
        for j, q in enumerate(b):
            c = form.matrix[i][j]
            if q.is_zero or c.is_zero:
                continue
            out = out + ps * q.subs({"d": z1}) * c.subs({"x": z1})
    return out.subs({"z1": lam})


def oracle_form_pr_map(A, B, r):
    """pairing(r, u ox v) = pairing(P_{x-d}(u), v), solved by inverting the form."""
    inv = invert_module_map(B.induced_map())
    t = A.table
    X = Poly.var(t, "x")
    Y = Poly.var(t, "y")
    D = Poly.var(t, "d")
    n = A.rank
    rhs = [[Poly.zero(t) for _ in range(n)] for _ in range(n)]
    for (p_, q_), f in r.coeffs.items():
        fc = f.subs({"d1": Y - X, "d2": -Y})
        for i in range(n):
            Bpi = B.matrix[p_][i].subs({"x": X - Y})
            if Bpi.is_zero:
                continue
            for j in range(n):
                Bqj = B.matrix[q_][j].subs({"x": Y})
                if not Bqj.is_zero:
                    rhs[i][j] = rhs[i][j] + fc * Bpi * Bqj
    matrix = [[Poly.zero(t) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for k in range(n):
            acc = Poly.zero(t)
            for j in range(n):
                invjk = inv.matrix[j][k].subs({"d": -Y})
                if not invjk.is_zero:
                    acc = acc + rhs[i][j] * invjk
            matrix[i][k] = acc.subs({"y": -D})
    return matrix


# -- inputs --------------------------------------------------------------------

index = st.integers(0, RANK - 1)
slot_poly = poly_strategy(T, names=("d1", "d2", "b"), max_terms=3, max_degree=2)
bumps = st.dictionaries(st.tuples(index, index), slot_poly, max_size=4)
element = st.lists(poly_strategy(T, names=("d", "b"), max_terms=3, max_degree=2),
                   min_size=RANK, max_size=RANK)
form_matrix = st.lists(st.lists(poly_strategy(T, names=("x", "b"), max_terms=3, max_degree=2),
                                min_size=RANK, max_size=RANK),
                       min_size=RANK, max_size=RANK)
X, Y, D = (Poly.var(T, n) for n in ("x", "y", "d"))
arguments = st.sampled_from([X, -X, Y, X + Y, X - D, -X - D])
# the library's form type, as cocycle_from_r returns it; tests replace its matrix
FORM = cocycle_from_r(LIE_ENTRY.algebra, LIE_ENTRY.tensor, "lie")
BUMP = {(0, 2): Poly.var(T, "d1") * Poly.var(T, "b"), (3, 1): Poly.var(T, "d2") + 1}


HV = catalog("hv", table=T).algebra


@st.composite
def unit_triangular_forms(draw, A):
    """A form whose matrix is unit triangular, upper or lower, with entries in x and b."""
    n = A.rank
    cell = poly_strategy(T, names=("x", "b"), max_terms=3, max_degree=2)
    upper = draw(st.booleans())
    matrix = [[Poly.const(T, 1) if i == j
               else draw(cell) if (j > i) == upper else Poly.zero(T)
               for j in range(n)] for i in range(n)]
    return BilinearForm(T, A.basis, matrix)


def bumped(entry, bump):
    """The catalog's canonical tensor plus extra entries."""
    r = entry.tensor
    return r + Tensor2(r.algebra, bump)


class TestOracles:
    @given(bump=bumps)
    @example(bump={})
    @example(bump=BUMP)
    @settings(max_examples=25, deadline=None)
    def test_cybe(self, bump):
        r = bumped(LIE_ENTRY, bump)
        assert cybe_residual(r.algebra, r).coeffs == oracle_cybe(r.algebra, r).coeffs

    @given(bump=bumps)
    @example(bump={})
    @example(bump=BUMP)
    @settings(max_examples=25, deadline=None)
    def test_s_equation(self, bump):
        r = bumped(LSC_ENTRY, bump)
        assert s_residual(r.algebra, r).coeffs == oracle_s(r.algebra, r).coeffs

    @given(bump=bumps, a=element)
    @settings(max_examples=25, deadline=None)
    def test_cobracket(self, bump, a):
        for entry in (LIE_ENTRY, LSC_ENTRY):
            r = bumped(entry, bump)
            got = cobracket_from_r(r.algebra, r, tuple(a))
            assert got.coeffs == oracle_cobracket(r.algebra, r, tuple(a)).coeffs

    @given(matrix=form_matrix, a=element, b=element, lam=arguments)
    @settings(max_examples=40, deadline=None)
    def test_eval_at(self, matrix, a, b, lam):
        form = dataclasses.replace(FORM, matrix=matrix)
        assert form.eval_at(tuple(a), tuple(b), lam) == oracle_eval_at(form, a, b, lam)

    @pytest.mark.parametrize("A", [HV, LIE_ENTRY.algebra], ids=["hv", "hv_lsc1_skew_r"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_form_pr_map(self, A, data):
        form = data.draw(unit_triangular_forms(A))
        ix = st.integers(0, A.rank - 1)
        r = Tensor2(A, data.draw(st.dictionaries(st.tuples(ix, ix), slot_poly, max_size=4)))
        assert form_pr_map(A, form, r).matrix == oracle_form_pr_map(A, form, r)

    def test_nonzero_residuals_are_compared(self):
        lie = bumped(LIE_ENTRY, BUMP)
        lsc = bumped(LSC_ENTRY, BUMP)
        assert not oracle_cybe(lie.algebra, lie).is_zero
        assert not oracle_s(lsc.algebra, lsc).is_zero
        assert oracle_cybe(LIE_ENTRY.algebra, LIE_ENTRY.tensor).is_zero
        assert oracle_s(LSC_ENTRY.algebra, LSC_ENTRY.tensor).is_zero
