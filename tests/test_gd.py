import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from confalg import (
    ConformalAlgebra,
    GDBialgebra,
    ModuleMap,
    NotQuadratic,
    PolySystem,
    PreconditionError,
    ProbeResult,
    VarTable,
    algebra_from_gd,
    catalog,
    check_axioms,
    check_gd,
    gd_from_algebra,
    parse,
    rb_gd_check,
    solve_squares,
    zero_divisor_probe,
)
from confalg.gd import _box, _candidate_key, _coprime, _det, _star_matrices
from confalg.linmap import kernel
from conftest import gd_tables

F = Fraction


def radical_fields(table, n, copies=1):
    """The product of `copies` copies of Q(2^(1/n)), each on 1, a, ..., a^(n-1),
    with half its multiplication as the Novikov product, so that the star
    product is the field product (as in the benchmark's cube_root_field)."""
    circ = {}
    for o in range(0, n * copies, n):
        for i, j in itertools.product(range(n), repeat=2):
            k, c = (i + j, F(1, 2)) if i + j < n else (i + j - n, F(1))
            circ[o + i, o + j] = {o + k: c}
    return GDBialgebra(tuple(f"e{i}" for i in range(n * copies)), table, circ, {})


def kernel_per_candidate_probe(V, bound=3):
    """The probe as it was before candidates were tested by determinant:
    one kernel over Q for every vector a of the box."""
    mats = _star_matrices(V)
    if V.dim == 1:
        if mats[0][0][0]:
            return ProbeResult("no_zero_divisors")
        return ProbeResult("witness", ((F(1),),) * 2)
    columns = range(V.dim)
    for a in _box(bound, V.dim):
        rows = [{j: sum(x * m[k][j] for x, m in zip(a, mats)) for j in columns} for k in columns]
        if null := kernel(rows, columns):
            b = min((_coprime(v, columns) for v in null), key=_candidate_key)
            return ProbeResult("witness", (tuple(map(F, a)), b))
    return ProbeResult("unknown")


@st.composite
def square_matrices(draw):
    """Integer matrices of size 1 to 6 with entries in [-9, 9]; in some, one
    row is the sum of two others, so that singular ones are common."""
    n = draw(st.integers(1, 6))
    M = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        M[k] = [x + y for x, y in zip(M[i], M[j])]
    return M


def hv_gd_with(extra):
    """The bialgebra of hv, L o L = L and W o L = W, with the entries of
    `extra` added to its Novikov table."""
    circ = {(0, 0): {0: F(1)}, (1, 0): {1: F(1)}}
    for key, targets in extra.items():
        circ.setdefault(key, {}).update(targets)
    return GDBialgebra(("L", "W"), VarTable(), circ, {})


class TestCheckGd:
    def test_dim1_novikov(self, table):
        V = GDBialgebra(("L",), table, {(0, 0): {0: F(1)}}, {})
        assert check_gd(V).ok

    def test_hv_extraction(self, hv):
        V = gd_from_algebra(hv)
        assert check_gd(V).ok
        assert V.circ == {(0, 0): {0: F(1)}, (1, 0): {1: F(1)}}
        assert V.lie == {}

    def test_self_bracket_breaks_antisymmetry(self, table):
        V = GDBialgebra(("L",), table, {(0, 0): {0: F(1)}}, {(0, 0): {0: F(1)}})
        report = check_gd(V)
        assert not report.ok
        assert any(c.name == "lie_antisymmetry" and not c.ok for c in report.checks)

    def test_broken_compatibility(self, table):
        # circ: e1 o e1 = e2; lie: [e1, e2] = e1 violates the mixed identity
        V = GDBialgebra(("a", "b"), table,
                        {(0, 0): {1: F(1)}},
                        {(0, 1): {0: F(1)}, (1, 0): {0: F(-1)}})
        report = check_gd(V)
        assert not report.ok


class TestConvert:
    def test_novikov_to_virasoro(self, table, vir):
        V = GDBialgebra(("L",), table, {(0, 0): {0: F(1)}}, {})
        A = algebra_from_gd(V)
        assert A.products == vir.products

    def test_hv_round_trip(self, hv):
        assert algebra_from_gd(gd_from_algebra(hv)).products == hv.products

    def test_vir_round_trip(self, vir):
        V = gd_from_algebra(vir)
        back = algebra_from_gd(V)
        assert back.products == vir.products
        assert gd_from_algebra(back).circ == V.circ

    def test_quadratic_shape_violation(self, table, P):
        # a nonlinear or mixed monomial, a parameter, an x part that is not the star product
        for bracket in ("d+2*x+x^2", "d*x", "b*d+2*b*x", "d+3*x"):
            bad = ConformalAlgebra("lie", ("L",), table, {(0, 0): {0: P(bracket)}})
            with pytest.raises(NotQuadratic, match=r"the bracket on \(L,L\)"):
                gd_from_algebra(bad)

    @given(V=gd_tables(antisymmetric=True))
    @example(V=hv_gd_with({}))                                  # valid
    @example(V=hv_gd_with({(1, 1): {0: F(1)}}))                 # W o W = L
    @example(V=hv_gd_with({(0, 1): {1: F(1)}}))                 # L o W = W
    @example(V=hv_gd_with({(0, 1): {0: F(2)}, (1, 1): {1: F(1)}}))
    @settings(max_examples=150, deadline=None)
    def test_axiom_transport(self, V):
        """The algebra built from a bialgebra passes the conformal axioms exactly
        when the bialgebra passes its own, and extraction gives the bialgebra back."""
        A = algebra_from_gd(V, checked=False)
        assert check_axioms(A).ok == check_gd(V).ok
        back = gd_from_algebra(A)
        assert (back.circ, back.lie) == (V.circ, V.lie)

    def test_transport_with_brackets(self, table):
        # dimension-2 examples with a nonzero Lie part, both verdicts agree
        cases = [
            ({(0, 0): {0: F(1)}}, {(0, 1): {1: F(1)}, (1, 0): {1: F(-1)}}),
            ({(0, 0): {0: F(1)}}, {(0, 1): {0: F(1)}, (1, 0): {0: F(-1)}}),
        ]
        for circ, lie in cases:
            V = GDBialgebra(("a", "b"), table, circ, lie)
            A = algebra_from_gd(V, checked=False)
            assert check_axioms(A).ok == check_gd(V).ok
            back = gd_from_algebra(A)
            assert (back.circ, back.lie) == (V.circ, V.lie)


class TestDeterminant:
    @given(M=square_matrices())
    @example(M=[[0, 1], [1, 0]])                              # a zero pivot: a row swap
    @example(M=[[0, 2, 1], [0, 1, 3], [4, 5, 6]])             # a swap past the next row
    @example(M=[[0, 1, 2], [0, 3, 4], [0, 5, 6]])             # a zero column
    @example(M=[[1, 2, 3], [2, 4, 5], [3, 6, 7]])             # a zero column after one step
    @example(M=[[1, 2, 3], [4, 5, 6], [5, 7, 9]])             # row 3 = row 1 + row 2
    @example(M=[[-7]])
    @settings(max_examples=300, deadline=None)
    def test_against_sympy_and_the_kernel(self, M):
        """The Bareiss determinant is sympy's, and it is 0 exactly when the
        kernel over Q is nonzero; the matrix itself is left as it was."""
        sympy = pytest.importorskip("sympy")
        before = [row[:] for row in M]
        det = _det(M)
        assert M == before
        assert det == sympy.Matrix(M).det()
        columns = range(len(M))
        assert (det == 0) == bool(kernel([dict(zip(columns, row)) for row in M], columns))


# name -> the bialgebra over a table: the catalog's, radical fields, a product
# of two fields and the zero tables
PROBE_CASES = {
    "vir": lambda t: gd_from_algebra(catalog("vir", table=t).algebra),
    "hv": lambda t: gd_from_algebra(catalog("hv", table=t).algebra),
    "hv_gd": lambda t: catalog("hv_gd", table=t).gd,
    **{f"radical{n}": lambda t, n=n: radical_fields(t, n) for n in range(2, 5)},
    "radical2^2": lambda t: radical_fields(t, 2, copies=2),
    **{f"zero{n}": lambda t, n=n: GDBialgebra(tuple(f"e{i}" for i in range(n)), t, {}, {})
       for n in range(1, 5)},
}


class TestZeroDivisors:
    @pytest.mark.parametrize("name", PROBE_CASES)
    def test_same_result_as_a_kernel_per_candidate(self, table, name):
        """Testing each candidate by its determinant first finds the same
        first witness, partner and verdict as taking every kernel."""
        V = PROBE_CASES[name](table)
        assert zero_divisor_probe(V) == kernel_per_candidate_probe(V)

    @given(V=gd_tables(max_dim=3))
    @settings(max_examples=60, deadline=None)
    def test_same_result_as_a_kernel_per_candidate_on_drawn_tables(self, V):
        assert zero_divisor_probe(V, 2) == kernel_per_candidate_probe(V, 2)

    def test_virasoro_side(self, vir):
        assert zero_divisor_probe(gd_from_algebra(vir)).status == "no_zero_divisors"

    def test_dim1_degenerate(self, table):
        V = GDBialgebra(("e",), table, {}, {})
        probe = zero_divisor_probe(V)
        assert probe.status == "witness"
        assert probe.witness_names(V) == ("e", "e")

    def test_hv_witness(self, hv):
        V = gd_from_algebra(hv)
        probe = zero_divisor_probe(V)
        assert probe.status == "witness"
        assert probe.witness_names(V) == ("W", "W")

    def test_unknown_for_division_like_table(self, table):
        # star = multiplication of a real quadratic field: no zero divisors,
        # so the bounded search must return unknown
        half = F(1, 2)
        V = GDBialgebra(("u", "v"), table,
                        {(0, 0): {0: half}, (0, 1): {1: half},
                         (1, 0): {1: half}, (1, 1): {0: F(1)}},
                        {})
        assert zero_divisor_probe(V).status == "unknown"

    def test_fields_of_dim_4_and_5_are_unknown(self, table):
        """One determinant per candidate a: 2,400 candidates at dim 4 and
        bound 3, not the 5.8 million pairs of a search over (a, b)."""
        assert zero_divisor_probe(radical_fields(table, 4)).status == "unknown"
        assert zero_divisor_probe(radical_fields(table, 5), bound=2).status == "unknown"

    @pytest.mark.parametrize("bound, dim", [(1, 1), (1, 4), (2, 3), (3, 2), (3, 4), (3, 6)])
    def test_box_is_enumerated_in_candidate_order(self, bound, dim):
        """The lazy box is the sorted box: every nonzero vector once, by the
        sum of absolute values, then the absolute values, then the signs."""
        box = itertools.product(range(-bound, bound + 1), repeat=dim)
        assert list(_box(bound, dim)) == sorted((a for a in box if any(a)), key=_candidate_key)

    def test_witness_near_the_origin_ends_the_enumeration(self, table, monkeypatch):
        """The zero tables of dimension 6, the largest box under the cap, give
        (e5, e5) at the first candidate: no key is computed for the other
        117,647 vectors of the box, only for the kernel vectors of the partner."""
        keys = []

        def counting(tup):
            keys.append(tup)
            return _candidate_key(tup)

        monkeypatch.setattr("confalg.gd._candidate_key", counting)
        V = GDBialgebra(tuple(f"e{i}" for i in range(6)), table, {}, {})
        assert zero_divisor_probe(V).witness_names(V) == ("e5", "e5")
        assert len(keys) == 6

    def test_cap_is_checked_before_the_star_matrices(self, table, monkeypatch):
        """A box over the cap is refused from the dimension alone; dimension 1
        is still decided exactly at any bound."""
        def unbuilt(V):
            raise AssertionError("star matrices built for a refused box")

        monkeypatch.setattr("confalg.gd._star_matrices", unbuilt)
        V = GDBialgebra(tuple(f"e{i}" for i in range(7)), table, {(0, 0): {0: F(1)}}, {})
        with pytest.raises(PreconditionError, match=r"\^7 holds 823543 vectors, over the cap"):
            zero_divisor_probe(V)
        monkeypatch.undo()
        line = GDBialgebra(("e",), table, {}, {})
        assert zero_divisor_probe(line, bound=10 ** 6).status == "witness"

    def test_cap_message_names_a_box_too_large_to_print(self, table):
        V = GDBialgebra(tuple(f"e{i}" for i in range(6000)), table, {}, {})
        with pytest.raises(PreconditionError,
                           match="holds a number of more than 4300 digits vectors"):
            zero_divisor_probe(V)

    def test_product_of_fields_has_a_verified_witness(self, table):
        # Q(sqrt 2) x Q(sqrt 2): the two units multiply to zero
        V = radical_fields(table, 2, copies=2)
        probe = zero_divisor_probe(V)
        assert probe.status == "witness"
        a, b = probe.witness
        assert any(a) and any(b)
        star = [0] * V.dim  # a * b = a o b + b o a
        for (i, j), targets in V.circ.items():
            for k, c in targets.items():
                star[k] += (a[i] * b[j] + b[i] * a[j]) * c
        assert not any(star)


class TestRbGd:
    def test_symbolic_coefficient_forced_to_zero(self):
        t = VarTable(params=("c",))
        V = GDBialgebra(("L",), t, {(0, 0): {0: F(1)}}, {})
        T = ModuleMap(t, [[parse(t, "c")]])
        report = rb_gd_check(V, T, 0)
        assert not report.ok
        named = {c.name: c for c in report.checks}
        assert named["rota_baxter_novikov"].residuals == [("(L,L)->L", "-c^2")]
        assert named["rota_baxter_lie"].ok
        # the surviving equations force c = 0
        eqs = [parse(t, poly) for _, poly in named["rota_baxter_novikov"].residuals]
        res = solve_squares(PolySystem(t, ("c",), eqs))
        assert res.solved and res.assignment["c"] == 0

    def test_zero_map_any_weight(self, table, P):
        V = GDBialgebra(("L",), table, {(0, 0): {0: F(1)}}, {})
        T = ModuleMap(table, [[P("0")]])
        assert rb_gd_check(V, T, P("b")).ok

    def test_family1_constants_and_lift_agree(self, hv, table, P):
        V = gd_from_algebra(hv)
        T = ModuleMap(table, [[P("-b"), P("-b")], [P("b"), P("b")]])
        report = rb_gd_check(V, T, 0)
        assert report.ok
        named = {c.name for c in report.checks}
        assert "lifted_rota_baxter" in named

    def test_rejects_nonconstant_operator(self, hv, table, P):
        V = gd_from_algebra(hv)
        T = ModuleMap(table, [[P("d"), P("0")], [P("0"), P("0")]])
        with pytest.raises(Exception):
            rb_gd_check(V, T, 0)
