import itertools
import sys
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confalg.algebra
import confalg.poly
from confalg import (
    ConformalAlgebra,
    LEFT_SYMMETRIC,
    LIE,
    Poly,
    PreconditionError,
    VarTable,
    apply_bilinear,
    catalog,
    check_axioms,
    check_rep,
    dual_rep,
    parse,
    semidirect,
    standard_rep,
    sub_adjacent,
)
from confalg.algebra import _contract, clean_table
from confalg.poly import Sums
from conftest import poly_strategy

T = VarTable(params=("b", "g0", "g1", "g2", "g3"))


class TestBracket:
    def test_virasoro_generator(self, vir, P):
        out = apply_bilinear(vir.table, vir.products, vir.basis_vector(0), vir.basis_vector(0),
                             P("x"), vir.rank)
        assert out == (P("d+2*x"),)

    def test_second_argument_rule(self, vir, P):
        # oracle: a_x (d b) = (x+d) a_x b applied by hand
        L = vir.basis_vector(0)
        dL = (P("d"),)
        out = apply_bilinear(vir.table, vir.products, L, dL, P("x"), vir.rank)
        assert out == (P("(d+x)*(d+2*x)"),)

    def test_first_argument_rule(self, vir, P):
        out = apply_bilinear(vir.table, vir.products, (P("d"),), vir.basis_vector(0), P("x"),
                             vir.rank)
        assert out == (P("-x*(d+2*x)"),)

    def test_zero_argument(self, vir):
        z = (Poly.zero(vir.table),) * vir.rank
        assert apply_bilinear(vir.table, vir.products, z, vir.basis_vector(0),
                              Poly.var(vir.table, "x"), vir.rank) == z

    @given(f=poly_strategy(T, names=("d",)), g=poly_strategy(T, names=("d",)))
    @settings(max_examples=40, deadline=None)
    def test_sesquilinearity_random(self, f, g, hv, P):
        a = (f, Poly.zero(hv.table))
        b = (Poly.zero(hv.table), g)
        D, X = P("d"), P("x")
        da = tuple(p * D for p in a)
        db = tuple(p * D for p in b)

        def bracket(a, b):
            return apply_bilinear(hv.table, hv.products, a, b, X, hv.rank)

        lhs = bracket(da, b)
        rhs = tuple(-X * p for p in bracket(a, b))
        assert lhs == rhs
        lhs2 = bracket(a, db)
        rhs2 = tuple((X + D) * p for p in bracket(a, b))
        assert lhs2 == rhs2


class TestAxioms:
    def test_virasoro_ok(self, vir):
        assert check_axioms(vir).ok

    def test_heisenberg_virasoro_ok(self, hv):
        assert check_axioms(hv).ok

    def test_mutant_fails_skew(self, table, P):
        mutant = ConformalAlgebra(LIE, ("L",), table, {(0, 0): {0: P("d+3*x")}})
        report = check_axioms(mutant)
        assert not report.ok
        skew = report.checks[0]
        assert skew.name == "skew_symmetry"
        # oracle: [L_x L] + [L_{-x-d} L] = (d+3x) + (d - 3x - 3d) = -d
        assert skew.residuals == [("(L,L)->L", "-d")]

    def test_broken_jacobi_detected(self, table, P):
        # rank-2 with an inconsistent extra product
        broken = ConformalAlgebra(LIE, ("L", "W"), table, {
            (0, 0): {0: P("d+2*x")},
            (0, 1): {1: P("d+x"), 0: P("x^2")},
            (1, 0): {1: P("x"), 0: P("x^2")},
        })
        assert not check_axioms(broken).ok

    def test_left_symmetric_ok(self, comm1):
        assert check_axioms(comm1).ok

    def test_left_symmetric_failure(self, table, P):
        bad = ConformalAlgebra(LEFT_SYMMETRIC, ("e",), table,
                               {(0, 0): {0: P("x")}})
        assert not check_axioms(bad).ok


class TestSparseEngine:
    def test_tower_checks_avoid_the_dense_product(self, monkeypatch):
        """check_axioms and check_rep on the rank-16 dual-adjoint tower of vir
        never call apply_bilinear: every basis tuple is a sum over chains of
        nonzero structure constants."""
        S = catalog("vir", table=VarTable(params=("b",))).algebra
        while S.rank < 16:
            S = semidirect(S, dual_rep(standard_rep(S, "adjoint")), checked=False)
        rep = standard_rep(S, "adjoint")

        def dense(*args, **kwargs):
            raise AssertionError("a basis-tuple check took the dense path")

        monkeypatch.setattr(confalg.algebra, "apply_bilinear", dense)
        assert check_axioms(S).ok
        assert check_rep(rep).ok
        with pytest.raises(AssertionError, match="dense path"):
            confalg.algebra.apply_bilinear(S.table, S.products, S.basis_vector(0),
                                           S.basis_vector(0), Poly.var(S.table, "x"), S.rank)


@st.composite
def shared_contractions(draw):
    """Two contractions of one table into one Sums: the table's entries, the
    views' factors and the argument are drawn from small pools of objects, so
    that the same object recurs across entries, views and both contractions."""
    index = st.integers(0, 2)
    entries = st.sampled_from(draw(st.lists(poly_strategy(T, ("d", "x", "b"), 3, 2),
                                            min_size=1, max_size=3)))
    factors = st.sampled_from(draw(st.lists(poly_strategy(T, ("d", "b"), 3, 2),
                                            min_size=1, max_size=3)))
    view = st.none() | st.dictionaries(index, st.lists(st.tuples(index, factors), min_size=1,
                                                       max_size=3), max_size=3)
    products = draw(st.dictionaries(st.tuples(index, index),
                                    st.dictionaries(index, entries, min_size=1, max_size=3),
                                    max_size=6))
    X, D = Poly.var(T, "x"), Poly.var(T, "d")
    calls = [(draw(st.sampled_from(({}, {"x": -X - D}, {"x": X * X + D}))),
              draw(view), draw(view), draw(view), draw(st.sampled_from((1, -1))))
             for _ in range(2)]
    return products, calls


class ReusedIds:
    """``id`` as CPython may hand it out, at its most eager: the number of an
    object that nothing but this registry holds any more goes to the next new
    object.  A memo keyed by ids is right under it only if it holds the
    objects it keys by."""

    def __init__(self):
        self.held = []  # number -> object

    def __call__(self, obj):
        held = self.held
        for number in range(len(held)):
            if held[number] is obj:
                return number
        for number in range(len(held)):
            if sys.getrefcount(held[number]) <= 2:  # the registry's and the argument's
                held[number] = obj
                return number
        held.append(obj)
        return len(held) - 1


@contextmanager
def reused_ids():
    """The id-keyed memos of the kernel and the contraction, under ``ReusedIds``."""
    ids = ReusedIds()
    with (mock.patch.object(confalg.algebra, "id", ids, create=True),
          mock.patch.object(confalg.poly, "id", ids, create=True)):
        yield


class TestSharedEntries:
    def test_clean_table_makes_equal_entries_one_object(self, table, P):
        A = ConformalAlgebra(LIE, ("L", "W"), table, {
            (0, 0): {0: P("d+2*x"), 1: P("0")},
            (0, 1): {1: P("2*x+d"), 0: P("x")},
            (1, 1): {0: P("x"), 1: P("d+2*x")}})
        assert A.products == {(0, 0): {0: P("d+2*x")}, (0, 1): {1: P("d+2*x"), 0: P("x")},
                              (1, 1): {0: P("x"), 1: P("d+2*x")}}
        assert A.products[0, 0][0] is A.products[0, 1][1] is A.products[1, 1][1]
        assert A.products[0, 1][0] is A.products[1, 1][0]
        rep = standard_rep(A, "adjoint")
        assert len({id(p) for targets in rep.rho.values() for p in targets.values()}) == 2

    def test_clean_table_keeps_entries_over_other_tables_apart(self):
        pa, pc = parse(VarTable(params=("a",)), "d+x"), parse(VarTable(params=("c",)), "d+x")
        assert pa.terms == pc.terms
        cleaned = clean_table({(0, 0): {0: pa, 1: pc}}, 1, 2)
        assert cleaned[0, 0][0] is pa and cleaned[0, 0][1] is pc

    def test_contract_forms_a_product_only_for_a_recurring_pair(self, table, P, monkeypatch):
        """Without an out view, a pair (a * b, P) multiplies into the sum in
        place at its first use; its second forms the product, which every later
        use adds."""
        Q, R, f = P("d+2*x"), P("x"), P("d+1")
        products = {(0, 0): {0: Q}, (0, 1): {0: Q, 1: R}, (0, 2): {1: Q}}
        formed = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda a, b: formed.append((a, b)) or mul(a, b))
        sums = Sums(table)
        _contract(sums, products, {}, lambda i, j, k: (i, j, k),
                  right={0: [(0, f)], 1: [(0, f)], 2: [(1, f)]}, sign=-1)
        monkeypatch.undo()
        assert formed == [(Q, f)] and formed[0][0] is Q and formed[0][1] is f
        assert sums.close() == {(0, 0, 0): -2 * f * Q, (0, 0, 1): -f * R, (0, 1, 1): -f * Q}

    def test_contract_holds_what_its_memos_key_by(self, table, P):
        """Products of both views, formed per table entry, meet one shared P:
        a number the pair memo keys by is never handed to another product."""
        Q, g = P("d+2*x"), P("d+x")
        left = {p: [(p, P(f"d+{p + 1}"))] for p in range(6)}
        sums = Sums(table)
        with reused_ids():
            _contract(sums, {(p, 0): {0: Q} for p in range(6)}, {"x": P("-x-d")},
                      lambda i, j, k: (i, j, k), left, {0: [(0, g)]})
        assert sums.close() == {(p, 0, 0): left[p][0][1] * g * P("-d-2*x") for p in range(6)}

    @given(case=shared_contractions())
    @settings(max_examples=150, deadline=None)
    def test_contract_with_shared_factors(self, case):
        """The closed sums are sum(sign * a * b * P|at * c) built by Poly
        arithmetic, with ids handed out again as soon as they are free."""
        products, calls = case
        one = Poly.const(T, 1)
        sums, want = Sums(T), {}

        def entries(view, p):
            return [(p, one)] if view is None else view.get(p, [])

        for at, left, right, out, sign in calls:
            with reused_ids():
                _contract(sums, products, at, lambda i, j, k: (i, j, k), left, right, out, sign)
            for (p, q), targets in products.items():
                for (i, a), (j, b), (l, P) in itertools.product(
                        entries(left, p), entries(right, q), targets.items()):
                    term = sign * a * b * P.subs(at)
                    for m, c in entries(out, l):
                        want[i, j, m] = want.get((i, j, m), Poly.zero(T)) + term * c
        assert sums.close() == {key: p for key, p in want.items() if not p.is_zero}


class TestSubAdjacent:
    def test_commutative_product_gives_abelian(self, comm1):
        g = sub_adjacent(comm1)
        assert g.kind == LIE
        assert g.products == {}
        assert check_axioms(g).ok

    def test_zero_product(self, table):
        zero = ConformalAlgebra(LEFT_SYMMETRIC, ("e",), table, {})
        assert sub_adjacent(zero).products == {}

    def test_nilpotent_family_bracket(self, table, P):
        # product L_x L = g(-x) x W, everything else zero
        g_of = P("g0 - g1*x + g2*x^2 - g3*x^3")
        A = ConformalAlgebra(LEFT_SYMMETRIC, ("L", "W"), table,
                             {(0, 0): {1: g_of * P("x")}})
        assert check_axioms(A).ok
        lie = sub_adjacent(A)
        # oracle: substitute x -> -x-d in the product and subtract
        expected = g_of * P("x") - (g_of * P("x")).subs({"x": P("-x-d")})
        assert lie.product(0, 0)[1] == expected
        assert check_axioms(lie).ok

    def test_rejects_non_left_symmetric(self, vir, table, P):
        with pytest.raises(PreconditionError):
            sub_adjacent(vir)
        bad = ConformalAlgebra(LEFT_SYMMETRIC, ("e",), table, {(0, 0): {0: P("x")}})
        with pytest.raises(PreconditionError):
            sub_adjacent(bad)
