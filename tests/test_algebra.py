import pytest
from hypothesis import given, settings

import confalg.algebra
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
    semidirect,
    standard_rep,
    sub_adjacent,
)
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
