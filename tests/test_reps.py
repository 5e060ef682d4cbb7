import random

import pytest

from confalg import (
    ConformalAlgebra,
    LEFT_SYMMETRIC,
    LIE,
    PreconditionError,
    Representation,
    catalog,
    check_axioms,
    check_rep,
    dual_rep,
    parse,
    semidirect,
    standard_rep,
    sub_adjacent,
    with_zero_right,
)
from conftest import regular_module


@pytest.fixture(scope="module")
def hv_lsc1(table, P):
    # left-symmetric table induced by the first weight-0 operator family
    return ConformalAlgebra("left_symmetric", ("L", "W"), table, {
        (0, 0): {0: P("-b*(d+2*x)"), 1: P("-b*x")},
        (0, 1): {1: P("-b*(d+x)")},
        (1, 0): {0: P("b*(d+2*x)"), 1: P("b*x")},
        (1, 1): {1: P("b*(d+x)")},
    })


class TestCheckRep:
    def test_adjoint_virasoro(self, vir):
        assert check_rep(standard_rep(vir, "adjoint")).ok

    def test_adjoint_heisenberg_virasoro(self, hv):
        assert check_rep(standard_rep(hv, "adjoint")).ok

    def test_constant_action_fails(self, vir, table, P):
        rep = Representation(vir, ("v",), rho={(0, 0): {0: P("1")}})
        report = check_rep(rep)
        assert not report.ok
        # oracle: [L_x L]_{x+y} v = ((-x-y)+2x) v = (x-y) v, while the
        # composition side cancels, so the residual is x - y
        assert report.checks[0].residuals == [("(L,L;v)->v", "x - y")]

    def test_constant_right_action_fails(self, comm1, P):
        rep = Representation(comm1, ("v",), left={}, right={(0, 0): {0: P("d")}})
        report = check_rep(rep)
        assert [c.name for c in report.checks] == ["left_action_axiom", "right_action_axiom"]
        assert report.checks[1].residuals == [("(e,e;v)->v", "d*x + d*y + d")]

    def test_regular_left_of_lsc(self, comm1, hv_lsc1):
        assert check_rep(standard_rep(comm1, "regular_left")).ok
        assert check_rep(standard_rep(hv_lsc1, "regular_left")).ok

    def test_left_minus_right(self, hv_lsc1):
        rep = check_rep(standard_rep(hv_lsc1, "left_minus_right"))
        assert rep.ok
        # L - R is the adjoint representation of the sub-adjacent Lie algebra
        lsc = [hv_lsc1] + [catalog(name).algebra
                           for name in ("hv_lsc2", "hv_lsc1_sym_r", "hv_lsc2_sym_r")]
        assert all(standard_rep(A, "left_minus_right").rho == sub_adjacent(A).products
                   for A in lsc)

    def test_regular_module_axioms(self, comm1, hv_lsc1):
        assert check_rep(regular_module(comm1)).ok
        assert check_rep(regular_module(hv_lsc1)).ok

    def test_kind_preconditions(self, vir, comm1):
        with pytest.raises(PreconditionError):
            standard_rep(vir, "regular_left")
        with pytest.raises(PreconditionError):
            standard_rep(comm1, "adjoint")


class TestStandardTables:
    def test_adjoint_table_is_structure_table(self, vir, P):
        rep = standard_rep(vir, "adjoint")
        assert rep.rho[(0, 0)][0] == P("d+2*x")

    def test_regular_right_substitution(self, table, P):
        g_of = P("g0 - g1*x + g2*x^2 - g3*x^3")
        A = ConformalAlgebra("left_symmetric", ("L", "W"), table,
                             {(0, 0): {1: g_of * P("x")}})
        rep = standard_rep(A, "regular_right")
        # oracle: substitute x -> -x-d in the product polynomial
        expected = (g_of * P("x")).subs({"x": P("-x-d")})
        assert rep.rho[(0, 0)][1] == expected

    def test_left_minus_right_of_commutative_is_zero(self, comm1):
        rep = standard_rep(comm1, "left_minus_right")
        assert rep.rho == {}


class TestDual:
    def test_dual_of_adjoint_virasoro(self, vir, P):
        rep = dual_rep(standard_rep(vir, "adjoint"))
        # oracle: -rho(-x-d, x) = -((-x-d) + 2x) = d - x
        assert rep.rho[(0, 0)][0] == P("d-x")
        assert rep.mbasis == ("L*",)
        assert check_rep(rep).ok

    def test_dual_of_zero_rep(self, vir):
        rep = Representation(vir, ("v",), rho={})
        dd = dual_rep(rep)
        assert dd.rho == {}
        assert check_rep(dd).ok

    def test_dual_of_regular_left(self, hv_lsc1):
        rep = dual_rep(standard_rep(hv_lsc1, "regular_left"))
        assert check_rep(rep).ok

    def test_dual_requires_lie_rep(self, comm1):
        with pytest.raises(PreconditionError):
            dual_rep(regular_module(comm1))


class TestSemidirect:
    def test_virasoro_with_dual_adjoint(self, vir, P):
        rep = dual_rep(standard_rep(vir, "adjoint"))
        S = semidirect(vir, rep)
        assert S.basis == ("L", "L*")
        assert S.product(0, 1)[1] == P("d-x")
        assert S.product(1, 1) == {}
        # oracle: [L*_x L] = -rho*(L)_{-x-d} L* = -(2d+x) L*
        assert S.product(1, 0)[1] == P("-2*d-x")
        assert check_axioms(S).ok

    def test_zero_rep_gives_abelian_factor(self, hv):
        rep = Representation(hv, ("u", "v"), rho={})
        S = semidirect(hv, rep)
        assert check_axioms(S).ok
        for i in range(2, 4):
            for j in range(2, 4):
                assert S.product(i, j) == {}
                assert S.product(i, j - 2) == {}

    def test_lie_semidirect_rank4(self, hv_lsc1):
        g = sub_adjacent(hv_lsc1)
        dual = dual_rep(standard_rep(hv_lsc1, "regular_left"))
        S = semidirect(g, dual)
        assert S.rank == 4
        assert check_axioms(S).ok

    def test_lsc_semidirect_rank4(self, hv_lsc1):
        dual = dual_rep(standard_rep(hv_lsc1, "regular_left"))
        S = semidirect(hv_lsc1, with_zero_right(hv_lsc1, dual))
        assert S.kind == "left_symmetric"
        assert check_axioms(S).ok

    def test_lsc_bimodule_over_another_algebra(self, hv_lsc1, table):
        """A bimodule over hv_lsc2 is refused on hv_lsc1, as a Lie module over
        another algebra is, not summed into a table that breaks left-symmetry."""
        hv_lsc2 = catalog("hv_lsc2", table).algebra
        other = with_zero_right(hv_lsc2, dual_rep(standard_rep(hv_lsc2, "regular_left")))
        with pytest.raises(PreconditionError, match="representation is not over the given algebra"):
            semidirect(hv_lsc1, other)

    @pytest.mark.parametrize("over", ["hv_lsc2", "vir"])
    def test_zero_right_of_a_module_over_another_algebra(self, hv_lsc1, table, vir, over):
        """with_zero_right refuses a module that is not over hv_lsc1's
        sub-adjacent algebra, as semidirect refuses one not over its algebra,
        not a bimodule that unchecked semidirect sums into a failing table."""
        if over == "vir":
            module = standard_rep(vir, "adjoint")
        else:
            hv_lsc2 = catalog("hv_lsc2", table).algebra
            module = dual_rep(standard_rep(hv_lsc2, "regular_left"))
        with pytest.raises(PreconditionError) as raised:
            with_zero_right(hv_lsc1, module)
        assert str(raised.value) == "representation is not over the given algebra"

    def test_lsc_semidirect_regular_module(self, comm1):
        S = semidirect(comm1, regular_module(comm1))
        assert check_axioms(S).ok

    def test_failed_precondition(self, vir, P):
        bad = Representation(vir, ("v",), rho={(0, 0): {0: P("1")}})
        with pytest.raises(PreconditionError):
            semidirect(vir, bad)


def _residuals(report, name):
    """The named check's residuals as {instance: text}, the module label's
    ';' read as the ',' of the algebra label."""
    check = next(c for c in report.checks if c.name == name)
    return {label.replace(";", ","): text for label, text in check.residuals}


def _random_lie_table(table, seed):
    """A rank-2 table of random entries in d and x, which fails the axioms."""
    rng = random.Random(seed)
    monomials = ("1", "d", "x", "d*x", "x^2", "d^2")

    def entry():
        return parse(table, " + ".join(f"({rng.randint(-2, 2)})*{m}"
                                       for m in rng.sample(monomials, 3)))

    return ConformalAlgebra(LIE, ("a", "b"), table,
                            {(i, j): {k: entry() for k in range(2)}
                             for i in range(2) for j in range(2)})


class TestAdjointJacobiAgreement:
    """A module axiom is its algebra's own law with the action as the inner
    and outer products, so on the regular module the residuals agree."""

    def test_mutant_adjoint_fails_like_jacobi(self, table, P):
        mutant = ConformalAlgebra(LIE, ("L",), table, {(0, 0): {0: P("d+3*x")}})
        rep = Representation(mutant, ("L",), rho=dict(mutant.products))
        assert not check_rep(rep).ok
        assert not check_axioms(mutant).ok

    @pytest.mark.parametrize("which", ["mutant", "random"])
    def test_adjoint_module_axiom_is_minus_jacobi(self, table, P, which):
        A = (ConformalAlgebra(LIE, ("L",), table, {(0, 0): {0: P("d+3*x")}})
             if which == "mutant" else _random_lie_table(table, 2))
        jacobi = _residuals(check_axioms(A), "jacobi")
        module = _residuals(check_rep(standard_rep(A, "adjoint")), "module_axiom")
        assert jacobi and module.keys() == jacobi.keys()
        assert all(P(module[k]) == -P(jacobi[k]) for k in jacobi)

    def test_left_action_axiom_is_left_symmetry(self, table, P, hv_lsc1):
        products = dict(hv_lsc1.products)
        products[(1, 1)] = {1: P("b*(d+x) + 1")}
        A = ConformalAlgebra(LEFT_SYMMETRIC, hv_lsc1.basis, table, products)
        rep = Representation(A, A.basis, left=A.products, right={})
        left_symmetry = _residuals(check_axioms(A), "left_symmetry")
        assert left_symmetry
        assert _residuals(check_rep(rep), "left_action_axiom") == left_symmetry
