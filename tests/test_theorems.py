"""Equivalences between the tensor equations and their operator forms,
checked on builtin structures and on randomized tensors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confalg import (
    ModuleMap,
    Poly,
    Tensor2,
    VarTable,
    canonical_skew_tensor,
    canonical_sym_tensor,
    catalog,
    check_o_operator,
    check_rota_baxter,
    cybe_residual,
    dual_rep,
    flip,
    s_residual,
    semidirect,
    standard_rep,
    sub_adjacent,
    t_from_r,
    with_zero_right,
)
from confalg.operators import rota_baxter_residuals
from conftest import poly_strategy

T = VarTable(params=("b", "g0", "g1", "g2", "g3"))


def random_tensor(algebra, seed_entries):
    coeffs = {}
    for (i, j), p in seed_entries:
        key = (i % algebra.rank, j % algebra.rank)
        coeffs[key] = coeffs.get(key, p * 0) + p
    return Tensor2(algebra, coeffs)


entry_strategy = st.lists(
    st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
              poly_strategy(T, names=("d1", "d2"), max_terms=2, max_degree=1)),
    min_size=1, max_size=3)


class TestSkewEquivalence:
    """A skew tensor solves the Yang-Baxter equation exactly when its
    associated map at zero argument is an O-operator for the dual adjoint."""

    def test_positive_instance(self, comm1):
        # the canonical solution over the rank-2 sum built from the rank-1
        # left-symmetric structure
        g = sub_adjacent(comm1)
        rep = dual_rep(standard_rep(comm1, "regular_left"))
        S = semidirect(g, rep)
        r = canonical_skew_tensor(S, comm1.rank)
        assert cybe_residual(S, r).is_zero
        T0 = t_from_r(S, r).at_zero()
        assert check_o_operator(T0, dual_rep(standard_rep(S, "adjoint"))).ok

    @given(entries=entry_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_agreement(self, entries, hv):
        raw = random_tensor(hv, entries)
        r = raw - flip(raw)
        assert (r + flip(r)).is_zero
        lhs = cybe_residual(hv, r).is_zero
        T0 = t_from_r(hv, r).at_zero()
        rhs = check_o_operator(T0, dual_rep(standard_rep(hv, "adjoint"))).ok
        assert lhs == rhs


class TestSymmetricEquivalence:
    """A symmetric tensor solves the S-equation exactly when its associated
    map at zero argument is an O-operator for the dual of left multiplication
    (over the commutator algebra)."""

    def test_positive_instance(self, comm1):
        dual = dual_rep(standard_rep(comm1, "regular_left"))
        S = semidirect(comm1, with_zero_right(comm1, dual))
        r = canonical_sym_tensor(S, comm1.rank)
        assert s_residual(S, r).is_zero
        T0 = t_from_r(S, r).at_zero()
        rep = dual_rep(standard_rep(S, "regular_left"))
        assert check_o_operator(T0, rep).ok

    @given(entries=entry_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_agreement(self, entries, comm1):
        raw = random_tensor(comm1, entries)
        r = raw + flip(raw)
        assert (r - flip(r)).is_zero
        lhs = s_residual(comm1, r).is_zero
        T0 = t_from_r(comm1, r).at_zero()
        rep = dual_rep(standard_rep(comm1, "regular_left"))
        rhs = check_o_operator(T0, rep).ok
        assert lhs == rhs

    @given(entries=entry_strategy)
    @settings(max_examples=15, deadline=None)
    def test_random_agreement_rank2(self, entries, table, P):
        from confalg import ConformalAlgebra
        A = ConformalAlgebra("left_symmetric", ("L", "W"), table,
                             {(0, 0): {1: P("g0*x")}})
        raw = random_tensor(A, entries)
        r = raw + flip(raw)
        lhs = s_residual(A, r).is_zero
        T0 = t_from_r(A, r).at_zero()
        rep = dual_rep(standard_rep(A, "regular_left"))
        rhs = check_o_operator(T0, rep).ok
        assert lhs == rhs


def family1_on_adjoint():
    entry = catalog("hv_rb_family1", table=T)
    return entry.linmap, standard_rep(entry.algebra, "adjoint")


def skew_r_on_coadjoint():
    entry = catalog("hv_lsc1_skew_r", table=T)
    S = entry.algebra
    return t_from_r(S, entry.tensor).at_zero(), dual_rep(standard_rep(S, "adjoint"))


def perturbed(T_map):
    matrix = [list(row) for row in T_map.matrix]
    matrix[0][0] = matrix[0][0] + Poly.const(T, 1)
    return ModuleMap(T, matrix)


class TestOOperatorIsRotaBaxterOnSemidirect:
    """T: M -> A is an O-operator for rho exactly when T^(a + u) = T(u) is a
    weight-0 Rota-Baxter operator on the semidirect sum A x_rho M; the
    Rota-Baxter residuals of T^ sit on module pairs only, and there they are
    the O-operator residuals."""

    @pytest.mark.parametrize("case", [family1_on_adjoint, skew_r_on_coadjoint])
    @pytest.mark.parametrize("perturb", [False, True])
    def test_same_verdict_and_residuals(self, case, perturb):
        T_map, rep = case()
        if perturb:
            T_map = perturbed(T_map)
        A, n = rep.algebra, rep.algebra.rank
        S = semidirect(A, rep)
        zero = Poly.zero(T)
        hat = ModuleMap(T, [[zero] * S.rank for _ in range(n)]
                        + [list(row) + [zero] * rep.mrank for row in T_map.matrix])
        o_report = check_o_operator(T_map, rep)
        rb_report = check_rota_baxter(S, hat, 0)
        assert o_report.ok == rb_report.ok == (not perturb)
        assert all(i >= n and j >= n for i, j, _ in rota_baxter_residuals(S, hat, 0))
        (o_check,), (rb_check,) = o_report.checks, rb_report.checks
        assert o_check.residuals == rb_check.residuals
