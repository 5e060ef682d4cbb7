"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check here is exact: the stated tolerance for all criteria is literal
zero polynomials over the rationals (identities with free parameters must
hold identically in those parameters).  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import functools
from fractions import Fraction

import pytest

from confalg import (
    ConformalAlgebra,
    ConformalLinearMap,
    ModuleMap,
    Poly,
    PolySystem,
    VarTable,
    algebra_from_gd,
    canonical_skew_tensor,
    canonical_sym_tensor,
    catalog,
    check_axioms,
    check_o_operator,
    check_rep,
    check_rota_baxter,
    cobracket_from_r,
    cocycle_check,
    cocycle_from_r,
    cybe_residual,
    dual_rep,
    gd_from_algebra,
    induced_lsc,
    lift_constant,
    parse,
    rb_constraints,
    rb_gd_check,
    r_from_t,
    s_residual,
    semidirect,
    solve_squares,
    standard_rep,
    sub_adjacent,
    with_zero_right,
    zero_divisor_probe,
)
from confalg.coeff import OUT_OF_WINDOW, CoeffWindow, window_checks
from confalg.gd import GDBialgebra
from conftest import builtin_representations, window_bracket


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} FAIL: {title}")
                raise
            print(f"criterion {num:2d} PASS: {title}")

        return run

    return wrap


T = VarTable(params=("b", "g0", "g1", "g2", "g3"))


def P(text):
    return parse(T, text)


# The catalog inputs are built when a criterion first asks for them, not at
# import, so that a fault in building one fails the criteria that use it one
# by one instead of the whole module at collection.
@pytest.fixture(scope="module")
def VIR():
    return catalog("vir", table=T).algebra


@pytest.fixture(scope="module")
def HV():
    return catalog("hv", table=T).algebra


@pytest.fixture(scope="module")
def FAMILY1():
    return catalog("hv_rb_family1", table=T).linmap


@pytest.fixture(scope="module")
def FAMILY2():
    return catalog("hv_rb_family2", table=T).linmap


@pytest.fixture(scope="module")
def LSC1():
    return catalog("hv_lsc1", table=T).algebra


@pytest.fixture(scope="module")
def LSC2():
    return catalog("hv_lsc2", table=T).algebra


@criterion(1, "axiom suite: builtins pass, the skew mutant fails with a residual")
def test_criterion_1(VIR, HV):
    assert check_axioms(VIR).ok
    assert check_axioms(HV).ok
    mutant = ConformalAlgebra("lie", ("L",), T, {(0, 0): {0: P("d+3*x")}})
    report = check_axioms(mutant)
    skew = report.checks[0]
    assert skew.name == "skew_symmetry" and not skew.ok
    assert skew.residuals and all(poly != "0" for _, poly in skew.residuals)


@criterion(2, "both weight-0 operator families hold identically in their parameters")
def test_criterion_2(HV, FAMILY1, FAMILY2):
    from confalg.operators import rota_baxter_residuals

    for name, op in (("family1", FAMILY1), ("family2", FAMILY2)):
        assert rota_baxter_residuals(HV, op, Fraction(0)) == {}, name
        (check,) = check_rota_baxter(HV, op, 0).checks
        assert check.ok and check.evaluated == 4 and check.skipped == 0, name
    # negative control: one perturbed entry leaves a nonzero residual
    perturbed = [list(row) for row in FAMILY1.matrix]
    perturbed[0][0] = perturbed[0][0] + P("1")
    assert rota_baxter_residuals(HV, ModuleMap(T, perturbed), Fraction(0))


@criterion(3, "induced left-symmetric products match the displayed tables")
def test_criterion_3(HV, FAMILY1, FAMILY2):
    A1 = induced_lsc(FAMILY1, mode="rb", algebra=HV)
    assert A1.product(0, 0) == {0: P("-b*(d+2*x)"), 1: P("-b*x")}
    assert A1.product(0, 1) == {1: P("-b*(d+x)")}
    assert A1.product(1, 0) == {0: P("b*(d+2*x)"), 1: P("b*x")}
    assert A1.product(1, 1) == {1: P("b*(d+x)")}
    A2 = induced_lsc(FAMILY2, mode="rb", algebra=HV)
    g_neg = P("g0 - g1*x + g2*x^2 - g3*x^3")
    assert A2.product(0, 0) == {1: g_neg * P("x")}
    for pair in ((0, 1), (1, 0), (1, 1)):
        assert A2.product(*pair) == {}
    assert check_axioms(A1).ok and check_axioms(A2).ok


@criterion(4, "canonical skew tensor solves the Yang-Baxter equation in the rank-4 sum")
def test_criterion_4(LSC1, LSC2):
    for A in (LSC1, LSC2):
        g = sub_adjacent(A)
        dual = dual_rep(standard_rep(A, "regular_left"))
        S = semidirect(g, dual)
        r = canonical_skew_tensor(S, A.rank)
        assert cybe_residual(S, r).is_zero


@criterion(5, "canonical symmetric tensor solves the S-equation in the rank-4 sum")
def test_criterion_5(LSC1, LSC2):
    for A in (LSC1, LSC2):
        dual = dual_rep(standard_rep(A, "regular_left"))
        S = semidirect(A, with_zero_right(A, dual))
        r = canonical_sym_tensor(S, A.rank)
        assert s_residual(S, r).is_zero


@criterion(6, "operator dictionary: both directions, and the argument-part invariance")
def test_criterion_6(HV, FAMILY1):
    rep = standard_rep(HV, "adjoint")
    # verified operator at zero argument, arbitrary argument-linear part
    X, D = P("x"), P("d")
    extra = [[X * D, X], [2 * X, X * X]]
    Tmap = ConformalLinearMap(T, [[FAMILY1.matrix[i][j] + extra[i][j]
                                   for j in range(2)] for i in range(2)])
    assert check_o_operator(Tmap.at_zero(), rep).ok
    r = r_from_t(Tmap, rep, mode="skew")
    S = r.algebra
    assert cybe_residual(S, r).is_zero
    # perturbing one entry of the zero specialization breaks both sides
    bad = Tmap.at_zero().perturbed(0, 0, 1)
    assert not check_o_operator(bad, rep).ok
    r_bad = r_from_t(lift_constant(bad), rep, mode="skew")
    assert not cybe_residual(S, r_bad).is_zero
    # the cobracket only sees the zero-argument part
    r_plain = r_from_t(lift_constant(FAMILY1), rep, mode="skew")
    for i in range(S.rank):
        a = S.basis_vector(i)
        assert cobracket_from_r(S, r, a) == cobracket_from_r(S, r_plain, a)


@criterion(7, "rank-1 classification: every operator coefficient is forced to zero")
def test_criterion_7(VIR):
    system, _ = rb_constraints(VIR, 3, 0)
    result = solve_squares(system)
    assert result.solved
    assert set(result.assignment) == set(system.unknowns)
    assert all(v == 0 for v in result.assignment.values())
    # same conclusion on the bialgebra side with a symbolic coefficient
    t = VarTable(params=("c",))
    V = GDBialgebra(("L",), t, {(0, 0): {0: Fraction(1)}}, {})
    Tc = ModuleMap(t, [[parse(t, "c")]])
    report = rb_gd_check(V, Tc, 0)
    assert not report.ok
    eqs = [parse(t, poly) for chk in report.checks for _, poly in chk.residuals]
    gd_system = PolySystem(t, ("c",), [e.subs({"d": 0, "x": 1}) for e in eqs])
    res = solve_squares(gd_system)
    assert res.solved and res.assignment["c"] == 0


@criterion(8, "non-degenerate solutions induce 2-cocycles with the displayed values")
def test_criterion_8(LSC1, LSC2):
    for A in (LSC1, LSC2):
        n = A.rank
        g = sub_adjacent(A)
        dual = dual_rep(standard_rep(A, "regular_left"))
        S = semidirect(g, dual)
        r = canonical_skew_tensor(S, n)
        form = cocycle_from_r(S, r, "lie")
        for i in range(2 * n):
            for j in range(2 * n):
                if j == i + n:
                    assert form.entry(i, j) == -1
                elif i == j + n:
                    assert form.entry(i, j) == 1
                else:
                    assert form.entry(i, j).is_zero
        assert cocycle_check(S, form).ok
        # symmetric side
        S2 = semidirect(A, with_zero_right(A, dual))
        r2 = canonical_sym_tensor(S2, n)
        form2 = cocycle_from_r(S2, r2, "lsc")
        for i in range(2 * n):
            for j in range(2 * n):
                if j == i + n or i == j + n:
                    assert form2.entry(i, j) == 1
                else:
                    assert form2.entry(i, j).is_zero
        assert cocycle_check(S2, form2).ok


@criterion(9, "index window: textbook relations, Jacobi, and the lifted operator")
def test_criterion_9(HV, FAMILY1):
    w = CoeffWindow(HV, 6, shifts={0: 1, 1: 0})
    one = Poly.const(T, 1)
    checked = 0
    for m in range(-4, 5):
        for n in range(-4, 5):
            ll = window_bracket(w, w.unit(0, m), w.unit(0, n))
            if ll is not OUT_OF_WINDOW:
                assert ll == ({} if m == n else {(0, m + n): one * (m - n)})
                checked += 1
            lw = window_bracket(w, w.unit(0, m), w.unit(1, n))
            if lw is not OUT_OF_WINDOW:
                assert lw == ({} if n == 0 else {(1, m + n): one * (-n)})
                checked += 1
            ww = window_bracket(w, w.unit(1, m), w.unit(1, n))
            if ww is not OUT_OF_WINDOW:
                assert ww == {}
    assert checked > 100
    report = window_checks(w, FAMILY1, 0)
    assert report.ok
    assert {c.name for c in report.checks} >= {"antisymmetry", "jacobi", "lifted_rota_baxter"}


@criterion(10, "bialgebra dictionary: exact round trips and the zero-divisor probes")
def test_criterion_10(VIR, HV):
    for A in (VIR, HV):
        V = gd_from_algebra(A)
        back = algebra_from_gd(V)
        assert back.products == A.products
        assert gd_from_algebra(back).circ == V.circ
        assert gd_from_algebra(back).lie == V.lie
    assert zero_divisor_probe(gd_from_algebra(VIR)).status == "no_zero_divisors"
    probe = zero_divisor_probe(gd_from_algebra(HV))
    assert probe.status == "witness"
    assert probe.witness_names(gd_from_algebra(HV)) == ("W", "W")


@criterion(11, "every builtin representation dualizes and every semidirect sum closes")
def test_criterion_11(LSC1, LSC2):
    reps = builtin_representations(T)
    assert len(reps) >= 6
    for name, rep in reps.items():
        assert check_rep(rep).ok, name
        dual = dual_rep(rep)
        assert check_rep(dual).ok, name
        S = semidirect(rep.algebra, rep)
        assert check_axioms(S).ok, name
        Sd = semidirect(rep.algebra, dual)
        assert check_axioms(Sd).ok, name
    for A in (LSC1, LSC2):
        dual = dual_rep(standard_rep(A, "regular_left"))
        S2 = semidirect(A, with_zero_right(A, dual))
        assert check_axioms(S2).ok
