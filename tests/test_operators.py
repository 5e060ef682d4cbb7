import pytest

from confalg import (
    BilinearForm,
    ConformalAlgebra,
    DegenerateForm,
    InconsistentSystem,
    ModuleMap,
    NotInvertible,
    Poly,
    PolySystem,
    PreconditionError,
    Tensor2,
    VarTable,
    canonical_skew_tensor,
    check_axioms,
    check_o_operator,
    check_rota_baxter,
    cocycle_check,
    cocycle_from_r,
    cybe_residual,
    dual_rep,
    induced_lsc,
    invariant_form_suite,
    invert_module_map,
    parse,
    rb_constraints,
    semidirect,
    solve_squares,
    standard_rep,
    sub_adjacent,
)
from confalg.io_json import form_from_dict


@pytest.fixture(scope="module")
def family1(table, P):
    return ModuleMap(table, [[P("-b"), P("-b")], [P("b"), P("b")]])


@pytest.fixture(scope="module")
def family2(table, P):
    return ModuleMap(table, [[P("0"), P("g0+g1*d+g2*d^2+g3*d^3")], [P("0"), P("0")]])


class TestOOperator:
    def test_identity_on_regular_left(self, comm1, table):
        rep = standard_rep(comm1, "regular_left")
        assert check_o_operator(ModuleMap.identity(table, 1), rep).ok

    def test_zero_map(self, vir, table):
        rep = dual_rep(standard_rep(vir, "adjoint"))
        assert check_o_operator(ModuleMap.zero(table, 1, 1), rep).ok

    def test_dual_adjoint_counterexample(self, vir, table, P):
        rep = dual_rep(standard_rep(vir, "adjoint"))
        report = check_o_operator(ModuleMap.identity(table, 1), rep)
        assert not report.ok
        # oracle: LHS (d+2x) L, RHS T((d-x)L* - (2d+x)L*) = -(d+2x) L
        assert report.checks[0].residuals == [("(L*,L*)->L", "2*d + 4*x")]

    def test_ker_mode_strictly_weaker(self, table, P):
        # nilpotent product L *_x L = g0 x W; the left action kills W, so
        # residuals in the W direction survive only the exact check
        A = ConformalAlgebra("left_symmetric", ("L", "W"), table,
                             {(0, 0): {1: P("g0*x")}})
        rep = standard_rep(A, "regular_left")
        T = ModuleMap(table, [[P("-1"), P("-1")], [P("0"), P("0")]])
        full = check_o_operator(T, rep)
        assert not full.ok
        # oracle: bracket side gives g0 (d+2x) W, the map side dies in T
        assert ("(L,L)->W", "d*g0 + 2*x*g0") in full.checks[0].residuals
        assert check_o_operator(T, rep, ker_mode=True).ok

    def test_ker_mode_still_fails_outside_kernel(self, vir, table):
        rep = dual_rep(standard_rep(vir, "adjoint"))
        T = ModuleMap.identity(table, 1)
        assert not check_o_operator(T, rep, ker_mode=True).ok


class TestRotaBaxter:
    def test_family1_symbolic(self, hv, family1):
        report = check_rota_baxter(hv, family1, 0)
        assert report.ok  # identically in the parameter

    def test_family2_symbolic(self, hv, family2):
        assert check_rota_baxter(hv, family2, 0).ok

    def test_identity_fails_on_virasoro(self, vir, table, P):
        report = check_rota_baxter(vir, ModuleMap.identity(table, 1), 0)
        # oracle: LHS (d+2x) L vs RHS 2(d+2x) L
        assert report.checks[0].residuals == [("(L,L)->L", "-d - 2*x")]

    def test_weight_parameter(self, comm1, table, P):
        # zero map is Rota-Baxter for every weight at once
        g = sub_adjacent(comm1)
        T = ModuleMap(table, [[P("0")]])
        assert check_rota_baxter(g, T, P("b")).ok


class TestInducedLsc:
    def test_family1_products(self, hv, family1, P):
        A = induced_lsc(family1, mode="rb", algebra=hv)
        assert A.kind == "left_symmetric"
        assert check_axioms(A).ok
        assert A.product(0, 0) == {0: P("-b*(d+2*x)"), 1: P("-b*x")}
        assert A.product(0, 1) == {1: P("-b*(d+x)")}
        assert A.product(1, 0) == {0: P("b*(d+2*x)"), 1: P("b*x")}
        assert A.product(1, 1) == {1: P("b*(d+x)")}

    def test_family2_products(self, hv, family2, P):
        A = induced_lsc(family2, mode="rb", algebra=hv)
        assert check_axioms(A).ok
        g_of_minus = P("g0 - g1*x + g2*x^2 - g3*x^3")
        assert A.product(0, 0) == {1: g_of_minus * P("x")}
        assert A.product(0, 1) == {}
        assert A.product(1, 0) == {}
        assert A.product(1, 1) == {}

    def test_zero_map(self, hv, table):
        A = induced_lsc(ModuleMap.zero(table, 2, 2), mode="rb", algebra=hv)
        assert A.products == {}
        assert check_axioms(A).ok

    def test_sub_adjacent_passes_lie(self, hv, family1):
        A = induced_lsc(family1, mode="rb", algebra=hv)
        assert check_axioms(sub_adjacent(A)).ok

    def test_o_product_mode(self, comm1, table):
        rep = standard_rep(comm1, "regular_left")
        A = induced_lsc(ModuleMap.identity(table, 1), rep=rep, mode="o_product")
        assert check_axioms(A).ok
        assert A.products == comm1.products

    def test_bijective_mode(self, comm1, table):
        rep = standard_rep(comm1, "regular_left")
        A = induced_lsc(ModuleMap.identity(table, 1), rep=rep, mode="bijective")
        assert A.products == comm1.products

    def test_rejects_non_rb(self, vir, table):
        with pytest.raises(PreconditionError):
            induced_lsc(ModuleMap.identity(table, 1), mode="rb", algebra=vir)


class TestInversion:
    def test_identity(self, table):
        m = ModuleMap.identity(table, 3)
        assert invert_module_map(m) == m

    def test_unitriangular(self, table, P):
        m = ModuleMap(table, [[P("1"), P("d")], [P("0"), P("1")]])
        inv = invert_module_map(m)
        assert inv.matrix[0][1] == P("-d")
        # multiply and check the identity
        prod = [[sum((m.matrix[i][k] * inv.matrix[k][j] for k in range(2)),
                     Poly.zero(table)) for j in range(2)] for i in range(2)]
        assert prod[0][0] == 1 and prod[1][1] == 1
        assert prod[0][1].is_zero and prod[1][0].is_zero

    def test_non_units(self, table, P):
        with pytest.raises(NotInvertible):
            invert_module_map(ModuleMap(table, [[P("d")]]))
        with pytest.raises(NotInvertible):
            invert_module_map(ModuleMap(table, [[P("0")]]))
        with pytest.raises(NotInvertible):
            invert_module_map(ModuleMap(table, [[P("1"), P("0")]]))


@pytest.fixture(scope="module")
def thm_solution(table, P, hv):
    # rank-4 ambient and its canonical skew solution, family 1
    family1 = ModuleMap(table, [[P("-b"), P("-b")], [P("b"), P("b")]])
    A = induced_lsc(family1, mode="rb", algebra=hv)
    g = sub_adjacent(A)
    dual = dual_rep(standard_rep(A, "regular_left"))
    S = semidirect(g, dual)
    return S, canonical_skew_tensor(S, 2)


class TestCocycles:
    def test_from_canonical_solution(self, thm_solution, P):
        S, r = thm_solution
        form = cocycle_from_r(S, r, "lie")
        n = 2
        for i in range(4):
            for j in range(4):
                expected = P("-1") if j == i + n else (P("1") if i == j + n else P("0"))
                assert form.entry(i, j) == expected
        assert cocycle_check(S, form).ok

    def test_degenerate_rejected(self, vir, P):
        r = Tensor2(vir, {(0, 0): P("d2-d1")})
        with pytest.raises(NotInvertible):
            cocycle_from_r(vir, r, "lie")

    def test_wrong_symmetry_rejected(self, vir, P):
        with pytest.raises(PreconditionError):
            cocycle_from_r(vir, Tensor2(vir, {(0, 0): P("1")}), "lie")

    def test_zero_form_passes(self, vir, table):
        form = form_from_dict({"kind": "lie", "matrix": {}}, vir.basis, table)
        assert cocycle_check(vir, form).ok

    def test_constant_diagonal_breaks_symmetry(self, vir, table):
        form = form_from_dict({"kind": "lie", "matrix": {"L,L": "1"}}, vir.basis, table)
        report = cocycle_check(vir, form)
        assert not report.ok
        assert report.checks[0].residuals == [("(L,L)", "2")]

    def test_non_solution_gives_non_cocycle(self, hv, P):
        # skew and non-degenerate, but not a Yang-Baxter solution: the
        # induced form must fail the cocycle identity (and only that)
        r = Tensor2(hv, {(0, 1): P("1"), (1, 0): P("-1")})
        assert not cybe_residual(hv, r).is_zero
        form = cocycle_from_r(hv, r, "lie")
        report = cocycle_check(hv, form)
        assert not report.ok
        named = {c.name: c for c in report.checks}
        assert named["symmetry"].ok
        assert not named["cocycle_identity"].ok


class TestConstraints:
    def test_degree0_square_equation(self, vir):
        system, _ = rb_constraints(vir, 0, 0)
        # oracle: residual -c^2 (d+2x): both coefficients are multiples of c^2
        assert system.unknowns == ("t0_0_0",)
        assert len(system.equations) >= 1
        v = Poly.var(system.table, "t0_0_0")
        assert any(eq == -(v * v) or eq == v * v for eq in system.equations)

    def test_verified_operator_satisfies_system(self, hv, family2, table, P):
        system, _ = rb_constraints(hv, 3, 0)
        # family 2 assignment: T(L) = g(d) W, everything else zero
        assign = {u: Poly.zero(system.table) for u in system.unknowns}
        for k, g in enumerate(("g0", "g1", "g2", "g3")):
            assign[f"t0_1_{k}"] = Poly.var(system.table, g)
        residuals = system.evaluate(assign)
        assert all(r.is_zero for r in residuals)

    def test_family1_satisfies_system(self, hv, table):
        system, _ = rb_constraints(hv, 0, 0)
        b = Poly.var(system.table, "b")
        assign = {
            "t0_0_0": -b, "t0_1_0": -b,
            "t1_0_0": b, "t1_1_0": b,
        }
        assert all(r.is_zero for r in system.evaluate(assign))

    def test_random_map_agreement(self, hv, table, P):
        # a map satisfies the identity iff its coefficients satisfy the system
        system, _ = rb_constraints(hv, 1, 0)
        cases = [
            ({"t0_0_0": 1}, False),
            ({"t0_1_0": 1}, True),            # constant part of family 2
            ({"t0_1_0": 2, "t0_1_1": 3}, True),
            ({"t0_0_1": 1, "t1_1_0": 1}, False),
        ]
        for content, expect_ok in cases:
            assign = {u: Poly.const(system.table, content.get(u, 0))
                      for u in system.unknowns}
            sys_ok = all(r.is_zero for r in system.evaluate(assign))
            matrix = [[Poly.zero(table), Poly.zero(table)],
                      [Poly.zero(table), Poly.zero(table)]]
            D = Poly.var(table, "d")
            for name, c in content.items():
                _, i, j, k = name.split("_")[0][0], *name.replace("t", "", 1).split("_")
                matrix[int(i)][int(j)] = matrix[int(i)][int(j)] + c * D ** int(k)
            T = ModuleMap(table, matrix)
            rb_ok = check_rota_baxter(hv, T, 0).ok
            assert sys_ok == rb_ok == expect_ok


class TestSolver:
    def test_single_square(self):
        t = VarTable(params=("c",))
        system = PolySystem(t, ("c",), [parse(t, "c^2")])
        res = solve_squares(system)
        assert res.solved and res.assignment["c"] == 0

    def test_virasoro_cascade(self, vir):
        system, _ = rb_constraints(vir, 3, 0)
        # the system carries the pure leading-coefficient square, which is
        # what forces the top-degree part of any candidate to vanish
        top = Poly.var(system.table, "t0_0_3")
        assert any(eq == top * top or eq == -(top * top) for eq in system.equations)
        res = solve_squares(system)
        assert res.solved
        assert all(v == 0 for v in res.assignment.values())
        assert set(res.assignment) == set(system.unknowns)

    def test_product_stays_partial(self):
        t = VarTable(params=("u", "v"))
        system = PolySystem(t, ("u", "v"), [parse(t, "u*v")])
        res = solve_squares(system)
        assert res.status == "partial"
        assert res.remaining

    def test_linear_elimination(self):
        t = VarTable(params=("u", "v"))
        system = PolySystem(t, ("u", "v"), [parse(t, "2*u + 4"), parse(t, "v - u")])
        res = solve_squares(system)
        assert res.solved
        assert res.assignment["u"] == -2 and res.assignment["v"] == -2

    def test_inconsistent(self):
        t = VarTable(params=("u",))
        system = PolySystem(t, ("u",), [parse(t, "u^2"), parse(t, "u + 1")])
        with pytest.raises(InconsistentSystem):
            solve_squares(system)

    def test_rank2_classification_stays_partial(self, hv):
        # the rank-2 system has genuinely mixed quadratic equations, so the
        # limited solver reports partial rather than guessing; both known
        # families still satisfy every equation (checked elsewhere)
        system, _ = rb_constraints(hv, 3, 0)
        res = solve_squares(system)
        assert res.status == "partial"
        assert res.remaining
        assert all(v == 0 for v in res.assignment.values())


class TestInvariantForms:
    def test_abelian_identity_form(self, table, P):
        ab = ConformalAlgebra("lie", ("A", "B"), table, {})
        B = BilinearForm(table, ("A", "B"), [[P("1"), P("0")], [P("0"), P("1")]])
        report = invariant_form_suite(ab, B)
        assert report.ok

    def test_virasoro_constant_form_not_invariant(self, vir, table, P):
        B = BilinearForm(table, ("L",), [[P("1")]])
        report = invariant_form_suite(vir, B)
        names = {c.name: c for c in report.checks}
        assert names["symmetry"].ok
        assert not names["invariance"].ok
        # oracle: (-x+2y) - (2x-y) = 3y - 3x
        assert names["invariance"].residuals == [("(L,L,L)", "-3*x + 3*y")]

    def test_zero_form_degenerate(self, vir, table, P):
        B = BilinearForm(table, ("L",), [[P("0")]])
        report = invariant_form_suite(vir, B)
        assert not report.ok
        with pytest.raises(DegenerateForm):
            invariant_form_suite(vir, B, Tensor2(vir, {(0, 0): P("d1-d2")}))

    def test_tensor_check_on_abelian(self, table, P):
        ab = ConformalAlgebra("lie", ("A", "B"), table, {})
        B = BilinearForm(table, ("A", "B"), [[P("1"), P("0")], [P("0"), P("1")]])
        r = Tensor2(ab, {(0, 1): P("d1"), (1, 0): P("-d2")})
        report = invariant_form_suite(ab, B, r)
        assert report.ok
        assert cybe_residual(ab, r).is_zero

    def test_current_algebra_equivalence(self, table, P):
        # constant brackets of a 3-dimensional simple algebra, paired with
        # its invariant trace form: the induced endomorphism satisfies the
        # weight-0 identity exactly for Yang-Baxter solutions
        cur = ConformalAlgebra("lie", ("e", "h", "f"), table, {
            (1, 0): {0: P("2")}, (0, 1): {0: P("-2")},
            (1, 2): {2: P("-2")}, (2, 1): {2: P("2")},
            (0, 2): {1: P("1")}, (2, 0): {1: P("-1")},
        })
        assert check_axioms(cur).ok
        B = BilinearForm(table, cur.basis, [
            [P("0"), P("0"), P("4")],
            [P("0"), P("8"), P("0")],
            [P("4"), P("0"), P("0")],
        ])
        assert invariant_form_suite(cur, B).ok
        triangular = Tensor2(cur, {(0, 1): P("1"), (1, 0): P("-1")})
        assert cybe_residual(cur, triangular).is_zero
        assert invariant_form_suite(cur, B, triangular).ok
        non_solution = Tensor2(cur, {(0, 2): P("1"), (2, 0): P("-1")})
        assert not cybe_residual(cur, non_solution).is_zero
        report = invariant_form_suite(cur, B, non_solution)
        named = {c.name: c.ok for c in report.checks}
        assert named["invariance"] and named["non_degenerate"]
        assert not named["induced_rota_baxter"]
