import gc
import tracemalloc

import pytest

from confalg import (
    AlgebraError,
    BilinearForm,
    CoeffWindow,
    ConformalAlgebra,
    DegenerateForm,
    InconsistentSystem,
    ModuleMap,
    NotInvertible,
    NotQuadratic,
    Poly,
    PolySystem,
    PreconditionError,
    Representation,
    Tensor2,
    UnknownEntry,
    VarTable,
    VarTableMismatch,
    canonical_skew_tensor,
    canonical_sym_tensor,
    catalog,
    check_axioms,
    check_o_operator,
    check_rota_baxter,
    cocycle_check,
    cocycle_from_r,
    cybe_residual,
    dual_rep,
    gd_from_algebra,
    induced_lsc,
    invariant_form_suite,
    invert_module_map,
    lift_constant,
    parse,
    r_from_t,
    rb_constraints,
    rb_gd_check,
    semidirect,
    solve_squares,
    standard_rep,
    sub_adjacent,
    t_from_r,
    window_checks,
    with_zero_right,
)
from confalg import linmap, operators, poly
from confalg.io_json import form_from_dict
from confalg.operators import MAX_RB_SIZE
from confalg.poly import MAX_PARSE_TERM_PRODUCTS, Substitution


def plain_algebra(name):
    """A catalog algebra without parameters; NAME_dual is its semidirect sum
    with the dual of its adjoint module."""
    A = catalog(name.removesuffix("_dual"), table=VarTable()).algebra
    if name.endswith("_dual"):
        return semidirect(A, dual_rep(standard_rep(A, "adjoint")), checked=False)
    return A


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
        assert check_o_operator(ModuleMap(table, [[Poly.zero(table)]]), rep).ok

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

    def test_ker_mode_labels(self, hv, family1, P):
        rep = standard_rep(hv, "adjoint")
        report = check_o_operator(family1.perturbed(0, 1, P("d")), rep, ker_mode=True)
        assert report.checks[0].name == "o_operator_mod_kernel"
        label = ("(L,L);W->W", "2*d*x*y*b - d*y^2*b + 2*x*y^2*b - y^3*b")
        assert label in report.checks[0].residuals
        # a failing residual is an input the parser reads back
        assert str(parse(family1.table, label[1])) == label[1]


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
        A = induced_lsc(ModuleMap(table, [[Poly.zero(table)] * 2 for _ in range(2)]),
                        mode="rb", algebra=hv)
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


def cocycle_maps(table):
    """The T0 that the benchmark's eight tensor_eqs cocycle jobs invert: the
    four hv_lsc skew and symmetric r, and per family the canonical skew and
    symmetric tensors over the rank-8 semidirect sums of S2 = A + (A*, 0)."""
    pairs = [(e.algebra, e.tensor) for e in (catalog(name, table=table) for name in (
        "hv_lsc1_skew_r", "hv_lsc2_skew_r", "hv_lsc1_sym_r", "hv_lsc2_sym_r"))]
    for family in ("hv_lsc1", "hv_lsc2"):
        A = catalog(family, table=table).algebra
        S2 = semidirect(A, with_zero_right(A, dual_rep(standard_rep(A, "regular_left"))),
                        checked=False)
        regular = standard_rep(S2, "regular_left")
        Sk = semidirect(sub_adjacent(S2, checked=False), dual_rep(regular), checked=False)
        Ss = semidirect(S2, with_zero_right(S2, dual_rep(regular)), checked=False)
        pairs += [(Sk, canonical_skew_tensor(Sk, 4)), (Ss, canonical_sym_tensor(Ss, 4))]
    return [t_from_r(S, r).at_zero() for S, r in pairs]


def vir_tower_maps(table):
    """[T0] of the canonical skew tensor on the rank-64 vir dual-adjoint tower."""
    S = catalog("vir", table=table).algebra
    while S.rank < 64:
        S = semidirect(S, dual_rep(standard_rep(S, "adjoint")), checked=False)
    return [t_from_r(S, canonical_skew_tensor(S, 32)).at_zero()]


# (poly._accumulate calls, term products); all-Faddeev-LeVerrier inversion
# took (1,280, 664) on the cocycle maps and (16,384, 8,224) at rank 64
INVERSION_BUDGETS = {"cocycle_maps": (20, 20), "vir_tower_maps": (33, 33)}


class TestInversion:
    @pytest.mark.parametrize("maps", [cocycle_maps, vir_tower_maps])
    def test_signed_permutations_take_no_matrix_products(self, maps, table, monkeypatch):
        """Work guard: the benchmark's T0 are signed permutations, which unit
        pivots invert with one product per pivot -1 and one for the
        determinant; the kernel calls stay within INVERSION_BUDGETS."""
        built = maps(table)
        assert [m.src_rank for m in built] in ([4] * 4 + [8] * 4, [64])
        counts = [0, 0]
        accumulate = poly._accumulate

        def counted(table, terms, a, b=None, sign=1):
            counts[0] += 1
            counts[1] += len(a.terms) * (len(b.terms) if b is not None else 1)
            accumulate(table, terms, a, b, sign)

        monkeypatch.setattr(poly, "_accumulate", counted)
        inverses = [invert_module_map(m) for m in built]
        monkeypatch.undo()
        assert all(map(int.__le__, counts, INVERSION_BUDGETS[maps.__name__])), counts
        for m, inverse in zip(built, inverses):
            assert all(len([p for p in row if not p.is_zero]) == 1 for row in m.matrix)
            assert linmap._matmul(m.matrix, inverse.matrix, table) == ModuleMap.identity(
                table, m.src_rank).matrix

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
                assert form.matrix[i][j] == expected
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

    @pytest.mark.parametrize("name, kind, other", [("hv_lsc1_skew_r", "lie", "lsc"),
                                                   ("hv_lsc1_sym_r", "lsc", "lie")])
    def test_form_without_a_kind_takes_its_algebras(self, table, name, kind, other):
        """A form without a kind is checked as a cocycle of its algebra's kind;
        an explicit kind that does not match is refused."""
        e = catalog(name, table=table)
        form = cocycle_from_r(e.algebra, e.tensor, kind)
        want = cocycle_check(e.algebra, form)
        assert want.ok
        assert cocycle_check(e.algebra, BilinearForm(table, form.basis, form.matrix)) == want
        with pytest.raises(PreconditionError, match="does not match"):
            cocycle_check(e.algebra, BilinearForm(table, form.basis, form.matrix, other))

    def test_form_of_the_wrong_size_rejected(self, table, P):
        A = catalog("hv_lsc1_skew_r", table=table).algebra
        assert A.rank == 4
        small = BilinearForm(table, ("L",), [[P("x")]], "lie")
        with pytest.raises(PreconditionError, match="form size"):
            cocycle_check(A, small)
        short_rows = BilinearForm(table, A.basis, [[P("x")] for _ in range(4)], "lie")
        with pytest.raises(PreconditionError, match="form size"):
            cocycle_check(A, short_rows)

    def test_sparse_form_reads_the_variables_of_its_nonzero_entries(self, monkeypatch,
                                                                    table, P):
        """A form checks the variables of its nonzero entries only, as a module
        map does: a 16 x 16 form with two nonzero entries reads two of them."""
        variables, calls = Poly.variables, 0

        def counting(self):
            nonlocal calls
            calls += 1
            return variables(self)

        monkeypatch.setattr(Poly, "variables", counting)
        matrix = [[P("0")] * 16 for _ in range(16)]
        matrix[0][1], matrix[1][0] = P("b*x"), P("-b*x")
        form = BilinearForm(table, tuple(f"e{i}" for i in range(16)), matrix, "lie")
        assert calls == 2
        assert form.products == {(0, 1): {0: P("b*x")}, (1, 0): {0: P("-b*x")}}

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


# Poly.__mul__ calls of one rb_constraints of each benchmark system at weights
# 0 and 1, a ratchet: lower a budget when the work falls
RB_MUL_BUDGETS = {
    ("vir", 1, 0): 13, ("vir", 1, 1): 14, ("vir", 2, 0): 27, ("vir", 2, 1): 28,
    ("vir", 3, 0): 46, ("vir", 3, 1): 47, ("vir", 4, 0): 67, ("vir", 4, 1): 68,
    ("hv", 1, 0): 38, ("hv", 1, 1): 41, ("hv", 2, 0): 75, ("hv", 2, 1): 78,
    ("hv", 3, 0): 124, ("hv", 3, 1): 127, ("hv", 4, 0): 179, ("hv", 4, 1): 182,
    ("hv_dual", 0, 0): 43, ("hv_dual", 0, 1): 52, ("hv_dual", 1, 0): 122,
    ("hv_dual", 1, 1): 131, ("hv_dual", 2, 0): 237, ("hv_dual", 2, 1): 246}


class TestConstraints:
    def test_rows_are_summed_without_sums(self, monkeypatch):
        """Work guard: each coefficient polynomial is formed once per table
        entry and pair of degrees and relabelled into the rows, so building a
        benchmark system adds nothing into a poly.Sums and its products stay
        within RB_MUL_BUDGETS (3,888 adds and 316 products on hv_dual D2 at
        weight 0 when the rows were read off the Rota-Baxter sums)."""
        counts = {"mul": 0, "add": 0}
        mul, add = Poly.__mul__, poly.Sums.add

        def counted_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        def counted_add(self, *args, **kwargs):
            counts["add"] += 1
            return add(self, *args, **kwargs)

        monkeypatch.setattr(Poly, "__mul__", counted_mul)
        monkeypatch.setattr(poly.Sums, "add", counted_add)
        seen = {}
        for name, D, weight in RB_MUL_BUDGETS:
            A = plain_algebra(name)
            counts.update(mul=0, add=0)
            rb_constraints(A, D, weight)
            seen[name, D, weight] = counts["mul"], counts["add"]
        assert {k: n for k, n in seen.items() if n[1] or n[0] > RB_MUL_BUDGETS[k]} == {}

    def test_negative_degree_rejected(self, hv):
        with pytest.raises(PreconditionError, match="negative"):
            rb_constraints(hv, -1)

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
        at = Substitution(system.table, assign)
        assert all(at(eq).is_zero for eq in system.equations)

    def test_family1_satisfies_system(self, hv, table):
        system, _ = rb_constraints(hv, 0, 0)
        b = Poly.var(system.table, "b")
        assign = {
            "t0_0_0": -b, "t0_1_0": -b,
            "t1_0_0": b, "t1_1_0": b,
        }
        at = Substitution(system.table, assign)
        assert all(at(eq).is_zero for eq in system.equations)

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
            at = Substitution(system.table, assign)
            sys_ok = all(at(eq).is_zero for eq in system.equations)
            matrix = [[Poly.zero(table), Poly.zero(table)],
                      [Poly.zero(table), Poly.zero(table)]]
            D = Poly.var(table, "d")
            for name, c in content.items():
                _, i, j, k = name.split("_")[0][0], *name.replace("t", "", 1).split("_")
                matrix[int(i)][int(j)] = matrix[int(i)][int(j)] + c * D ** int(k)
            T = ModuleMap(table, matrix)
            rb_ok = check_rota_baxter(hv, T, 0).ok
            assert sys_ok == rb_ok == expect_ok


    @pytest.mark.parametrize("name, degrees, sizes", [
        ("vir", range(1, 5), [7, 16, 28, 44]),
        ("hv", range(1, 5), [44, 109, 211, 344]),
        ("hv_dual", range(0, 3), [93, 428, 1016]),
    ])
    def test_system_sizes(self, name, degrees, sizes):
        """Equation counts of the benchmark's systems, as the generic-map
        expansion gave them; the solver eliminates in list order, so a change
        here changes what it finds."""
        assert [len(rb_constraints(plain_algebra(name), D, 0)[0].equations)
                for D in degrees] == sizes
        if name == "hv_dual":
            res = solve_squares(rb_constraints(plain_algebra(name), 2, 0)[0])
            assert (res.status, len(res.assignment), len(res.remaining)) == ("partial", 17, 345)

    def test_memory_peak(self):
        """Each term keeps only the positions of its own variables.  With one
        exponent slot per unknown, building this system (2,552 equations)
        peaked at 19.9 MB under tracemalloc."""
        A = plain_algebra("hv")
        tracemalloc.start()
        try:
            system, _ = rb_constraints(A, 12, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(system.equations) == 2552
        assert peak <= 19_900_000 / 2

    @pytest.mark.parametrize("name, largest", [("vir", 69), ("hv", 24), ("hv_dual", 7)])
    def test_size_cap(self, name, largest):
        """A system past the cap is refused before anything is built."""
        A = plain_algebra(name)
        assert A.rank ** 3 * (largest + 1) ** 2 <= MAX_RB_SIZE < A.rank ** 3 * (largest + 2) ** 2
        for D in (largest + 1, 1_000_000):
            with pytest.raises(PreconditionError, match="over the cap"):
                rb_constraints(A, D, 0)


# _match calls of one solve of each benchmark system at weight 0, a ratchet:
# lower a budget when the work falls
LIVE_BUDGETS = {("vir", 1): 12, ("vir", 2): 28, ("vir", 3): 53, ("vir", 4): 92,
                ("hv", 1): 69, ("hv", 2): 170, ("hv", 3): 368, ("hv", 4): 606,
                ("hv_dual", 0): 118, ("hv_dual", 1): 679, ("hv_dual", 2): 1627}


def squaring_chain(k):
    """a1 = b1 + b2 + b3 + b4 and a_j = a_(j-1)^2 for j up to k, in a1..ak."""
    t = VarTable(params=("b1", "b2", "b3", "b4") + tuple(f"a{j}" for j in range(1, k + 1)))
    eqs = [parse(t, "a1 - (b1 + b2 + b3 + b4)")] + [
        parse(t, f"a{j} - a{j - 1}^2") for j in range(2, k + 1)]
    return PolySystem(t, tuple(f"a{j}" for j in range(1, k + 1)), eqs)


def degree_chain(k):
    """v_i + v_(i+1)^2 for i < k, in v0..v(k-1) over the parameter vk: one
    term product per step, and it solves to v0 = -vk^(2^k)."""
    t = VarTable(params=tuple(f"v{i}" for i in range(k + 1)))
    return PolySystem(t, tuple(f"v{i}" for i in range(k)),
                      [parse(t, f"v{i} + v{i + 1}^2") for i in range(k)])


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

    def test_substitutes_only_equations_that_hold_the_unknown(self, monkeypatch):
        """Work guard: each elimination visits the equations that hold the
        eliminated unknown and matches again only those that can match.  The
        _match calls of one solve of each benchmark system stay within
        LIVE_BUDGETS (4,126 on hv_dual D2 when every round scanned every
        equation and matched again each one that held the unknown)."""
        calls = []
        match = operators._match
        monkeypatch.setattr(operators, "_match", lambda row, unknowns: calls.append(row) or match(
            row, unknowns))
        counts = {}
        for name, D in LIVE_BUDGETS:
            system, _ = rb_constraints(plain_algebra(name), D, 0)
            calls.clear()
            res = solve_squares(system)
            counts[name, D] = len(calls)
            if (name, D) == ("hv_dual", 2):
                assert res.status == "partial" and len(res.assignment) == 17
        assert {k: n for k, n in counts.items() if n > LIVE_BUDGETS[k]} == {}

    @pytest.mark.parametrize("k, products", [(5, 29_745), (6, None)])
    def test_substitution_work_is_capped(self, k, products, monkeypatch):
        """A chain a1 = b1 + b2 + b3 + b4, a_j = a_(j-1)^2 squares a value of
        more terms each step: to a5 it takes 29,745 term products (29,959 when
        each one-unknown pattern was its value times the unit row), to a6
        about 939,000 more, past the cap, which is refused before they are
        taken."""
        system = squaring_chain(k)
        spent = []
        substitution = operators._substitution
        monkeypatch.setattr(operators, "_substitution", lambda v, value, spend: substitution(
            v, value, lambda n: spent.append(n) or spend(n)))
        if products is None:
            with pytest.raises(PreconditionError, match="cap of 200000 term products"):
                solve_squares(system)
            assert sum(spent) > MAX_PARSE_TERM_PRODUCTS
        else:
            res = solve_squares(system)
            assert res.solved and len(res.assignment["a5"].terms) == 969
            assert sum(spent) == products

    def test_monomial_degree_is_capped(self):
        """A monomial's degree is bounded apart from the term products: the
        one-term chain doubles it each step, so v0 reaches degree 64 at k = 6
        and 128, past poly.MAX_PARSE_DEGREE, at k = 7."""
        system = degree_chain(6)
        res = solve_squares(system)
        assert res.solved
        assert res.assignment["v0"] == -Poly.var(system.table, "v6") ** 64
        with pytest.raises(PreconditionError, match="total degree 128, over the cap of 100"):
            solve_squares(degree_chain(7))

    def test_solve_leaves_no_cyclic_garbage(self):
        """The substitutions a solve builds hold no reference cycle, so the
        cyclic collector finds nothing after one (2,675 objects when each
        expansion closure held itself)."""
        system = squaring_chain(5)
        gc.collect()
        gc.disable()
        try:
            assert solve_squares(system).solved
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    def test_form_size_must_match_the_rank(self, hv, table, P):
        """A 1x1 or 3x3 form on the rank-2 algebra is refused, not read out of
        range or checked as some other form, by the suite and by the map it
        induces from a tensor."""
        for size in (1, 3):
            identity = [[P("1") if i == j else P("0") for j in range(size)] for i in range(size)]
            B = BilinearForm(table, ("L", "W", "E")[:size], identity)
            with pytest.raises(PreconditionError, match="form size"):
                invariant_form_suite(hv, B)
            with pytest.raises(PreconditionError, match="form size"):
                operators.form_pr_map(hv, B, Tensor2(hv, {}))

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


RAGGED = {"short": [["1", "0"], ["1"]], "long": [["1", "0"], ["1", "0", "1"]]}


@pytest.mark.parametrize("rows", RAGGED)
@pytest.mark.parametrize("consumer", ["check_rota_baxter", "check_o_operator", "r_from_t",
                                      "window_checks", "rb_gd_check"])
def test_ragged_map_is_refused_by_every_check(consumer, rows, hv, table, P):
    """A map over hv whose second row is short or long is refused with the
    same shape error by every check that reads a map, never a failing
    verdict, an IndexError or a truncated tensor."""
    T = ModuleMap(table, [[P(c) for c in row] for row in RAGGED[rows]])
    adjoint = standard_rep(hv, "adjoint")
    onto, call = {
        "check_rota_baxter": ("the algebra", lambda: check_rota_baxter(hv, T)),
        "check_o_operator": ("the representation", lambda: check_o_operator(T, adjoint)),
        "r_from_t": ("the representation", lambda: r_from_t(T, adjoint)),
        "window_checks": ("the algebra", lambda: window_checks(CoeffWindow(hv, 2), T, 0)),
        "rb_gd_check": ("the algebra", lambda: rb_gd_check(gd_from_algebra(hv), T, 0)),
    }[consumer]
    with pytest.raises(PreconditionError) as raised:
        call()
    assert str(raised.value) == f"map shape does not match {onto}"


@pytest.mark.parametrize("case", ["module_map_x", "form_d", "induced_lsc_mode", "cocycle_kind",
                                  "r_from_t_mode", "algebra_kind", "catalog_parameter",
                                  "gd_of_lsc", "induced_lsc_rb_algebra", "induced_lsc_rep",
                                  "system_table", "representation_tables", "zero_right_kinds",
                                  "semidirect_algebra", "algebra_key_rank",
                                  "module_target_rank"])
def test_violated_preconditions_raise_precondition_error(case, table, P, vir, hv):
    """Each library precondition raises its own error class with its message,
    never a bare ValueError; most raise PreconditionError."""
    adjoint = standard_rep(vir, "adjoint")
    identity = ModuleMap.identity(table, 1)
    error, message, call = {
        "module_map_x": (PreconditionError,
                         "module map entries may use only d and parameters, got ['x']",
                         lambda: ModuleMap(table, [[P("x")]])),
        "form_d": (PreconditionError, "form entries may use only x and parameters, got ['d']",
                   lambda: BilinearForm(table, vir.basis, [[P("d")]])),
        "induced_lsc_mode": (PreconditionError, "unknown mode 'nosuch'",
                             lambda: induced_lsc(identity, adjoint, mode="nosuch")),
        "cocycle_kind": (PreconditionError, "unknown cocycle kind 'nosuch'",
                         lambda: cocycle_from_r(vir, Tensor2(vir, {}), "nosuch")),
        "r_from_t_mode": (PreconditionError, "unknown mode 'nosuch'",
                          lambda: r_from_t(lift_constant(identity), adjoint, mode="nosuch")),
        "algebra_kind": (AlgebraError, "unknown algebra kind 'assoc'",
                         lambda: ConformalAlgebra("assoc", ("L",), table, {})),
        "catalog_parameter": (UnknownEntry, "entry hv_lsc1 needs parameter b in the variable table",
                              lambda: catalog("hv_lsc1", VarTable())),
        "gd_of_lsc": (NotQuadratic, "the correspondence applies to Lie-kind algebras",
                      lambda: gd_from_algebra(catalog("hv_lsc1").algebra)),
        "induced_lsc_rb_algebra": (PreconditionError, "rb mode needs the ambient Lie algebra",
                                   lambda: induced_lsc(identity, mode="rb")),
        "induced_lsc_rep": (PreconditionError, "mode 'o_product' needs a representation",
                            lambda: induced_lsc(identity, mode="o_product")),
        "system_table": (VarTableMismatch, "equation over another variable table",
                         lambda: PolySystem(table, (), [Poly.const(VarTable(), 1)])),
        "representation_tables": (AlgebraError, "give either rho (lie) or left/right tables (lsc)",
                                  lambda: Representation(vir, ("v",))),
        "zero_right_kinds": (PreconditionError,
                             "expected a left-symmetric algebra and a lie representation",
                             lambda: with_zero_right(vir, adjoint)),
        "semidirect_algebra": (PreconditionError, "representation is not over the given algebra",
                               lambda: semidirect(hv, adjoint)),
        "algebra_key_rank": (PreconditionError, "entry (0, 1) -> 0 is outside ranks (1, 1)",
                             lambda: check_axioms(ConformalAlgebra("lie", ("L",), table,
                                                                   {(0, 1): {0: P("x")}}))),
        "module_target_rank": (PreconditionError, "entry (0, 0) -> 4 is outside ranks (1, 1)",
                               lambda: semidirect(vir, Representation(vir, ("v",),
                                                                      rho={(0, 0): {4: P("x")}}),
                                                  checked=False)),
    }[case]
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and str(raised.value) == message
