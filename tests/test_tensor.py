import pytest
from hypothesis import given, settings

import confalg.algebra
from confalg import (
    BilinearForm,
    ConformalLinearMap,
    Poly,
    PreconditionError,
    Tensor2,
    Tensor3,
    VarTable,
    canonical_skew_tensor,
    canonical_sym_tensor,
    catalog,
    check_o_operator,
    cobracket_from_r,
    cocycle_check,
    cocycle_from_r,
    cybe_residual,
    dual_rep,
    flip,
    parse,
    r_from_t,
    s_residual,
    semidirect,
    standard_rep,
    sub_adjacent,
    t_from_r,
    with_zero_right,
)
from confalg.io_json import tensor_from_dict
from confalg.operators import form_pr_map
from conftest import normal_form3, poly_strategy
from test_oracles import (COCYCLE_LABELS, PERTURBED, cocycle_input, rank8_cybe_tensors,
                          rank8_s_tensors)

T = VarTable(params=("b", "g0", "g1", "g2", "g3"))
# cubes before their reduction hold the third slot derivation d3
CUBE = T.extended(("d3",))


def C(text):
    return parse(CUBE, text)


class TestNormalForm:
    def test_ideal_generator_dies(self, vir):
        t = Tensor3(vir, {(0, 0, 0): C("d1+d2+d3")})
        assert normal_form3(t).is_zero

    def test_hand_reduction(self, vir, P):
        t = Tensor3(vir, {(0, 0, 0): C("d1-d2-3*d3")})
        assert normal_form3(t).coeffs[(0, 0, 0)] == P("4*d1+2*d2")

    def test_idempotent(self, vir):
        t = normal_form3(Tensor3(vir, {(0, 0, 0): C("d3^2")}))
        assert normal_form3(t) == t

    @given(q=poly_strategy(CUBE, names=("d1", "d2", "d3")))
    @settings(max_examples=40, deadline=None)
    def test_kills_exactly_diagonal_multiples(self, q, vir):
        gen = C("d1+d2+d3")
        assert normal_form3(Tensor3(vir, {(0, 0, 0): q * gen})).is_zero
        reduced = normal_form3(Tensor3(vir, {(0, 0, 0): q}))
        # a residual already free of d3 is untouched, so it vanishes
        # only when it was zero
        if not q.subs({"d3": C("-d1-d2")}).is_zero:
            assert not reduced.is_zero


class TestParts:
    """r is skew when r + r^21 is zero and symmetric when r - r^21 is."""

    def test_canonical_is_skew(self, hv):
        rep = dual_rep(standard_rep(hv, "adjoint"))
        S = semidirect(hv, rep)
        r = canonical_skew_tensor(S, hv.rank)
        assert (r + flip(r)).is_zero and not (r - flip(r)).is_zero

    def test_square_is_symmetric(self, vir, P):
        r = Tensor2(vir, {(0, 0): P("1")})
        assert (r - flip(r)).is_zero and not (r + flip(r)).is_zero

    def test_flip_swaps_slots(self, hv, P):
        r = Tensor2(hv, {(0, 1): P("d1")})
        assert flip(r).coeffs == {(1, 0): P("d2")}

    @given(f=poly_strategy(T, names=("d1", "d2")), g=poly_strategy(T, names=("d1", "d2")))
    @settings(max_examples=40, deadline=None)
    def test_decomposition(self, f, g, hv):
        r = Tensor2(hv, {(0, 1): f, (1, 1): g})
        skew, sym = r - flip(r), r + flip(r)
        two_r = r + r
        assert skew + sym == two_r
        assert (skew + flip(skew)).is_zero
        assert (sym - flip(sym)).is_zero


class TestSharedEntries:
    """Equal coefficients of a Tensor2 are one object, so the memos keyed by
    object (Substitution, _contract) substitute and multiply a value once."""

    def test_constructor(self, hv, P):
        r = Tensor2(hv, {(0, 0): P("d1+1"), (0, 1): P("d2"), (1, 1): P("d1+1")})
        assert r.coeffs[0, 0] is r.coeffs[1, 1]
        assert r.coeffs[0, 1] is not r.coeffs[0, 0]

    def test_sum(self, hv, P):
        r = Tensor2(hv, {(0, 0): P("d1"), (1, 1): P("2*d1")}) + Tensor2(hv, {(0, 0): P("d1")})
        assert r.coeffs == {(0, 0): P("2*d1"), (1, 1): P("2*d1")}
        assert r.coeffs[0, 0] is r.coeffs[1, 1]

    def test_flip(self, hv, P):
        r = flip(Tensor2(hv, {(0, 1): P("d1*d2"), (1, 0): P("d1*d2"), (1, 1): P("d1")}))
        assert r.coeffs == {(1, 0): P("d1*d2"), (0, 1): P("d1*d2"), (1, 1): P("d2")}
        assert r.coeffs[1, 0] is r.coeffs[0, 1]

    @pytest.mark.parametrize("mode", ["raw", "skew", "sym"])
    def test_r_from_t(self, hv, P, mode):
        """The map's equal entries are separate objects; the tensor's are one."""
        T = ConformalLinearMap(hv.table, [[P("d"), P("x")], [P("x"), P("d")]])
        r = r_from_t(T, standard_rep(hv, "adjoint"), mode=mode)
        assert r.coeffs[0, 2] is r.coeffs[1, 3] and r.coeffs[1, 2] is r.coeffs[0, 3]

    def test_tensor_from_dict(self, hv):
        doc = {"entries": [{"i": "L", "j": "L", "c": "d1+1"}, {"i": "W", "j": "W", "c": "1+d1"},
                           {"i": "L", "j": "W", "c": "d2"}]}
        r = tensor_from_dict(doc, hv)
        assert r.coeffs[0, 0] is r.coeffs[1, 1]
        assert r.coeffs[0, 1] is not r.coeffs[0, 0]

    def test_entries_over_other_tables_stay_apart(self, hv):
        pa, pc = parse(VarTable(params=("a",)), "d1+1"), parse(VarTable(params=("c",)), "d1+1")
        assert pa.terms == pc.terms
        r = Tensor2(hv, {(0, 0): pa, (1, 1): pc})
        assert r.coeffs[0, 0] is pa and r.coeffs[1, 1] is pc


class TestCybe:
    def test_zero_tensor(self, vir):
        assert cybe_residual(vir, Tensor2(vir, {})).is_zero

    def test_virasoro_square(self, vir, P):
        # oracle: (d1+2d2) - (d2+2d3) - (d3+2d2), then d3 := -d1-d2
        res = cybe_residual(vir, Tensor2(vir, {(0, 0): P("1")}))
        assert res.coeffs == {(0, 0, 0): P("4*d1+2*d2")}

    def test_canonical_solution_rank1(self, comm1):
        g = sub_adjacent(comm1)
        dual = dual_rep(standard_rep(comm1, "regular_left"))
        S = semidirect(g, dual)
        r = canonical_skew_tensor(S, comm1.rank)
        assert cybe_residual(S, r).is_zero

    def test_requires_lie(self, comm1, P):
        with pytest.raises(Exception):
            cybe_residual(comm1, Tensor2(comm1, {(0, 0): P("1")}))


class TestSEquation:
    def test_zero_tensor(self, comm1):
        assert s_residual(comm1, Tensor2(comm1, {})).is_zero

    def test_square_on_commutative_rank1_solves(self, comm1, P):
        # brute-force expansion of the three terms gives 1 - 1 - 0 = 0
        res = s_residual(comm1, Tensor2(comm1, {(0, 0): P("1")}))
        assert res.is_zero

    def test_derivative_square_fails(self, comm1, P):
        # hand expansion: (d1+d2) d3 (d1^2 - d2^2), reduced by d3 := -d1-d2
        res = s_residual(comm1, Tensor2(comm1, {(0, 0): P("d1*d2")}))
        assert res.coeffs[(0, 0, 0)] == -(P("d1+d2") ** 3) * P("d1-d2")
        # agreement with the operator criterion: the associated map at zero
        # is not an O-operator for the dual of left multiplication
        T0 = t_from_r(comm1, Tensor2(comm1, {(0, 0): P("d1*d2")})).at_zero()
        rep = dual_rep(standard_rep(comm1, "regular_left"))
        assert not check_o_operator(T0, rep).ok

    def test_canonical_solution_rank1(self, comm1):
        dual = dual_rep(standard_rep(comm1, "regular_left"))
        S = semidirect(comm1, with_zero_right(comm1, dual))
        r = canonical_sym_tensor(S, comm1.rank)
        assert s_residual(S, r).is_zero


class TestMapDictionary:
    def test_t_from_r_derivative_coefficient(self, vir, P):
        T = t_from_r(vir, Tensor2(vir, {(0, 0): P("d2")}))
        assert T.matrix[0][0] == P("d")
        assert T.at_zero().matrix[0][0] == P("d")

    def test_t_from_r_zero(self, vir):
        T = t_from_r(vir, Tensor2(vir, {}))
        assert all(p.is_zero for row in T.matrix for p in row)

    def test_t_from_r_identity_shape(self, hv):
        rep = dual_rep(standard_rep(hv, "adjoint"))
        S = semidirect(hv, rep)
        r = Tensor2(S, {(i, 2 + i): Poly.const(S.table, 1) for i in range(2)})
        T = t_from_r(S, r)
        for i in range(2):
            assert T.matrix[i][2 + i] == 1
        assert sum(1 for row in T.matrix for p in row if not p.is_zero) == 2

    @pytest.mark.parametrize("build", [
        lambda A, B, r: t_from_r(A, r),
        lambda A, B, r: cocycle_from_r(A, r, "lie"),
        lambda A, B, r: form_pr_map(A, B, r),
    ], ids=["t_from_r", "cocycle_from_r", "form_pr_map"])
    def test_tensor_over_a_larger_algebra_rejected(self, build, hv, table, P):
        """A tensor over the rank-4 semidirect sum is refused on hv, as
        cybe_residual refuses it."""
        r = catalog("hv_lsc1_skew_r", table=table).tensor
        B = BilinearForm(table, hv.basis, [[P("1"), P("0")], [P("0"), P("1")]])
        with pytest.raises(PreconditionError, match="tensor indices exceed the algebra rank"):
            build(hv, B, r)

    def test_r_from_t_lambda_entry(self, vir, P):
        rep = standard_rep(vir, "adjoint")
        T = ConformalLinearMap(vir.table, [[P("x")]])
        r = r_from_t(T, rep, mode="raw")
        assert r.coeffs == {(0, 1): P("-d1-d2")}

    def test_r_from_t_zero(self, vir):
        rep = standard_rep(vir, "adjoint")
        T = ConformalLinearMap(vir.table, [[Poly.zero(vir.table)]])
        for mode in ("raw", "skew", "sym"):
            assert r_from_t(T, rep, mode=mode).is_zero

    def test_identity_gives_canonical_tensor(self, comm1):
        rep = standard_rep(comm1, "regular_left")
        T = ConformalLinearMap(comm1.table, [[Poly.const(comm1.table, 1)]])
        r = r_from_t(T, rep, mode="skew")
        S = r.algebra
        assert r == canonical_skew_tensor(S, 1)

    def test_round_trip_recovers_map_block(self, vir, P):
        # composing the two substitutions recovers the entry with d -> -x-d
        rep = standard_rep(vir, "adjoint")
        entry = P("d+3*x")
        T = ConformalLinearMap(vir.table, [[entry]])
        r = r_from_t(T, rep, mode="raw")
        back = t_from_r(r.algebra, r)
        assert back.matrix[0][1] == entry.subs({"d": P("-x-d")})
        # the block structure holds for the skew completion as well
        rs = r_from_t(T, rep, mode="skew")
        back2 = t_from_r(rs.algebra, rs)
        assert back2.matrix[0][1] == entry.subs({"d": P("-x-d")})


class TestCobracket:
    def test_zero(self, vir):
        out = cobracket_from_r(vir, Tensor2(vir, {}), vir.basis_vector(0))
        assert out.is_zero

    def test_virasoro_square(self, vir, P):
        # oracle: slot action gives (d1+2m)+(d2+2m) with m = -d1-d2
        out = cobracket_from_r(vir, Tensor2(vir, {(0, 0): P("1")}), vir.basis_vector(0))
        assert out.coeffs == {(0, 0): P("-3*d1-3*d2")}

    def test_lambda_part_invisible(self, hv, P):
        # adding x * (any map) to the conformal map leaves the cobracket alone
        rep = standard_rep(hv, "adjoint")
        T1 = ConformalLinearMap(hv.table, [[P("1"), P("0")], [P("0"), P("d")]])
        M = ConformalLinearMap(hv.table, [[P("x*d"), P("x")], [P("2*x"), P("x*d^2")]])
        T2 = ConformalLinearMap(hv.table, [[a + b for a, b in zip(r1, r2)]
                                           for r1, r2 in zip(T1.matrix, M.matrix)])
        r1 = r_from_t(T1, rep, mode="skew")
        r2 = r_from_t(T2, rep, mode="skew")
        S = r1.algebra
        for a in [S.basis_vector(i) for i in range(S.rank)]:
            assert cobracket_from_r(S, r1, a) == cobracket_from_r(S, r2, a)

    def test_element_of_the_wrong_length_rejected(self, table):
        e = catalog("hv_lsc1_skew_r", table=table)
        assert e.algebra.rank == 4
        for size in (1, 6):
            a = (Poly.const(table, 1),) * size
            with pytest.raises(PreconditionError, match="components"):
                cobracket_from_r(e.algebra, e.tensor, a)


class TestSparseEngine:
    def test_tensor_checks_avoid_the_dense_product(self, monkeypatch):
        """The CYBE, the S-equation, the cobracket and the 2-cocycle check on the
        rank-8 tensors and forms of the tensor-equation benchmark never call
        apply_bilinear: each is a sum over nonzero table, tensor or form entries."""
        cybe = {fam: rank8_cybe_tensors(fam) for fam in PERTURBED}
        s_eq = {fam: rank8_s_tensors(fam) for fam in PERTURBED}

        def dense(*args, **kwargs):
            raise AssertionError("a tensor check took the dense path")

        monkeypatch.setattr(confalg.algebra, "apply_bilinear", dense)
        for fam in PERTURBED:
            for label, r in cybe[fam].items():
                S = r.algebra
                assert cybe_residual(S, r).is_zero == (label == "dense")
                for i in range(S.rank):
                    cobracket_from_r(S, r, S.basis_vector(i))
            for label, r in s_eq[fam].items():
                assert s_residual(r.algebra, r).is_zero == (label != "bumped")
        for label in COCYCLE_LABELS:
            A, form = cocycle_input(label)
            assert cocycle_check(A, form).ok
        A, form = cocycle_input("S2.hv_lsc1.skew8")
        x = Poly.var(A.table, "x")
        with pytest.raises(AssertionError, match="dense path"):
            confalg.algebra.apply_bilinear(A.table, form.products, A.basis_vector(0),
                                           A.basis_vector(4), x, 1, out=0)
        with pytest.raises(AssertionError, match="dense path"):
            confalg.algebra.apply_bilinear(A.table, A.products, A.basis_vector(0),
                                           A.basis_vector(0), x, A.rank)
