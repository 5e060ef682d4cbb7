import pytest

import confalg.coeff
from confalg import (
    CoeffWindow,
    ConformalAlgebra,
    LIE,
    ModuleMap,
    Poly,
    PreconditionError,
    VarTable,
    VarTableMismatch,
    catalog,
    check_rota_baxter,
    window_checks,
)
from confalg.poly import SLOT, PolyError, Sums
from conftest import package_bracket, window_bracket


class TestWindowBracket:
    def test_raw_virasoro_product(self, vir, P):
        w = CoeffWindow(vir, 5)
        # oracle: (d L)_3 + 2 binom(2,1) L_2 = -3 L_2 + 4 L_2 = L_2
        out = package_bracket(w, 0, 2, 0, 1)
        assert out == {(0, 2): P("1")}

    def test_raw_relation(self, vir):
        w = CoeffWindow(vir, 6)
        one = Poly.const(vir.table, 1)
        for m in range(-3, 4):
            for n in range(-3, 4):
                out = package_bracket(w, 0, m, 0, n)
                if out is None:
                    continue
                expected = {} if m == n else {(0, m + n - 1): one * (m - n)}
                assert out == expected

    def test_w_part_abelian(self, hv):
        w = CoeffWindow(hv, 5)
        for m in range(-5, 6):
            for n in range(-5, 6):
                out = package_bracket(w, 1, m, 1, n)
                assert out == {}

    def test_shifted_textbook_relations(self, hv):
        w = CoeffWindow(hv, 6, shifts={0: 1, 1: 0})
        one = Poly.const(hv.table, 1)
        for m in range(-4, 5):
            for n in range(-4, 5):
                ll = package_bracket(w, 0, m, 0, n)
                if ll is not None:
                    assert ll == ({} if m == n else {(0, m + n): one * (m - n)})
                lw = package_bracket(w, 0, m, 1, n)
                if lw is not None:
                    assert lw == ({} if n == 0 else {(1, m + n): one * (-n)})

    def test_out_of_window(self, vir):
        w = CoeffWindow(vir, 2)
        assert package_bracket(w, 0, 2, 0, 2) is None

    def test_empty_window_vacuous(self, vir):
        w = CoeffWindow(vir, 0)
        report = window_checks(w)
        assert report.ok

    def test_negative_window_rejected(self, hv):
        # a window of no symbols would pass every check without evaluating one
        with pytest.raises(PreconditionError, match="negative"):
            CoeffWindow(hv, -1)

    def test_bilinearity(self, hv, P):
        # the textbook bracket of general elements is the sum of the
        # package's unit-pair brackets
        w = CoeffWindow(hv, 6)
        a = {(0, 1): P("2"), (1, -1): P("-3/2")}
        b = {(0, 0): P("1/3")}
        lhs = window_bracket(w, a, b)
        expect = {}
        for (i, m), ca in a.items():
            for (j, n), cb in b.items():
                piece = package_bracket(w, i, m, j, n)
                for key, c in piece.items():
                    expect[key] = expect.get(key, c * 0) + ca * cb * c
        expect = {k: v for k, v in expect.items() if not v.is_zero}
        assert lhs == expect


class TestWindowChecks:
    def test_a_chain_past_the_slot_width_is_refused(self, table, P):
        """A chain multiplies up to three monomials of the table, the map and
        the weight, so a window whose largest degree, tripled, reaches 2^SLOT
        is refused before any chain is summed; one just below runs."""
        b = Poly.var(table, "b")
        for power, fits in ((2 ** SLOT // 3 + 1, False), (2 ** SLOT // 3, True)):
            A = ConformalAlgebra(LIE, ("L",), table, {(0, 0): {0: P("d+2*x") * b ** power}})
            T = ModuleMap(table, [[b]])
            if fits:
                report = window_checks(CoeffWindow(A, 1), T, 0)
                assert [c.ok for c in report.checks] == [True, True, False]
            else:
                with pytest.raises(PolyError, match=f"past the {SLOT}-bit slots"):
                    window_checks(CoeffWindow(A, 1), T, 0)

    def test_virasoro_jacobi(self, vir):
        report = window_checks(CoeffWindow(vir, 6))
        assert report.ok

    def test_hv_jacobi_and_lift(self, hv, table, P):
        T = ModuleMap(table, [[P("-b"), P("-b")], [P("b"), P("b")]])
        report = window_checks(CoeffWindow(hv, 6, shifts={0: 1, 1: 0}), T, 0)
        assert report.ok
        names = [c.name for c in report.checks]
        assert "lifted_rota_baxter" in names

    def test_lift_compatibility_family2(self, hv, table, P):
        T = ModuleMap(table, [[P("0"), P("g0+g1*d+g2*d^2+g3*d^3")], [P("0"), P("0")]])
        assert check_rota_baxter(hv, T, 0).ok
        assert window_checks(CoeffWindow(hv, 4), T, 0).ok

    def test_broken_operator_fails_lift(self, hv, table, P):
        T = ModuleMap(table, [[P("1"), P("0")], [P("0"), P("0")]])
        assert not check_rota_baxter(hv, T, 0).ok
        report = window_checks(CoeffWindow(hv, 4), T, 0)
        assert not report.ok
        assert ("(L_-2,L_0)->L_-3", "2") in report.checks[2].residuals

    def test_perturbed_family_fails_lift(self, hv, table, P):
        T = ModuleMap(table, [[P("-b"), P("1-b")], [P("b"), P("b")]])
        report = window_checks(CoeffWindow(hv, 2), T, 0)
        assert [c.ok for c in report.checks] == [True, True, False]
        assert ("(L_-2,L_1)->L_-2", "3*b") in report.checks[2].residuals

    def test_evaluated_and_skipped_counts(self):
        """Each check counts the instances it evaluated and skipped; the
        N = 0 window evaluates every instance, so it is not vacuous."""
        entry = catalog("hv_rb_family1")

        def counts(report):
            return [(c.name, c.evaluated, c.skipped) for c in report.checks]

        assert counts(window_checks(CoeffWindow(entry.algebra, 0))) == [
            ("antisymmetry", 4, 0), ("jacobi", 8, 0)]
        assert counts(window_checks(CoeffWindow(entry.algebra, 1), entry.linmap, 0)) == [
            ("antisymmetry", 27, 9), ("jacobi", 120, 96), ("lifted_rota_baxter", 24, 12)]

    def test_weight_over_another_table_is_refused(self, hv, table, P):
        """A rational table sums the lifted identity by the weight's monomials,
        so a weight over another variable table is refused, not misread."""
        T = ModuleMap(table, [[P("-b"), P("-b")], [P("b"), P("b")]])
        alpha = Poly.var(VarTable(params=("alpha",)), "alpha")
        with pytest.raises(VarTableMismatch):
            window_checks(CoeffWindow(hv, 2), T, alpha)

    def test_map_over_another_table_is_refused(self, hv, P):
        """The lifted identity packs the map's monomials by the algebra's
        variables, so a map over another variable table is refused."""
        other = VarTable(params=("b",))
        T = ModuleMap(other, [[Poly.var(other, "b")] * 2] * 2)
        with pytest.raises(VarTableMismatch):
            window_checks(CoeffWindow(hv, 2), T, 0)

    def test_mutant_fails_antisymmetry_and_jacobi(self, table, P):
        mutant = ConformalAlgebra("lie", ("L",), table, {(0, 0): {0: P("d+3*x")}})
        anti, jacobi = window_checks(CoeffWindow(mutant, 1)).checks
        assert ("[L_0,L_1]->L_0", "1") in anti.residuals
        assert ("[L_-1,[L_1,L_1]]->L_-1", "-3") in jacobi.residuals


class TestChainSums:
    def test_window_checks_bracket_no_general_elements(self, monkeypatch, hv, table, P):
        """Every identity is a chain sum over the unit-pair table, on passing
        and failing maps alike: a check brackets each ordered pair of window
        symbols once, to build the table, and nothing else, whether the
        table's entries are rational, as hv's, or hold a parameter."""
        pair_split, calls = CoeffWindow._pair_split, []

        def counting(self, i, m, j, n):
            calls.append((i, m, j, n))
            return pair_split(self, i, m, j, n)

        monkeypatch.setattr(CoeffWindow, "_pair_split", counting)
        good = ModuleMap(table, [[P("-b"), P("-b")], [P("b"), P("b")]])
        bad = ModuleMap(table, [[P("-b"), P("1-b")], [P("b"), P("b")]])
        scaled = ConformalAlgebra(LIE, ("L", "W"), table, {(0, 0): {0: P("d+2*x")},
                                                           (0, 1): {1: P("b*d+b*x")},
                                                           (1, 0): {1: P("b*x")}})
        for A in (hv, scaled):
            w = CoeffWindow(A, 4, shifts={0: 1, 1: 0})
            unit_pairs = sorted((*a, *b) for a in w.symbols() for b in w.symbols())
            for T in (good, bad):
                calls.clear()
                report = window_checks(w, T, 0)
                assert sorted(calls) == unit_pairs
                if A is hv:
                    assert [c.ok for c in report.checks] == [True, True, T is good]
        w._pair_split(0, 0, 0, 1)
        assert sorted(calls) != unit_pairs

    def test_multiplications_on_the_benchmark_windows(self, monkeypatch, table, P):
        """The four windows of the systems benchmark workload make no
        polynomial multiplication, and nor does a table whose entries hold a
        parameter: every sweep sums by packed monomial.  Bracketing general
        elements for every Jacobi triple took 99,474, and summing the lifted
        identity in Sums 51 to 174."""
        hv = catalog("hv", table=table).algebra
        maps = [catalog(f"hv_rb_family{fam}", table=table).linmap for fam in (1, 2)]
        scaled = ConformalAlgebra(LIE, ("L",), table, {(0, 0): {0: P("b*d+2*b*x")}})
        mul = Poly.__mul__
        calls = 0

        def counting(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        monkeypatch.setattr(Poly, "__rmul__", counting)
        for N in (4, 6):
            for T in maps:
                assert window_checks(CoeffWindow(hv, N, {0: 1, 1: 0}), T, 0).ok
        assert calls == 0
        assert not window_checks(CoeffWindow(scaled, 3), ModuleMap(table, [[P("g0")]]), 0).ok
        assert calls == 0

    def test_chain_sums_on_the_benchmark_windows(self, monkeypatch):
        """Of two symbols whose brackets are each other's negatives, one order is
        evaluated and the other written from it: the four windows of the systems
        benchmark workload take at most these chain sums; evaluating both orders
        took 11,259, 10,997, 32,522 and 32,196."""
        t = VarTable(params=("b", "g0", "g1", "g2", "g3"))
        hv = catalog("hv", table=t).algebra
        calls = 0

        chain = confalg.coeff._chain

        def counting(*args):
            nonlocal calls
            calls += 1
            return chain(*args)

        monkeypatch.setattr(confalg.coeff, "_chain", counting)
        counts = []
        for N in (4, 6):
            for fam in (1, 2):
                calls = 0
                T = catalog(f"hv_rb_family{fam}", table=t).linmap
                assert window_checks(CoeffWindow(hv, N, {0: 1, 1: 0}), T, 0).ok
                counts.append(calls)
        assert all(0 < c <= budget for c, budget in zip(counts, [6124, 5975, 17278, 17090]))

    def test_rational_tables_sum_without_sums(self, monkeypatch, table, P):
        """The four windows of the systems benchmark workload build their
        unit-pair table, lift each unit and sum all three sweeps without a
        Sums, and so does a table whose entries hold a parameter."""
        hv = catalog("hv", table=table).algebra
        add, adds = Sums.add, 0

        def counting(self, *args):
            nonlocal adds
            adds += 1
            return add(self, *args)

        monkeypatch.setattr(Sums, "add", counting)
        for N in (4, 6):
            for fam in (1, 2):
                T = catalog(f"hv_rb_family{fam}", table=table).linmap
                assert window_checks(CoeffWindow(hv, N, {0: 1, 1: 0}), T, 0).ok
        scaled = ConformalAlgebra(LIE, ("L",), table, {(0, 0): {0: P("b*d+2*b*x")}})
        assert not window_checks(CoeffWindow(scaled, 3), ModuleMap(table, [[P("g0")]]), 0).ok
        assert adds == 0

    def test_window_cap(self, monkeypatch, hv):
        """A window whose Jacobi sweep passes the cap is refused before any
        bracket is built; the cap itself is allowed."""
        monkeypatch.setattr(confalg.coeff, "MAX_WINDOW_TRIPLES", (2 * 13) ** 3)
        assert window_checks(CoeffWindow(hv, 6)).ok
        with pytest.raises(PreconditionError, match="window 7 needs 27000 Jacobi triples"):
            window_checks(CoeffWindow(hv, 7))
