"""Acceptance suite. `test_claim` runs each claim of scripts/verify_builtins.py,
the list that script prints, on its input and its negative controls; the
claims of criteria 4, 5 and 8 are marked `tautology`. The criterion tests keep
what is more than a verdict: tables (3), cobracket (6), classification (7),
form entries (8), window relations (9), round trips (10), modules (11). Checks
are exact, identically in the free parameters; ``pytest -s`` prints labels.
"""

from fractions import Fraction

import pytest

from confalg import (ModuleMap, Poly, PolySystem, VarTable, algebra_from_gd, cobracket_from_r,
                     gd_from_algebra, induced_lsc, lift_constant, parse, rb_constraints,
                     rb_gd_check, solve_squares)
from confalg.gd import GDBialgebra
from conftest import load_script, package_bracket

verify = load_script("verify_builtins")
T, P, CLAIMS = verify.T, verify.P, verify.CLAIMS


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.name)
def test_claim(claim):
    found, expected = claim.labels()
    text = verify.row(claim, found, expected)
    print(text)
    assert found == expected
    assert text.startswith(f"  [{'tautology' if claim.criterion in (4, 5, 8) else 'ok'}] ")


def test_criterion_3():
    """Induced left-symmetric products match the displayed tables."""
    HV = verify.algebra("hv")
    A1 = induced_lsc(verify.linmap("hv_rb_family1"), mode="rb", algebra=HV)
    assert A1.product(0, 0) == {0: P("-b*(d+2*x)"), 1: P("-b*x")}
    assert A1.product(0, 1) == {1: P("-b*(d+x)")}
    assert A1.product(1, 0) == {0: P("b*(d+2*x)"), 1: P("b*x")}
    assert A1.product(1, 1) == {1: P("b*(d+x)")}
    A2 = induced_lsc(verify.linmap("hv_rb_family2"), mode="rb", algebra=HV)
    g_neg = P("g0 - g1*x + g2*x^2 - g3*x^3")
    assert A2.product(0, 0) == {1: g_neg * P("x")}
    for pair in ((0, 1), (1, 0), (1, 1)):
        assert A2.product(*pair) == {}
    assert A1 == verify.algebra("hv_lsc1") and A2 == verify.algebra("hv_lsc2")


def test_criterion_6():
    """The cobracket of the dictionary's tensor sees only the zero-argument part."""
    S, r = verify.skew_r(verify.with_x_part())
    _, r_plain = verify.skew_r(lift_constant(verify.linmap("hv_rb_family1")))
    for i in range(S.rank):
        a = S.basis_vector(i)
        assert cobracket_from_r(S, r, a) == cobracket_from_r(S, r_plain, a)


def test_criterion_7():
    """Rank-1 classification: every operator coefficient is forced to zero."""
    system, _ = rb_constraints(verify.algebra("vir"), 3, 0)
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


def test_criterion_8():
    """The canonical tensors' 2-cocycles have the displayed values."""
    for A in (verify.algebra("hv_lsc1"), verify.algebra("hv_lsc2")):
        n = A.rank
        for kind, sign in (("lie", -1), ("lsc", 1)):
            _, form = verify.cocycle_input(A, kind)
            for i in range(2 * n):
                for j in range(2 * n):
                    assert form.matrix[i][j] == (sign if j == i + n else 1 if i == j + n else 0)


def test_criterion_9():
    """The index window's brackets are the textbook relations."""
    w = verify.window()
    one = Poly.const(T, 1)
    checked = 0
    for m in range(-4, 5):
        for n in range(-4, 5):
            ll = package_bracket(w, 0, m, 0, n)
            if ll is not None:
                assert ll == ({} if m == n else {(0, m + n): one * (m - n)})
                checked += 1
            lw = package_bracket(w, 0, m, 1, n)
            if lw is not None:
                assert lw == ({} if n == 0 else {(1, m + n): one * (-n)})
                checked += 1
            ww = package_bracket(w, 1, m, 1, n)
            if ww is not None:
                assert ww == {}
    assert checked > 100


def test_criterion_10():
    """Bialgebra dictionary: exact round trips."""
    for A in (verify.algebra("vir"), verify.algebra("hv")):
        V = gd_from_algebra(A)
        back = algebra_from_gd(V)
        assert back.products == A.products
        assert gd_from_algebra(back).circ == V.circ
        assert gd_from_algebra(back).lie == V.lie


def test_criterion_11():
    """Every builtin representation has a module claim."""
    assert len([c for c in CLAIMS if c.name.endswith(" module")]) == len(verify.MODULES) >= 6
