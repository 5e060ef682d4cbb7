"""``check_axioms`` against the modular oracle of ``tests/modular.py``: the
instances a report lists must be exactly those whose residual is nonzero at
a random point mod 2^61 - 1, on passing and failing algebras alike."""

from functools import cache

import pytest

from confalg import LEFT_SYMMETRIC, LIE, ConformalAlgebra, VarTable, check_axioms, parse
from confalg.catalog import catalog, names
from confalg.reps import dual_rep, semidirect, standard_rep, sub_adjacent
from modular import failing_axioms, labelled

TABLE = VarTable(params=("b",))


def tower(base: ConformalAlgebra, top_rank: int) -> list[ConformalAlgebra]:
    """base, then each level the semidirect sum with its coadjoint module."""
    levels = [base]
    while levels[-1].rank < top_rank:
        S = levels[-1]
        levels.append(semidirect(S, dual_rep(standard_rep(S, "adjoint")), checked=False))
    return levels


def distinct_table(n: int, k: int) -> ConformalAlgebra:
    """Every product (e_a, e_b) has every e_c, with the coefficient (d+x+c)^k
    for a constant c different in each cell: dense, of degree k, and failing."""
    basis = tuple(f"e{a}" for a in range(n))
    return ConformalAlgebra(LIE, basis, TABLE, {
        (a, b): {c: parse(TABLE, f"(d+x+{(a * n + b) * n + c + 1})^{k}") for c in range(n)}
        for a in range(n) for b in range(n)})


TOWERS = {"vir": 64, "lsc1": 32, "mutant": 16}  # each tower's top rank
EXTRA = ("hv_skew_not_jacobi", "lsc_x", "distinct_4_4")
# the catalog entries that hold an algebra: all but the GD bialgebras
INPUTS = [*(n for n in names() if not n.endswith("_gd")), *(f"{label}.r{2 ** e}" for label, top in TOWERS.items()
                      for e in range(top.bit_length()) if label != "lsc1" or e),
          *EXTRA]


@cache
def towers() -> dict[str, ConformalAlgebra]:
    bases = {"vir": catalog("vir", table=TABLE).algebra,
             "lsc1": sub_adjacent(catalog("hv_lsc1", table=TABLE).algebra),
             "mutant": ConformalAlgebra(LIE, ("L",), TABLE, {(0, 0): {0: parse(TABLE, "d+3*x")}})}
    return {f"{label}.r{S.rank}": S for label, base in bases.items()
            for S in tower(base, TOWERS[label])}


def algebra(name: str) -> ConformalAlgebra:
    if name in names():
        return catalog(name, table=VarTable(params=("b", "g0", "g1", "g2", "g3"))).algebra
    if name == "hv_skew_not_jacobi":  # skew, as (d+2x) + (d+2(-x-d)) = 0, but not Jacobi
        hv = catalog("hv", table=TABLE).algebra
        return ConformalAlgebra(LIE, hv.basis, TABLE, {**hv.products,
                                                       (1, 1): {0: parse(TABLE, "d+2*x")}})
    if name == "lsc_x":
        return ConformalAlgebra(LEFT_SYMMETRIC, ("e",), TABLE, {(0, 0): {0: parse(TABLE, "x")}})
    if name == "distinct_4_4":
        return distinct_table(4, 4)
    return towers()[name]


def test_towers_reach_their_top_ranks():
    assert sorted(towers()) == sorted(n for n in INPUTS if "." in n)


@pytest.mark.parametrize("name", INPUTS)
def test_report_lists_exactly_the_nonzero_instances(name):
    A = algebra(name)
    report = check_axioms(A)
    listed = {(check.name, label) for check in report.checks for label, _ in check.residuals}
    assert listed == labelled(A, failing_axioms(A))


def test_failing_inputs_fail_the_law_they_break():
    """Each failing input breaks the law it was built to break, so the
    comparison above runs on nonzero Jacobi and left-symmetry residuals too."""
    broken = {name: {check for check, _ in failing_axioms(algebra(name))}
              for name in ("mutant.r1", "hv_skew_not_jacobi", "lsc_x", "distinct_4_4")}
    assert broken == {"mutant.r1": {"skew_symmetry", "jacobi"}, "hv_skew_not_jacobi": {"jacobi"},
                      "lsc_x": {"left_symmetry"},
                      "distinct_4_4": {"skew_symmetry", "jacobi"}}
