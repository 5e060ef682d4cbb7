"""End-to-end verification of every builtin structure, printed as a table.

Runs the same computations as the acceptance suite but through the public
API, with free parameters left symbolic throughout.

Usage: python scripts/verify_builtins.py
"""

import time

from confalg import (
    VarTable,
    canonical_skew_tensor,
    canonical_sym_tensor,
    catalog,
    check_axioms,
    check_gd,
    check_rep,
    check_rota_baxter,
    cocycle_check,
    cocycle_from_r,
    cybe_residual,
    dual_rep,
    gd_from_algebra,
    rb_gd_check,
    s_residual,
    semidirect,
    standard_rep,
    sub_adjacent,
    with_zero_right,
    zero_divisor_probe,
)
from confalg.coeff import CoeffWindow, window_checks


def row(label, ok, detail=""):
    mark = "ok " if ok else "FAIL"
    print(f"  [{mark}] {label}{': ' + detail if detail else ''}")
    return ok


def main():
    t0 = time.time()
    table = VarTable(params=("b", "g0", "g1", "g2", "g3"))
    vir = catalog("vir", table=table).algebra
    hv = catalog("hv", table=table).algebra
    all_ok = True

    print("axioms")
    all_ok &= row("rank-1 builtin", check_axioms(vir).ok)
    all_ok &= row("rank-2 builtin", check_axioms(hv).ok)

    print("operator families (symbolic parameters)")
    for name in ("hv_rb_family1", "hv_rb_family2"):
        entry = catalog(name, table=table)
        all_ok &= row(name, check_rota_baxter(entry.algebra, entry.linmap, 0).ok)

    print("induced left-symmetric structures")
    for name in ("hv_lsc1", "hv_lsc2"):
        A = catalog(name, table=table).algebra
        all_ok &= row(name, check_axioms(A).ok)
        all_ok &= row(f"{name} commutator algebra", check_axioms(sub_adjacent(A)).ok)

    print("canonical tensors on the rank-4 sums")
    for name in ("hv_lsc1", "hv_lsc2"):
        A = catalog(name, table=table).algebra
        g = sub_adjacent(A)
        dual = dual_rep(standard_rep(A, "regular_left"))
        S = semidirect(g, dual)
        r = canonical_skew_tensor(S, A.rank)
        all_ok &= row(f"{name} skew tensor solves Yang-Baxter",
                      cybe_residual(S, r).is_zero)
        form = cocycle_from_r(S, r, "lie")
        all_ok &= row(f"{name} induced 2-cocycle", cocycle_check(S, form).ok)
        S2 = semidirect(A, with_zero_right(A, dual))
        r2 = canonical_sym_tensor(S2, A.rank)
        all_ok &= row(f"{name} symmetric tensor solves the S-equation",
                      s_residual(S2, r2).is_zero)
        form2 = cocycle_from_r(S2, r2, "lsc")
        all_ok &= row(f"{name} symmetric 2-cocycle", cocycle_check(S2, form2).ok)

    print("representations")
    for name in ("hv_lsc1", "hv_lsc2"):
        A = catalog(name, table=table).algebra
        rep = standard_rep(A, "regular_left")
        all_ok &= row(f"{name} left multiplication", check_rep(rep).ok)
        all_ok &= row(f"{name} dual", check_rep(dual_rep(rep)).ok)

    print("coefficient window (N = 6, reindexed)")
    w = CoeffWindow(hv, 6, shifts={0: 1, 1: 0})
    fam1 = catalog("hv_rb_family1", table=table).linmap
    all_ok &= row("window axioms + lifted operator", window_checks(w, fam1, 0).ok)

    print("bialgebra dictionary")
    # vir's star product has no zero divisor; hv's has W * W = 0
    for name, A, expected in (("vir", vir, ("no_zero_divisors", None)),
                              ("hv", hv, ("witness", ("W", "W")))):
        V = gd_from_algebra(A)
        all_ok &= row(f"{name} bialgebra axioms", check_gd(V).ok)
        probe = zero_divisor_probe(V)
        found = probe.status, probe.witness_names(V)
        all_ok &= row(f"{name} zero-divisor probe", found == expected, probe.status)
    V = gd_from_algebra(hv)
    fam1c = catalog("hv_rb_family1", table=table).linmap
    all_ok &= row("family 1 on the bialgebra + lift", rb_gd_check(V, fam1c, 0).ok)

    print(f"\n{'all verifications passed' if all_ok else 'SOME VERIFICATIONS FAILED'}"
          f" ({time.time() - t0:.1f}s)")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
