"""Classify weight-0 operators on the two builtin algebras by constraint
generation plus the limited square/linear elimination.

The rank-1 case closes completely (every coefficient is forced to zero);
the rank-2 case is genuinely quadratic, so the solver reports the surviving
equations and the script instead verifies that both known families satisfy
them identically.

Usage: python scripts/classify_operators.py [--degree D]
"""

import argparse

from confalg import Poly, VarTable, catalog, parse, rb_constraints, solve_squares


def show_system(name, system):
    print(f"{name}: {len(system.unknowns)} unknowns, {len(system.equations)} equations")
    result = solve_squares(system)
    print(f"  solver: {result.status}")
    fixed = {k: str(v) for k, v in sorted(result.assignment.items())}
    if fixed:
        print(f"  fixed: {fixed}")
    if result.remaining:
        print(f"  surviving equations: {len(result.remaining)} (first few)")
        for eq in result.remaining[:5]:
            print(f"    {eq} = 0")
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--degree", type=int, default=3)
    args = ap.parse_args()

    table = VarTable()
    vir = catalog("vir", table=table).algebra
    hv = catalog("hv", table=table).algebra

    system, _ = rb_constraints(vir, args.degree, 0)
    result = show_system("rank-1 algebra", system)
    if result.solved and all(v == 0 for v in result.assignment.values()):
        print("  conclusion: every weight-0 operator is zero\n")

    system2, _ = rb_constraints(hv, args.degree, 0)
    show_system("rank-2 algebra", system2)

    # verify the two known families against the system
    print("  family checks against the surviving system:")
    ext = system2.table.extended(("b", "g0", "g1", "g2", "g3"))
    all_ok = True
    for label, content in (
        ("T(L) = -b(L+W), T(W) = b(L+W)",
         {"t0_0_0": "-b", "t0_1_0": "-b", "t1_0_0": "b", "t1_1_0": "b"}),
        ("T(L) = g(d) W, T(W) = 0",
         {f"t0_1_{k}": g for k, g in enumerate(("g0", "g1", "g2", "g3"))
          if k <= args.degree}),
    ):
        assign = {u: Poly.zero(ext) for u in system2.unknowns}
        for k, v in content.items():
            if k in assign:
                assign[k] = parse(ext, v)
        residuals = [eq.embed(ext).subs(assign) for eq in system2.equations]
        ok = all(r.is_zero for r in residuals)
        all_ok &= ok
        print(f"    [{'ok ' if ok else 'FAIL'}] {label}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
