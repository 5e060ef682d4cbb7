"""The paper's claims as one list, CLAIMS, which this script prints and
tests/test_acceptance.py runs, one test per claim.

A claim names its acceptance criterion (the numbers that the sources in
perfbench/expected.json cite) and the paper statement, and runs one
computation to a verdict label ("ok", "fail:<first failing check>", or the
zero-divisor probe's status) on its input and on a negative control, an input
on which the hypothesis fails. A claim whose hypothesis-failing input still
gives "ok" is marked `tautology` and printed so: the canonical tensors solve the
Yang-Baxter and S-equations, and induce 2-cocycles (criteria 4, 5 and 8), on
any table, left-symmetric or not. Free parameters stay symbolic throughout.

Usage: python scripts/verify_builtins.py
"""

import sys
import time
from functools import cache, partial
from operator import attrgetter
from typing import Callable, NamedTuple

from confalg import (
    LEFT_SYMMETRIC, LIE, ConformalAlgebra, ConformalLinearMap, Representation, VarTable,
    canonical_skew_tensor, canonical_sym_tensor, catalog, check_axioms, check_gd,
    check_o_operator, check_rep, check_rota_baxter, cocycle_check, cocycle_from_r,
    cybe_residual, dual_rep, gd_from_algebra, lift_constant, parse, r_from_t, rb_gd_check,
    s_residual, semidirect, standard_rep, sub_adjacent, with_zero_right, zero_divisor_probe,
)
from confalg.coeff import CoeffWindow, window_checks
from confalg.gd import GDBialgebra
from confalg.operators import BilinearForm, rota_baxter_residuals
from confalg.tensor import tensor3_report

T = VarTable(params=("b", "g0", "g1", "g2", "g3"))
P = partial(parse, T)


class Claim(NamedTuple):
    name: str
    criterion: int
    statement: str
    check: Callable[[object], str]  # an input to its verdict label
    input: Callable[[], object]  # builds the input when the claim runs
    controls: list  # (note, input, the label it must give) each
    expect: str = "ok"

    @property
    def tautology(self):
        """Whether a control must give the claim's own label, so that the check
        does not tell that control's input from the claim's."""
        return self.expect in [label for _, _, label in self.controls]

    def labels(self):
        """The labels found and expected on the claim's input, then on each control's."""
        runs = [(self.input, self.expect)] + [(make, label) for _, make, label in self.controls]
        return [self.check(make()) for make, _ in runs], [label for _, label in runs]


@cache
def algebra(name):
    return catalog(name, table=T).algebra


@cache
def linmap(name):
    return catalog(name, table=T).linmap


def lazy(build, source, *args, **kwargs):
    """An input that is build(source(), *args, **kwargs) once a claim runs."""
    return lambda: build(source(), *args, **kwargs)


def skew_mutant():
    """Criterion 1's rank-1 table with P_00 = d+3x, which fails skew-symmetry."""
    return ConformalAlgebra(LIE, ("L",), T, {(0, 0): {0: P("d+3*x")}})


def not_left_symmetric():
    """A left-symmetric-kind table that fails left-symmetry."""
    return ConformalAlgebra(LEFT_SYMMETRIC, ("L", "W"), T, {
        (0, 0): {0: P("d+2*x"), 1: P("x")}, (0, 1): {1: P("x+1")}, (1, 1): {0: P("d")}})


def regular_left(A, dual=True):
    """A* (or A, with dual=False) as a module over the commutator algebra of A,
    built without checking that A is left-symmetric."""
    M = Representation(sub_adjacent(A, checked=False), A.basis, rho=A.products)
    return dual_rep(M) if dual else M


def zero_right(A, dual=True):
    return with_zero_right(A, regular_left(A, dual))


def canonical(A, kind, dual=True):
    """g x| A* (kind "lie", g the commutator algebra of A) with its canonical
    skew tensor, or A x| A* with the zero right action ("lsc") and the
    symmetric one; dual=False pairs with A in place of A*."""
    M = regular_left(A, dual) if kind == "lie" else zero_right(A, dual)
    S = semidirect(M.algebra, M, checked=False)
    return S, (canonical_skew_tensor if kind == "lie" else canonical_sym_tensor)(S, A.rank)


def cocycle_input(A, kind, bump=0):
    """The rank-4 sum and the 2-cocycle its canonical tensor induces; a bump
    adds to the entries (0, n) and (n, 0) alike under the form's symmetry law."""
    S, r = canonical(A, kind)
    matrix, n = cocycle_from_r(S, r, kind).matrix, A.rank
    matrix[0][n] += bump
    matrix[n][0] += bump if kind == "lsc" else -bump
    return S, BilinearForm(T, S.basis, matrix, kind)


def with_x_part():
    """Criterion 6's map: family 1 plus an argument-linear part."""
    extra = [["x*d", "x"], ["2*x", "x^2"]]
    return ConformalLinearMap(T, [[p + P(e) for p, e in zip(row, more)]
                                  for row, more in zip(linmap("hv_rb_family1").matrix, extra)])


def bumped_entry(op):
    return op.perturbed(0, 0, 1)


def perturbed_x_part():
    return lift_constant(bumped_entry(with_x_part().at_zero()))


def skew_r(Tmap):
    """hv x| hv* and the skew tensor that the dictionary reads off a map."""
    r = r_from_t(Tmap, standard_rep(algebra("hv"), "adjoint"), mode="skew")
    return r.algebra, r


@cache
def window():
    """The index window N = 6 of hv, with L reindexed by one."""
    return CoeffWindow(algebra("hv"), 6, shifts={0: 1, 1: 0})


MODULES = (("vir", "adjoint"), ("hv", "adjoint"),
           *((f"hv_lsc{f}", kind) for f in (1, 2) for kind in ("regular_left", "left_minus_right")))


def bumped_bracket(V):
    """V with its Lie bracket [e0, e0] = e0 in place of the zero bracket."""
    return GDBialgebra(V.basis, V.table, V.circ, {(0, 0): {0: 1}})


def bumped_action(rep):
    """rep with d added to its action entry (0, 0) -> 0."""
    rho = {pair: dict(targets) for pair, targets in rep.rho.items()}
    rho[0, 0][0] = rho[0, 0].get(0, P("0")) + P("d")
    return Representation(rep.algebra, rep.mbasis, rho=rho)


def verdict(*reports):
    """"ok", or "fail:<first failing check>"; "zero_residual" when a check
    records a residual that is zero."""
    checks = [c for report in reports for c in report.checks]
    if any(p == "0" for c in checks for _, p in c.residuals):
        return "zero_residual"
    return next((f"fail:{c.name}" for c in checks if not c.ok), "ok")


def axioms(A):
    return verdict(check_axioms(A))


def rota_baxter(op):
    """Weight 0 on hv; "miscounted" unless every pair is swept, none is
    skipped, and the residual map holds exactly the failing pairs."""
    A = algebra("hv")
    report, residuals = check_rota_baxter(A, op, 0), rota_baxter_residuals(A, op, 0)
    (check,) = report.checks
    swept = (check.evaluated, check.skipped) == (A.rank ** 2, 0)
    return verdict(report) if swept and report.ok != bool(residuals) else "miscounted"


def tensor_equation(equation, S_r):
    residual = cybe_residual if equation == "yang_baxter" else s_residual
    return verdict(tensor3_report(equation, residual(*S_r)))


def window_rota_baxter(op):
    """The window's checks, which must include the lifted operator's."""
    report = window_checks(window(), op, 0)
    missing = {"antisymmetry", "jacobi", "lifted_rota_baxter"} - {c.name for c in report.checks}
    return f"missing:{','.join(sorted(missing))}" if missing else verdict(report)


def probe(A):
    V = gd_from_algebra(A)
    found = zero_divisor_probe(V)
    names = found.witness_names(V)
    return f"{found.status}:{','.join(names)}" if names else found.status


def module(rep):
    """The module axioms of rep and, for a Lie-kind rep, of its dual, and the
    axioms of each semidirect sum."""
    reps = [rep, dual_rep(rep)] if rep.is_lie else [rep]
    sums = [check_axioms(semidirect(rep.algebra, M, checked=False)) for M in reps]
    return verdict(*map(check_rep, reps), *sums)


def all_claims():
    vir, hv, bad = partial(algebra, "vir"), partial(algebra, "hv"), not_left_symmetric
    family = {f: partial(linmap, f"hv_rb_family{f}") for f in (1, 2)}
    NOT_LSC, BUMPED = "not left-symmetric", "T_00 + 1"
    claims = [Claim(f"{name} axioms", 1, f"the rank-{n} algebra is a Lie conformal algebra",
                    axioms, A, [("P_00 = d+3x", skew_mutant, "fail:skew_symmetry")])
              for name, n, A in (("vir", 1, vir), ("hv", 2, hv))]
    claims += [Claim(f"hv_rb_family{f}", 2, f"operator family {f} is Rota-Baxter of weight 0",
                     rota_baxter, op, [(BUMPED, lazy(bumped_entry, op), "fail:rota_baxter")])
               for f, op in family.items()]
    for f in (1, 2):
        name, A = f"hv_lsc{f}", partial(algebra, f"hv_lsc{f}")
        claims += [
            Claim(f"{name} left-symmetric", 3, f"family {f} induces a left-symmetric product",
                  axioms, A, [(NOT_LSC, bad, "fail:left_symmetry")]),
            Claim(f"{name} commutator algebra", 3, "its commutator algebra is Lie",
                  lambda L: axioms(sub_adjacent(L, checked=False)), A,
                  [(NOT_LSC, bad, "fail:jacobi")]),
            Claim(f"{name} left-symmetric sum closes", 11, "A* with the zero right action is a "
                  "bimodule of A, and A x| A* is left-symmetric", module, lazy(zero_right, A),
                  [(NOT_LSC, lazy(zero_right, bad), "fail:left_action_axiom")])]
        for kind, num, what, equation, shown in (
                ("lie", 4, "skew", "yang_baxter", "Yang-Baxter equation"),
                ("lsc", 5, "symmetric", "s_equation", "S-equation")):
            claims += [
                Claim(f"{name} {what} tensor solves the {shown}", num,
                      f"the canonical {what} tensor of the sum with A* solves the {shown}",
                      partial(tensor_equation, equation), lazy(canonical, A, kind),
                      [(NOT_LSC, lazy(canonical, bad, kind), "ok"),
                       ("A in place of A*", lazy(canonical, A, kind, False), f"fail:{equation}")]),
                Claim(f"{name} {what} 2-cocycle", 8, f"the {what} tensor induces a 2-cocycle",
                      lambda S_form: verdict(cocycle_check(*S_form)), lazy(cocycle_input, A, kind),
                      [(NOT_LSC, lazy(cocycle_input, bad, kind), "ok"),
                       ("bumped form entry", lazy(cocycle_input, A, kind, bump=1),
                        "fail:cocycle_identity")])]
    claims += [
        Claim("family 1 + x-part is an O-operator", 6,
              "a map whose zero-argument part is Rota-Baxter is an O-operator for the adjoint",
              lambda Tm: verdict(check_o_operator(Tm.at_zero(), standard_rep(hv(), "adjoint"))),
              with_x_part, [(BUMPED, perturbed_x_part, "fail:o_operator")]),
        Claim("family 1 + x-part solves the Yang-Baxter equation", 6,
              "the skew tensor of that map solves the CYBE on hv x| hv*",
              lambda Tm: tensor_equation("yang_baxter", skew_r(Tm)), with_x_part,
              [(BUMPED, perturbed_x_part, "fail:yang_baxter")]),
        Claim("window axioms + lifted operator", 9,
              "the window N = 6 is Lie and family 1 lifts to a Rota-Baxter operator on it",
              window_rota_baxter, family[1],
              [(BUMPED, lazy(bumped_entry, family[1]), "fail:lifted_rota_baxter")]),
        Claim("vir zero-divisor probe", 10, "the star product of vir has no zero divisor", probe,
              vir, [("hv", hv, "witness:W,W")], "no_zero_divisors"),
        Claim("hv zero-divisor probe", 10, "W * W = 0 in the star product of hv", probe,
              hv, [("vir", vir, "no_zero_divisors")], "witness:W,W"),
        Claim("family 1 on the bialgebra + lift", 10, "family 1 is Rota-Baxter on hv's bialgebra",
              lambda op: verdict(rb_gd_check(gd_from_algebra(hv()), op, 0)), family[1],
              [(BUMPED, lazy(bumped_entry, family[1]), "fail:rota_baxter_novikov")])]
    claims += [Claim(f"{name} bialgebra axioms", 10, f"{name} is the affine algebra of a bialgebra",
                     lambda V: verdict(check_gd(V)), lazy(gd_from_algebra, A),
                     [("[e0, e0] = e0", lazy(bumped_bracket, lazy(gd_from_algebra, A)),
                       "fail:lie_antisymmetry")])
               for name, A in (("vir", vir), ("hv", hv))]
    for name, kind in MODULES:
        rep = lazy(standard_rep, partial(algebra, name), kind)
        claims.append(Claim(f"{name}_{kind} module", 11,
                            "it and its dual are modules, and both semidirect sums close", module,
                            rep, [("d added to an action", lazy(bumped_action, rep),
                                   "fail:module_axiom")]))
    return sorted(claims, key=attrgetter("criterion"))


CLAIMS = all_claims()


def row(claim, found, expected):
    """A claim's printed row: FAIL unless every run gives its label and a control runs."""
    holds = found == expected and len(expected) > 1
    mark = "FAIL" if not holds else "tautology" if claim.tautology else "ok"
    controls = "; ".join(f"{c[0]}: {label}" for c, label in zip(claim.controls, found[1:]))
    return (f"  [{mark}] {claim.name}: {found[0]} ({controls})\n"
            f"        criterion {claim.criterion}: {claim.statement}")


def main():
    t0 = time.time()
    rows = [row(claim, *claim.labels()) for claim in CLAIMS]
    print(*rows, sep="\n")
    held = sum("[FAIL]" not in text for text in rows)
    print(f"\n{'all claims hold' if held == len(CLAIMS) else 'SOME CLAIMS FAILED'}: {held} of "
          f"{len(CLAIMS)}, {sum(c.tautology for c in CLAIMS)} marked tautology")
    # the time goes to stderr, so that two runs of one tree print the same stdout
    print(f"{time.time() - t0:.1f}s", file=sys.stderr)
    return 0 if held == len(CLAIMS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
