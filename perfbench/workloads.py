"""The four benchmark workloads: their inputs and their jobs.

A workload's set-up builds its inputs and returns a list of job groups.  The
seed orders the groups in each pass; the inputs themselves are fixed, so the
work does not change with the seed.  A group is the unit the shuffle moves
(a CLI `rb-constraints` call and the `solve` call that reads its output form
one group); everything else is a group of one.

A job has a key, which names its known answer in `expected.json`, a `run`
callable (the timed work: calls into confalg only) and an `observe` callable
(untimed) that turns the output into a verdict label and the number of
residual entries the output carries.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from confalg import (
    ConformalAlgebra,
    CoeffWindow,
    GDBialgebra,
    ModuleMap,
    Poly,
    Report,
    VarTable,
    canonical_skew_tensor,
    canonical_sym_tensor,
    catalog,
    check_axioms,
    check_rep,
    cobracket_from_r,
    cocycle_check,
    cocycle_from_r,
    cybe_residual,
    dual_rep,
    gd_from_algebra,
    parse,
    r_from_t,
    rb_constraints,
    s_residual,
    semidirect,
    solve_squares,
    standard_rep,
    sub_adjacent,
    window_checks,
    with_zero_right,
    zero_divisor_probe,
)
from confalg.linmap import ConformalLinearMap, lift_constant
from confalg.tensor import tensor3_report

PARAMS = ("b", "g0", "g1", "g2", "g3")


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    observe: Callable[[object], tuple[str, int]]


def report_verdict(report: Report) -> tuple[str, int]:
    """"ok", or "fail:<first failing check>", and the residual count."""
    residuals = sum(len(c.residuals) for c in report.checks)
    if report.ok:
        return "ok", 0
    first = next(c.name for c in report.checks if not c.ok)
    return f"fail:{first}", residuals


def single(jobs: list[Job]) -> list[list[Job]]:
    return [[job] for job in jobs]


# -- tower ---------------------------------------------------------------------

def dual_adjoint_tower(base: ConformalAlgebra, top_rank: int) -> list[ConformalAlgebra]:
    """S_{k+1} = semidirect(S_k, dual_rep(standard_rep(S_k, "adjoint"))).

    Built unchecked: the module axioms are the `check_rep` jobs themselves.
    """
    levels = [base]
    while levels[-1].rank < top_rank:
        S = levels[-1]
        levels.append(semidirect(S, dual_rep(standard_rep(S, "adjoint")), checked=False))
    return levels


def setup_tower() -> list[list[Job]]:
    table = VarTable(params=("b",))
    vir = catalog("vir", table=table).algebra
    lsc = sub_adjacent(catalog("hv_lsc1", table=table).algebra)
    mutant = ConformalAlgebra("lie", ("L",), table, {(0, 0): {0: parse(table, "d+3*x")}})
    jobs = []
    for label, levels in (("vir", dual_adjoint_tower(vir, 16)),
                          ("lsc1", dual_adjoint_tower(lsc, 8))):
        for S in levels:
            jobs.append(Job(f"{label}.r{S.rank}.check_axioms",
                            lambda S=S: check_axioms(S), report_verdict))
            jobs.append(Job(f"{label}.r{S.rank}.check_rep_adjoint",
                            lambda S=S: check_rep(standard_rep(S, "adjoint")),
                            report_verdict))
    top = dual_adjoint_tower(mutant, 8)[-1]
    jobs.append(Job("mutant.r8.check_axioms", lambda: check_axioms(top), report_verdict))
    return single(jobs)


# -- tensor_eqs ----------------------------------------------------------------

def _cybe_job(key, S, r) -> Job:
    return Job(key, lambda: tensor3_report("yang_baxter", cybe_residual(S, r)),
               report_verdict)


def _s_job(key, S, r) -> Job:
    return Job(key, lambda: tensor3_report("s_equation", s_residual(S, r)),
               report_verdict)


def _cocycle_job(key, S, r, kind) -> Job:
    return Job(key, lambda: cocycle_check(S, cocycle_from_r(S, r, kind)), report_verdict)


def x_part(table: VarTable, n: int) -> list[list[Poly]]:
    """An n-by-n matrix with x*d and x^2 on alternate entries (a checkerboard)."""
    X, D = Poly.var(table, "x"), Poly.var(table, "d")
    return [[X * D if (i + j) % 2 == 0 else X * X for j in range(n)] for i in range(n)]


# For each family, the zero-argument entry whose +1 perturbation of the
# identity is no longer an O-operator (measured at the seed).
PERTURBED_ENTRY = {"hv_lsc1": (0, 1), "hv_lsc2": (1, 0)}


def setup_tensor_eqs() -> list[list[Job]]:
    table = VarTable(params=PARAMS)
    jobs = []
    for name in ("hv_lsc1_skew_r", "hv_lsc2_skew_r"):
        e = catalog(name, table=table)
        jobs.append(_cybe_job(f"catalog.{name}.cybe", e.algebra, e.tensor))
        jobs.append(_cocycle_job(f"catalog.{name}.cocycle", e.algebra, e.tensor, "lie"))
    for name in ("hv_lsc1_sym_r", "hv_lsc2_sym_r"):
        e = catalog(name, table=table)
        jobs.append(_s_job(f"catalog.{name}.s_equation", e.algebra, e.tensor))
        jobs.append(_cocycle_job(f"catalog.{name}.cocycle", e.algebra, e.tensor, "lsc"))
    for fam, (pi, pj) in PERTURBED_ENTRY.items():
        A = catalog(fam, table=table).algebra
        S2 = semidirect(A, with_zero_right(A, dual_rep(standard_rep(A, "regular_left"))),
                        checked=False)
        regular = standard_rep(S2, "regular_left")
        Sk = semidirect(sub_adjacent(S2, checked=False), dual_rep(regular), checked=False)
        rk = canonical_skew_tensor(Sk, S2.rank)
        Ss = semidirect(S2, with_zero_right(S2, dual_rep(regular)), checked=False)
        rs = canonical_sym_tensor(Ss, S2.rank)
        jobs.append(_cybe_job(f"S2.{fam}.skew8.cybe", Sk, rk))
        jobs.append(_cocycle_job(f"S2.{fam}.skew8.cocycle", Sk, rk, "lie"))
        jobs.append(_s_job(f"S2.{fam}.sym8.s_equation", Ss, rs))
        jobs.append(_cocycle_job(f"S2.{fam}.sym8.cocycle", Ss, rs, "lsc"))

        n = S2.rank
        identity = ModuleMap.identity(table, n)
        extra = x_part(table, n)
        dense = ConformalLinearMap(table, [[identity.matrix[i][j] + extra[i][j]
                                            for j in range(n)] for i in range(n)])
        bump = [[1 if (i, j) == (pi, pj) else 0 for j in range(n)] for i in range(n)]
        perturbed = ConformalLinearMap(table, [[dense.matrix[i][j] + bump[i][j]
                                                for j in range(n)] for i in range(n)])
        r = r_from_t(dense, regular, "skew")
        r_bad = r_from_t(perturbed, regular, "skew")
        r_plain = r_from_t(lift_constant(identity), regular, "skew")
        S = r.algebra
        jobs.append(_cybe_job(f"dense.{fam}.cybe", S, r))
        jobs.append(_cybe_job(f"dense.{fam}.perturbed_{pi}{pj}.cybe", S, r_bad))

        def cobrackets(S=S, r=r, r_plain=r_plain):
            return [(cobracket_from_r(S, r, S.basis_vector(i)),
                     cobracket_from_r(S, r_plain, S.basis_vector(i))) for i in range(S.rank)]

        def same(pairs):
            differing = sum(a != b for a, b in pairs)
            return ("equal", 0) if not differing else ("differs", differing)

        jobs.append(Job(f"dense.{fam}.cobracket", cobrackets, same))
    return single(jobs)


# -- systems -------------------------------------------------------------------

FAMILIES = (
    {"t0_0_0": "-b", "t0_1_0": "-b", "t1_0_0": "b", "t1_1_0": "b"},
    {f"t0_1_{k}": g for k, g in enumerate(("g0", "g1", "g2", "g3"))},
)


def _solved_zero(out) -> tuple[str, int]:
    system, result = out
    if result.solved and all(v.is_zero for v in result.assignment.values()):
        return "solved:all_zero", 0
    return f"{result.status}:not_all_zero", len(result.remaining)


def _families_satisfy(out) -> tuple[str, int]:
    """The two known operator families satisfy every equation of the system."""
    system, result = out
    ext = system.table.extended(PARAMS)
    failures = 0
    for family in FAMILIES:
        assign = {u: Poly.zero(ext) for u in system.unknowns}
        for u, value in family.items():
            if u in assign:
                assign[u] = parse(ext, value)
        failures += sum(not eq.embed(ext).subs(assign).is_zero for eq in system.equations)
    return f"{result.status}:families_{'satisfy' if not failures else 'violate'}", failures


def _zero_satisfies(out) -> tuple[str, int]:
    """Every surviving equation vanishes at the zero operator."""
    system, result = out
    zero = {u: 0 for u in system.unknowns}
    failures = sum(not eq.subs(zero).is_zero for eq in result.remaining)
    return f"{result.status}:zero_{'satisfies' if not failures else 'violates'}", failures


def _rb_job(key, A, degrees, observe) -> Job:
    """Constraint system and solve at each degree; one verdict for all."""
    def run():
        outs = []
        for D in degrees:
            system, _ = rb_constraints(A, D, 0)
            outs.append((system, solve_squares(system)))
        return outs

    def verdict(outs):
        seen = [observe(out) for out in outs]
        labels = sorted({label for label, _ in seen})
        return ",".join(labels), sum(n for _, n in seen)

    return Job(key, run, verdict)


def _probe_verdict(out) -> tuple[str, int]:
    V, probe = out
    if probe.status == "witness":
        names = probe.witness_names(V)
        return "witness:" + (",".join(names) if names else "other"), 0
    return probe.status, 0


def cube_root_field(table: VarTable) -> GDBialgebra:
    """Q(2^(1/3)) on 1, a, a^2 with half its multiplication as the Novikov
    product, so the star product a o b + b o a is the field product."""
    circ = {}
    for i in range(3):
        for j in range(3):
            k, c = (i + j, Fraction(1, 2)) if i + j < 3 else (i + j - 3, Fraction(1))
            circ[(i, j)] = {k: c}
    return GDBialgebra(("e0", "e1", "e2"), table, circ, {})


def setup_systems() -> list[list[Job]]:
    plain = VarTable()
    vir = catalog("vir", table=plain).algebra
    hv = catalog("hv", table=plain).algebra
    hv_dual = semidirect(hv, dual_rep(standard_rep(hv, "adjoint")), checked=False)
    table = VarTable(params=PARAMS)
    hv_p = catalog("hv", table=table).algebra
    maps = {1: catalog("hv_rb_family1", table=table).linmap,
            2: catalog("hv_rb_family2", table=table).linmap}
    # The rank-1 systems take milliseconds; as one job they keep the median
    # job time off the boundary between two job sizes.
    jobs = [_rb_job("rb.vir.D1-4", vir, range(1, 5), _solved_zero)]
    for D in range(1, 5):
        jobs.append(_rb_job(f"rb.hv.D{D}", hv, [D], _families_satisfy))
    for D in range(0, 3):
        jobs.append(_rb_job(f"rb.hv_dual.D{D}", hv_dual, [D], _zero_satisfies))
    for N in (4, 6):
        for fam, T in maps.items():
            jobs.append(Job(f"window.N{N}.family{fam}",
                            lambda N=N, T=T: window_checks(CoeffWindow(hv_p, N, {0: 1, 1: 0}),
                                                           T, 0),
                            report_verdict))
    for key, V, bound in (("probe.vir", gd_from_algebra(vir), 3),
                          ("probe.hv", gd_from_algebra(hv), 3),
                          ("probe.cube_root_field.bound2", cube_root_field(plain), 2)):
        jobs.append(Job(key, lambda V=V, bound=bound: (V, zero_divisor_probe(V, bound)),
                        _probe_verdict))
    return single(jobs)


# -- cli -----------------------------------------------------------------------

HV_INLINE = {"kind": "lie", "basis": ["L", "W"],
             "products": {"L,L": {"L": "d+2*x"}, "L,W": {"W": "d+x"}, "W,L": {"W": "x"}}}
FAMILY1_INLINE = {"L": {"L": "-b", "W": "-b"}, "W": {"L": "b", "W": "b"}}

# name -> document (a dict, or raw text for the malformed one)
CLI_DOCS = {
    "hv": {"algebra": "hv"},
    "vir_inline": {"algebra": {"kind": "lie", "basis": ["L"], "products": {"L,L": {"L": "d+2*x"}}}},
    "mutant_inline": {"algebra": {"kind": "lie", "basis": ["L"],
                                  "products": {"L,L": {"L": "d+3*x"}}}},
    "hv_family1": {"algebra": "hv", "map": "hv_rb_family1"},
    "hv_family1_inline": {"params": ["b"], "algebra": HV_INLINE, "map": FAMILY1_INLINE},
    "hv_adjoint_family1": {"algebra": "hv", "representation": "adjoint", "map": "hv_rb_family1"},
    "lsc1_skew": {"algebra": "hv_lsc1_skew_r", "tensor": "hv_lsc1_skew_r"},
    "lsc2_sym": {"algebra": "hv_lsc2_sym_r", "tensor": "hv_lsc2_sym_r"},
    "vir": {"algebra": "vir"},
    "unknown_entry": {"algebra": "nosuch"},
    "malformed": '{"algebra": "hv",',
    "list_algebra": {"algebra": ["L"]},
    "zero_denominator": {"algebra": {"kind": "lie", "basis": ["L"],
                                     "products": {"L,L": {"L": "d+1/0*x"}}}},
    "duplicate_basis": {"algebra": {"kind": "lie", "basis": ["L", "L"],
                                    "products": {"L,L": {"L": "d+2*x"}}}},
}

# groups of (job key, argv); "{doc:NAME}" and "{out:NAME}" are work-dir paths
CLI_GROUPS = [
    [("check_axioms.hv", ["check-axioms", "--in", "{doc:hv}"])],
    [("check_axioms.vir_inline", ["check-axioms", "--in", "{doc:vir_inline}"])],
    [("check_axioms.mutant_inline", ["check-axioms", "--in", "{doc:mutant_inline}"])],
    [("check_rb.family1.weight0", ["check-rb", "--in", "{doc:hv_family1}", "--weight", "0"])],
    [("check_rb.family1.weight0.b_1_3",
      ["check-rb", "--in", "{doc:hv_family1}", "--weight", "0", "--param", "b=1/3"])],
    [("check_rb.family1.weight_free",
      ["check-rb", "--in", "{doc:hv_family1}", "--weight", "free"])],
    [("check_rb.family1_inline.b_1_3",
      ["check-rb", "--in", "{doc:hv_family1_inline}", "--param", "b=1/3"])],
    [("check_cybe.lsc1_skew", ["check-cybe", "--in", "{doc:lsc1_skew}"])],
    [("check_cybe.lsc1_skew.b_1_3", ["check-cybe", "--in", "{doc:lsc1_skew}", "--param", "b=1/3"])],
    [("check_s.lsc2_sym", ["check-s", "--in", "{doc:lsc2_sym}"])],
    [("check_o_operator.family1", ["check-o-operator", "--in", "{doc:hv_adjoint_family1}"])],
    [("coeff.window4.family1", ["coeff", "--in", "{doc:hv_family1}", "--window", "4",
                                "--shift", "L=1", "--shift", "W=0"])],
    [("catalog.hv_lsc1", ["catalog", "hv_lsc1"])],
    [("catalog.hv_lsc2_sym_r", ["catalog", "hv_lsc2_sym_r"])],
    [("cocycle_from_r.lsc1_skew", ["cocycle-from-r", "--in", "{doc:lsc1_skew}", "--kind", "lie"])],
    [("rb_constraints.vir.D2", ["rb-constraints", "--in", "{doc:vir}", "--degree", "2",
                                "--out", "{out:vir_system}"]),
     ("solve.vir.D2", ["solve", "--in", "{out:vir_system}"])],
    [("rb_constraints.hv.D2", ["rb-constraints", "--in", "{doc:hv}", "--degree", "2",
                               "--out", "{out:hv_system}"]),
     ("solve.hv.D2", ["solve", "--in", "{out:hv_system}"])],
    [("reject.unknown_entry", ["check-axioms", "--in", "{doc:unknown_entry}"])],
    [("reject.malformed_json", ["check-axioms", "--in", "{doc:malformed}"])],
    [("reject.list_algebra", ["check-axioms", "--in", "{doc:list_algebra}"])],
    [("reject.zero_denominator", ["check-axioms", "--in", "{doc:zero_denominator}"])],
    [("reject.duplicate_basis", ["check-axioms", "--in", "{doc:duplicate_basis}"])],
]

TRACEBACK = "Traceback (most recent call last)"


def write_cli_docs(workdir: str) -> dict[str, str]:
    paths = {}
    for name, doc in CLI_DOCS.items():
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        paths[name] = path
    return paths


def _argv(template: list[str], docs: dict[str, str], workdir: str) -> list[str]:
    out = []
    for arg in template:
        if arg.startswith("{doc:"):
            arg = docs[arg[5:-1]]
        elif arg.startswith("{out:"):
            arg = os.path.join(workdir, arg[5:-1] + ".json")
        out.append(arg)
    return out


def _exit_verdict(out) -> tuple[str, int]:
    """Exit code (and a traceback, if any); residuals of a printed report."""
    code, stderr, stdout = out
    try:
        report = json.loads(stdout) if stdout else {}
    except json.JSONDecodeError:
        report = {}
    checks = report.get("checks", []) if isinstance(report, dict) else []
    residuals = sum(len(c.get("residuals", [])) for c in checks)
    return f"exit {code}" + ("+traceback" if TRACEBACK in stderr else ""), residuals


def child_job(key: str, argv: list[str], src: str, cwd: str) -> Job:
    """One fresh `python -m confalg.cli` process."""
    env = dict(os.environ, PYTHONPATH=src)

    def run():
        proc = subprocess.run([sys.executable, "-m", "confalg.cli", *argv], cwd=cwd, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        return proc.returncode, proc.stderr, ""

    return Job(key, run, _exit_verdict)


def inprocess_job(key: str, argv: list[str]) -> Job:
    """`cli.main(argv)` in this process, its output captured."""
    from confalg import cli  # only the traced run needs the front end in-process

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # an uncaught error is a verdict here, not a crash
                traceback.print_exc()
                code = 1
        return code, err.getvalue(), out.getvalue()

    return Job(key, run, _exit_verdict)


def setup_cli(workdir: str, src: str, root: str, in_process: bool) -> list[list[Job]]:
    docs = write_cli_docs(workdir)
    groups = []
    for group in CLI_GROUPS:
        jobs = []
        for key, template in group:
            argv = _argv(template, docs, workdir)
            jobs.append(inprocess_job(key, argv) if in_process
                        else child_job(key, argv, src, root))
        groups.append(jobs)
    return groups


SETUPS = {
    "tower": setup_tower,
    "tensor_eqs": setup_tensor_eqs,
    "systems": setup_systems,
}
