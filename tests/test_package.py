import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import confalg
from confalg import (BilinearForm, CoeffWindow, ConformalAlgebra, ModuleMap, Poly, Report,
                     Tensor2, VarTable, apply_bilinear, catalog, check_axioms, check_o_operator,
                     check_rep, check_rota_baxter, cocycle_check, cocycle_from_r,
                     cybe_residual, dual_rep, invariant_form_suite, parse, poly, rb_gd_check,
                     semidirect, standard_rep, window_checks, with_zero_right)
from confalg import cli
from confalg.algebra import unit_vector
from confalg.poly import Substitution
from confalg.tensor import tensor3_report
from conftest import load_benchmark


PACKAGE = Path(confalg.__file__).parent


def _absolute_imports() -> list[tuple[str, str]]:
    """(file name, top-level module) for each absolute import in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            out += [(path.name, m.split(".")[0]) for m in modules]
    return out


def test_runtime_imports_only_the_standard_library():
    """The package has no runtime dependencies outside the standard library."""
    assert not [(f, m) for f, m in _absolute_imports() if m not in sys.stdlib_module_names]


# dataclasses and the inspect it imports: about 10 ms of every CLI call
STARTUP_COSTS = {"dataclasses", "inspect"}


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, in code or in a string
    annotation; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "returns", None), getattr(node, "annotation", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    """Each module of the package reads every name it imports; ``__init__``
    imports only to re-export."""
    unused = {path.name: names for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}
    assert _unused_imports("from .poly import Poly, Substitution\nPoly") == ["Substitution"]
    assert _unused_imports("import math\nx: 'math.pi'") == []


def _terms_reads(source: str) -> list[int]:
    """The lines of a module that read an attribute named ``terms``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "terms")


def test_only_the_kernel_decodes_monomials():
    """A monomial has one encoding, the kernel's packed key: no module but
    ``poly.py`` reads the decoded ``Poly.terms``, whose keys are exponent
    tuples; the others read ``Poly.packed``."""
    readers = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "poly.py"
               and (lines := _terms_reads(path.read_text(encoding="utf-8")))}
    assert readers == {}
    assert _terms_reads("p.packed\nlen(q.terms)") == [2]
    assert _terms_reads("terms = {}\nterms.items()") == []


# the calls whose mapping argument substitutes the variables it names
SUBSTITUTING = {"Substitution", "subs", "_view", "_contract"}


def _variables_read(source: str) -> set[str]:
    """The variable names a module reads: the name of a ``Poly.var`` call and
    each key of a mapping literal passed to a substitution."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "var" and len(node.args) > 1:
            read.add(node.args[1])
        elif name in SUBSTITUTING:
            read.update(k for a in node.args if isinstance(a, ast.Dict) for k in a.keys)
    return {n.value for n in read if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_every_kernel_variable_is_read():
    """Each of the kernel's variables, which every exponent tuple carries, is
    named by some computation of the package."""
    read = set().union(*(_variables_read(path.read_text(encoding="utf-8"))
                         for path in sorted(PACKAGE.glob("*.py"))))
    assert set(poly.CANONICAL_VARS) - read == set()
    assert _variables_read("Poly.var(t, 'q')\nf.subs({'w': 0, 'v': 1})\ng({'u': 0})") == {
        "q", "v", "w"}


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _nested_sweeps(source: str) -> list[int]:
    """The lines of the ``sweep`` calls whose residuals are a lambda or a
    ``_nest`` call instead of a flat mapping."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and _callee(node) == "sweep"):
            continue
        residuals = node.args[2:3] + [k.value for k in node.keywords if k.arg == "residuals"]
        if any(isinstance(r, ast.Lambda) or isinstance(r, ast.Call) and _callee(r) == "_nest"
               for r in residuals):
            lines.append(node.lineno)
    return sorted(lines)


def test_every_sweep_gets_a_flat_mapping():
    """Each check hands ``Report.sweep`` its closed sums keyed (instance...,
    target), not a per-instance callable or sums re-nested by instance."""
    nested = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
              if (lines := _nested_sweeps(path.read_text(encoding="utf-8")))}
    assert nested == {}
    assert _nested_sweeps("r.sweep('a', ax, lambda i: p)\nr.sweep('b', ax, algebra._nest(s))\n"
                          "r.sweep('c', ax, residuals=_nest(s))\nr.sweep('d', ax, s.close())") == [
        1, 2, 3]


def _emit_callers(source: str) -> tuple[list[str], bool]:
    """The functions of a module that call ``_emit``, and whether it defines
    ``_report_result``."""
    functions = [f for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)]
    callers = {f.name for f in functions for node in ast.walk(f)
               if isinstance(node, ast.Call) and _callee(node) == "_emit"}
    return sorted(callers), any(f.name == "_report_result" for f in functions)


def test_main_alone_writes_the_result():
    """Each CLI subcommand returns its result, and ``main`` alone writes it
    and picks the exit code: no ``cmd_*`` handler calls ``_emit``."""
    assert _emit_callers((PACKAGE / "cli.py").read_text(encoding="utf-8")) == (["main"], False)
    assert _emit_callers("def cmd_a(x):\n    _emit(x, {})\n\n"
                         "def _report_result(x, r):\n    return main(x)\n") == (["cmd_a"], True)


# the exits that skip finalization work: a heap freeze, and an exit that
# skips atexit handlers and the flush of stdout and stderr as well
EXIT_SHORTCUTS = {"gc.freeze", "os._exit"}


def _exit_shortcuts(source: str) -> list[tuple[str, str]]:
    """(top-level definition, or ``<module>``, dotted name) for each use or
    import of a name of ``EXIT_SHORTCUTS`` in a module."""
    uses = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            uses += [(where, name) for name in names if name in EXIT_SHORTCUTS]
    return uses


def test_only_the_command_line_entry_freezes_the_heap():
    """``cli.entry``, which ends the process, freezes the heap after ``main``
    returns; no module freezes it elsewhere or leaves through ``os._exit``."""
    uses = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
            if (found := _exit_shortcuts(path.read_text(encoding="utf-8")))}
    assert uses == {"cli.py": [("entry", "gc.freeze")]}
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    entry = next(f for f in ast.parse(source).body if getattr(f, "name", None) == "entry")
    calls = [_callee(node) for node in sorted(
        (n for n in ast.walk(entry) if isinstance(n, ast.Call)), key=lambda n: n.lineno)]
    assert calls.index("main") < calls.index("freeze")
    assert _exit_shortcuts("from os import _exit\nclass A:\n    def f(self):\n"
                           "        gc.freeze()\nos._exit(0)\n") == [
        ("<module>", "os._exit"), ("A", "gc.freeze"), ("<module>", "os._exit")]


def test_main_leaves_the_collector_unfrozen(capsys):
    """In-process callers of ``cli.main`` keep a collector that sees the
    whole heap."""
    frozen = gc.get_freeze_count()
    assert cli.main(["check-axioms", "--in", "/nonexistent/in.json"]) == 2
    assert cli.main(["catalog", "hv"]) == 0
    assert gc.get_freeze_count() == frozen


def test_both_command_line_entries_take_the_same_exit():
    """The installed ``confalg`` script and ``python -m confalg.cli`` both
    end through ``cli.entry``."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"confalg": "confalg.cli:entry"}
    module = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    guard = module.body[-1]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in guard.body] == ["entry()"]


def test_runtime_imports_neither_dataclasses_nor_inspect():
    assert not [(f, m) for f, m in _absolute_imports() if m in STARTUP_COSTS]


def test_submodules_load_neither_dataclasses_nor_inspect(bare_modules):
    """Checked against a bare child, so that a `site` hook outside the
    package that imports either cannot fail it."""
    probe = "".join(f"import confalg.{path.stem}\n" for path in sorted(PACKAGE.glob("*.py"))
                    if path.stem != "__init__")
    child = subprocess.run([sys.executable, "-c", probe + "import sys; print(*sys.modules)"],
                           capture_output=True, text=True, timeout=60,
                           env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "confalg.tensor" in loaded and not (loaded - bare_modules) & STARTUP_COSTS


def test_benchmark_workloads_import():
    """The benchmark's workloads import the names they use from the package."""
    assert set(load_benchmark("workloads").SETUPS) == {"tower", "tensor_eqs", "systems"}


def test_benchmark_constraint_jobs_meet_their_answers():
    """The systems workload's rb.* jobs, run and observed untimed, give the
    labels perfbench/expected.json holds: they read system.table,
    system.equations (embed, subs) and result.remaining."""
    workloads = load_benchmark("workloads")
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())["systems"]
    jobs = [job for group in workloads.setup_systems() for job in group
            if job.key.startswith("rb.")]
    assert len(jobs) == 8
    for job in jobs:
        assert job.observe(job.run())[0] == expected[job.key]["expect"], job.key


def test_probe_takes_a_kernel_only_at_a_singular_candidate(monkeypatch):
    """Work guard: the zero-divisor probe tests each candidate by an integer
    determinant and takes a kernel over Q only where it is 0. The benchmark's
    cube-root field at bound 2 has no singular candidate, so no kernel (124
    when every candidate took one), and hv takes one, at its witness."""
    from confalg import gd
    kernel, calls = gd.kernel, []

    def counting(rows, columns):
        calls.append(len(rows))
        return kernel(rows, columns)

    monkeypatch.setattr(gd, "kernel", counting)
    plain = VarTable()
    assert gd.zero_divisor_probe(load_benchmark("workloads").cube_root_field(plain), 2).status \
        == "unknown"
    assert calls == []
    V = gd.gd_from_algebra(catalog("hv", table=plain).algebra)
    assert gd.zero_divisor_probe(V).witness_names(V) == ("W", "W")
    assert calls == [2]


def test_benchmark_tensor_jobs_meet_their_answers():
    """Every tensor_eqs job, run and observed untimed, gives the label
    perfbench/expected.json holds."""
    workloads = load_benchmark("workloads")
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())["tensor_eqs"]
    jobs = [job for group in workloads.setup_tensor_eqs() for job in group]
    assert {job.key for job in jobs} == set(expected)
    for job in jobs:
        assert job.observe(job.run())[0] == expected[job.key]["expect"], job.key


# substitutions that miss Substitution's memo, per dense rank-8 tensor_eqs job:
# a ratchet, lowered when the work falls
TENSOR_SUBSTITUTION_BUDGETS = {"dense.hv_lsc1.cybe": 63, "dense.hv_lsc2.cybe": 39,
                               "dense.hv_lsc1.cobracket": 224, "dense.hv_lsc2.cobracket": 80}


def test_dense_tensor_jobs_substitute_each_distinct_entry_once(monkeypatch):
    """Equal entries of r are one object, and the cobracket views only the
    rows its element reaches, so the dense jobs run at most these
    substitution term loops; substituting every copy of every entry took
    167, 143, 784 and 680."""
    workloads = load_benchmark("workloads")
    jobs = {job.key: job for group in workloads.setup_tensor_eqs() for job in group}
    loops = 0
    call = Substitution.__call__

    def counting_call(sub, p):
        nonlocal loops
        if sub.values and p.terms and id(p) not in sub.memo:
            loops += 1
        return call(sub, p)

    monkeypatch.setattr(Substitution, "__call__", counting_call)
    counts = {}
    for key in TENSOR_SUBSTITUTION_BUDGETS:
        loops = 0
        jobs[key].run()
        counts[key] = loops
    assert all(counts[key] <= budget for key, budget in TENSOR_SUBSTITUTION_BUDGETS.items()), counts


def test_substitution_expands_patterns_without_polys(monkeypatch):
    """Substitution forms each power and each pattern's product on raw rows of
    key shifts: while it substitutes the dense rank-8 tensor_eqs inputs, no
    Poly is multiplied or raised to a power and no key is packed or
    unpacked."""
    workloads = load_benchmark("workloads")
    jobs = [job for group in workloads.setup_tensor_eqs() for job in group
            if job.key.startswith("dense.")]
    counts = dict.fromkeys(("__mul__", "__pow__", "_exponents", "_key", "patterns"), 0)
    inside = False
    call = Substitution.__call__

    def flagged_call(sub, p):
        nonlocal inside
        before, inside, formed = inside, True, len(sub.expansions)
        try:
            return call(sub, p)
        finally:
            inside = before
            counts["patterns"] += len(sub.expansions) - formed

    def counting(name, f):
        def wrapped(*args):
            counts[name] += inside
            return f(*args)
        return wrapped

    monkeypatch.setattr(Substitution, "__call__", flagged_call)
    for name in ("__mul__", "__pow__"):
        monkeypatch.setattr(Poly, name, counting(name, getattr(Poly, name)))
    for name in ("_exponents", "_key"):
        monkeypatch.setattr(poly, name, counting(name, getattr(poly, name)))
    assert len(jobs) == 6
    for job in jobs:
        job.run()
    assert counts.pop("patterns") > 0
    assert counts == dict.fromkeys(("__mul__", "__pow__", "_exponents", "_key"), 0)


def test_benchmark_tracer_reads_kernel_terms(hv):
    """The tracer reads Poly.terms directly: exponent tuples and coefficients."""
    tracer = load_benchmark("tracer")
    t = VarTable()
    unit = unit_vector(t, 3, 1)
    assert tracer._is_basis_vector(unit)
    assert not tracer._is_basis_vector(tuple(2 * p for p in unit))
    assert tracer._is_basis_vector(tuple(p * Fraction(2, 3) * Fraction(3, 2) for p in unit))
    assert not tracer._is_basis_vector(tuple(p * parse(t, "d") for p in unit))
    assert tracer._poly_size(parse(t, "d^2 + 1/2*x + 3")) == 3
    assert tracer._poly_size(Fraction(1, 2)) == 1

    mul = vars(Poly)["__mul__"]
    traced = tracer.Tracer()
    traced.install()
    try:
        report = check_axioms(hv)
        # the checks sum through poly.Sums and substitute through prepared
        # poly.Substitution instances; general elements still multiply through
        # Poly.__mul__, and a single substitution goes through Poly.subs
        apply_bilinear(hv.table, hv.products, hv.basis_vector(0), hv.basis_vector(0),
                       Poly.var(hv.table, "x"), hv.rank)
        parse(hv.table, "d^2 + x").subs({"x": parse(hv.table, "-x-d")})
    finally:
        traced.uninstall()
    assert report.ok
    assert vars(Poly)["__mul__"] is mul
    assert traced.stat("poly.mul")[0] > 0 and traced.stat("poly.subs")[0] > 0
    metrics = tracer.layer_metrics(traced)
    assert metrics["poly.mul.term_products"][0] > 0
    assert metrics["poly.subs.affine_ratio"][0] == 1.0


def test_benchmark_checks_never_call_poly_subs(monkeypatch):
    """Every identity check on the benchmark's tower and tensor_eqs inputs
    substitutes through one prepared poly.Substitution per mapping: wrapped,
    Poly.subs is never called."""
    workloads = load_benchmark("workloads")
    jobs = [job for setup in (workloads.setup_tower, workloads.setup_tensor_eqs)
            for group in setup() for job in group]
    levels = workloads.dual_adjoint_tower(catalog("vir", table=VarTable()).algebra, 8)
    calls = []
    subs = Poly.subs

    def counting(p, mapping):
        calls.append(mapping)
        return subs(p, mapping)

    monkeypatch.setattr(Poly, "subs", counting)
    verdicts = {job.key: job.observe(job.run())[0] for job in jobs}
    for S in levels:
        adjoint = standard_rep(S, "adjoint")
        identity = ModuleMap.identity(S.table, S.rank)
        assert all(check_o_operator(identity, adjoint, ker).checks for ker in (False, True))
    assert {"ok", "equal", "fail:yang_baxter"} <= set(verdicts.values())
    assert calls == []
    parse(VarTable(), "x").subs({"x": 0})
    assert len(calls) == 1


def test_shared_entries_are_substituted_and_multiplied_once(monkeypatch):
    """The rank-16 level of vir's dual-adjoint tower has 81 table entries and
    3 distinct values.  check_axioms on it runs fewer than 100 substitution
    term loops and makes fewer than 500 term products, counted as |a| * |b|
    per kernel product of two nonconstant factors; substituting and
    multiplying every copy takes 810 and 4,608."""
    S = catalog("vir", table=VarTable(params=("b",))).algebra
    while S.rank < 16:
        S = semidirect(S, dual_rep(standard_rep(S, "adjoint")), checked=False)
    counts = {"loops": 0, "products": 0}
    call, accumulate = Substitution.__call__, poly._accumulate

    def counting_call(sub, p):
        if sub.values and p.terms and id(p) not in sub.memo:
            counts["loops"] += 1
        return call(sub, p)

    def counting_accumulate(table, terms, a, b=None, sign=1):
        if b is not None and poly._constant(a) is None and poly._constant(b) is None:
            counts["products"] += len(a.terms) * len(b.terms)
        return accumulate(table, terms, a, b, sign)

    monkeypatch.setattr(Substitution, "__call__", counting_call)
    monkeypatch.setattr(poly, "_accumulate", counting_accumulate)
    assert check_axioms(S).ok
    assert counts["loops"] < 100 and counts["products"] < 500, counts


def test_checks_hand_their_sums_to_the_sweep(monkeypatch):
    """Every check passes Report.sweep the mapping of its nonzero residuals,
    so that its verdict costs in proportion to them, not a callable run on
    every basis tuple."""
    residual_types = {}
    sweep = Report.sweep

    def recording(report, name, axes, residuals, *args, **kwargs):
        residual_types.setdefault(name, set()).add(type(residuals))
        return sweep(report, name, axes, residuals, *args, **kwargs)

    monkeypatch.setattr(Report, "sweep", recording)
    t = VarTable(params=("b", "g0", "g1", "g2", "g3"))
    hv, lsc, skew = (catalog(name, table=t) for name in ("hv", "hv_lsc1", "hv_lsc1_skew_r"))
    family = catalog("hv_rb_family1", table=t).linmap
    adjoint = standard_rep(hv.algebra, "adjoint")
    check_axioms(lsc.algebra)
    check_rep(with_zero_right(lsc.algebra, standard_rep(lsc.algebra, "regular_left")))
    check_rep(dual_rep(adjoint))
    for ker_mode in (False, True):
        check_o_operator(family, adjoint, ker_mode)
    check_rota_baxter(hv.algebra, family)
    rb_gd_check(catalog("hv_gd", table=t).gd, ModuleMap.identity(t, 2))
    tensor3_report("yang_baxter", cybe_residual(skew.algebra, skew.tensor))
    cocycle_check(skew.algebra, cocycle_from_r(skew.algebra, skew.tensor, "lie"))
    ab = ConformalAlgebra("lie", ("A", "B"), t, {})
    form = BilinearForm(t, ab.basis, [[parse(t, "1"), parse(t, "0")],
                                      [parse(t, "0"), parse(t, "1")]])
    invariant_form_suite(ab, form, Tensor2(ab, {(0, 1): parse(t, "d1"), (1, 0): parse(t, "-d2")}))
    window_checks(CoeffWindow(hv.algebra, 2, {0: 1}), family, 0)

    assert all(types == {dict} for types in residual_types.values())
    assert set(residual_types) == {
        "antisymmetry", "symmetry", "skew_symmetry", "jacobi", "left_symmetry", "module_axiom",
        "left_action_axiom", "right_action_axiom", "o_operator", "o_operator_mod_kernel", "rota_baxter",
        "novikov_right_commutativity", "compatibility", "rota_baxter_novikov", "rota_baxter_lie",
        "lifted_rota_baxter", "yang_baxter", "cocycle_identity", "invariance",
        "induced_rota_baxter"}


# the public names of the package
PUBLIC_NAMES = """
    LEFT_SYMMETRIC LIE AlgebraError ConformalAlgebra PreconditionError apply_bilinear
    check_axioms sub_adjacent CatalogEntry UnknownEntry catalog CoeffWindow
    window_checks GDBialgebra NotQuadratic ProbeResult algebra_from_gd
    check_gd gd_from_algebra rb_gd_check zero_divisor_probe ConformalLinearMap ModuleMap
    NotInvertible invert_module_map lift_constant BilinearForm DegenerateForm InconsistentSystem
    PolySystem SolveResult check_o_operator check_rota_baxter cocycle_check cocycle_from_r
    induced_lsc invariant_form_suite rb_constraints solve_squares ParseError Poly PolyError
    UnknownVariable VarTable VarTableMismatch parse CheckItem Report Representation check_rep
    dual_rep semidirect standard_rep with_zero_right Tensor2 Tensor3
    canonical_skew_tensor canonical_sym_tensor cobracket_from_r cybe_residual flip
    r_from_t s_residual t_from_r
""".split()


def test_lazy_namespace_keeps_the_public_names():
    assert len(PUBLIC_NAMES) == 64
    assert sorted(confalg.__all__) == sorted(PUBLIC_NAMES)
    namespace = {}
    exec("from confalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"confalg.{confalg._HOME[name]}")
        assert namespace[name] is getattr(confalg, name) is getattr(module, name)
    assert set(PUBLIC_NAMES) <= set(dir(confalg))
    with pytest.raises(AttributeError):
        confalg.no_such_name  # noqa: B018


def test_catalog_stays_the_function_in_a_fresh_process():
    """Importing the submodule confalg.catalog binds the package attribute
    `catalog` to it unless the package imported it before binding the function."""
    probe = ("import inspect\n"
             "import confalg.catalog\n"
             "from confalg.catalog import names\n"
             "from confalg import catalog\n"
             "import confalg\n"
             "assert inspect.isfunction(catalog) and catalog is confalg.catalog\n"
             "assert catalog('vir').name == 'vir' and 'vir' in names()\n")
    src = str(Path(confalg.__file__).resolve().parent.parent)
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert child.returncode == 0, child.stderr
