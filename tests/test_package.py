import ast
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import confalg
from confalg import Poly, VarTable, check_axioms, parse
from confalg.algebra import unit_vector


def test_runtime_imports_only_the_standard_library():
    """The package has no runtime dependencies outside the standard library."""
    outside = []
    for path in sorted(Path(confalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def _benchmark_module(name: str):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while defined
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_workloads_import():
    """The benchmark's workloads import the names they use from the package."""
    assert set(_benchmark_module("workloads").SETUPS) == {"tower", "tensor_eqs", "systems"}


def test_benchmark_tracer_reads_kernel_terms(hv):
    """The tracer reads Poly.terms directly: exponent tuples and coefficients."""
    tracer = _benchmark_module("tracer")
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
    finally:
        traced.uninstall()
    assert report.ok
    assert vars(Poly)["__mul__"] is mul
    assert traced.stat("poly.mul")[0] > 0 and traced.stat("poly.subs")[0] > 0
    metrics = tracer.layer_metrics(traced)
    assert metrics["poly.mul.term_products"][0] > 0
    assert metrics["poly.subs.affine_ratio"][0] == 1.0
