import ast
import importlib.util
import sys
from pathlib import Path

import confalg


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


def test_benchmark_workloads_import():
    """The benchmark's workloads import the names they use from the package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while defined
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    assert set(module.SETUPS) == {"tower", "tensor_eqs", "systems"}
