import ast
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
