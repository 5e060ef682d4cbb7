"""The two end-to-end scripts run to completion and report success."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["verify_builtins", "classify_operators"])
def test_script_main_returns_zero(name, monkeypatch, capsys):
    path = SCRIPTS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path)])
    assert module.main() == 0
    assert "FAIL" not in capsys.readouterr().out
