"""The two end-to-end scripts run to completion and report success."""

import importlib.util
import sys
from pathlib import Path

import pytest

from confalg.gd import ProbeResult

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name, monkeypatch):
    path = SCRIPTS / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"script_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(path)])
    return module


@pytest.mark.parametrize("name", ["verify_builtins", "classify_operators"])
def test_script_main_returns_zero(name, monkeypatch, capsys):
    assert _load(name, monkeypatch).main() == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("found", [ProbeResult("unknown"),
                                   ProbeResult("witness", ((1, 0), (1, 0)))])
def test_probe_rows_fail_on_another_status(found, monkeypatch, capsys):
    module = _load("verify_builtins", monkeypatch)
    monkeypatch.setattr(module, "zero_divisor_probe", lambda V: found)
    assert module.main() == 1
    out = capsys.readouterr().out
    assert "FAIL] vir zero-divisor probe" in out and "FAIL] hv zero-divisor probe" in out
