"""The two end-to-end scripts run to completion and report success."""

import sys

import pytest

from confalg.gd import ProbeResult
from conftest import load_script


@pytest.mark.parametrize("name", ["verify_builtins", "classify_operators"])
def test_script_main_returns_zero(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    assert load_script(name).main() == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("found", [ProbeResult("unknown"),
                                   ProbeResult("witness", ((1, 0), (1, 0)))])
def test_probe_rows_fail_on_another_status(found, monkeypatch, capsys):
    module = load_script("verify_builtins")
    monkeypatch.setattr(module, "zero_divisor_probe", lambda V: found)
    assert module.main() == 1
    out = capsys.readouterr().out
    assert "FAIL] vir zero-divisor probe" in out and "FAIL] hv zero-divisor probe" in out
