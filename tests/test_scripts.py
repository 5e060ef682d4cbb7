"""The end-to-end scripts run to completion and report success, and the
line-coverage tool lists the lines a run missed."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from confalg import Report
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


def test_linecov_lists_the_lines_a_run_missed():
    """scripts/linecov.py on tests/test_records.py, in a child process: that
    file sweeps reports but never renders one as a dict."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, str(root / "scripts" / "linecov.py"), "-q",
                           "-p", "no:cacheprovider", str(root / "tests" / "test_records.py")],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "child processes are not traced" in done.stdout
    listed = set()
    for run in next(line for line in done.stdout.splitlines()
                    if line.startswith("  report.py: ")).split(": ")[1].split(", "):
        first, _, last = run.partition("-")
        listed.update(range(int(first), int(last or first) + 1))

    def lines(method):  # {line number: source} after the def line
        source, start = inspect.getsourcelines(method)
        return {start + n: text.strip() for n, text in enumerate(source) if n}

    to_dict = lines(Report.to_dict)
    assert {n for n, text in to_dict.items() if text.startswith(("return", "for"))} <= listed
    assert lines(Report.sweep).keys().isdisjoint(listed)
