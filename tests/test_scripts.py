"""The end-to-end scripts run to completion and report success, and the
line-coverage tool lists the lines a run missed."""

import inspect
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from confalg import Report
from confalg.gd import ProbeResult
from conftest import load_script


ROOT = Path(__file__).resolve().parent.parent

# A test that sweeps a report and, with EDIT set, adds three lines to the
# docstring of report.py, which shifts every line after it.
EDITING_TEST = """
import os
from pathlib import Path

from confalg import report


def test_sweep_then_edit():
    report.Report().sweep("c", (("a",),), {})
    if os.environ.get("EDIT"):
        path = Path(report.__file__)
        path.write_text(path.read_text(encoding="utf-8").replace("\\n", "\\n\\n\\n\\n", 1),
                        encoding="utf-8")
"""


def linecov_listing(root, args, env=None):
    """The "report.py: ..." line of scripts/linecov.py under `root`, run on `args`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **(env or {}))
    done = subprocess.run([sys.executable, str(root / "scripts" / "linecov.py"), "-q",
                           "-p", "no:cacheprovider", *args],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "child processes are not traced" in done.stdout
    return next(line for line in done.stdout.splitlines() if line.startswith("  report.py: "))


@pytest.mark.parametrize("name", ["verify_builtins", "classify_operators"])
def test_script_main_returns_zero(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    assert load_script(name).main() == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_builtins_repeats_byte_for_byte(capsys):
    """Two runs print the same stdout; the elapsed time goes to stderr."""
    module = load_script("verify_builtins")
    outputs = []
    for _ in range(2):
        assert module.main() == 0
        out, err = capsys.readouterr()
        outputs.append(out)
        assert re.fullmatch(r"\d+\.\ds\n", err)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[-1].endswith(" marked tautology")


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
    listing = linecov_listing(ROOT, [str(ROOT / "tests" / "test_records.py")])
    listed = set()
    for run in listing.split(": ")[1].split(", "):
        first, _, last = run.partition("-")
        listed.update(range(int(first), int(last or first) + 1))

    def lines(method):  # {line number: source} after the def line
        source, start = inspect.getsourcelines(method)
        return {start + n: text.strip() for n, text in enumerate(source) if n}

    to_dict = lines(Report.to_dict)
    assert {n for n, text in to_dict.items() if text.startswith(("return", "for"))} <= listed
    assert lines(Report.sweep).keys().isdisjoint(listed)


def test_linecov_lists_lines_against_the_source_that_ran(tmp_path):
    """scripts/linecov.py on a copy of src/ and scripts/ whose report.py a test
    edits during the run: the listing is that of the run without the edit."""
    for part in ("src", "scripts"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    test = tmp_path / "tests" / "test_editing.py"
    test.parent.mkdir()
    test.write_text(EDITING_TEST, encoding="utf-8")
    unedited = linecov_listing(tmp_path, [str(test)])
    assert linecov_listing(tmp_path, [str(test)], {"EDIT": "1"}) == unedited
