"""The tools under tools/ run on this checkout's own src.

tools/accuracy.py paired against its own src moves no replicate and
passes its hyperparameter flags to the sweep, and the loader that tools/fit_timing.py shares with tools/lasso_timing.py
imports a copy of the package without disturbing the session's.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("accuracy", ROOT / "tools" / "accuracy.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_src_moves_nothing(capsys):
    assert load_tool().main([str(ROOT / "src"), "--replicates", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("| d | dilation | method | ANCRCI this | ANCRCI other | converged this | converged other "
                         "| moved | this − other |")
    rows = []
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        rows.append(line.strip("| ").split(" | "))
    assert len(rows) == 2 * 6 * 2  # d in {2, 50}, six dilations, two methods
    for d, dilation, method, ancrci_this, ancrci_other, conv_this, conv_other, moved, delta in rows:
        assert (ancrci_this, conv_this) == (ancrci_other, conv_other)
        assert moved == "0"
        assert delta == "+0.00 ± 0.00"
    assert lines[-1].startswith("| 50 | 100 | ")


def test_hyperparameter_flags_reach_the_sweep(capsys):
    tool = load_tool()
    with mock.patch.object(tool.subprocess, "run", wraps=tool.subprocess.run) as run:
        assert tool.main(["--replicates", "1", "--restarts", "2", "--max-cycles", "3", "--tol", "1e-3"]) == 0
    (command,), _ = run.call_args
    assert command[command.index("sweep"):-2] == ["sweep", *tool.SWEEP, "--replicates", "1", "--restarts", "2",
                                                   "--max-cycles", "3", "--tol", "0.001"]
    assert "| 50 | 100 | sparse | " in capsys.readouterr().out


def is_sparsemix(name):
    return name == "sparsemix" or name.startswith("sparsemix.")


def test_timing_loader_leaves_sys_modules_as_found(monkeypatch):
    import sparsemix.lasso as session_lasso

    session = {name: module for name, module in sys.modules.items() if is_sparsemix(name)}
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    # fit_timing pins BLAS threads through the environment and imports fit_digest
    with mock.patch.dict(os.environ), mock.patch.dict(sys.modules):
        fit_timing = importlib.import_module("fit_timing")
    first, second = (fit_timing.load_package(str(ROOT / "src")) for _ in range(2))
    assert len({id(first.lasso), id(second.lasso), id(session_lasso)}) == 3
    assert {name: module for name, module in sys.modules.items() if is_sparsemix(name)} == session
