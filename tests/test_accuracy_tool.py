"""tools/accuracy.py paired against its own src: no replicate may move."""

import importlib.util
from pathlib import Path

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
