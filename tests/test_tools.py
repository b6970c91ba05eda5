"""tools/compare_outputs.py: the column-by-column comparison of two output sets."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_set(root: Path, eps_d: float, status: str, omega0: float, alpha: str) -> Path:
    root.mkdir()
    (root / "contour.csv").write_text(
        "# sweep=contour\n# z_min_s=2e-05\nz_us,eps_d,status\n"
        f"20,{eps_d!r},\n20,0.5,\"{status}\"\n"
    )
    (root / "design.json").write_text(json.dumps({"omega0_hz": omega0, "diagnostics": {"bracket_hz": [1.0, 2.0]}}))
    (root / "oracle.txt").write_text(f"overlap = 0.999\nmode 0: alpha {alpha}\n")
    return root


def test_compare_outputs_counts_and_gates(tmp_path, capsys):
    tool = _load_tool()
    old = _write_set(tmp_path / "old", 1e-3, "BracketError: a, b", 1e5, "2.77e-03+2.39e-04j")
    same = _write_set(tmp_path / "same", 1e-3, "BracketError: a, b", 1e5, "2.77e-03+2.39e-04j")
    assert tool.main([str(old), str(same)]) == 0
    assert capsys.readouterr().out.count("byte-identical") == 3

    # within quad_rel of each column's largest value: passes, each change counted
    close = _write_set(tmp_path / "close", 1e-3 * (1 + 1e-12), "BracketError: a, b", 1e5 * (1 + 1e-13),
                       "2.77e-03+2.39e-04j")
    assert tool.main([str(old), str(close)]) == 0
    out = capsys.readouterr().out
    assert "contour.csv eps_d: 1/2 changed, max|d|/max|v| 2.00e-15" in out  # over the column max 0.5
    assert "contour.csv status: 0/2 changed" in out
    assert "design.json omega0_hz: 1/1 changed" in out

    # a numeric move above quad_rel, a text change or a complex move each fail
    for i, changed in enumerate([(2e-3, "BracketError: a, b", 1e5, "2.77e-03+2.39e-04j"),
                                 (1e-3, "ConvergenceError", 1e5, "2.77e-03+2.39e-04j"),
                                 (1e-3, "BracketError: a, b", 1e5, "2.77e-03+2.40e-04j")]):
        assert tool.main([str(old), str(_write_set(tmp_path / f"far{i}", *changed))]) == 1
    out = capsys.readouterr().out
    assert "contour.csv eps_d: 1/2 changed" in out and "EXCEEDS 1e-10" in out
    assert "contour.csv status: 1/2 changed" in out and "NON-NUMERIC CHANGE" in out
    assert "oracle.txt line 2: 1/4 changed" in out

    (same / "extra.csv").write_text("a\n1\n")
    assert tool.main([str(old), str(same)]) == 1
    assert "extra.csv: only in" in capsys.readouterr().out


def test_panel_counts_records_and_compares(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("panel_counts", TOOL.parent / "panel_counts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    from msgate.config import load_config

    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "three_ion.json")
    record = tool.panel_counts([(cfg, None), (cfg, -2e5)])  # balanced, and 31.8 kHz below the lowest mode
    assert record["calls"] > 2 and record["errors"] == {}
    assert all(isinstance(p, int) and p >= 64 for p in record["counts"].values())
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record))
    new.write_text(json.dumps(record))
    assert tool.main([str(old), str(new)]) == 0
    key = next(iter(record["counts"]))
    new.write_text(json.dumps(dict(record, counts=dict(record["counts"], **{key: 2 * record["counts"][key]}))))
    assert tool.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "0 of" in out and f"changed: {key}" in out and "1 of" in out
