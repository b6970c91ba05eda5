"""Compare two output directories written by tools/identity_outputs.sh.

    python3 tools/compare_outputs.py OLDDIR NEWDIR

Every file is split into named columns of cells:
- a CSV has one column per header name, and one per ``# key=value``
  metadata line;
- a JSON file has one column per leaf path (``diagnostics.eps_d``), a list
  being one column of several cells;
- any other text file has one column per line, whose cells are the line's
  whitespace-separated words, numbers read as real or complex.

For each file and column the tool prints the number of changed cells, the
largest |new - old| over the largest |value| of the column in either file,
and the largest per-cell |new - old| / |old|. It exits 1 if the first of
these ratios exceeds QUAD_REL (1e-10, the config's ``tol.quad_rel``) in any
column, if a non-numeric cell differs, or if the two directories do not
hold the same files of the same shape; otherwise 0. A byte-identical file
prints one line. A value that is zero in exact arithmetic (a root residual,
a rotation error at theta = pi/2), or is itself a difference near rounding
(an agreement gap), is a column of rounding noise: any change of it reads
large and is judged by hand.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

QUAD_REL = 1e-10


def _number(text: str):
    """The cell as a float or complex, or None if it is not a number."""
    for kind in (float, complex):
        try:
            return kind(text)
        except ValueError:
            pass
    return None


def _csv_columns(text: str) -> dict:
    columns = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            columns[f"# {key}"] = [value]
        else:
            body.append(line)
    rows = list(csv.reader(body))
    if rows:
        header, rows = rows[0], rows[1:]
        for i, name in enumerate(header):
            columns[name] = [row[i] if i < len(row) else "" for row in rows]
    return columns


def _json_columns(value, path="", columns=None) -> dict:
    columns = {} if columns is None else columns
    if isinstance(value, dict):
        for key, item in value.items():
            _json_columns(item, f"{path}.{key}" if path else key, columns)
    elif isinstance(value, list):
        columns[path] = [json.dumps(item) for item in value]
    else:
        columns[path] = [json.dumps(value)]
    return columns


def _text_columns(text: str) -> dict:
    return {f"line {i + 1}": line.split() for i, line in enumerate(text.splitlines())}


def columns_of(path: Path) -> dict:
    text = path.read_text()
    if path.suffix == ".csv":
        return _csv_columns(text)
    if path.suffix == ".json":
        return _json_columns(json.loads(text))
    return _text_columns(text)


def compare_column(old: list, new: list) -> tuple[int, float, float, bool]:
    """(changed cells, largest |delta| / largest |value|, largest |delta| / |old| of a
    cell, a non-numeric cell differs)."""
    changed, largest_delta, largest_cell, scale, text_differs = 0, 0.0, 0.0, 0.0, False
    for a, b in zip(old, new):
        x, y = _number(a), _number(b)
        for v in (x, y):
            if v is not None and math.isfinite(abs(v)):
                scale = max(scale, abs(v))
        if a == b:
            continue
        changed += 1
        if x is None or y is None or not (math.isfinite(abs(x)) and math.isfinite(abs(y))):
            text_differs = True
        else:
            largest_delta = max(largest_delta, abs(y - x))
            largest_cell = max(largest_cell, abs(y - x) / abs(x) if x else math.inf)
    if largest_delta == 0.0:
        return changed, 0.0, 0.0, text_differs
    return changed, largest_delta / scale if scale > 0.0 else math.inf, largest_cell, text_differs


def compare(old_dir: Path, new_dir: Path) -> bool:
    """Print the comparison of the two directories; True if it passes."""
    ok = True
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not (old_path.is_file() and new_path.is_file()):
            print(f"{name}: only in {old_dir if old_path.is_file() else new_dir}")
            ok = False
            continue
        if old_path.read_bytes() == new_path.read_bytes():
            print(f"{name}: byte-identical")
            continue
        old, new = columns_of(old_path), columns_of(new_path)
        if list(old) != list(new):
            print(f"{name}: columns differ: {sorted(set(old) ^ set(new))}")
            ok = False
            continue
        for column in old:
            if len(old[column]) != len(new[column]):
                print(f"{name} {column}: {len(old[column])} -> {len(new[column])} cells")
                ok = False
                continue
            changed, ratio, cell_ratio, text_differs = compare_column(old[column], new[column])
            verdict = ""
            if text_differs:
                verdict = "  NON-NUMERIC CHANGE"
            elif ratio > QUAD_REL:
                verdict = f"  EXCEEDS {QUAD_REL:g}"
            ok = ok and not verdict
            print(f"{name} {column}: {changed}/{len(old[column])} changed, max|d|/max|v| {ratio:.2e}, "
                  f"max|d|/|old| {cell_ratio:.2e}{verdict}")
    return ok


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    return 0 if compare(Path(args[0]), Path(args[1])) else 1


if __name__ == "__main__":
    sys.exit(main())
