"""Run the shipped configs at two checkouts and report how their outputs differ.

    python scripts/compare_runs.py BASE HEAD WORKDIR

BASE and HEAD are checkout roots.  Each config in ``scripts/configs/`` of
both runs with its command, from its own checkout's copy and that checkout's
``src/``, into ``WORKDIR/base/<config>`` and ``WORKDIR/head/<config>``.  The
report names each config whose exit code or file set differs and each
artifact whose bytes differ; for a CSV it gives the largest absolute value
difference per column.  The exit status is 1 when some exit code or file set
differs and 0 otherwise: changed values are for the change's own notes to
state and bound.  A config shipped by one checkout alone is listed, not run.
"""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path


def run_configs(root: Path, names, out: Path) -> dict:
    """Exit code of each config of ``root`` by name, its outputs under ``out``."""
    codes = {}
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for name in names:
        config = root / "scripts" / "configs" / f"{name}.json"
        command = json.loads(config.read_text())["command"]
        codes[name] = subprocess.run(
            [sys.executable, "-m", "shearwaves", command, "--config", str(config),
             "--out", str(out / name), "--quiet"], env=env, cwd=root,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return codes


def _rows(path: Path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def csv_differences(a: Path, b: Path) -> list:
    """Lines on how two CSV artifacts differ: header, row count, or the largest
    absolute difference per column (NaN where only one side is NaN)."""
    (head_a, *rows_a), (head_b, *rows_b) = _rows(a), _rows(b)
    if head_a != head_b:
        return [f"header {head_a} != {head_b}"]
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a)} rows != {len(rows_b)} rows"]
    lines = []
    for k, column in enumerate(head_a):
        largest = 0.0
        for row_a, row_b in zip(rows_a, rows_b):
            x, y = float(row_a[k]), float(row_b[k])
            if x != y and not (x != x and y != y):
                largest = max(largest, abs(x - y)) if x == x and y == y else float("nan")
        if largest != 0.0:
            lines.append(f"{column}: largest difference {largest:.3e}")
    return lines or ["bytes differ, values equal (a zero's sign or a number's spelling)"]


def compare_trees(base: Path, head: Path) -> tuple:
    """(report lines, whether the file sets differ) for one config's two output directories."""
    files_a = sorted(p.name for p in base.iterdir()) if base.exists() else []
    files_b = sorted(p.name for p in head.iterdir()) if head.exists() else []
    if files_a != files_b:
        return [f"files {files_a} != {files_b}"], True
    lines = []
    for name in files_a:
        a, b = base / name, head / name
        if a.read_bytes() != b.read_bytes():
            detail = csv_differences(a, b) if name.endswith(".csv") else ["contents differ"]
            lines += [f"{name}: {line}" for line in detail]
    return lines, False


def main(argv=None) -> int:
    base, head, work = map(Path, argv if argv is not None else sys.argv[1:])
    shipped = [{p.stem for p in (root / "scripts" / "configs").glob("*.json")}
               for root in (base, head)]
    for name in sorted(shipped[0] ^ shipped[1]):
        print(f"{name}: shipped by one checkout only, not compared")
    names = sorted(shipped[0] & shipped[1])
    codes = [run_configs(root, names, work / side)
             for root, side in ((base, "base"), (head, "head"))]
    failed = False
    for name in names:
        lines, files_differ = compare_trees(work / "base" / name, work / "head" / name)
        if codes[0][name] != codes[1][name]:
            lines.insert(0, f"exit code {codes[0][name]} != {codes[1][name]}")
        failed |= files_differ or codes[0][name] != codes[1][name]
        for line in lines:
            print(f"{name}: {line}")
    print(f"{len(names)} configs compared; "
          f"{'exit codes or file sets differ' if failed else 'same exit codes and file sets'}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
