"""scripts/compare_runs.py: its report of two output trees and its exit status."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "scripts" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def write_tree(path, files):
    path.mkdir(parents=True)
    for name, text in files.items():
        (path / name).write_bytes(text.encode())


def test_csv_report_gives_largest_difference_per_column(tmp_path):
    write_tree(tmp_path / "a", {"s.csv": "x,U,V\r\n0,1,nan\r\n1,-0,2\r\n"})
    write_tree(tmp_path / "b", {"s.csv": "x,U,V\r\n0,1.5,nan\r\n1,0.25,3\r\n"})
    assert compare_runs.csv_differences(tmp_path / "a" / "s.csv", tmp_path / "b" / "s.csv") == [
        "U: largest difference 5.000e-01", "V: largest difference 1.000e+00"]


def test_zero_sign_alone_is_reported_as_equal_values(tmp_path):
    write_tree(tmp_path / "a", {"s.csv": "U\r\n0\r\n", "m.json": "{}"})
    write_tree(tmp_path / "b", {"s.csv": "U\r\n-0\r\n", "m.json": "{}"})
    assert compare_runs.compare_trees(tmp_path / "a", tmp_path / "b") == (
        ["s.csv: bytes differ, values equal (a zero's sign or a number's spelling)"], False)


def test_different_file_sets_fail(tmp_path):
    write_tree(tmp_path / "a", {"manifest.json": "{}", "s.csv": "U\r\n1\r\n"})
    write_tree(tmp_path / "b", {"manifest.json": "{}"})
    lines, failed = compare_runs.compare_trees(tmp_path / "a", tmp_path / "b")
    assert failed and lines == ["files ['manifest.json', 's.csv'] != ['manifest.json']"]
    assert compare_runs.compare_trees(tmp_path / "a", tmp_path / "missing")[1]
