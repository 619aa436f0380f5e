"""tools/series_moves.py: the largest relative RES change of each series file."""
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "series_moves.py")


def _write(directory, name, text):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(text)


def _run(a, b):
    return subprocess.run([sys.executable, SCRIPT, str(a), str(b)], capture_output=True,
                          text=True)


def test_prints_each_series_files_largest_relative_change(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "fig1_gadi.csv", "iteration,RES\n0,1.0000000000e+00\n1,2.0000000000e-03\n")
    _write(b, "fig1_gadi.csv", "iteration,RES\n0,1.0000000000e+00\n1,2.0000000002e-03\n")
    _write(a, "fig1_hss.csv", "iteration,RES\n0,1.0000000000e+00\n")
    _write(b, "fig1_hss.csv", "iteration,RES\n0,1.0000000000e+00\n")
    # a result CSV is not a series file
    _write(a, "fig1.csv", "algorithm,n\ngadi,4\n")
    _write(b, "fig1.csv", "algorithm,n\ngadi,5\n")
    out = _run(a, b)
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["1.000e-10 1/2 fig1_gadi.csv", "0.000e+00 0/1 fig1_hss.csv",
                                       "largest relative change: 1.000e-10"]


def test_a_missing_file_or_other_iterations_fail(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a, "x.csv", "iteration,RES\n0,1.0e+00\n1,1.0e-01\n")
    _write(b, "x.csv", "iteration,RES\n0,1.0e+00\n")
    _write(a, "y.csv", "iteration,RES\n0,1.0e+00\n")
    _write(b, "z.csv", "iteration,RES\n0,1.0e+00\n")
    out = _run(a, b)
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        "iterations differ (1 vs 0): x.csv", f"missing in {b}: y.csv", f"only in {b}: z.csv",
        "largest relative change: 0.000e+00"]
