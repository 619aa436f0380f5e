"""The bench command line: INI files as flags, exit codes and one-line input errors."""
import csv
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadisolve.bench import _build_parser, _parse_args, main, parse_csv

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

NUMBER = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
PATH = st.from_regex(r"[a-z]{1,8}\.csv", fullmatch=True)
COMMA_LIST = st.lists(st.floats(0.0, 1.9).map(repr), min_size=1, max_size=4).map(",".join)
RANGE = st.tuples(st.integers(1, 5), st.integers(0, 5), st.integers(1, 4)).map(
    lambda t: f"{t[0]}:{t[0] + t[1]}:{t[2] / 4}")

# long flag -> strategy of its value as text, per command
PROBLEM = {
    "family": st.sampled_from(("ex241", "ex242", "ex31", "ex421")),
    "m": st.integers(1, 99).map(str),
    "n": st.integers(1, 99).map(str),
    "tau": st.sampled_from(("h", "500h")),
    "sigma1": NUMBER,
    "sigma2": NUMBER,
    "t": NUMBER,
    "stencil": st.sampled_from(("h2", "unit")),
    "tol": NUMBER,
    "inner": st.sampled_from(("exact", "iterative", "auto")),
    "out": PATH,
}
METHOD = st.sampled_from(("gadi", "hss", "mhss", "pmhss", "pmhss-vi", "cri", "tscsp",
                          "newton-gadi"))
FLAGS = {
    "solve": {"method": METHOD, **PROBLEM,
              "alpha": st.one_of(st.just("auto"), NUMBER), "omega": NUMBER,
              "max-outer": st.integers(1, 999).map(str), "series": PATH},
    "sweep": {**PROBLEM, "method": METHOD,
              "alpha-grid": st.one_of(st.just("auto"), COMMA_LIST, RANGE),
              "omega-grid": st.one_of(COMMA_LIST, RANGE)},
}
REQUIRED = {"solve": ("family", "method"), "sweep": ("family",)}


def _argv_tokens(flag, value, joined):
    # a value that begins with '-' must be joined to its flag on the command line
    return [f"--{flag}={value}"] if joined or value.startswith("-") else [f"--{flag}", value]


@st.composite
def split_flags(draw):
    """A command, and each chosen flag sent to the INI file, to argv, or to both."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    chosen = list(REQUIRED[command]) + draw(st.lists(
        st.sampled_from([f for f in flags if f not in REQUIRED[command]]), unique=True))
    ini, argv = {}, {}
    for flag in chosen:
        where = draw(st.sampled_from(("ini", "argv", "both")))
        if where != "argv":
            key = flag.replace("-", "_") if draw(st.booleans()) else flag
            ini[key] = draw(flags[flag])
        if where != "ini":
            argv[flag] = (draw(flags[flag]), draw(st.booleans()))
    return command, ini, argv


@PROPERTY
@given(split_flags())
def test_config_file_flags_parse_as_argv_with_argv_winning(case):
    command, ini, argv = case
    parser = _build_parser()
    merged = {key.replace("_", "-"): (value, True) for key, value in ini.items()}
    merged.update(argv)
    expected = [command] + [t for flag, (value, joined) in merged.items()
                            for t in _argv_tokens(flag, value, joined)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.ini")
        with open(path, "w") as fh:
            fh.write("[run]\npreset = table9\n")  # another command's section is not read
            fh.write(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in ini.items()))
        given_argv = [command, "--config", path] + [
            t for flag, (value, joined) in argv.items() for t in _argv_tokens(flag, value, joined)]
        got = vars(_parse_args(parser, given_argv))
    want = vars(_parse_args(parser, expected))
    assert got.pop("config") == path
    assert want.pop("config") is None
    assert got == want


# -- input errors exit 2 with one line ----------------------------------------------------

SOLVE = ["solve", "--family", "ex241", "--m", "2", "--method", "gadi"]


def _exit_code(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    return info.value.code, err


@pytest.mark.parametrize("key, value, message", [
    ("bogus", "3", "unrecognized arguments: --bogus=3"),
    ("inner", "fast", "argument --inner: invalid choice: 'fast'"),
    ("m", "four", "argument --m: invalid int value: 'four'"),
    ("family", "ex999", "argument --family: invalid choice: 'ex999'"),
])
def test_bad_config_file_value_exits_2(tmp_path, capsys, key, value, message):
    lines = {"family": "ex241", "m": "2", "method": "gadi", key: value}
    ini = tmp_path / "bench.ini"
    ini.write_text("[solve]\n" + "".join(f"{k} = {v}\n" for k, v in lines.items()))
    code, err = _exit_code(["solve", "--config", str(ini)], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--family", "ex241", "--m", "0", "--method", "gadi"],
     "solve: family ex241 needs a grid size m >= 1"),
    (SOLVE + ["--alpha", "-1"], "solve: alpha must be positive, got -1.0"),
    (SOLVE + ["--tol", "-1"], "solve: tol must be positive, got -1.0"),
    (SOLVE + ["--alpha", "fast"], "argument --alpha: expected a number or 'auto', got 'fast'"),
    (["solve", "--family", "ex31", "--n", "4", "--method", "mhss"],
     "solve: method 'mhss' is not valid for family 'ex31'"),
    (["solve", "--m", "2"], "the following arguments are required: --family, --method"),
    (["run", "--tol", "1e-5"], "the following arguments are required: --preset"),
    (["run", "--preset", "table5", "--tol", "-1"], "run: tol must be positive, got -1.0"),
    (SOLVE + ["--tol", "inf"], "solve: tol must be finite, got inf"),
    (SOLVE + ["--alpha", "inf"], "solve: alpha must be finite, got inf"),
    (["run", "--preset", "table5", "--tol", "inf"], "run: tol must be finite, got inf"),
])
def test_bad_flag_exits_2(capsys, argv, message):
    code, err = _exit_code(argv, capsys)
    assert code == 2
    assert message in err


def test_sweep_checks_the_method_before_the_auto_grid(capsys):
    code, err = _exit_code(["sweep", "--family", "ex241", "--m", "4",
                            "--method", "newton-gadi"], capsys)
    assert code == 2
    assert "sweep: method 'newton-gadi' is not valid for family 'ex241'" in err


def test_sweep_rejects_the_method_before_computing_a_shift(monkeypatch, capsys):
    from gadisolve import bench

    def no_shift(*args):
        raise AssertionError("default shift computed for a rejected method")
    monkeypatch.setattr(bench, "_auto_alpha", no_shift)
    code, err = _exit_code(["sweep", "--family", "ex31", "--n", "8", "--method", "mhss"],
                           capsys)
    assert code == 2
    assert "sweep: method 'mhss' is not valid for family 'ex31'" in err


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    code, err = _exit_code(["solve", "--config", str(tmp_path / "missing.ini")], capsys)
    assert code == 2 and "missing.ini" in err
    ini = tmp_path / "bench.ini"
    ini.write_text("family = ex241\n")
    code, err = _exit_code(["solve", "--config", str(ini)], capsys)
    assert code == 2 and "no section headers" in err


def test_config_file_value_may_begin_with_a_dash(tmp_path, capsys):
    ini = tmp_path / "bench.ini"
    ini.write_text("[solve]\nfamily = ex241\nm = 2\nmethod = gadi\nalpha = -1\n")
    code, err = _exit_code(["solve", "--config", str(ini)], capsys)
    assert code == 2 and "alpha must be positive, got -1.0" in err
    code = main(["solve", "--config", str(ini), "--alpha", "2"])  # argv wins
    assert code == 0


# -- solver failures are rows -------------------------------------------------------------

def test_solve_failure_prints_a_false_row_and_exits_1(tmp_path, capsys):
    # the inner GADI sweeps of the Newton iteration diverge at this size
    out, series = tmp_path / "row.csv", tmp_path / "series.csv"
    code = main(["solve", "--family", "ex421", "--n", "40", "--method", "newton-gadi",
                 "--out", str(out), "--series", str(series)])
    assert code == 1
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[1].endswith(",false")
    (row,) = parse_csv(out)
    assert (row.algorithm, row.n, row.converged) == ("newton-gadi", 40, False)
    assert not series.exists()  # no report, so no series


# -- the omega column is the omega the sweeps ran with ------------------------------------

@pytest.mark.parametrize("method, omega", [("gadi", "0.5"), ("hss", "0"), ("mhss", "0"),
                                           ("pmhss", "0"), ("cri", "0"), ("tscsp", "0")])
def test_solve_row_records_the_omega_its_sweeps_ran_with(capsys, method, omega):
    code = main(["solve", "--family", "ex241", "--m", "8", "--stencil", "unit",
                 "--method", method, "--omega", "0.5"])
    assert code == 0
    (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
    assert row["omega"] == omega


def test_sweep_cells_of_a_method_that_does_not_relax_record_omega_0(tmp_path, capsys):
    out = tmp_path / "cells.csv"
    main(["sweep", "--family", "ex241", "--m", "4", "--stencil", "unit", "--method", "hss",
          "--omega-grid", "0,0.5", "--out", str(out)])
    with open(out, newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert len(cells) == 2 * 21
    assert {cell["omega"] for cell in cells} == {"0"}
    assert "omega=0 " in capsys.readouterr().out
