"""tools/preset_digests.py: one digest per preset file, the CPU column masked."""
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tools", "preset_digests.py")


def test_two_runs_print_the_same_digests():
    runs = [subprocess.run([sys.executable, SCRIPT, "fig3"], capture_output=True, text=True,
                           check=True).stdout for _ in range(2)]
    # the CPU column differs between the runs; the digests must not
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0].splitlines()]
    assert [name for _, name in lines] == ["fig3.csv", "fig3_gadi_ex31_n_32_t_0_01.csv",
                                           "fig3_hss_ex31_n_32_t_0_01.csv"]
    assert all(len(digest) == 64 for digest, _ in lines)


def test_every_preset_prints_its_pinned_digests():
    # preset_digests.txt holds the 33 lines of all 12 presets; a change that
    # moves a series or a row on purpose regenerates it and says so
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "preset_digests.txt")) as fh:
        pinned = fh.read()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == pinned
