"""`bench sweep` output, pinned: the digest of stdout and the --out CSV of
four sweeps, one per kind of grid (a closed-form GADI grid on ex241 and on
ex242, a method that does not relax, a Lyapunov grid)."""
import hashlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = os.path.join(ROOT, "tests", "sweep_digests.txt")

# the flags of each run after `bench sweep`; sweep_digests.txt holds one
# "sha256 exit-code flags" line per run
RUNS = (
    "--family ex241 --m 16 --tau 500h --stencil unit --omega-grid 0,0.01,0.1",
    "--family ex242 --m 12 --stencil unit --omega-grid 0,0.01,0.1",
    "--family ex241 --m 8 --stencil h2 --method cri",
    "--family ex31 --n 8 --omega-grid 0,0.01,0.5",
)


def sweep_digest(flags, tmp):
    """``(sha256 of stdout followed by the --out CSV, exit code)`` of one
    `bench sweep` process with one BLAS thread."""
    out = os.path.join(tmp, "sweep.csv")
    path = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run([sys.executable, "-m", "gadisolve.bench", "sweep", *flags.split(),
                          "--out", out], capture_output=True, env=env)
    assert run.stderr == b"", run.stderr
    with open(out, "rb") as fh:
        return hashlib.sha256(run.stdout + fh.read()).hexdigest(), run.returncode


def _pinned():
    with open(PINNED) as fh:
        return {flags: (digest, int(code))
                for digest, code, flags in (line.rstrip("\n").split(" ", 2) for line in fh)}


@pytest.mark.parametrize("flags", RUNS)
def test_bench_sweep_prints_and_writes_its_pinned_output(flags, tmp_path):
    assert sweep_digest(flags, str(tmp_path)) == _pinned()[flags]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for flags in RUNS:
            print(*sweep_digest(flags, tmp), flags)
