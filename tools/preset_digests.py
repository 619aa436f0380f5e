"""Print a SHA-256 digest of every file the reproduction presets write.

    python3 tools/preset_digests.py            # all 12 presets
    python3 tools/preset_digests.py fig3 table5

Each preset runs with `bench run --preset P --series-dir DIR` into a
temporary directory. The output is one `sha256 name` line per file, sorted by
name. A result CSV is hashed without its CPU column, the one column that
changes from run to run; it is parsed with `csv`, because problem labels such
as "ex31(n=8,t=0.01)" hold commas. Series files are hashed as they are. Two
trees whose outputs agree print identical lines. The exit code is the largest
exit code of the preset runs.
"""
import contextlib
import csv
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gadisolve.bench import PRESET_NAMES, main as bench  # noqa: E402


def _without_cpu(path):
    """The CSV's bytes with its CPU column removed."""
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    cpu = records[0].index("CPU")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(r[:cpu] + r[cpu + 1:] for r in records)
    return out.getvalue().encode()


def digests(presets):
    """Run ``presets``; returns ([(sha256, name)] sorted by name, largest exit code)."""
    code = 0
    with tempfile.TemporaryDirectory() as tmp:
        results = set()
        for preset in presets:
            out = os.path.join(tmp, f"{preset}.csv")
            with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the digests
                code = max(code, bench(["run", "--preset", preset, "--out", out,
                                        "--series-dir", tmp]))
            results.add(os.path.basename(out))
        lines = []
        for name in sorted(os.listdir(tmp)):
            path = os.path.join(tmp, name)
            if name in results:
                data = _without_cpu(path)
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            lines.append((hashlib.sha256(data).hexdigest(), name))
    return lines, code


if __name__ == "__main__":
    lines, code = digests(sys.argv[1:] or PRESET_NAMES)
    for digest, name in lines:
        print(digest, name)
    sys.exit(code)
