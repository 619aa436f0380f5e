"""Print how far each convergence series moved between two output directories.

    python3 tools/series_moves.py DIR_A DIR_B

A series file is a CSV whose header is `iteration,RES`, as `bench run
--series-dir DIR` writes one per solve. For each series file of DIR_A the
output is one line,

    max_rel_change differing/rows name

where max_rel_change is the largest |RES_B - RES_A| / |RES_A| over its rows
and differing counts the rows whose RES differ. A file that DIR_B lacks, or
whose iteration column differs from DIR_A's, is named on a line of its own
and makes the exit code 1; a file that only DIR_B has is named too. The last
line is the largest change over all files.
"""
import os
import sys

HEADER = "iteration,RES"


def _series(directory):
    """{name: (iterations, RES values)} for every series file in ``directory``."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not (name.endswith(".csv") and os.path.isfile(path)):
            continue
        with open(path) as fh:
            if fh.readline().strip() != HEADER:
                continue
            rows = [line.strip().split(",") for line in fh if line.strip()]
        out[name] = ([int(it) for it, _ in rows], [float(res) for _, res in rows])
    return out


def moves(dir_a, dir_b):
    """([output line], exit code) comparing the series files of two directories."""
    a, b = _series(dir_a), _series(dir_b)
    lines, code, largest = [], 0, 0.0
    for name, (its_a, res_a) in a.items():
        if name not in b:
            lines.append(f"missing in {dir_b}: {name}")
            code = 1
            continue
        its_b, res_b = b[name]
        if its_a != its_b:
            lines.append(f"iterations differ ({len(its_a) - 1} vs {len(its_b) - 1}): {name}")
            code = 1
            continue
        rel = [abs(y - x) / abs(x) if x != 0 else (0.0 if y == 0 else float("inf"))
               for x, y in zip(res_a, res_b)]
        largest = max([largest, *rel])
        lines.append(f"{max(rel):.3e} {sum(r > 0 for r in rel)}/{len(rel)} {name}")
    lines += [f"only in {dir_b}: {name}" for name in b if name not in a]
    lines.append(f"largest relative change: {largest:.3e}")
    return lines, code


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    out, status = moves(sys.argv[1], sys.argv[2])
    print("\n".join(out))
    sys.exit(status)
