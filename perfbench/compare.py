"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>-seed<n>-trace<t>.json`` records that
run.py writes under ``perfbench/results/``, e.g. a copy taken at the parent
commit and one at the change.  For every workload, trace mode and metric it
prints the median and quartiles of each side and the change of the medians
as a share of the base median.  It refuses to compare, with exit code 2,
records whose mpmath backends differ: the pure-Python and gmpy2 backends
run the same code at very different speeds.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory):
    groups = defaultdict(list)
    backends = set()
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        backends.add(rec["environment"]["mpmath_backend"])
        groups[(rec["workload"], rec["trace"])].append(rec["metrics"])
    return groups, backends


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    (base, base_backends), (new, new_backends) = load(argv[0]), load(argv[1])
    backends = base_backends | new_backends
    if len(backends) > 1:
        print(f"refusing to compare: mpmath backends differ: {sorted(backends)}",
              file=sys.stderr)
        return 2
    for key in sorted(set(base) & set(new)):
        print(f"{key[0]} trace={key[1]}  runs {len(base[key])} -> {len(new[key])}")
        for metric in base[key][0]:
            b = summary([m[metric] for m in base[key]])
            n = summary([m[metric] for m in new[key]])
            change = (n[1] - b[1]) / abs(b[1]) if b[1] else float("nan")
            print(f"  {metric:48s} {b[1]:12.6g} [{b[0]:.4g}, {b[2]:.4g}] -> "
                  f"{n[1]:12.6g} [{n[0]:.4g}, {n[2]:.4g}]  {change:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
