"""Fold two pytest-benchmark JSON files into one compact ledger entry.

    python benchmarks/compact.py BEFORE.json AFTER.json > BENCH_<n>.json

Each case keeps its median and round count on both sides and the ratio
before/after.  The header records the Python and mpmath versions and the
mpmath backend of the interpreter that runs this script.
"""

import json
import sys

import mpmath


def cases(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc, {b["name"]: b["stats"] for b in doc["benchmarks"]}


def main(before_path, after_path):
    doc, before = cases(before_path)
    _, after = cases(after_path)
    info = doc["machine_info"]
    out = {"python": info["python_version"], "mpmath": mpmath.__version__,
           "mpmath_backend": mpmath.libmp.BACKEND,
           "cpu": info.get("cpu", {}).get("brand_raw", ""),
           "unit": "s", "cases": {}}
    for name, old in before.items():
        new = after.get(name)
        row = {"before_median": old["median"], "before_rounds": old["rounds"]}
        if new is not None:
            row.update(after_median=new["median"], after_rounds=new["rounds"],
                       speedup=old["median"] / new["median"])
        out["cases"][name] = row
    return out


if __name__ == "__main__":
    json.dump(main(*sys.argv[1:3]), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
