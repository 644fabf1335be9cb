"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [workload ...]

1. The same seed gives the same argv lists, in this process and in a fresh
   interpreter, and another seed gives other lists.
2. Negative control: ``verify --fock --corrupt-sign`` is classified as a
   failed operation, which proves the checks behind ``pass_ratio`` and
   ``failed`` catch a wrong answer.
3. Two traced runs with one seed give identical counts for each workload
   named (default: verify_all, the cheapest that reaches every counter
   except the spectral and series ones).

Exits 0 when every test passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

run.import_program()

import checks       # noqa: E402  (needs cftinv on the path)
import workloads    # noqa: E402

SEEDS = (1, 2, 3)


def argv_lists(seed):
    return {w: [list(c.argv) for c in workloads.commands(w, seed)]
            for w in workloads.WORKLOADS}


def test_same_seed_same_argv():
    for seed in SEEDS:
        assert argv_lists(seed) == argv_lists(seed), f"seed {seed} not repeatable"
    code = ("import json, workloads; print(json.dumps({w: [list(c.argv) for c in "
            "workloads.commands(w, 1)] for w in workloads.WORKLOADS}))")
    fresh = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT / "perfbench",
                           check=True, capture_output=True, text=True).stdout
    assert json.loads(fresh) == argv_lists(1), "argv differs in a fresh interpreter"
    for w in workloads.WORKLOADS:
        assert argv_lists(1)[w] != argv_lists(2)[w], f"{w}: seed has no effect"


def test_negative_control():
    cmd = workloads.Command("verify", ("verify", "--fock", "--corrupt-sign",
                                       "--seed", "1", "--format", "json"))
    rc, out, err, _ = run.run_command(cmd.argv)
    status, detail, _ = checks.classify(cmd, rc, out, err)
    assert status == "failed", f"corrupted sign classified {status!r}"
    print(f"  negative control: exit {rc}, {detail}")


def traced_counts(workload, seed):
    cmds = workloads.commands(workload, seed)
    *_, tracer = run.traced_run(cmds)
    return {k: v for k, v in tracer.metrics().items()
            if run.unit_of(k) in ("count", "ratio") and not k.endswith("_per_s")}


def test_traced_counts_repeat(workload):
    first, second = traced_counts(workload, 7), traced_counts(workload, 7)
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    assert not diff, f"{workload}: counts differ between traced runs: {diff}"


def main(argv):
    tests = [("same seed, same argv", test_same_seed_same_argv),
             ("negative control counted as failed", test_negative_control)]
    for w in argv or ["verify_all"]:
        tests.append((f"traced counts repeat on {w}",
                      lambda w=w: test_traced_counts_repeat(w)))
    failures = 0
    for name, test in tests:
        try:
            test()
            print(f"PASS {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
