"""Benchmark of the cftinv command line, driven in process.

    python3 perfbench/run.py --workload heat_trace --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  One client runs one command after
another (a closed loop, no threads) through ``cftinv.cli.main(argv)`` with
stdout captured, repeating the workload's command sequence until
``--seconds`` have passed.  The outputs are checked afterwards, untimed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the sequence
once untraced and once under the span tracer of ``spans.py`` and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Each run also writes its full
record, with the environment, under ``perfbench/results/``.  README.md has
the workloads, the metrics and the layer-to-end-to-end predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
KINDS = ("invariants", "characters", "dump", "verify", "lab", "fock")
SETUP_REPEATS = 11
MIN_PASSES = 2        # a median needs more than one pass
PROBE_PERIOD = 0.1    # seconds between speed samples in the timed loop


def import_program():
    """Import cftinv from this checkout's src/, and nowhere else."""
    if not (SRC / "cftinv" / "cli.py").is_file():
        sys.exit(f"error: no cftinv sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import cftinv
    if Path(cftinv.__file__).resolve().parent != SRC / "cftinv":
        sys.exit(f"error: imported cftinv from {cftinv.__file__}, not {SRC}")


def environment() -> dict:
    import mpmath
    import numpy
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def measure_setup() -> float:
    """Median wall time of a fresh interpreter running ``import cftinv.cli``,
    after one untimed launch that leaves the bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import cftinv.cli"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def run_command(argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    from cftinv.cli import main
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:          # argparse usage errors
            rc = exc.code
        except Exception:                  # a traceback is a failed operation
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(cmds, tracer=None):
    results = []
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.command = i
        results.append(run_command(cmd.argv))
    return results


def check_passes(cmds, first, repeats):
    """Classify every command of every pass.  ``first`` holds the outputs
    of the first pass, which is checked in full; ``repeats`` holds, for each
    later pass, whether each command reproduced them byte for byte."""
    import checks
    classified = [checks.classify(cmd, *res[:3]) for cmd, res in zip(cmds, first)]
    statuses, notes, accuracy = [], [], {}
    for same in [[True] * len(cmds)] + repeats:
        for cmd, (status, detail, acc), ok in zip(cmds, classified, same):
            if not ok:
                status, detail = "failed", "output differs from the first pass"
            statuses.append(status)
            if status != "ok":
                notes.append(f"{status}: {' '.join(cmd.argv)}: {detail[:300]}")
            for key, value in acc.items():
                accuracy[key] = max(accuracy.get(key, 0.0), value)
    return statuses, notes, accuracy


def kind_seconds(cmds, seconds) -> dict:
    out = dict.fromkeys(KINDS, 0.0)
    for cmd, secs in zip(cmds, seconds):
        out[cmd.kind] += secs
    return out


def same_outputs(results, first):
    return [res[:3] == ref[:3] for res, ref in zip(results, first)]


def probe_kernel():
    """About 3 ms of fixed pure-Python integer work, Euler's partition
    recurrence up to 400.  It touches no state of the program it samples."""
    p = [1] + [0] * 400
    for n in range(1, 401):
        j = 1
        while j * (3 * j - 1) // 2 <= n:
            sign = 1 if j % 2 else -1
            for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if g <= n:
                    p[n] += sign * p[n - g]
            j += 1


class SpeedProbe:
    """Times ``probe_kernel`` from a SIGALRM handler every PROBE_PERIOD
    seconds, so that the machine's speed is sampled while the commands run.

    ``samples`` holds the kernel times and ``spent`` the handler's time in
    all, which the timed loop takes out of the command times.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        entered = time.perf_counter()
        probe_kernel()
        self.samples.append(time.perf_counter() - entered)
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_run(cmds, seconds):
    """Run whole passes for ``seconds`` under a SpeedProbe.

    Returns the first pass's outputs, which later passes reproduced them,
    each pass's command times less the probe's time within them, each
    pass's probe samples and the peak RSS.  Only the first pass's outputs
    are kept, so the benchmark's own memory does not grow with the pass
    count.
    """
    first, repeats, times, probes = None, [], [], []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
            results, net, sampled = [], [], len(probe.samples)
            for cmd in cmds:
                spent = probe.spent
                results.append(run_command(cmd.argv))
                net.append(results[-1][3] - (probe.spent - spent))
            times.append(net)
            probes.append(probe.samples[sampled:])
            if first is None:
                first = results
            else:
                repeats.append(same_outputs(results, first))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return first, repeats, times, probes, peak_mb


def traced_run(cmds):
    import spans
    t0 = time.perf_counter()
    plain = run_pass(cmds)
    plain_wall = time.perf_counter() - t0
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced = run_pass(cmds, tracer)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return plain, plain_wall, traced, traced_wall, tracer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import_program()
    RESULTS.mkdir(parents=True, exist_ok=True)
    cmds = workloads.commands(args.workload, args.seed)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "argv": [list(c.argv) for c in cmds]}

    if args.trace == 0:
        setup_s = measure_setup()
        first, repeats, times, probes, peak_mb = timed_run(cmds, args.seconds)
        statuses, notes, accuracy = check_passes(cmds, first, repeats)
        per_kind = [kind_seconds(cmds, t) for t in times]
        wall_s = statistics.median(sum(t) for t in times)
        wall_rel = statistics.median(sum(t) / statistics.fmean(p)
                                     for t, p in zip(times, probes))
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_rel": (wall_rel, "ref"),
            "peak_rss_mb": (peak_mb, "MB"),
            "pass_ratio": (statuses.count("ok") / len(statuses), "ratio"),
        }
        report = {f"{k}_s": statistics.median(p[k] for p in per_kind)
                  for k in KINDS if any(c.kind == k for c in cmds)}
        report.update(wall_s=wall_s, passes=len(times),
                      probe_s=statistics.fmean(x for p in probes for x in p))
        record.update(times=times, probes=probes)
    else:
        plain, plain_wall, traced, traced_wall, tracer = traced_run(cmds)
        statuses, notes, accuracy = check_passes(cmds, plain,
                                                 [same_outputs(traced, plain)])
        metrics = {k: (v, unit_of(k)) for k, v in tracer.metrics().items()}
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        for kind, secs in kind_seconds(cmds, [res[3] for res in plain]).items():
            metrics[f"cmd.{kind}_s"] = (secs, "s")
        for key in ("fit_dev_ratio_max", "cert_err_max", "check_dev_ratio_max"):
            metrics[f"accuracy.{key}"] = (accuracy.get(key, 0.0), "ratio")
        report = {"wall_s": plain_wall, "traced_wall_s": traced_wall,
                  "spans": len(tracer.spans)}
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted = len(statuses)
    failed = statuses.count("failed")
    report["fail_ratio"] = (attempted - statuses.count("ok")) / attempted
    report.update(accuracy)
    record.update(report=report, notes=notes, statuses=statuses,
                  metrics={k: v for k, (v, _) in metrics.items()})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_per_point")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
