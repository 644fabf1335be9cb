"""Two lanes, the caller and one forked child, for ``lab``, ``verify`` and
the ``fock`` ratio scan.

The in-process run (``lanes._lanes_available`` patched to False) is the
reference: the forked run must give the same rows, bit for bit, the same
exception or FAIL row after the same rows, and leave no child behind.
"""

import json
import os
import signal

import pytest
from mpmath import mp, mpf

from cftinv import fock, lab, lanes, spectral, verify, virasoro
from cftinv.cli import RunConfig, main, parse_grid
from cftinv.errors import CocycleError, HypothesisViolationError, ToolkitError


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def bits(rows):
    """Rows with every number as its raw mpf tuple."""
    return [{k: v._mpf_ if isinstance(v, mpf) else v for k, v in row.items()}
            for row in rows]


def lanes_forced(monkeypatch, forked):
    """Force two lanes (or none); the list returned gains an item per
    ``os.fork`` call."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(lanes, "_lanes_available", lambda: forked)
    return forks


def run_battery(monkeypatch, forked, dims, seed=3):
    """(rows, exception or None) of one battery, forked or in process."""
    forks = lanes_forced(monkeypatch, forked)
    b = verify.Battery()
    try:
        verify.battery_appendix_c(b, dims, seed)
        exc = None
    except Exception as e:
        exc = e
    assert len(forks) == (1 if forked else 0)
    assert lab._shared is None
    no_child_left()
    return bits(b.results), exc


def child_runs(monkeypatch, indices, battery="appendix-c"):
    """Let the child lane run the battery's tasks at ``indices`` (all:
    "all")."""
    monkeypatch.setitem(verify.CHILD_TASKS, battery,
                        range(99) if indices == "all" else indices)


@pytest.mark.parametrize("dps", [50, 30])
@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 4, 3), (2, 3, 4), (2, 2, 2)],
                         ids=str)
def test_forked_rows_equal_in_process_rows(monkeypatch, dims, dps):
    with mp.workdps(dps):
        forked = run_battery(monkeypatch, True, dims)
        serial = run_battery(monkeypatch, False, dims)
    assert forked == serial
    assert forked[1] is None and len(forked[0]) >= 11


@pytest.mark.parametrize("lane", ["caller", "child"])
@pytest.mark.parametrize("name, exc", [
    ("cocycle_direct", CocycleError("cocycle leaves the factor")),
    ("index_product", HypothesisViolationError("flow is not modular")),
    ("pimsner_popa_entropy", ValueError("bad index")),
    ("reconstruction_flow_residual", RuntimeError("boom")),
])
def test_task_that_raises_in_either_lane(monkeypatch, lane, name, exc):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(lab, name, raising)
    with mp.workdps(30):
        serial = run_battery(monkeypatch, False, (2, 2, 2))
        child_runs(monkeypatch, "all" if lane == "child" else (0,))
        forked = run_battery(monkeypatch, True, (2, 2, 2))
    assert forked[0] == serial[0] and serial[0]
    assert type(forked[1]) is type(serial[1]) is type(exc)
    assert str(forked[1]) == str(serial[1]) == str(exc)


def test_lab_writes_its_output_once(monkeypatch, capfd):
    """The child never flushes the stdio buffers it inherits: text still
    buffered in the caller at the fork, and the report, appear once."""
    monkeypatch.setattr(lanes, "_lanes_available", lambda: True)
    out = open(os.dup(1), "w", buffering=1 << 16)
    err = open(os.dup(2), "w", buffering=1 << 16)
    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr("sys.stderr", err)
    out.write("before-out\n")
    err.write("before-err\n")
    code = main(["lab", "--dims", "2,2,2", "--seed", "5", "--precision", "30",
                 "--format", "json"])
    out.close()
    err.close()
    captured = capfd.readouterr()
    assert code == 0
    assert captured.out.count("before-out") == 1
    assert captured.out.count('"command": "lab"') == 1
    assert captured.err == "before-err\n"
    no_child_left()


def test_lab_failure_writes_one_json_line(monkeypatch, capfd):
    def raising(*args, **kwargs):
        raise CocycleError("cocycle leaves the factor")

    monkeypatch.setattr(lanes, "_lanes_available", lambda: True)
    monkeypatch.setattr(lab, "connes_cocycle", raising)
    err = open(os.dup(2), "w", buffering=1 << 16)
    monkeypatch.setattr("sys.stderr", err)
    code = main(["lab", "--dims", "2,2,2", "--seed", "5", "--precision", "30"])
    err.close()
    captured = capfd.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert json.loads(captured.err) == {"error": "cocycle leaves the factor",
                                        "type": "CocycleError", "exit": 2}
    no_child_left()


def test_killed_child_is_a_verification_failure(monkeypatch, capsys):
    caller = os.getpid()
    child_runs(monkeypatch, "all")
    real = lab.connes_cocycle

    def killed(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(lanes, "_lanes_available", lambda: True)
    monkeypatch.setattr(lab, "connes_cocycle", killed)
    code = main(["lab", "--dims", "2,2,2", "--seed", "5", "--precision", "30"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    doc = json.loads(captured.err)
    assert doc["exit"] == 2 and doc["type"] == "ToolkitError"
    assert "killed by signal 9" in doc["error"]
    no_child_left()


def test_interrupt_in_the_caller_kills_the_child(monkeypatch):
    """A KeyboardInterrupt in the caller's lane, while the child still has
    its residual calls to run, ends and reaps the child before it
    propagates."""
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    child_runs(monkeypatch, (0, 1, 2))
    monkeypatch.setattr(lanes, "_lanes_available", lambda: True)
    monkeypatch.setattr(lab, "connes_cocycle", interrupted)
    with mp.workdps(30), pytest.raises(KeyboardInterrupt):
        verify.battery_appendix_c(verify.Battery(), (3, 4, 3), 5)
    assert lab._shared is None
    no_child_left()


def test_child_outcomes_must_arrive(monkeypatch):
    """A child that exits without sending its outcomes is a ToolkitError,
    not a hang and not a battery with rows missing."""
    caller = os.getpid()
    real = lanes._outcome

    def outcome(task):
        if os.getpid() != caller:
            os._exit(3)
        return real(task)

    monkeypatch.setattr(lanes, "_outcome", outcome)
    monkeypatch.setattr(lanes, "_lanes_available", lambda: True)
    with mp.workdps(30), pytest.raises(ToolkitError, match="exit status 3"):
        verify.battery_appendix_c(verify.Battery(), (2, 2, 2), 5)
    no_child_left()


def test_lanes_need_two_cpus_and_one_thread(monkeypatch):
    import threading

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert lanes._lanes_available()
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert not lanes._lanes_available()
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not lanes._lanes_available()
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert not lanes._lanes_available()


def test_failed_fork_runs_the_tasks_in_process(monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    with mp.workdps(30):
        serial = run_battery(monkeypatch, False, (2, 2, 2))
        monkeypatch.setattr(lanes, "_lanes_available", lambda: True)
        monkeypatch.setattr(os, "fork", no_fork)
        b = verify.Battery()
        verify.battery_appendix_c(b, (2, 2, 2), 3)
    assert (bits(b.results), None) == serial
    no_child_left()



# ------------------------------------------------------------------ verify

def run_verify(monkeypatch, forked, names=tuple(verify.BATTERIES),
               dims=(2, 2, 2), seed=3):
    """(rows, exception or None) of ``run_batteries``, forked or in
    process, with one fork or none."""
    forks = lanes_forced(monkeypatch, forked)
    cfg = RunConfig(command="verify", seed=seed, dims=dims)
    try:
        rows, exc = bits(verify.run_batteries(cfg, set(names)).results), None
    except Exception as e:
        rows, exc = None, e
    assert len(forks) == (1 if forked else 0)
    assert lab._shared is None
    no_child_left()
    return rows, exc


def raise_in(monkeypatch, module, name, exc):
    def raising(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, raising)


@pytest.mark.parametrize("dps", [50, 30])
@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 4, 3)], ids=str)
@pytest.mark.parametrize("seed", [42, 7])
def test_forked_verify_rows_equal_in_process_rows(monkeypatch, seed, dims,
                                                  dps):
    with mp.workdps(dps):
        forked = run_verify(monkeypatch, True, dims=dims, seed=seed)
        serial = run_verify(monkeypatch, False, dims=dims, seed=seed)
    assert forked == serial
    assert forked[1] is None and len(forked[0]) == 46
    assert all(row["status"] == "PASS" for row in forked[0])


# (battery, module and function that raise, the child's tasks when the
# raising task runs in the caller, rows before the FAIL row, rows never
# reported); each caller split also gives the child a later task
FAILURES = [
    ("fock", fock, "gamma_trace_bruteforce", (1,), [],
     ["fermi-ratio-two-sided-bound"]),
    ("virasoro", virasoro, "free_energy", (0,),
     [f"embedding-exact-n{n}" for n in range(1, 5)] + ["jacobi-exact-sample"],
     ["free-energy-c-half-n2"]),
    ("appendix-c", lab, "cocycle_direct", (0, 5),
     ["spatial-derivative-implements", "spatial-derivative-inverse",
      "cocycle-membership", "cocycle-unitary"],
     ["araki-vs-oracle", "kms-mass", "reconstruction-flow-restriction"]),
]


@pytest.mark.parametrize("lane", ["caller", "child"])
@pytest.mark.parametrize("battery, module, name, split, before, after",
                         FAILURES, ids=[f[0] for f in FAILURES])
def test_toolkit_error_ends_only_its_battery(monkeypatch, lane, battery,
                                             module, name, split, before,
                                             after):
    """A ToolkitError that ends a task gives its battery's rows before it
    and a ``<name>-battery`` FAIL row.  The battery's later tasks report
    nothing, in whichever lane they ran, and the later batteries report."""
    raise_in(monkeypatch, module, name, ToolkitError("broken"))
    names = ("modular", battery, "bridge")
    with mp.workdps(30):
        serial = run_verify(monkeypatch, False, names)
        child_runs(monkeypatch, "all" if lane == "child" else split, battery)
        forked = run_verify(monkeypatch, True, names)
    assert forked == serial
    assert serial[1] is None
    rows = serial[0]
    ids = [r["identity"] for r in rows]
    fail = ids.index(f"{battery}-battery")
    assert ids[fail - len(before):fail] == before
    assert rows[fail]["status"] == "FAIL" and rows[fail]["error"] == "broken"
    assert not set(after) & set(ids)
    assert ids[0].startswith("S-symmetric") and ids[-1] == "cell-entropy-cross"


@pytest.mark.parametrize("lane", ["caller", "child"])
def test_other_exception_propagates_from_either_lane(monkeypatch, lane):
    raise_in(monkeypatch, fock, "fermi_ratio_scan", RuntimeError("boom"))
    names = ("virasoro", "fock", "bridge")
    with mp.workdps(30):
        serial = run_verify(monkeypatch, False, names)
        child_runs(monkeypatch, (1,) if lane == "child" else (0,), "fock")
        forked = run_verify(monkeypatch, True, names)
    assert serial[0] is None is forked[0]
    assert type(forked[1]) is type(serial[1]) is RuntimeError
    assert str(forked[1]) == str(serial[1]) == "boom"


def test_killed_child_fails_verify_with_one_json_line(monkeypatch, capsys):
    caller = os.getpid()
    real = fock.fermi_ratio_scan

    def killed(*args, **kwargs):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(lanes, "_lanes_available", lambda: True)
    monkeypatch.setattr(fock, "fermi_ratio_scan", killed)
    code = main(["verify", "--fock", "--bridge", "--precision", "30"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    doc = json.loads(captured.err)
    assert doc["exit"] == 2 and doc["type"] == "ToolkitError"
    assert doc["error"] == ("the second lane ended without its results "
                            "(killed by signal 9)")
    no_child_left()


# -------------------------------------------------------------------- fock

H = fock.positive(*range(1, 5001))


def run_scan(monkeypatch, forked, grid):
    """(rows as raw mpf tuples, exception or None, forks) of the fock
    command's scan over ``grid``."""
    forks = lanes_forced(monkeypatch, forked)
    try:
        rows = fock.fermi_ratio_scan_lanes(H, grid)
        out = [tuple(getattr(r, f)._mpf_ for f in
                     ("t", "numerator", "denominator", "ratio")) for r in rows]
        exc = None
    except Exception as e:
        out, exc = None, e
    no_child_left()
    return out, exc, len(forks)


@pytest.mark.parametrize("grid", [parse_grid("0.0127:1:5:log"),
                                  parse_grid("0.01:2:7"),
                                  spectral.DEFAULT_FIT_GRID],
                         ids=["log", "linear", "default"])
def test_forked_fock_rows_equal_in_process_rows(monkeypatch, grid):
    forked = run_scan(monkeypatch, True, grid)
    serial = run_scan(monkeypatch, False, grid)
    assert forked[:2] == serial[:2]
    assert forked[1] is None and len(forked[0]) == len(grid)
    assert (forked[2], serial[2]) == (1, 0)


def test_one_point_fock_grid_never_forks(monkeypatch):
    rows, exc, forks = run_scan(monkeypatch, True, ("0.5",))
    assert exc is None and len(rows) == 1 and forks == 0


def test_first_failing_fock_point_raises(monkeypatch):
    """Each lane has a point that raises; the first in grid order is the
    one raised, as in one scan over the grid."""
    real = fock.fermi_ratio_scan
    grid = parse_grid("0.0127:1:5:log")
    bad = {grid[0]: "first", grid[3]: "second"}

    def scan(h, points):
        for t in points:
            if t in bad:
                raise fock.IdentityViolationError(bad[t], deviation=None)
        return real(h, points)

    monkeypatch.setattr(fock, "fermi_ratio_scan", scan)
    forked = run_scan(monkeypatch, True, grid)
    serial = run_scan(monkeypatch, False, grid)
    assert forked[0] is None is serial[0]
    assert str(forked[1]) == str(serial[1]) == "first"
    assert forked[2] == 1
