"""The lab battery on two lanes: the caller and one forked child.

The in-process run (``_lanes_available`` patched to False) is the
reference: the forked run must give the same rows, bit for bit, the same
exception after the same rows, and leave no child behind.
"""

import json
import os
import signal

import pytest
from mpmath import mp, mpf

from cftinv import lab, verify
from cftinv.cli import main
from cftinv.errors import CocycleError, HypothesisViolationError, ToolkitError


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def bits(rows):
    """Rows with every number as its raw mpf tuple."""
    return [{k: v._mpf_ if isinstance(v, mpf) else v for k, v in row.items()}
            for row in rows]


def run_battery(monkeypatch, forked, dims, seed=3):
    """(rows, exception or None) of one battery, forked or in process."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(verify, "_lanes_available", lambda: forked)
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


def child_runs(monkeypatch, indices):
    """Let the child lane run the tasks at ``indices`` (all: "all")."""
    real = verify._appendix_c_tasks

    def tasks(dims, seed):
        tasks, _ = real(dims, seed)
        return tasks, range(len(tasks)) if indices == "all" else indices

    monkeypatch.setattr(verify, "_appendix_c_tasks", tasks)


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
        child_runs(monkeypatch, "all" if lane == "child" else ())
        forked = run_battery(monkeypatch, True, (2, 2, 2))
    assert forked[0] == serial[0] and serial[0]
    assert type(forked[1]) is type(serial[1]) is type(exc)
    assert str(forked[1]) == str(serial[1]) == str(exc)


def test_lab_writes_its_output_once(monkeypatch, capfd):
    """The child never flushes the stdio buffers it inherits: text still
    buffered in the caller at the fork, and the report, appear once."""
    monkeypatch.setattr(verify, "_lanes_available", lambda: True)
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

    monkeypatch.setattr(verify, "_lanes_available", lambda: True)
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

    monkeypatch.setattr(verify, "_lanes_available", lambda: True)
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
    monkeypatch.setattr(verify, "_lanes_available", lambda: True)
    monkeypatch.setattr(lab, "connes_cocycle", interrupted)
    with mp.workdps(30), pytest.raises(KeyboardInterrupt):
        verify.battery_appendix_c(verify.Battery(), (3, 4, 3), 5)
    assert lab._shared is None
    no_child_left()


def test_child_outcomes_must_arrive(monkeypatch):
    """A child that exits without sending its outcomes is a ToolkitError,
    not a hang and not a battery with rows missing."""
    caller = os.getpid()
    real = verify._outcome

    def outcome(task):
        if os.getpid() != caller:
            os._exit(3)
        return real(task)

    monkeypatch.setattr(verify, "_outcome", outcome)
    monkeypatch.setattr(verify, "_lanes_available", lambda: True)
    with mp.workdps(30), pytest.raises(ToolkitError, match="exit status 3"):
        verify.battery_appendix_c(verify.Battery(), (2, 2, 2), 5)
    no_child_left()


def test_lanes_need_two_cpus_and_one_thread(monkeypatch):
    import threading

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    assert verify._lanes_available()
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert not verify._lanes_available()
    monkeypatch.setattr(threading, "active_count", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not verify._lanes_available()
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert not verify._lanes_available()


def test_failed_fork_runs_the_tasks_in_process(monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    with mp.workdps(30):
        serial = run_battery(monkeypatch, False, (2, 2, 2))
        monkeypatch.setattr(verify, "_lanes_available", lambda: True)
        monkeypatch.setattr(os, "fork", no_fork)
        b = verify.Battery()
        verify.battery_appendix_c(b, (2, 2, 2), 3)
    assert (bits(b.results), None) == serial
    no_child_left()
