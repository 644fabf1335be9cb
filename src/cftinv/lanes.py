"""Two lanes for a list of independent tasks: the calling process and one
child made with ``os.fork``.

The slow commands (``verify``, ``lab``, ``fock``) are pure-Python mpmath
arithmetic, so threads would share one core.  A fork needs no import and no
pickled input in the child: the child starts with the caller's precision,
inputs and code.  Only the outcomes travel, pickled through a pipe.

A task is a callable that appends its rows to the list it is given.  Its
outcome is ``(rows, exception or None)``: the rows it appended, and the
exception that ended it, if any.  The caller says which tasks the child
runs.  That split is fixed by the caller, never claimed at run time, so
each lane does the same work on every run (a tracer in the caller counts
the same calls each time).

:func:`run` gives the outcome of each task by its index.  On two lanes
every task has run when it returns.  Where ``os.fork`` is missing or
fails, fewer than two CPUs are usable, another thread is running, or the
child would run nothing, the tasks run in the caller instead, each when
its outcome is first asked for: a task whose outcome is never asked for
never runs.  This in-process path is the reference the tests compare the
lanes with.
"""

from __future__ import annotations

import os
import threading

from .errors import ToolkitError


def _lanes_available() -> bool:
    """A second lane helps only with a second usable CPU, and a fork is
    safe only while this process runs one thread."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus >= 2 and threading.active_count() == 1


def _outcome(task):
    """(rows, exception or None) of one task, run on a list of its own."""
    rows = []
    try:
        task(rows)
    except Exception as exc:
        return rows, exc
    return rows, None


def run(tasks, child):
    """A function giving the outcome of ``tasks[i]`` for index ``i``: on
    two lanes, the forked child runs the tasks whose indices are in
    ``child`` and the caller the others; else each task runs in the caller
    when its outcome is asked for (module docstring).  Ask for each outcome
    once."""
    if child and _lanes_available():
        done = _run_forked(tasks, child)
        if done is not None:
            return done.__getitem__
    return lambda i: _outcome(tasks[i])


def _run_forked(tasks, child):
    """The outcomes of all tasks in task order, a forked child running
    those whose indices are in ``child`` and the caller the others; None if
    the fork fails.  The child sends its outcomes pickled through a pipe
    and ends with ``os._exit``, so it never returns into the caller's stack
    or flushes inherited buffers.
    On every exit the child is reaped, and killed first if it is still
    running; a child that ends without sending its outcomes raises
    :class:`~cftinv.errors.ToolkitError`."""
    import pickle
    import signal

    results, sink = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(results)
        os.close(sink)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(results)
            data = memoryview(pickle.dumps(
                {i: _outcome(tasks[i]) for i in child}))
            while data:
                data = data[os.write(sink, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(sink)
    reaped = False
    try:
        done = {i: _outcome(task) for i, task in enumerate(tasks)
                if i not in child}
        chunks = []
        while chunk := os.read(results, 1 << 16):
            chunks.append(chunk)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if status != 0:
            how = (f"killed by signal {-status}" if status < 0
                   else f"exit status {status}")
            raise ToolkitError("the second lane ended without its results "
                               f"({how})")
        done.update(pickle.loads(b"".join(chunks)))
    finally:
        os.close(results)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [done[i] for i in range(len(tasks))]
