"""Forked fan-out of independent work, shared by `sweeps` and `verify`: the
package's loops hold the GIL, so processes, not threads, run them in
parallel.  It loads neither `concurrent.futures` nor `multiprocessing`.
"""

from __future__ import annotations

import marshal
import os
import threading

_SIGKILL = 9  # signal.SIGKILL wherever os.fork exists; `signal` is not loaded


def cpus() -> int:
    """CPUs this process may run on; 1 where fork is missing or another
    thread runs, since a forked child holds only the forking thread."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def reap(pid: int, kill: bool = False) -> None:
    """Wait for the child `pid`, killed first if `kill`.  Where SIGCHLD is
    ignored the system reaps it, and the wait finds nothing to collect."""
    try:
        if kill:
            os.kill(pid, _SIGKILL)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):
        pass


def forked_rows(fn, values: list, processes: int) -> list:
    """fn(part) for each of `processes` contiguous slices of `values`, in order.

    `fn` maps a slice to one marshal-able payload.  A forked child computes
    each slice's payload but the first's and pipes it back; the caller
    computes the first, then takes each other payload if it arrived whole
    (marshal refuses a truncated one), else computes it, so the first slice,
    a slice whose pipe or fork failed and a slice whose child sent too
    little raise their errors as on the serial path.  Every child is reaped
    before this returns or raises.
    """
    cuts = [len(values) * i // processes for i in range(processes + 1)]
    slices = [values[a:b] for a, b in zip(cuts, cuts[1:])]
    children = {}  # slice index -> (pid, read end), not yet reaped
    try:
        for i in range(1, processes):
            fds = ()
            try:
                r, w = fds = os.pipe()
                pid = os.fork()
            except OSError:  # no descriptor or process to spare
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                try:  # the caller judges the payload, not the exit status
                    with open(w, "wb") as pipe:
                        pipe.write(marshal.dumps(fn(slices[i])))
                finally:
                    os._exit(0)
            os.close(w)
            children[i] = (pid, r)
        payloads = []
        for i, part in enumerate(slices):
            if i in children:
                pid, r = children[i]
                with open(r, "rb", closefd=False) as pipe:
                    data = pipe.read()
                del children[i]
                os.close(r)
                reap(pid)
                try:
                    payloads.append(marshal.loads(data))
                    continue
                except (EOFError, ValueError):  # nothing written, or cut short
                    pass
            payloads.append(fn(part))
        return payloads
    finally:
        for pid, r in children.values():
            os.close(r)
            reap(pid, kill=True)
