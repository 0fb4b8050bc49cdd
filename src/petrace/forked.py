"""Run calls in forked child processes, a few at a time: ``petrace sweep``'s
scheduler.

Only a sweep imports this module, so ``import petrace.cli`` neither compiles
it nor loads ``select``.
"""
import os
import pickle
import select

from .errors import PetraceError


def _child(call, write_end):
    """In a forked child: send ``(True, result)`` or ``(False, exc)`` pickled
    down the pipe, then leave by ``os._exit``, so that no exit handler runs and
    no inherited buffer is flushed.  An outcome that will not pickle sends
    nothing."""
    status = 1
    try:
        try:
            outcome = True, call()
        except Exception as exc:
            outcome = False, exc
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def fork_each(calls, names, limit):
    """Run each call in its own forked child, at most ``limit`` at once.

    The children start in list order, the next as soon as any running one
    ends, so one slow call holds back no other.  The parent waits on the
    pipes with ``select`` and reaps each child by its pid.  After a failure
    no further call starts.  Returns ``(ok, result or exception)`` for every
    call started, in list order; a child that ended without sending an
    outcome gives a ``PetraceError`` naming it and its exit status.
    """
    outcomes = []
    running = {}   # read end -> (index, pid)
    try:
        while True:
            while len(outcomes) < len(calls) and len(running) < limit:
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _child(calls[len(outcomes)], write_end)
                os.close(write_end)
                running[read_end] = len(outcomes), pid
                outcomes.append(None)
            if not running:
                return outcomes
            for read_end in select.select(list(running), [], [])[0]:
                idx, pid = running.pop(read_end)
                with open(read_end, "rb") as pipe:  # a child writes only once done
                    data = pipe.read()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                try:
                    outcomes[idx] = pickle.loads(data)
                except Exception:  # nothing sent, or nothing that unpickles
                    outcomes[idx] = False, PetraceError(
                        f"{names[idx]} ended without a result (exit status {status})")
                if not outcomes[idx][0]:
                    limit = 0  # no further call starts
    finally:
        for read_end, (_, pid) in running.items():
            os.close(read_end)
            os.waitpid(pid, 0)
