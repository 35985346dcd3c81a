"""Forked workers for a sweep at --jobs N > 1: sweep_report imports this
module only then, so a --jobs 1 run neither compiles nor holds it.

forked_map is an ordered map over primes: this process runs every N-th
prime's unit itself and N - 1 forked workers run the others.  A worker sends
the bytes its units write and their results down a pipe as marshal data, as
they are, so a result must be marshal data (a prime's tally, never a
record); pickle is loaded only to carry a worker's exception.
"""

from __future__ import annotations

import io
import marshal
import os
import signal
from collections.abc import Callable, Iterator

from .sweep import _in_pieces


def forked_map(unit: Callable, primes: list[int], jobs: int, write: Callable) -> Iterator:
    """unit(p, w), which returns marshal data, for each of `primes` in order,
    on this process and jobs - 1 forked workers; the bytes each unit hands
    to its `w` go to `write` here.

    Prime i is checked here when i % jobs == 0, by _in_pieces as at --jobs 1,
    and otherwise by worker i % jobs, which runs unit on its primes in order
    and sends down its own pipe, as marshal data, each prime's pieces (by
    _in_pieces), then the unit's result as it is, in a 1-tuple.  Reading prime i
    from worker i % jobs keeps the order; each piece is handed to `write` as
    it is read, and the result is yielded.  A full pipe blocks its worker, so
    a slow reader holds the workers back instead of piling finished primes up
    in this process.  A worker's exception is re-raised here; a worker that
    dies without one is reported with its wait status.  On every way out, the
    workers are killed and reaped.
    """
    pids: list[int] = []
    pipes: list[io.BufferedReader] = []
    own = _in_pieces(unit, primes[::jobs], write)
    try:
        for w in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            # Ctrl-C waits until the child is inside _work's try and the
            # parent has the pid to reap
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
            try:
                pid = os.fork()
                if pid == 0:
                    _work(write_fd, pipes, mask, primes[w::jobs], unit)
                pids.append(pid)
            finally:
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i, p in enumerate(primes):
            w = i % jobs
            if w == 0:
                yield next(own)
                continue
            while True:
                try:
                    message = marshal.load(pipes[w - 1])
                except (EOFError, ValueError):
                    pid = pids.pop(w - 1)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    how = f"exit code {code}" if code >= 0 else signal.Signals(-code).name
                    raise RuntimeError(f"worker {w} (pid {pid}) ended before p = {p}: {how}") from None
                if type(message) is not bytes:
                    break
                write(message)
            if type(message) is list:  # [the pickled exception]
                import pickle

                raise pickle.loads(message[0])
            yield message[0]
    finally:
        own.close()
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)


def _work(
    write_fd: int, pipes: list[io.BufferedReader], mask: set, primes: list[int], unit: Callable,
) -> None:
    """A forked worker: for each of `primes`, send down `write_fd` as marshal
    data the bytes that unit(p, w) hands to `w`, in pieces (by _in_pieces),
    then (its result,); or [the pickled exception] that stopped it, or, if
    that exception does not come back from pickle as itself, a pickled
    RuntimeError naming its type and message.  Leave through os._exit, so
    that nothing of the parent's stack (its report sink, its unflushed
    stdout) runs or is flushed here.  `pipes` are the parent's read ends,
    closed here so that a worker whose parent is gone fails its next write;
    `mask` is the signal mask to restore."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pipe in pipes:
            pipe.close()
        with open(write_fd, "wb") as out:
            try:
                for result in _in_pieces(unit, primes, lambda piece: marshal.dump(piece, out)):
                    marshal.dump((result,), out)
                    out.flush()
            except BaseException as exc:
                import pickle

                try:
                    message = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
                    pickle.loads(message)
                except Exception:
                    error = RuntimeError(f"{type(exc).__qualname__}: {exc}")
                    message = pickle.dumps(error, pickle.HIGHEST_PROTOCOL)
                marshal.dump([message], out)
        code = 0
    finally:
        os._exit(code)
