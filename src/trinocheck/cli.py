"""Batch CLI: sweep primes, run claim checkers, write a deterministic report.

Exit codes: 0 all checks passed, 1 at least one failed, 2 usage, I/O or
internal error.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import sys
from collections.abc import Iterator
from contextlib import contextmanager

from .sweep import FORMATS, ConfigError, SweepConfig, sweep_report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trinocheck",
        description=(
            "Verify trinomial-coefficient and harmonic-sum congruences over a "
            "range of primes, reporting every instance and any counterexample."
        ),
        argument_default=argparse.SUPPRESS,  # an absent flag is unset: SweepConfig has the defaults
    )
    parser.add_argument("--pmin", type=int, help="smallest prime to check (>= 5)")
    parser.add_argument("--pmax", type=int, help="largest prime to check")
    parser.add_argument("--nmax", type=int, help="check n = 1..nmax for n-parametrized claims")
    parser.add_argument(
        "--claims",
        type=lambda text: [name for name in map(str.strip, text.split(",")) if name],
        metavar="LIST",
        help="comma-separated claim names (default: all; see README for the catalog)",
    )
    parser.add_argument("--format", choices=FORMATS, default="jsonl", dest="fmt")
    parser.add_argument("--out", default=None, metavar="PATH", help="output file (default: stdout)")
    parser.add_argument(
        "--jobs", type=int, metavar="N",
        help="processes that check primes: this one and N - 1 forked workers; prime i goes to process i mod N",
    )
    parser.add_argument("--fail-fast", action="store_true", help="stop after the first failing instance (one report line)")
    parser.add_argument(
        "--summary-only",
        action="store_true",
        help="report a claim over k as one aggregate per (claim, p, n)",
    )
    return parser


@contextmanager
def _report_sink(path: str | None) -> Iterator[io.BufferedIOBase]:
    """The binary file the report goes to: stdout, or a new temporary file in
    the directory of the file `path` names (through any symlinks) that is
    renamed onto that file once the report is complete, and removed on any
    exception (Ctrl-C too), so an interrupted run never replaces a previous
    report.  An existing FIFO or device is written in place instead.
    Opened before the sweep starts, so a bad destination costs no work."""
    if path is None:
        if sys.stdout is None:  # started with stdout closed
            raise OSError(errno.EBADF, "stdout is closed")
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(path) and not os.path.isfile(path):  # a FIFO or device, through any links
        with open(path, "wb") as out:
            yield out
        return
    target = os.path.realpath(path)  # rename onto the file a symlink names, not onto the link
    import tempfile  # here, not at the top: a run to stdout starts without it

    directory, name = os.path.split(target)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    except OSError as exc:  # named after the temporary file, which the user never gave
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as out:
            yield out
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600 -> what open() gives
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = SweepConfig(**{k: v for k, v in vars(args).items() if k in SweepConfig._fields})
        with _report_sink(args.out) as out:
            summary = sweep_report(config, args.fmt, out)
    except (ConfigError, OSError) as exc:  # bad input, or the report could not be written
        print(f"trinocheck: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a checker bug or a dead worker
        print(f"trinocheck: error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0 if summary.failed == 0 else 1


def entry() -> None:
    """The console script, which `python -m trinocheck` runs too.

    What is alive before main starts lives until the process ends, so it is
    frozen first: the collections at exit, on every way out (--help and
    usage errors too), and in forked workers skip it.  main itself leaves
    the caller's collector alone."""
    gc.freeze()
    sys.exit(main())
