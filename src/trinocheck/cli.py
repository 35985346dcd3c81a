"""Batch CLI: sweep primes, run claim checkers, write a deterministic report.

Exit codes: 0 all checks passed, 1 at least one failed, 2 usage or
internal error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
import tempfile
from contextlib import closing, nullcontext
from typing import BinaryIO

from .congruences import ClaimId
from .sweep import (
    FORMATS,
    ConfigError,
    SweepConfig,
    iter_sweep,
    parse_claims,
    write_report,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trinocheck",
        description=(
            "Verify trinomial-coefficient and harmonic-sum congruences over a "
            "range of primes, reporting every instance and any counterexample."
        ),
    )
    parser.add_argument("--pmin", type=int, default=SweepConfig.pmin, help="smallest prime to check (>= 5)")
    parser.add_argument("--pmax", type=int, default=SweepConfig.pmax, help="largest prime to check")
    parser.add_argument("--nmax", type=int, default=SweepConfig.nmax, help="check n = 1..nmax for n-parametrized claims")
    parser.add_argument(
        "--claims",
        default=None,
        metavar="LIST",
        help="comma-separated claim names (default: all; see README for the catalog)",
    )
    parser.add_argument("--format", choices=FORMATS, default="jsonl", dest="fmt")
    parser.add_argument("--out", default=None, metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--jobs", type=int, default=SweepConfig.jobs, metavar="N", help="worker processes, one prime per task")
    parser.add_argument("--fail-fast", action="store_true", help="stop after the first failing instance (one report line)")
    parser.add_argument(
        "--summary-only",
        action="store_true",
        help="report a claim over k as one aggregate per (claim, p, n)",
    )
    return parser


def _temp_beside(path: str) -> tuple[str, BinaryIO]:
    """(name, binary file) of a new temporary file in `path`'s directory, to
    be renamed onto `path` once the report is complete, so an interrupted
    run never replaces a previous report."""
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    return tmp, os.fdopen(fd, "wb")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        claims = tuple(ClaimId) if args.claims is None else parse_claims(args.claims)
        config = SweepConfig(
            pmin=args.pmin,
            pmax=args.pmax,
            nmax=args.nmax,
            claims=claims,
            jobs=args.jobs,
            fail_fast=args.fail_fast,
            summary_only=args.summary_only,
        )
    except ConfigError as exc:
        print(f"trinocheck: error: {exc}", file=sys.stderr)
        return 2

    tmp = None
    try:
        # created before the sweep, so a bad path costs no work
        if args.out is None:
            if sys.stdout is None:  # started with stdout closed
                raise OSError(errno.EBADF, "stdout is closed")
            sink = nullcontext(sys.stdout.buffer)
        else:
            tmp, sink = _temp_beside(args.out)
        with sink as out, closing(iter_sweep(config)) as chunks:
            try:
                summary = write_report(chunks, args.fmt, out)
            except OSError:
                raise  # the report could not be written: reported below
            except Exception as exc:  # a checker bug or a dead worker pool
                print(
                    f"trinocheck: error: internal error: {type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                return 2
            out.flush()
        if tmp is not None:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)  # mkstemp's 0600 -> what open() gives
            os.replace(tmp, args.out)
            tmp = None
    except OSError as exc:
        print(f"trinocheck: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if tmp is not None:
            os.unlink(tmp)
    return 0 if summary.failed == 0 else 1


def entry() -> None:  # console-script shim
    sys.exit(main())
