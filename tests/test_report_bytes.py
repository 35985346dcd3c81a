"""The report contract at the byte level: every pinned report digest.

Any change to record values, record order, rendering or the summary trailer
moves a digest.  A refactor that is meant to keep the reports must leave all
of them as they are; a change to the report format must update them on
purpose, here and nowhere else.  Each report is written by the CLI itself, so
the digests pin what users get: every row of REPORTS is written in process
through `--out`, once at each worker count the row lists, and the default
JSONL report is also written to stdout by a `python -m trinocheck`
subprocess, at one and at two workers.
"""

import hashlib
import os
import re
import subprocess
import sys

import pytest

from trinocheck.cli import main
from trinocheck.congruences import ClaimId

PMAX_97 = ["--pmax", "97"]

#: The five claims that read trinomial rows.
ROW_CLAIMS = "Thm1_Eq2,Thm1_Eq4,Prop3_Eq9,Prop3_Eq10,Cor4_Eq11"

#: The 24 claims other than the five row claims: the lemma_report
#: benchmark workload's claim set (TripleSum_a reads the counted row p - 1).
LEMMA_CLAIMS = ",".join(
    ["Thm2_Eq6", "Thm2_Eq7", "TripleSum_a", "Babbage", "Wolstenholme", "Glaisher", "Morley",
     "Carlitz", "HalfRowBinom", "GL0", "GL", "GL2", "Cong0", "Cong1", "C1b", "C1c", "C2b",
     "C2c", "C3", "C3b", "H0", "H1", "H2", "H3"])

CLASSICAL_CLAIMS = "Babbage,Wolstenholme,Glaisher,Morley,Carlitz"

#: The worker counts of the p <= 97 reports: their 23 primes give this
#: process a share, deal unevenly and need one to three forked workers.
JOBS_97 = (1, 2, 3, 4)

#: (id, CLI flags, sha256 of the report, exit code, worker counts).  Without
#: flags the sweep is all 29 claims, n = 1..8 and p <= 1009, and its failures
#: are Carlitz's (every p except 5 and 557).
REPORTS = [
    # p <= 97: the 22 failures are the Carlitz records for 7 <= p <= 97
    ("all-claims-jsonl", PMAX_97,
     "27e7099401a9e9788fd221cc1a89e4db4ea5e7055715d425aaeeed03481e95c0", 1, JOBS_97),
    ("summary-only-csv", [*PMAX_97, "--summary-only", "--format", "csv"],
     "90d1998177c184c452a77e3c662fd06954b4ebdfe142d162a7309e24d8e02a91", 1, JOBS_97),
    ("fail-fast-jsonl", [*PMAX_97, "--fail-fast"],
     "31a58abcac42c9ff21c095eaab003a1024fa4f04fad3cdf57394740768af33e3", 1, JOBS_97),
    ("all-claims-csv", [*PMAX_97, "--format", "csv"],
     "acf1e8527daf65c5ec2ea980f46f3a2d021da54166b18fddb97b5d2e219f9545", 1, JOBS_97),
    # the full reports; the default JSONL is up to 94 MB
    ("default-jsonl", [],
     "1702e7c93febe642aae1ce780cd55e154aabe66ebb961ed02d7d3c36580e0fa7", 1, (1, 2)),
    ("default-csv", ["--format", "csv"],
     "12d4c840b55b820ad17bf6b70a46c26e8a5825c651141cf30c287fd9655175e6", 1, (1, 2)),
    ("summary-only-csv", ["--summary-only", "--format", "csv"],
     "eb9d18fd5a771ef72bfc878415c0b4b88d4d4c5e5bfc09325807f7acbb15480f", 1, (1, 2)),
    ("lemma-csv", ["--claims", LEMMA_CLAIMS, "--format", "csv"],
     "237b7018dd9187f24e80f6777e46af38982f4b608da755a628a7bb752f2ca213", 1, (1, 2)),
    # the row claims: the row_engine benchmark's report, and the full CSV to
    # nmax 64, where n*p - 1 wraps mod p^2; three workers deal the primes
    # unevenly
    ("rows-summary-only-csv", ["--claims", ROW_CLAIMS, "--pmax", "600", "--nmax", "16",
                               "--summary-only", "--format", "csv"],
     "cdf3c768b9cccf4a2e6c9a6ed668d2755bad0c12e8ac72cfafcad08d54ad3639", 0, (1, 2, 3)),
    ("rows-csv-nmax64", ["--claims", ROW_CLAIMS, "--pmax", "300", "--nmax", "64",
                         "--format", "csv"],
     "83fd39e88754c6e0e8a624669ba614d6a9a5dfb514ac3d48bab35fa75d0464cf", 0, (1, 2, 3)),
    # per-n checkers that loop over n themselves, where n*p passes p^2, and
    # Glaisher's counted binomial at nmax
    ("triple-glaisher-nmax64", ["--claims", "TripleSum_a,Glaisher", "--pmax", "300",
                                "--nmax", "64"],
     "d031116d5d5688cfbbfd3ef854055b103d692190572eec449d1086e17ba631f2", 0, (1, 2)),
    ("triple-glaisher-summary-only-csv", ["--claims", "TripleSum_a,Glaisher", "--pmax", "1009",
                                          "--nmax", "64", "--summary-only", "--format", "csv"],
     "77ebc3bbfc330dc21131c4a9337bf2724cb542101bf57507a7ddb863a1ae79f5", 0, (1, 2)),
    # the five classical claims, without (nmax 2) and with (nmax 3 and 64)
    # the counted Glaisher binomial
    ("classical-csv-nmax2", ["--claims", CLASSICAL_CLAIMS, "--format", "csv", "--nmax", "2"],
     "bb1c7f13d963e468bfcd2f78eb91bec219c540ffbf6964b036f61e92257a63b7", 1, (1, 2)),
    ("classical-csv-nmax3", ["--claims", CLASSICAL_CLAIMS, "--format", "csv", "--nmax", "3"],
     "446f2b298693fd8e8620f175cbc2ca9d3bfd78f8e6c99ec9ca4945ddba13ff24", 1, (1, 2)),
    ("classical-csv-nmax64", ["--claims", CLASSICAL_CLAIMS, "--format", "csv", "--nmax", "64"],
     "c59c09cae8ffdc81826bb599dfc020a3455bf607d44cae562fb80c2795ac6a92", 1, (1, 2)),
    # the cut stream and the first-failure trailer, in both formats
    ("fail-fast-jsonl", ["--pmax", "200", "--fail-fast"],
     "31a58abcac42c9ff21c095eaab003a1024fa4f04fad3cdf57394740768af33e3", 1, (1, 2)),
    ("fail-fast-csv", ["--pmax", "200", "--fail-fast", "--format", "csv"],
     "8c9631b91a980988b57ba4dd20e46b75e96cc60bd96ad40a3573c78aeddd145a", 1, (1, 2)),
    # a range horizon above p = 2003, through the forked workers' rendered
    # bytes and tallies
    ("summary-only-csv-pmax5000", ["--pmax", "5000", "--summary-only", "--format", "csv"],
     "b1b158b00b5586cd49de94b63c152ba57b09c9eb4b0c8e01a9b6dfce8da44b07", 1, (2,)),
]


def _runs(pmax_97):
    """A pytest param per row of REPORTS and worker count, for the rows that
    sweep p <= 97 or for the others."""
    return [
        pytest.param(flags, digest, rc, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
        for name, flags, digest, rc, workers in REPORTS
        if (flags[:2] == PMAX_97) == pmax_97
        for jobs in workers
    ]


def _sha256(path) -> str:
    """The digest of the file at `path`, read in chunks; the file is deleted."""
    sha = hashlib.sha256()
    with path.open("rb") as f:
        while chunk := f.read(1 << 20):
            sha.update(chunk)
    path.unlink()
    return sha.hexdigest()


def _check_report(tmp_path, flags, digest, rc, jobs):
    out = tmp_path / "report"
    assert main([*flags, "--jobs", str(jobs), "--out", str(out)]) == rc
    assert _sha256(out) == digest


ARGS = "flags, digest, rc, jobs"


@pytest.mark.parametrize(ARGS, _runs(pmax_97=True))
def test_pmax_97_report_bytes(tmp_path, flags, digest, rc, jobs):
    _check_report(tmp_path, flags, digest, rc, jobs)


@pytest.mark.parametrize(ARGS, _runs(pmax_97=False))
def test_full_report_bytes(tmp_path, flags, digest, rc, jobs):
    _check_report(tmp_path, flags, digest, rc, jobs)


def _check_stdout(tmp_path, report, jobs, env=None):
    """Write the REPORTS row `report` to the stdout of a `python -m
    trinocheck` subprocess at `jobs` workers, check its digest and exit
    code, and return what it wrote to stderr."""
    [(flags, digest, rc)] = [(f, d, c) for name, f, d, c, _ in REPORTS if name == report]
    out = tmp_path / "stdout"
    with out.open("wb") as stdout:
        proc = subprocess.run([sys.executable, "-m", "trinocheck", *flags, "--jobs", str(jobs)],
                              stdout=stdout, stderr=subprocess.PIPE, env=env)
    assert proc.returncode == rc
    assert _sha256(out) == digest
    return proc.stderr


@pytest.mark.parametrize("jobs", [1, 2])
def test_default_report_bytes_to_stdout(tmp_path, jobs):
    assert _check_stdout(tmp_path, "default-jsonl", jobs) == b""


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_no_warning_at_exit(tmp_path, jobs):
    # a pipe or file left open, here or in a forked worker, warns when it is
    # freed; with warnings as errors that lands on stderr, also in a process
    # that froze its startup heap
    env = {**os.environ, "PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}
    assert _check_stdout(tmp_path, "all-claims-jsonl", jobs, env) == b""


def test_claim_names_need_no_escaping():
    # records are formatted without JSON escaping or CSV quoting; that is
    # exact only while every string field is a plain word
    for claim in ClaimId:
        assert re.fullmatch(r"[A-Za-z0-9_]+", claim.value), claim
