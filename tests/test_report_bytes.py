"""The report contract at the byte level: pinned digests of small sweeps.

Any change to record values, record order, rendering or the summary trailer
moves a digest.  A refactor that is meant to keep the reports must leave all
of them as they are; a change to the report format must update them on
purpose.  Each report is written by the CLI itself, so the digests pin what
users get: the pmax = 97 reports once in process and once through the worker
pool, the full reports in process.
"""

import hashlib
import json
import re

import pytest

from trinocheck.cli import main
from trinocheck.congruences import ClaimId

#: (id, extra CLI flags, format, sha256 of the report, failed records); all
#: 29 claims, n = 1..8, p <= 97; the 22 failures are the Carlitz records for
#: 7 <= p <= 97
REPORTS = [
    ("all-claims-jsonl", [], "jsonl",
     "27e7099401a9e9788fd221cc1a89e4db4ea5e7055715d425aaeeed03481e95c0", 22),
    ("summary-only-csv", ["--summary-only"], "csv",
     "90d1998177c184c452a77e3c662fd06954b4ebdfe142d162a7309e24d8e02a91", 22),
    ("fail-fast-jsonl", ["--fail-fast"], "jsonl",
     "31a58abcac42c9ff21c095eaab003a1024fa4f04fad3cdf57394740768af33e3", 1),
    ("all-claims-csv", [], "csv",
     "acf1e8527daf65c5ec2ea980f46f3a2d021da54166b18fddb97b5d2e219f9545", 22),
]


def _failed(trailer: str, fmt: str) -> int:
    if fmt == "jsonl":
        return json.loads(trailer)["summary"]["failed"]
    passed, records = trailer.split(",")[5:7]  # summary,,,,,passed,records,ok
    return int(records) - int(passed)


@pytest.mark.parametrize(
    "flags, fmt, digest, failed, jobs",
    [
        pytest.param(flags, fmt, digest, failed, jobs,
                     id=name if jobs == 1 else f"{name}-jobs{jobs}")
        for name, flags, fmt, digest, failed in REPORTS
        for jobs in (1, 2)
    ],
)
def test_pmax_97_report_bytes(tmp_path, flags, fmt, digest, failed, jobs):
    out = tmp_path / f"report.{fmt}"
    rc = main(["--pmax", "97", "--format", fmt, "--jobs", str(jobs), *flags,
               "--out", str(out)])
    payload = out.read_bytes()
    assert hashlib.sha256(payload).hexdigest() == digest
    assert _failed(payload.decode().splitlines()[-1], fmt) == failed
    assert rc == 1


#: The 24 claims that read no trinomial row.
LEMMA_CLAIMS = ",".join(
    ["Thm2_Eq6", "Thm2_Eq7", "TripleSum_a", "Babbage", "Wolstenholme", "Glaisher", "Morley",
     "Carlitz", "HalfRowBinom", "GL0", "GL", "GL2", "Cong0", "Cong1", "C1b", "C1c", "C2b",
     "C2c", "C3", "C3b", "H0", "H1", "H2", "H3"])

CLASSICAL_CLAIMS = "Babbage,Wolstenholme,Glaisher,Morley,Carlitz"

#: (id, CLI flags, sha256 of the report, exit code): full reports that take
#: under a second each at one worker, the same digests CI pins at one and
#: two workers
FULL_REPORTS = [
    ("default-jsonl", [],
     "1702e7c93febe642aae1ce780cd55e154aabe66ebb961ed02d7d3c36580e0fa7", 1),
    ("default-csv", ["--format", "csv"],
     "12d4c840b55b820ad17bf6b70a46c26e8a5825c651141cf30c287fd9655175e6", 1),
    ("summary-only-csv", ["--summary-only", "--format", "csv"],
     "eb9d18fd5a771ef72bfc878415c0b4b88d4d4c5e5bfc09325807f7acbb15480f", 1),
    ("lemma-csv", ["--claims", LEMMA_CLAIMS, "--format", "csv"],
     "237b7018dd9187f24e80f6777e46af38982f4b608da755a628a7bb752f2ca213", 1),
    ("triple-glaisher-nmax64", ["--claims", "TripleSum_a,Glaisher", "--pmax", "300",
                                "--nmax", "64"],
     "d031116d5d5688cfbbfd3ef854055b103d692190572eec449d1086e17ba631f2", 0),
    # the five classical claims, without (nmax 2) and with (nmax 3) the
    # counted Glaisher binomial
    ("classical-csv-nmax2", ["--claims", CLASSICAL_CLAIMS, "--format", "csv", "--nmax", "2"],
     "bb1c7f13d963e468bfcd2f78eb91bec219c540ffbf6964b036f61e92257a63b7", 1),
    ("classical-csv-nmax3", ["--claims", CLASSICAL_CLAIMS, "--format", "csv", "--nmax", "3"],
     "446f2b298693fd8e8620f175cbc2ca9d3bfd78f8e6c99ec9ca4945ddba13ff24", 1),
]


@pytest.mark.parametrize(
    "flags, digest, rc",
    [pytest.param(flags, digest, rc, id=name) for name, flags, digest, rc in FULL_REPORTS],
)
def test_full_report_bytes(tmp_path, flags, digest, rc):
    out = tmp_path / "report"
    assert main([*flags, "--jobs", "1", "--out", str(out)]) == rc
    sha = hashlib.sha256()
    with out.open("rb") as f:
        while chunk := f.read(1 << 20):
            sha.update(chunk)
    out.unlink()  # up to 94 MB
    assert sha.hexdigest() == digest


def test_claim_names_need_no_escaping():
    # records are formatted without JSON escaping or CSV quoting; that is
    # exact only while every string field is a plain word
    for claim in ClaimId:
        assert re.fullmatch(r"[A-Za-z0-9_]+", claim.value), claim
