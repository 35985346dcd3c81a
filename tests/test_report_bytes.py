"""The report contract at the byte level: pinned digests of small sweeps.

Any change to record values, record order, rendering or the summary trailer
moves a digest.  A refactor that is meant to keep the reports must leave all
four as they are; a change to the report format must update them on purpose.
Each report is written by the CLI itself, once in process and once through
the worker pool, so the digests pin what users get.
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


def test_claim_names_need_no_escaping():
    # records are formatted without JSON escaping or CSV quoting; that is
    # exact only while every string field is a plain word
    for claim in ClaimId:
        assert re.fullmatch(r"[A-Za-z0-9_]+", claim.value), claim
