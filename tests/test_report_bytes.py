"""The report contract at the byte level: pinned digests of small sweeps.

Any change to record values, record order, rendering or the summary trailer
moves a digest.  A refactor that is meant to keep the reports must leave all
four as they are; a change to the report format must update them on purpose.
"""

import hashlib
import re

import pytest

from trinocheck.claims import ClaimId
from trinocheck.sweep import SweepConfig, render, run_sweep


@pytest.mark.parametrize(
    "options, fmt, digest, failed",
    [
        ({}, "jsonl",
         "27e7099401a9e9788fd221cc1a89e4db4ea5e7055715d425aaeeed03481e95c0", 22),
        ({"summary_only": True}, "csv",
         "90d1998177c184c452a77e3c662fd06954b4ebdfe142d162a7309e24d8e02a91", 22),
        ({"fail_fast": True}, "jsonl",
         "31a58abcac42c9ff21c095eaab003a1024fa4f04fad3cdf57394740768af33e3", 1),
        ({}, "csv",
         "acf1e8527daf65c5ec2ea980f46f3a2d021da54166b18fddb97b5d2e219f9545", 22),
    ],
    ids=["all-claims-jsonl", "summary-only-csv", "fail-fast-jsonl", "all-claims-csv"],
)
def test_pmax_97_report_bytes(options, fmt, digest, failed):
    # all 29 claims, n = 1..8; the 22 failures are the Carlitz records for
    # 7 <= p <= 97
    report = run_sweep(SweepConfig(pmax=97, **options))
    assert hashlib.sha256(render(report, fmt)).hexdigest() == digest
    assert report.summary.failed == failed


def test_claim_names_need_no_escaping():
    # records are formatted without JSON escaping or CSV quoting; that is
    # exact only while every string field is a plain word
    for claim in ClaimId:
        assert re.fullmatch(r"[A-Za-z0-9_]+", claim.value), claim
