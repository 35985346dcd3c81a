"""The report checker accepts real reports and rejects corrupted ones.

Run with `python3 -m pytest bench/tests` from the repository root.  The
reports come from the real CLI (`python -m trinocheck` with `src` on
PYTHONPATH) over a small prime range.  Each corruption below rebuilds the
summary trailer from the corrupted records, unless the trailer is what is
corrupted, so that the check under test is the one that must catch it.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
from check import Spec

ROOT = Path(__file__).resolve().parents[2]
ALL = tuple(c.name for c in check.CATALOG)
ROWS = ("Thm1_Eq2", "Thm1_Eq4", "Prop3_Eq9", "Prop3_Eq10", "Cor4_Eq11")
SEED = 7


def cli_report(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "trinocheck", *args],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def jsonl():
    spec = Spec(5, 61, 3, ALL, "jsonl", False)
    return spec, cli_report("--pmax", "61", "--nmax", "3")


@pytest.fixture(scope="module")
def csv_report():
    spec = Spec(5, 61, 3, ALL, "csv", False)
    return spec, cli_report("--pmax", "61", "--nmax", "3", "--format", "csv")


def records_of(payload: bytes) -> list[dict]:
    return [json.loads(line) for line in payload.decode().splitlines()[:-1]]


def jsonl_of(objs: list[dict]) -> bytes:
    """Re-serialize records with a trailer recounted from them."""
    recs = [check._parse_json_record(json.dumps(o)) for o in objs]
    trailer = check._expected_trailer(recs, "jsonl")
    lines = [json.dumps(o, separators=(",", ":")) for o in objs]
    lines.append(json.dumps(trailer, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


def failed(payload: bytes, spec: Spec) -> int:
    return check.check_report(payload, spec, SEED).failed


def test_real_reports_pass(jsonl, csv_report):
    for spec, payload in (jsonl, csv_report):
        verdict = check.check_report(payload, spec, SEED)
        assert verdict.failed == 0, verdict.problems
        assert verdict.attempted == verdict.records == len(check.expected_keys(spec))
        assert verdict.any_record_fails  # Carlitz is false for 7 <= p <= 61


def test_summary_only_report_passes():
    spec = Spec(5, 61, 5, ROWS, "csv", True)
    payload = cli_report("--pmax", "61", "--nmax", "5", "--claims", ",".join(ROWS),
                         "--format", "csv", "--summary-only", "--jobs", "2")
    verdict = check.check_report(payload, spec, SEED)
    assert verdict.failed == 0, verdict.problems
    assert not verdict.any_record_fails


def test_recount_helper_reproduces_the_report(jsonl):
    spec, payload = jsonl
    assert jsonl_of(records_of(payload)) == payload


def test_rejects_changed_lhs(jsonl):
    spec, payload = jsonl
    objs = records_of(payload)
    target = next(o for o in objs if o["claim"] == "Cor4_Eq11")
    target["lhs"] = str((int(target["lhs"]) + 1) % target["modulus"])
    assert failed(jsonl_of(objs), spec) == 1


def test_rejects_consistent_wrong_sides_through_recomputation(jsonl):
    spec, payload = jsonl
    objs = records_of(payload)
    parsed = [check._parse_json_record(json.dumps(o)) for o in objs]
    sampled = {r.key for r in check.sample_records(parsed, SEED, 2)}
    index = next(i for i, r in enumerate(parsed)
                 if r.key in sampled and r.claim == "Thm1_Eq2")
    wrong = str((int(objs[index]["lhs"]) + 1) % objs[index]["modulus"])
    objs[index]["lhs"] = objs[index]["rhs"] = wrong
    assert failed(jsonl_of(objs), spec) == 1


def test_rejects_dropped_record(jsonl):
    spec, payload = jsonl
    objs = records_of(payload)
    del objs[len(objs) // 2]
    assert failed(jsonl_of(objs), spec) == 1


def test_rejects_swapped_records(jsonl):
    spec, payload = jsonl
    objs = records_of(payload)
    i = len(objs) // 3
    objs[i], objs[i + 1] = objs[i + 1], objs[i]
    assert failed(jsonl_of(objs), spec) == 2


def test_rejects_wrong_summary_trailer(jsonl, csv_report):
    spec, payload = jsonl
    lines = payload.decode().splitlines()
    trailer = json.loads(lines[-1])
    trailer["summary"]["passed"] += 1
    lines[-1] = json.dumps(trailer, separators=(",", ":"))
    assert failed(("\n".join(lines) + "\n").encode(), spec) == len(check.expected_keys(spec))

    spec, payload = csv_report
    rows = list(csv.reader(io.StringIO(payload.decode())))
    rows[-1][6] = str(int(rows[-1][6]) - 1)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    assert failed(out.getvalue().encode(), spec) == len(check.expected_keys(spec))


def test_rejects_flipped_carlitz_verdict(jsonl):
    spec, payload = jsonl
    objs = records_of(payload)
    target = next(o for o in objs if o["claim"] == "Carlitz" and not o["pass"])
    target["rhs"], target["pass"] = target["lhs"], True
    assert failed(jsonl_of(objs), spec) == 1


def test_rejects_failing_theorem_instance(jsonl):
    spec, payload = jsonl
    objs = records_of(payload)
    target = next(o for o in objs if o["claim"] == "Morley")
    target["rhs"] = str((int(target["rhs"]) + 1) % target["modulus"])
    target["pass"] = False
    assert failed(jsonl_of(objs), spec) == 1


def test_rejects_truncated_report(jsonl):
    spec, payload = jsonl
    assert failed(payload[: len(payload) // 2], spec) == len(check.expected_keys(spec))


def test_carlitz_oracle_pass_set():
    passing = [p for p in check.primes_between(5, 1009) if check.carlitz_oracle(p)[3]]
    assert passing == [5, 557]


@pytest.mark.parametrize("claim", [c.name for c in check.CATALOG])
def test_recomputed_lhs_matches_real_records(jsonl, claim):
    spec, payload = jsonl
    for obj in records_of(payload):
        if obj["claim"] == claim:
            record = check._parse_json_record(json.dumps(obj))
            assert check.recompute_lhs(record) == record.lhs, obj
