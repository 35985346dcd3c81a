import copy
import io
import json
import os
import pickle
import signal
import stat
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import cache
from itertools import accumulate, count, groupby, repeat
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import Instance, checker_of, expand, replace_checker
from trinocheck import cli, congruences, modular, sweep, trinomial
from trinocheck.cli import main
from trinocheck.congruences import (
    CHECKERS,
    CLAIM_ORDER,
    CheckResult,
    ClaimId,
    check_half_third_sixth,
    check_reflections,
    result,
)
from trinocheck.harmonic import ap_harmonic, harmonic_table, inverse_table
from trinocheck.modular import PrimeContext, fermat_quotient, inv_mod
from trinocheck.trinomial import central4_table, row_mod_p2_prefix, row_mod_prefix
from trinocheck.sweep import (
    MAX_JOBS,
    ConfigError,
    SweepConfig,
    sweep_report,
)


def _cfg(**kwargs):
    defaults = dict(pmin=5, pmax=7, nmax=1, claims=(ClaimId.THM1_EQ2,))
    defaults.update(kwargs)
    return SweepConfig(**defaults)


def _checked(config):
    """Each prime's records, checked in this process by sweep._check_prime
    whatever config.jobs is, up to the prime where --fail-fast stops."""
    chunks = []
    for p in modular.sieve_primes(config.pmin, config.pmax):
        chunks.append(sweep._check_prime(p, config))
        if config.fail_fast and any(r.lhs != r.rhs for r in chunks[-1]):
            break
    return chunks


def _records(config):
    """Every record of the sweep, in report order."""
    return [r for chunk in _checked(config) for r in chunk]


def _instances(config):
    """Every instance of the sweep, one per report line."""
    return expand(_records(config))


def _collapsed(instances):
    """What --summary-only should report for these instances of a full
    sweep: each run of one (claim, p, n) over k becomes one aggregate of
    passed-count vs instance-count."""
    out = []
    runs = groupby(instances, key=lambda i: (i.claim, i.p, i.n, i.k is not None))
    for (claim, p, n, per_k), run in runs:
        run = list(run)
        if per_k:
            passed = sum(i.passed for i in run)
            out.append(Instance(claim, p, n, None, run[0].modulus, passed, len(run)))
        else:
            out.extend(run)
    return out


def _report(config, fmt="jsonl"):
    """The report bytes, written as the CLI writes them: by sweep_report,
    which tallies and renders each prime where it is checked."""
    out = io.BytesIO()
    sweep_report(config, fmt, out)
    return out.getvalue()


def _summary(config):
    return sweep_report(config, "jsonl", io.BytesIO())


def _falsified(monkeypatch, claim):
    """Replace the checker that emits `claim` with one whose records, all of
    `claim` (one per n when it takes nmax), fail."""

    def run(ctx, nmax=None):
        ns = [None] if nmax is None else range(1, nmax + 1)
        return [result(claim, ctx.p, ctx.p2, [0], [1], n=n) for n in ns]

    replace_checker(monkeypatch, checker_of(claim)[0], run)


def _failing_at_k3(monkeypatch, claim):
    """Replace the checker that emits `claim` with itself, but with the
    instance k = 3 of `claim` broken."""
    checker, _ = checker_of(claim)

    def run(*args):
        out = []
        for r in checker(*args):
            if r.claim is claim:
                rhs = list(r.rhs)
                rhs[3 - r.k] = (rhs[3 - r.k] + 1) % r.modulus
                r = CheckResult(r.claim, r.p, r.n, r.k, r.modulus, r.lhs, rhs)
            out.append(r)
        return out

    replace_checker(monkeypatch, checker, run)


#: One bad field each, every one a ConfigError.
BAD_FIELDS = [
    dict(pmin=6, pmax=5),
    dict(pmin=2),
    dict(pmax=10**9),
    dict(nmax=0),
    dict(nmax=1000),
    dict(claims=()),
    dict(claims=("NoSuch",)),
    dict(jobs=0),
    dict(jobs=MAX_JOBS + 1),
    dict(jobs=1000000),
    dict(nmax=2.0),
    dict(jobs=2.0),
    dict(pmin=7.5),
    dict(pmax=30.0),
    dict(claims=["NoSuch"]),
    dict(claims="GL0"),  # a string would iterate to its letters
    dict(claims=[None]),
    dict(claims=None),
    dict(fail_fast=0.0),
    dict(fail_fast=1),
    dict(summary_only="no"),
    dict(nmax=True),
    dict(jobs=True),
    dict(claims=ClaimId.GL0),  # a member is a str, so also one name
]


#: What importing trinocheck.cli must not load.
UNUSED_AT_IMPORT = ("numpy", "dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "tempfile")


def _bare_python(code, *args):
    """What `python -S -c code *args` prints to stderr, with the package
    importable and stdout discarded.  -S: no site hook imports anything
    first, as none does for a user's interpreter."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.stderr


class TestSweepConfig:
    def test_rejects_inverted_range(self):
        with pytest.raises(ConfigError):
            _cfg(pmin=6, pmax=5)

    def test_rejects_pmin_below_5(self):
        with pytest.raises(ConfigError):
            _cfg(pmin=2, pmax=7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nmax=0),
            dict(nmax=1000),
            dict(claims=()),
            dict(jobs=0),
            dict(jobs=MAX_JOBS + 1),
            dict(claims=("NoSuch",)),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            _cfg(**kwargs)

    @pytest.mark.parametrize("kwargs", BAD_FIELDS)
    @pytest.mark.parametrize("build", [
        "constructor", "positional", "_make", "_replace",
        *(["copy.replace"] if hasattr(copy, "replace") else [])])  # 3.13 has copy.replace
    def test_every_way_to_build_one_validates(self, kwargs, build):
        # built only, never swept, so nothing is forked; unpickling and
        # copy.copy call __new__ with the fields, as "positional" does
        good = SweepConfig()
        fields = {**good._asdict(), **kwargs}
        with pytest.raises(ConfigError):
            if build == "constructor":
                SweepConfig(**fields)
            elif build == "positional":
                SweepConfig(*fields.values())
            elif build == "_make":
                SweepConfig._make(fields.values())
            elif build == "_replace":
                good._replace(**kwargs)
            else:
                copy.replace(good, **kwargs)

    @pytest.mark.parametrize("claims", ["GL0", ClaimId.GL0], ids=["str", "member"])
    def test_rejects_a_bare_string_of_claims(self, claims):
        # a str (a ClaimId member is one) is a name, not a set of names
        message = f"claims must be an iterable of claim names, got {claims!r}"
        with pytest.raises(ConfigError) as raised:
            SweepConfig(claims=claims)
        assert str(raised.value) == message

    def test_immutable_value_equal_defaults(self):
        config = SweepConfig()
        assert config._asdict() == dict(pmin=5, pmax=1009, nmax=8, claims=tuple(ClaimId),
                                        jobs=1, fail_fast=False, summary_only=False)
        assert config == SweepConfig() and hash(config) == hash(SweepConfig())
        assert config._replace(nmax=2) == SweepConfig(nmax=2) != config
        assert copy.copy(config) == config
        with pytest.raises(AttributeError):
            config.jobs = 2
        with pytest.raises(AttributeError):
            config.extra = 1
        assert config.jobs == 1

    @pytest.mark.parametrize("claims", [
        [ClaimId.GL0, ClaimId.THM1_EQ2],
        (ClaimId.THM1_EQ2, ClaimId.GL0, ClaimId.THM1_EQ2),
        (ClaimId.GL0, ClaimId.THM1_EQ2),
        ("Thm1_Eq2", "GL0"),
        iter([ClaimId.GL0, "Thm1_Eq2", "GL0"]),
    ])
    def test_claims_are_the_catalog_order_tuple(self, claims):
        canonical = SweepConfig(claims=(ClaimId.THM1_EQ2, ClaimId.GL0))
        config = SweepConfig(claims=claims)
        assert config == canonical and hash(config) == hash(canonical)
        assert type(config.claims) is tuple
        assert config.claims == (ClaimId.THM1_EQ2, ClaimId.GL0)


class TestRunSweep:
    """What a sweep yields: each prime's records from _check_prime, the
    summary from sweep_report."""

    def test_two_primes_one_claim(self):
        records = _instances(_cfg())
        assert len(records) == 2
        assert all(r.passed for r in records)
        assert [r.p for r in records] == [5, 7]
        summary = _summary(_cfg())
        assert summary.records == 2
        assert summary.failed == 0
        assert summary.first_failure is None

    def test_all_claims_p5(self):
        records = _instances(SweepConfig(pmin=5, pmax=5, nmax=1))
        assert all(r.passed for r in records)
        cor4 = [r for r in records if r.claim is ClaimId.COR4_EQ11]
        assert [r.k for r in cor4] == [0, 1, 2, 3, 4]

    def test_record_order(self):
        # (p, n, claim, k) ascending, None first
        keys = [
            (r.p, -1 if r.n is None else r.n, CLAIM_ORDER[r.claim], -1 if r.k is None else r.k)
            for r in _instances(SweepConfig(pmin=5, pmax=11, nmax=2))
        ]
        assert keys == sorted(keys)

    def test_inapplicable_claim_emits_nothing(self):
        # C1b only applies to p == 1 mod 3; p = 5 contributes no record
        cfg = _cfg(pmin=5, pmax=5, claims=(ClaimId.C1B,))
        assert _records(cfg) == []
        assert _summary(cfg).records == 0

    def test_summary_per_claim_counts(self):
        summary = _summary(_cfg(pmax=11, claims=(ClaimId.THM1_EQ2, ClaimId.GL0)))
        per = {c.value: t for c, t in summary.per_claim.items()}
        assert per["Thm1_Eq2"].records == 3
        assert per["GL0"].records == 3
        assert summary.passed == 6

    def test_fail_fast_truncates_at_first_failure(self, monkeypatch):
        _falsified(monkeypatch, ClaimId.THM2_EQ6)
        cfg = _cfg(
            pmax=11,
            claims=(ClaimId.THM1_EQ2, ClaimId.THM2_EQ6),
            fail_fast=True,
        )
        records = _instances(cfg)
        # within p=5 the n-independent claim sorts first, so the stream is
        # exactly one failing record
        assert len(records) == 1
        assert not records[-1].passed
        assert expand([_summary(cfg).first_failure]) == records

    def test_parallel_matches_serial(self):
        cfg_serial = SweepConfig(pmin=5, pmax=31, nmax=2, jobs=1)
        cfg_parallel = SweepConfig(pmin=5, pmax=31, nmax=2, jobs=3)
        assert _report(cfg_serial) == _report(cfg_parallel)

    def test_byte_determinism_across_runs(self):
        cfg = SweepConfig(pmin=5, pmax=31, nmax=2)
        assert _report(cfg) == _report(cfg)
        assert _report(cfg, "csv") == _report(cfg, "csv")


def _counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def _count_calls(monkeypatch, calls, modules, fns):
    """Count each call of `fns` made through a reference `modules` hold."""
    for fn in fns:
        wrapped = _counting(calls, fn.__name__, fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapped)


@cache
def _all_claims_records():
    return _records(SweepConfig(pmin=5, pmax=61, nmax=2))


class TestSharedSpecs:
    """Claims checked by one function share its one CHECKERS entry, which runs
    once per prime (with nmax when per_n)."""

    def test_work_counts_one_prime(self, monkeypatch):
        calls = Counter()
        modules = [m for name, m in sys.modules.items() if name.startswith("trinocheck")]
        _count_calls(monkeypatch, calls, modules,
                     (ap_harmonic, fermat_quotient, inverse_table, row_mod_p2_prefix,
                      row_mod_prefix))
        checkers = list(CHECKERS)
        for run in checkers:
            replace_checker(monkeypatch, run, _counting(calls, run.__name__, run))

        for nmax in (8, 16):
            calls.clear()
            assert _records(SweepConfig(pmin=101, pmax=101, nmax=nmax))
            for grouped in ("check_progression_lemmas", "check_reflections",
                            "check_half_third_sixth", "check_classical"):
                assert calls[grouped] == 1, grouped
            assert calls["check_row_np_minus1"] == 1
            # each checker once in the table, and each runs once per prime
            # at any nmax: the 4 that take nmax loop over n themselves
            assert len(checkers) == 10
            assert sum(calls[run.__name__] for run in checkers) == 10
            # the progression sums are slices of the inverse table; the
            # general ap_harmonic is their test oracle only
            assert calls["ap_harmonic"] == 0
            assert calls["inverse_table"] == 1
            # q2 and q3, once each, when the prime's context is built
            assert calls["fermat_quotient"] == 2
            # two anchor rows at any nmax: exponent p**2 - 1 (n = 0, and the
            # Cor4 row n*p**2 - 1 at every n) and p - 1 (n = 1, also
            # TripleSum's row); every row n*p - 1 is affine in n between
            # them.  Schoolbook powering is a test oracle only
            assert calls["row_mod_p2_prefix"] == 2
            assert calls["row_mod_prefix"] == 0

    def test_per_prime_quantities_built_once(self, monkeypatch):
        # the checkers' inv_mod calls, and their per-prime table lookups, do
        # not grow with p: inverses come from the prime's tables, except the
        # half-row binomials' own pow inverses, kept apart from the table
        # their right side reads.  Every per-prime quantity is built once,
        # whatever nmax is: the row p - 1 that the row claims and TripleSum
        # share, and the classical products of one walk.
        calls = Counter()
        checker_modules = [m for name, m in sys.modules.items()
                           if name.startswith("trinocheck") and m is not modular]
        _count_calls(monkeypatch, calls, checker_modules, (inv_mod, congruences._product_mod))
        rows, built = [], []

        def recording_row(ctx, exponent):
            rows.append(exponent)
            return row_mod_p2_prefix(ctx, exponent)

        def recording_cached(ctx, build, *args):
            built.append(build)
            return cached(ctx, build, *args)

        cached = PrimeContext.cached
        monkeypatch.setattr(congruences, "row_mod_p2_prefix", recording_row)
        monkeypatch.setattr(PrimeContext, "cached", _counting(calls, "cached", recording_cached))
        for nmax in (8, 16):
            per_prime = {}
            for p in (101, 1009):
                calls.clear()
                rows.clear()
                built.clear()
                assert _records(SweepConfig(pmin=p, pmax=p, nmax=nmax))
                per_prime[p] = Counter(calls)
                # the two anchor rows, each once
                assert sorted(rows) == [p - 1, p * p - 1]
                # every cached builder returns a table; the classical
                # products are check_classical's locals
                assert set(built) == {inverse_table, harmonic_table, central4_table,
                                      trinomial._inverse_table_p2, recording_row}
            assert per_prime[101]["inv_mod"] == per_prime[1009]["inv_mod"]
            assert per_prime[101]["cached"] == per_prime[1009]["cached"]
            for calls_p in per_prime.values():
                # h! and (h+1)...(p-1) with h = (p-1)/2, (p+1)...(2p-1) and
                # the counted (nmax*p-p+1)...(nmax*p-1): check_classical's walk
                assert calls_p["_product_mod"] == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    @settings(max_examples=15, deadline=None)
    @given(
        subset=st.sets(st.sampled_from(list(ClaimId)), min_size=1),
        pmax=st.integers(5, 61),
    )
    def test_subset_equals_filtered_full_sweep(self, jobs, subset, pmax):
        # a subset's records are the full sweep's, filtered, and its report
        # at `jobs` is theirs, each record rendered on its own
        claims = tuple(c for c in ClaimId if c in subset)
        config = SweepConfig(pmin=5, pmax=pmax, nmax=2, claims=claims, jobs=jobs)
        chunks = _checked(config)
        want = [r for r in _all_claims_records() if r.claim in subset and r.p <= pmax]
        assert [r for chunk in chunks for r in chunk] == want
        assert _report(config) == _independent_report(chunks)

    @pytest.mark.parametrize("fail_fast", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    @settings(max_examples=10, deadline=None)
    @given(
        subset=st.sets(st.sampled_from(list(ClaimId))),
        pmax=st.integers(5, 61),
    )
    def test_summary_only_collapses_in_workers(self, jobs, fail_fast, subset, pmax):
        # Carlitz fails at every 7 <= p <= 61, so with pmax >= 7 fail_fast truncates
        chosen = subset | {ClaimId.CARLITZ, ClaimId.COR4_EQ11}
        claims = tuple(c for c in ClaimId if c in chosen)
        config = SweepConfig(pmin=5, pmax=pmax, nmax=2, claims=claims, jobs=jobs,
                             fail_fast=fail_fast, summary_only=True)
        chunks = _checked(config)
        # the aggregates are made where the prime is checked, so a worker
        # renders them as this process does
        assert _report(config) == _independent_report(chunks)
        got = expand(r for chunk in chunks for r in chunk)
        want = _collapsed(expand(
            r for r in _all_claims_records() if r.claim in chosen and r.p <= pmax
        ))
        if fail_fast:
            cut = next((i + 1 for i, r in enumerate(want) if not r.passed), len(want))
            want = want[:cut]
        assert got == want

    def test_replacing_one_shared_claim(self, monkeypatch):
        def falsified_gl(ctx):
            return [result(ClaimId.GL, ctx.p, ctx.p, [0], [1]) if r.claim is ClaimId.GL else r
                    for r in check_half_third_sixth(ctx)]

        untouched = [r for r in _all_claims_records() if r.claim is not ClaimId.GL]
        replace_checker(monkeypatch, check_half_third_sixth, falsified_gl)
        records = _records(SweepConfig(pmin=5, pmax=61, nmax=2))
        gl = expand(r for r in records if r.claim is ClaimId.GL)
        assert [r.p for r in gl] == sorted({r.p for r in records})
        assert not any(r.passed for r in gl)
        assert [r for r in records if r.claim is not ClaimId.GL] == untouched


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("claim", [ClaimId.CONG0, ClaimId.COR4_EQ11])
class TestFailureInsideRecord:
    """A claim over k whose instance k = 3 fails, in the middle of its
    record, at every prime (and every n)."""

    @pytest.fixture(autouse=True)
    def _broken(self, monkeypatch, claim):
        _failing_at_k3(monkeypatch, claim)

    def _cfg(self, claim, jobs, **kwargs):
        return _cfg(pmax=13, nmax=2, claims=(ClaimId.THM1_EQ2, claim), jobs=jobs, **kwargs)

    def test_fail_fast_stops_at_the_instance(self, claim, jobs):
        full = _instances(self._cfg(claim, jobs))
        cut = next(i for i, r in enumerate(full) if not r.passed) + 1
        assert (full[cut - 1].claim, full[cut - 1].p, full[cut - 1].k) == (claim, 5, 3)
        cfg = self._cfg(claim, jobs, fail_fast=True)
        assert _instances(cfg) == full[:cut]
        lines = _report(cfg).decode().splitlines()
        assert len(lines) == cut + 1
        last = json.loads(lines[-2])
        assert (last["claim"], last["p"], last["k"], last["pass"]) == (claim.value, 5, 3, False)
        assert json.loads(lines[-1])["summary"]["first_failure"] == last

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_fail_fast_report_cut_where_checked(self, claim, jobs, fmt):
        # the worker that checks p = 5 cuts its bytes after k = 3, and the
        # report stops after that prime: the records' bytes, each rendered
        # on its own
        cfg = self._cfg(claim, jobs, fail_fast=True)
        assert _report(cfg, fmt) == _independent_report(_checked(cfg), fmt)

    def test_trailer_first_failure(self, claim, jobs):
        cfg = self._cfg(claim, jobs)
        summary = json.loads(_report(cfg).decode().splitlines()[-1])["summary"]
        first = summary["first_failure"]
        assert (first["claim"], first["p"], first["k"], first["pass"]) == (
            claim.value, 5, 3, False)
        # one failure per prime, and per n for a claim that takes n
        per_n = 2 if checker_of(claim)[1] else 1
        assert summary["per_claim"][claim.value]["failed"] == 4 * per_n
        assert summary["failed"] == 4 * per_n

    def test_summary_only_aggregate_fails(self, claim, jobs):
        cfg = self._cfg(claim, jobs, summary_only=True)
        assert _report(cfg) == _independent_report(_checked(cfg))
        aggregates = [r for r in _instances(cfg) if r.claim is claim]
        assert len(aggregates) == 4 * (2 if checker_of(claim)[1] else 1)
        for r in aggregates:
            assert r.k is None
            assert r.lhs == r.rhs - 1  # every instance but k = 3 passes
            assert not r.passed


class TestRender:
    """The report bytes sweep_report gives."""

    def test_jsonl_record_schema(self):
        payload = _report(_cfg(pmin=7, pmax=7))
        lines = payload.decode().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert list(record) == ["claim", "p", "n", "k", "modulus", "lhs", "rhs", "pass"]
        assert record == {
            "claim": "Thm1_Eq2",
            "p": 7,
            "n": 1,
            "k": None,
            "modulus": 49,
            "lhs": "43",
            "rhs": "43",
            "pass": True,
        }
        # residues ride as decimal strings; the salient fragments appear verbatim
        assert '"claim":"Thm1_Eq2","p":7' in lines[0]
        assert '"modulus":49,"lhs":"43","rhs":"43","pass":true' in lines[0]

    def test_jsonl_summary_trailer(self):
        payload = _report(_cfg())
        trailer = json.loads(payload.decode().splitlines()[-1])
        assert trailer["summary"]["records"] == 2
        assert trailer["summary"]["passed"] == 2
        assert trailer["summary"]["failed"] == 0
        assert trailer["summary"]["per_claim"]["Thm1_Eq2"]["records"] == 2
        assert trailer["summary"]["first_failure"] is None

    def test_empty_record_set_is_summary_only(self):
        lines = _report(_cfg(pmin=5, pmax=5, claims=(ClaimId.C1B,))).decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["summary"]["records"] == 0

    def test_csv_layout(self):
        payload = _report(_cfg(pmin=7, pmax=7), "csv").decode()
        lines = payload.splitlines()
        assert lines[0] == "claim,p,n,k,modulus,lhs,rhs,pass"
        assert lines[1] == "Thm1_Eq2,7,1,,49,43,43,true"
        assert lines[2] == "summary,,,,,1,1,true"

    def test_csv_empty_cells_for_absent_n(self):
        # H_3 = 3 mod 7 on both sides
        payload = _report(_cfg(pmin=7, pmax=7, claims=(ClaimId.GL0,)), "csv")
        assert payload.decode().splitlines()[1] == "GL0,7,,,7,3,3,true"

    def test_summary_only_collapses_per_instance_claims(self):
        cfg = _cfg(claims=(ClaimId.COR4_EQ11,), summary_only=True)
        records = _instances(cfg)
        assert [(r.p, r.n, r.k) for r in records] == [(5, 1, None), (7, 1, None)]
        # aggregates carry passed-count vs instance-count
        assert (records[0].lhs, records[0].rhs) == (5, 5)
        assert (records[1].lhs, records[1].rhs) == (7, 7)
        assert all(r.passed for r in records)

    def test_rejects_unknown_format(self):
        # the format is checked here and by the CLI's --format choices
        with pytest.raises(ValueError, match="unknown format"):
            _report(_cfg(), "xml")

    def test_summary_only_keeps_single_instance_claims(self):
        cfg = _cfg(claims=(ClaimId.THM1_EQ2, ClaimId.GL0), summary_only=True)
        assert _report(cfg) == _report(_cfg(claims=(ClaimId.THM1_EQ2, ClaimId.GL0)))


def _independent_lines(r, fmt):
    """r's report lines, each rendered on its own by one f-string, joined by
    newlines: the oracle for _lines's list-template rendering."""
    if fmt == "jsonl":
        head = f'{{"claim":"{r.claim.value}","p":{r.p},"n":{"null" if r.n is None else r.n},"k":'
        mid = f',"modulus":{r.modulus},"lhs":"'
        ks = repeat("null") if r.k is None else count(r.k)
        return "\n".join(
            f'{head}{k}{mid}{a}","rhs":"{b}","pass":{"true" if a == b else "false"}}}'
            for k, a, b in zip(ks, r.lhs, r.rhs)
        )
    head = f'{r.claim.value},{r.p},{"" if r.n is None else r.n},'
    ks = repeat("") if r.k is None else count(r.k)
    return "\n".join(
        f'{head}{k},{r.modulus},{a},{b},{"true" if a == b else "false"}'
        for k, a, b in zip(ks, r.lhs, r.rhs)
    )


def _independent_trailer(s, fmt):
    if fmt == "csv":
        return f'summary,,,,,{s.passed},{s.records},{"true" if s.failed == 0 else "false"}'
    per_claim = ",".join(
        f'"{c.value}":{{"records":{t.records},"passed":{t.passed},"failed":{t.failed}}}'
        for c, t in s.per_claim.items()
    )
    first = "null" if s.first_failure is None else _independent_lines(s.first_failure, fmt)
    return (
        f'{{"summary":{{"records":{s.records},"passed":{s.passed},"failed":{s.failed},'
        f'"per_claim":{{{per_claim}}},"first_failure":{first}}}}}'
    )


def _independent_summary(chunks):
    """The summary of `chunks`, counted one instance at a time: per-claim
    tallies in catalog order and the first failing instance as a record."""
    instances = expand(r for chunk in chunks for r in chunk)
    records = Counter(i.claim for i in instances)
    passed = Counter(i.claim for i in instances if i.passed)

    def tally(n, ok):
        return SimpleNamespace(records=n, passed=ok, failed=n - ok)

    summary = tally(len(instances), passed.total())
    summary.per_claim = {c: tally(records[c], passed[c]) for c in ClaimId if records[c]}
    f = next((i for i in instances if not i.passed), None)
    summary.first_failure = None if f is None else CheckResult(
        f.claim, f.p, f.n, f.k, f.modulus, [f.lhs], [f.rhs])
    return summary


def _tallied(summary):
    """What a summary holds, as plain values."""
    per_claim = {c: (t.records, t.passed, t.failed) for c, t in summary.per_claim.items()}
    return summary.records, summary.passed, summary.failed, per_claim, summary.first_failure


def _independent_writes(chunks, fmt):
    """The writes a report of `chunks` should take: the header, one per
    record, then the trailer, every record rendered independently."""
    writes = [sweep.FORMATS[fmt][0]]
    for chunk in chunks:
        writes += [_independent_lines(r, fmt) + "\n" for r in chunk]
    writes.append(_independent_trailer(_independent_summary(chunks), fmt) + "\n")
    return [w.encode() for w in writes]


def _independent_report(chunks, fmt="jsonl"):
    return b"".join(_independent_writes(chunks, fmt))


def _rendered_writes(chunks, fmt):
    """The format's header, the writes of _render (sweep_report's step on
    each prime) over `chunks`, then the trailer of their summed tallies;
    and each chunk's tally, as _tallied values."""
    form = sweep.FORMATS[fmt]
    writes, digits, tallies = [form[0].encode()], [], []
    total = sweep.Summary()
    for chunk in chunks:
        tally = sweep._render(chunk, form, digits, writes.append)
        tallies.append(_tallied(tally))
        total.merge(tally)
    total.per_claim = {c: total.per_claim[c] for c in ClaimId if c in total.per_claim}
    writes.append((form[-1](total) + "\n").encode())
    return writes, tallies


@st.composite
def _shared_side_chunk(draw):
    """One prime's records: n in {None, 1..64}, k in {None, 0..p-1}, any
    modulus, sides of 1..40 instances of which a random subset fail, and
    some records sharing their lists (lhs and rhs one list, or both lists
    of an earlier record)."""
    p = draw(st.sampled_from([5, 7, 11, 101]))
    drawn = []
    records = []
    for _ in range(draw(st.integers(1, 6))):
        if drawn and draw(st.booleans()):
            lhs, rhs = draw(st.sampled_from(drawn))
        else:
            size = draw(st.integers(1, 40))
            lhs = draw(st.lists(st.integers(0, p**4), min_size=size, max_size=size))
            unequal = draw(st.sets(st.integers(0, size - 1)))
            rhs = [a + 1 if i in unequal else a for i, a in enumerate(lhs)]
            if not unequal and draw(st.booleans()):
                rhs = lhs
            drawn.append((lhs, rhs))
        n = draw(st.none() | st.integers(1, 64))
        k = draw(st.none() | st.integers(0, p - 1))
        modulus = draw(st.integers(2, p**4))
        records.append(CheckResult(draw(st.sampled_from(ClaimId)), p, n, k, modulus, lhs, rhs))
    return records


class _RecordingOut:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


class TestSharedTails:
    """The report's bytes are those of rendering every instance on its own,
    whatever the records share."""

    @pytest.mark.parametrize("fail_fast", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_one_write_per_record_rendered_alone(self, fmt, jobs, fail_fast):
        # sweep_report writes the header, then each record as if no tail
        # were shared, then the trailer.  At jobs 1 each record is a write of
        # its own, so no write holds two records; a forked worker's pieces
        # hold whole records, so no write splits one
        config = SweepConfig(pmax=97, fail_fast=fail_fast, jobs=jobs)
        chunks = _checked(config)
        want = _independent_writes(chunks, fmt)
        out = _RecordingOut()
        sweep_report(config, fmt, out)
        if jobs == 1:
            assert out.writes == want
            assert len(out.writes) == 2 + sum(map(len, chunks))
        else:
            assert b"".join(out.writes) == b"".join(want)
            assert set(accumulate(map(len, out.writes))) < set(accumulate(map(len, want)))

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_shared_lhs_with_other_k_modulus_or_rhs(self, fmt):
        lhs, rhs = [1, 2, 3], [1, 2, 4]
        variants = [
            (0, 49, lhs, rhs),
            (1, 49, lhs, rhs),  # other k
            (None, 49, [3], [3]),
            (0, 7, lhs, rhs),  # other modulus
            (0, 49, lhs, [1, 2, 3]),  # other rhs, equal to lhs
            (0, 49, lhs, list(rhs)),  # equal rhs, another list
        ]
        # each variant twice, so every key is a repeated one
        records = [
            CheckResult(ClaimId.COR4_EQ11, 7, n, k, modulus, a, b)
            for n, (k, modulus, a, b) in enumerate(variants + variants, start=1)
        ]
        writes, _ = _rendered_writes([records], fmt)
        assert writes == _independent_writes([records], fmt)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cor4_tails_built_once_per_prime(self, monkeypatch, jobs):
        # a prime's Cor4 row and pattern are built once and shared by the
        # records of every n, which render as if alone, here and in the
        # report at `jobs`; summary-only counts their passes once per prime,
        # not nmax = 8 times
        config = SweepConfig(pmax=13, nmax=8, jobs=jobs, claims=(ClaimId.COR4_EQ11,))
        chunks = _checked(config)
        assert [len(c) for c in chunks] == [8, 8, 8, 8]
        for chunk in chunks:
            assert len({id(r.lhs) for r in chunk}) == len({id(r.rhs) for r in chunk}) == 1
        writes, _ = _rendered_writes(chunks, "jsonl")
        assert writes == _independent_writes(chunks, "jsonl")
        assert _report(config) == b"".join(writes)

        counted = Counter()
        passed = sweep._passed

        def counting(r):
            counted[r.claim, r.p] += 1
            return passed(r)

        monkeypatch.setattr(sweep, "_passed", counting)
        config = SweepConfig(nmax=8, claims=(ClaimId.COR4_EQ11, ClaimId.TRIPLE_SUM_A),
                             summary_only=True)
        for p in (5, 7, 11, 13):
            sweep._check_prime(p, config)
        cor4 = {p: counted[ClaimId.COR4_EQ11, p] for p in (5, 7, 11, 13)}
        assert cor4 == {5: 1, 7: 1, 11: 1, 13: 1}
        assert counted[ClaimId.TRIPLE_SUM_A, 13] == 8  # fresh lists per n

    @settings(max_examples=60, deadline=None)
    @given(chunks=st.lists(_shared_side_chunk(), min_size=1, max_size=3))
    def test_any_records_render_as_if_alone(self, chunks):
        # both formats, the trailer's first failure included: the
        # tally-and-render step run on each prime gives each record's
        # writes, and tallies that add up to the summary
        for fmt in ("jsonl", "csv"):
            writes, tallies = _rendered_writes(chunks, fmt)
            assert writes == _independent_writes(chunks, fmt)
            assert tallies == [_tallied(_independent_summary([chunk])) for chunk in chunks]


#: `trinocheck --help` at 80 columns, the same on Python 3.10 to 3.13.
HELP = """\
usage: trinocheck [-h] [--pmin PMIN] [--pmax PMAX] [--nmax NMAX]
                  [--claims LIST] [--format {jsonl,csv}] [--out PATH]
                  [--jobs N] [--fail-fast] [--summary-only]

Verify trinomial-coefficient and harmonic-sum congruences over a range of
primes, reporting every instance and any counterexample.

options:
  -h, --help            show this help message and exit
  --pmin PMIN           smallest prime to check (>= 5)
  --pmax PMAX           largest prime to check
  --nmax NMAX           check n = 1..nmax for n-parametrized claims
  --claims LIST         comma-separated claim names (default: all; see README
                        for the catalog)
  --format {jsonl,csv}
  --out PATH            output file (default: stdout)
  --jobs N              forked worker processes; prime i goes to worker i mod
                        N
  --fail-fast           stop after the first failing instance (one report
                        line)
  --summary-only        report a claim over k as one aggregate per (claim, p,
                        n)
"""


def _counted_forks(monkeypatch):
    """The list of the pids os.fork returns in this process from now on."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        forks.append(pid)  # a child's list is its own copy
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


class TestCli:
    def test_exit_zero_and_stdout(self, capsysbinary):
        rc = main(["--pmin", "5", "--pmax", "7", "--nmax", "1", "--claims", "Thm1_Eq2"])
        assert rc == 0
        out = capsysbinary.readouterr().out
        assert b'"claim":"Thm1_Eq2"' in out

    def test_exit_one_on_injected_failure(self, monkeypatch, tmp_path):
        _falsified(monkeypatch, ClaimId.THM1_EQ2)
        out = tmp_path / "report.jsonl"
        rc = main(
            ["--pmin", "5", "--pmax", "7", "--nmax", "1",
             "--claims", "Thm1_Eq2", "--out", str(out)]
        )
        assert rc == 1
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["pass"] is False
        assert json.loads(lines[-1])["summary"]["failed"] == 2

    def test_summary_only_aggregate_is_a_count(self, monkeypatch, capsys):
        # an aggregate carries its passed and instance counts unreduced: 5 of
        # 10 instances mod 5 pass, which must not read 0 of 0 and pass
        def half_failing(ctx):
            return [CheckResult(ClaimId.CONG0, ctx.p, None, 1, 5, [0] * 10, [0] * 5 + [1] * 5)]

        replace_checker(monkeypatch, check_reflections, half_failing)
        assert main(["--pmax", "5", "--claims", "Cong0", "--summary-only", "--format", "csv"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "claim,p,n,k,modulus,lhs,rhs,pass",
            "Cong0,5,,,5,5,10,false",
            "summary,,,,,0,1,false",
        ]

    def test_exit_one_on_carlitz_counterexamples(self, tmp_path):
        # the cataloged Carlitz form is false for every prime 7 <= p <= 499
        out = tmp_path / "carlitz.jsonl"
        rc = main(
            ["--pmin", "5", "--pmax", "499", "--claims", "Carlitz", "--out", str(out)]
        )
        assert rc == 1
        summary = json.loads(out.read_text().splitlines()[-1])["summary"]
        assert (summary["passed"], summary["failed"]) == (1, 92)
        first = summary["first_failure"]
        assert (first["claim"], first["p"], first["lhs"], first["rhs"]) == (
            "Carlitz", 7, "2381", "323"
        )

    def test_exit_two_on_config_error(self, capsys):
        rc = main(["--pmin", "6", "--pmax", "5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_exit_two_on_unknown_claim(self, capsys):
        rc = main(["--pmax", "7", "--claims", "Bogus"])
        assert rc == 2

    @pytest.mark.parametrize(
        "args, code",
        [(["--claims", "GL0"], 0), (["--claims", "Carlitz"], 1), (["--jobs", "0"], 2)],
    )
    def test_entry_exit_codes(self, monkeypatch, capsysbinary, args, code):
        monkeypatch.setattr(sys, "argv", ["trinocheck", "--pmax", "7", *args])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == code

    def test_parser_defaults_are_sweep_defaults(self):
        # no sweep field is set, so main builds SweepConfig() from its own defaults
        assert vars(cli.build_parser().parse_args([])) == {"fmt": "jsonl", "out": None}

    @pytest.mark.parametrize("claims, code, err", [
        ("Thm1_Eq2, GL0", 0, ""),
        ("  ,  ", 2, "trinocheck: error: claim set must be nonempty\n"),
        ("Thm1_Eq2,NoSuchClaim", 2, (
            "trinocheck: error: unknown claim 'NoSuchClaim'; known claims: Thm1_Eq2, "
            "Thm1_Eq4, Thm2_Eq6, Thm2_Eq7, Prop3_Eq9, Prop3_Eq10, Cor4_Eq11, TripleSum_a, "
            "Babbage, Wolstenholme, Glaisher, Morley, Carlitz, HalfRowBinom, GL0, GL, GL2, "
            "Cong0, Cong1, C1b, C1c, C2b, C2c, C3, C3b, H0, H1, H2, H3\n")),
    ], ids=["two-names", "blank-names", "unknown-name"])
    def test_claims_flag(self, capsys, claims, code, err):
        assert main(["--pmax", "7", "--nmax", "1", "--claims", claims]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if code == 0:
            names = [json.loads(line).get("claim") for line in captured.out.splitlines()]
            assert names == ["GL0", "Thm1_Eq2", "GL0", "Thm1_Eq2", None]

    def test_help_text(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == HELP

    def test_exit_two_on_bad_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "xml"])
        assert exc.value.code == 2

    def test_out_file_matches_stdout_bytes(self, tmp_path, capsysbinary):
        args = ["--pmin", "5", "--pmax", "11", "--nmax", "2", "--claims", "Prop3_Eq9,GL"]
        assert main(args) == 0
        stdout_payload = capsysbinary.readouterr().out
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"previous report\n")
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == stdout_payload
        assert [f.name for f in tmp_path.iterdir()] == ["r.jsonl"]
        umask = os.umask(0)
        os.umask(umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_internal_error_keeps_previous_out_file(self, monkeypatch, tmp_path, capsys):
        def raises(ctx):
            return [1 // 0]

        replace_checker(monkeypatch, check_half_third_sixth, raises)
        out = tmp_path / "r.jsonl"
        previous = b'{"summary":"an earlier run"}\n'
        out.write_bytes(previous)
        rc = main(["--pmin", "5", "--pmax", "13", "--claims", "GL0", "--out", str(out)])
        assert rc == 2
        assert "ZeroDivisionError" in capsys.readouterr().err
        assert out.read_bytes() == previous
        assert [f.name for f in tmp_path.iterdir()] == ["r.jsonl"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_fifo_is_written_in_place(self, tmp_path, jobs):
        # a FIFO is opened and written, not replaced by a regular file: a
        # reader gets the report, several pipe buffers long, as it is
        # written.  The run is a child process, so that its workers are not
        # forked from a process with a thread
        args = ["--pmax", "97", "--nmax", "2", "--jobs", jobs]
        regular, fifo = tmp_path / "r.jsonl", tmp_path / "fifo"
        assert main(args + ["--out", str(regular)]) == 1
        os.mkfifo(fifo)
        writer = os.open(fifo, os.O_RDWR)  # held open, so the reader's open does not wait
        got = []
        with open(fifo, "rb") as reading:
            reader = threading.Thread(target=lambda: got.append(reading.read()))
            reader.start()
            try:
                run = subprocess.run([sys.executable, "-m", "trinocheck", *args, "--out", str(fifo)],
                                     timeout=120)
            finally:
                os.close(writer)  # the reader's end of file, once the run has closed its end
                reader.join(timeout=60)
        assert run.returncode == 1
        assert not reader.is_alive()
        assert got == [regular.read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["fifo", "r.jsonl"]

    def test_out_symlink_replaces_the_file_it_names(self, monkeypatch, tmp_path, capsysbinary):
        # the report is renamed onto the file the link names, and the link
        # stays; an internal error keeps that file's previous bytes and
        # leaves no temporary file beside it
        real = tmp_path / "real"
        real.mkdir()
        (real / "r.jsonl").write_bytes(b"previous report\n")
        link = tmp_path / "link.jsonl"
        os.symlink(os.path.join("real", "r.jsonl"), link)
        args = ["--pmax", "13", "--claims", "GL0,Thm1_Eq2"]
        assert main(args) == 0
        report = capsysbinary.readouterr().out

        def raises_at_11(ctx):
            if ctx.p == 11:
                raise ZeroDivisionError("p = 11")
            return check_half_third_sixth(ctx)

        with monkeypatch.context() as patched:
            replace_checker(patched, check_half_third_sixth, raises_at_11)
            assert main(args + ["--out", str(link)]) == 2
        assert b"ZeroDivisionError" in capsysbinary.readouterr().err
        assert (real / "r.jsonl").read_bytes() == b"previous report\n"
        assert main(args + ["--out", str(link)]) == 0
        assert (real / "r.jsonl").read_bytes() == report
        assert os.readlink(link) == os.path.join("real", "r.jsonl")
        assert os.listdir(real) == ["r.jsonl"]
        assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "real"]

    def test_exit_two_on_unwritable_output(self, capsys):
        rc = main(
            ["--pmin", "5", "--pmax", "5", "--nmax", "1", "--claims", "GL0",
             "--out", "/nonexistent-dir/report.jsonl"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exit_two_on_internal_error(self, monkeypatch, capfdbinary, jobs):
        def raises(ctx):
            return [1 // 0]

        # pool workers are forked, so they see the patched table too
        replace_checker(monkeypatch, check_half_third_sixth, raises)
        rc = main(["--pmin", "5", "--pmax", "13", "--claims", "GL0,Thm1_Eq2",
                   "--jobs", jobs])
        assert rc == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode().splitlines() == [
            "trinocheck: error: internal error: ZeroDivisionError: "
            "integer division or modulo by zero"
        ]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_internal_error_mid_stream(self, monkeypatch, capfdbinary, tmp_path, jobs, fmt):
        # the records of p = 5 and 7 are streamed before p = 11 raises; the
        # trailer, which marks a report complete, is never written
        def raises_at_11(ctx):
            if ctx.p == 11:
                raise ZeroDivisionError("p = 11")
            return check_half_third_sixth(ctx)

        replace_checker(monkeypatch, check_half_third_sixth, raises_at_11)
        args = ["--claims", "GL0,Thm1_Eq2", "--nmax", "2", "--format", fmt, "--jobs", jobs]
        assert main(args + ["--pmax", "7"]) == 0
        complete = capfdbinary.readouterr().out
        assert main(args + ["--pmax", "13"]) == 2
        sys.stdout.flush()  # as the interpreter does at exit
        captured = capfdbinary.readouterr()
        assert captured.out == complete[: complete.rindex(b"\n", 0, -1) + 1]
        assert b"summary" not in captured.out and b"GL0" in captured.out
        assert captured.err.decode().splitlines() == [
            "trinocheck: error: internal error: ZeroDivisionError: p = 11"
        ]
        out = tmp_path / "r.report"
        out.write_bytes(b"previous report\n")
        assert main(args + ["--pmax", "13", "--out", str(out)]) == 2
        assert out.read_bytes() == b"previous report\n"
        assert [f.name for f in tmp_path.iterdir()] == ["r.report"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_glaisher_law_break_is_internal_error(self, monkeypatch, capfdbinary, jobs):
        # a counted C(nmax*p - 1, p - 1) that disagrees with Glaisher's
        # quadratic law mod p**3 (here its numerator off by p**2 at p = 11;
        # an error of p**3 is invisible at the claim's modulus) stops the
        # run after the records of p = 5 and 7, with no trailer
        product_mod = congruences._product_mod

        def off_at_11(lo, hi, m):
            wrong = (lo, hi, m) == (34, 44, 11**4)  # (4*11 - 11 + 1)...(4*11 - 1)
            return (product_mod(lo, hi, m) + wrong * 11**2) % m

        args = ["--claims", "Glaisher", "--nmax", "4", "--jobs", jobs]
        assert main(args + ["--pmax", "7"]) == 0
        complete = capfdbinary.readouterr().out
        monkeypatch.setattr(congruences, "_product_mod", off_at_11)
        assert main(args + ["--pmax", "13"]) == 2
        sys.stdout.flush()
        captured = capfdbinary.readouterr()
        assert captured.out == complete[: complete.rindex(b"\n", 0, -1) + 1]
        assert b"summary" not in captured.out
        [line] = captured.err.decode().splitlines()
        assert line.startswith("trinocheck: error: internal error: RuntimeError: C(43, 10) ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_ctrl_c_keeps_previous_out_file(self, monkeypatch, tmp_path, jobs):
        # Ctrl-C is not an error to report: it leaves main, and the partial
        # report is removed, never renamed onto the previous one
        def interrupted_at_11(ctx):
            if ctx.p == 11:
                raise KeyboardInterrupt
            return check_half_third_sixth(ctx)

        replace_checker(monkeypatch, check_half_third_sixth, interrupted_at_11)
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"previous report\n")
        with pytest.raises(KeyboardInterrupt):
            main(["--pmax", "13", "--claims", "GL0,Thm1_Eq2", "--jobs", jobs, "--out", str(out)])
        assert out.read_bytes() == b"previous report\n"
        assert [f.name for f in tmp_path.iterdir()] == ["r.jsonl"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_broken_pipe(self, tmp_path, jobs):
        # the reader goes away after 100 bytes of a report of several MB
        err = tmp_path / "stderr"
        with err.open("wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "trinocheck", "--pmax", "300", "--jobs", jobs],
                stdout=subprocess.PIPE, stderr=stderr,
            )
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.wait(timeout=120) == 2
        assert err.read_text().splitlines() == ["trinocheck: error: [Errno 32] Broken pipe"]

    @pytest.mark.parametrize("out", ["missing/r.jsonl", ""], ids=["missing-dir", "empty"])
    def test_bad_out_path_fails_before_sweep(self, monkeypatch, tmp_path, capsys, out):
        swept = []

        def no_sweep(*args):
            swept.append(args)
            raise AssertionError("sweep_report called despite an unwritable --out")

        monkeypatch.setattr(cli, "sweep_report", no_sweep)
        monkeypatch.chdir(tmp_path)
        rc = main(["--pmax", "1009", "--out", out])
        assert rc == 2
        assert swept == []
        # the path as given, not the temporary file's random name
        assert capsys.readouterr().err.splitlines() == [
            f"trinocheck: error: [Errno 2] No such file or directory: {out!r}"
        ]

    def test_closed_stdout_fails_before_sweep(self, monkeypatch, capsys):
        def no_sweep(*args):
            raise AssertionError("sweep_report called with no stdout to write to")

        monkeypatch.setattr(cli, "sweep_report", no_sweep)
        monkeypatch.setattr(sys, "stdout", None)  # what Python sets when fd 1 is closed
        assert main(["--pmax", "7", "--claims", "GL0"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "trinocheck: error: [Errno 9] stdout is closed"
        ]

    def test_closed_stdout_from_shell(self):
        proc = subprocess.run(
            ["sh", "-c", '"$0" -m trinocheck --pmax 7 --claims GL0 >&-', sys.executable],
            capture_output=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            "trinocheck: error: [Errno 9] stdout is closed"
        ]

    def test_directory_out_path_fails_before_sweep(self, monkeypatch, tmp_path, capsys):
        swept = []
        monkeypatch.setattr(cli, "sweep_report", lambda *args: swept.append(args))
        rc = main(["--pmax", "1009", "--out", str(tmp_path)])
        assert rc == 2
        assert swept == []
        assert "Is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_jobs_above_cap_starts_nothing(self, monkeypatch, capsys):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker was forked for a rejected --jobs")

        monkeypatch.setattr(os, "fork", no_pool)
        monkeypatch.setattr(cli, "sweep_report", no_pool)
        rc = main(["--pmax", "11", "--jobs", str(MAX_JOBS + 1)])
        assert rc == 2
        assert f"jobs <= {MAX_JOBS}" in capsys.readouterr().err

    def test_jobs_need_fork(self, monkeypatch, capsys):
        # where os.fork is missing, --jobs > 1 is a usage error before any work
        swept = []
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "sweep_report", lambda *args: swept.append(args))
        assert SweepConfig(jobs=1).jobs == 1
        with pytest.raises(ConfigError, match="os.fork"):
            SweepConfig(jobs=2)
        assert main(["--pmax", "11", "--jobs", "2"]) == 2
        assert swept == []
        assert capsys.readouterr().err.splitlines() == [
            "trinocheck: error: jobs > 1 needs os.fork, which this platform lacks"
        ]

    def test_pool_has_no_more_workers_than_primes(self, monkeypatch, tmp_path):
        forks = _counted_forks(monkeypatch)
        serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
        assert main(["--pmax", "11", "--out", str(serial)]) == 1
        assert forks == []
        assert main(["--pmax", "11", "--jobs", "8", "--out", str(pooled)]) == 1
        assert len(forks) == 3  # the primes 5, 7 and 11
        assert pooled.read_bytes() == serial.read_bytes()
        assert main(["--pmax", "31", "--jobs", "2", "--out", str(pooled)]) == 1
        assert len(forks) == 5

    def test_pool_run_ahead_is_bounded(self, monkeypatch, tmp_path):
        # a slow report file holds the workers back, and gets the bytes of
        # one process's report
        jobs = 2

        class SlowOut(_RecordingOut):
            def write(self, data):
                time.sleep(0.005)
                return super().write(data)

        config = SweepConfig(pmin=5, pmax=211, nmax=2)
        out = SlowOut()
        sweep_report(config._replace(jobs=jobs), "jsonl", out)
        assert b"".join(out.writes) == _report(config)

        # a report file whose first write of report bytes waits until the
        # workers of a cheap, long sweep stop checking primes, then fails: a
        # full pipe blocks each worker, so most primes are never checked,
        # and the failed report leaves no worker behind
        checked = tmp_path / "checked"
        checked.write_bytes(b"")

        def cheap(ctx):
            fd = os.open(checked, os.O_WRONLY | os.O_APPEND)
            os.write(fd, b"%d\n" % ctx.p)
            os.close(fd)
            return [result(ClaimId.GL0, ctx.p, ctx.p, [0], [0])]

        class Stalled(Exception):
            pass

        class StallingOut:
            def write(self, data):
                if not data:  # the jsonl header, written before any prime
                    return 0
                settled, self.seen = None, checked.read_bytes()
                while self.seen != settled:  # until the workers stop checking primes
                    time.sleep(0.2)
                    settled, self.seen = self.seen, checked.read_bytes()
                raise Stalled

        replace_checker(monkeypatch, check_half_third_sixth, cheap)
        primes = modular.sieve_primes(5, 200_000)
        out = StallingOut()
        with pytest.raises(Stalled):
            sweep_report(SweepConfig(pmax=200_000, claims=(ClaimId.GL0,), jobs=jobs), "jsonl", out)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        seen = [int(line) for line in out.seen.split()]
        assert 5 in seen and len(seen) > jobs  # the workers ran ahead of the report
        assert len(set(seen)) == len(seen)
        assert set(seen) <= set(primes)
        assert len(seen) < len(primes) / 8

    @pytest.mark.parametrize("how", ["normal", "fail-fast", "error", "closed"])
    def test_workers_are_reaped(self, monkeypatch, how):
        # every way out of a report at --jobs 2: complete, stopped by
        # --fail-fast, stopped by a checker's error, and stopped by a report
        # file whose reader has gone ("closed") after the first prime
        def raises_at_11(ctx):
            if ctx.p == 11:
                raise ZeroDivisionError("p = 11")
            return check_half_third_sixth(ctx)

        class ClosedOut(_RecordingOut):
            def write(self, data):
                if any(self.writes):
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(data)

        forks = _counted_forks(monkeypatch)
        replace_checker(monkeypatch, check_half_third_sixth, raises_at_11)
        config = SweepConfig(pmax=31, nmax=2, claims=(ClaimId.GL0, ClaimId.CARLITZ), jobs=2)
        if how == "normal":
            report = _report(config._replace(pmin=13))
            assert report == _report(config._replace(pmin=13, jobs=1))
            assert len(report.splitlines()) == 13  # 6 primes, 2 claims, the trailer
        elif how == "fail-fast":
            lines = _report(config._replace(pmin=13, fail_fast=True)).splitlines()
            assert [json.loads(line).get("claim") for line in lines] == ["Carlitz", None]
        elif how == "error":
            with pytest.raises(ZeroDivisionError, match="p = 11"):
                _report(config)
        else:
            out = ClosedOut()
            with pytest.raises(BrokenPipeError):
                sweep_report(config, "jsonl", out)
            assert b"".join(out.writes).splitlines() == _report(config._replace(pmax=5)).splitlines()[:2]
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker(self, monkeypatch, capfdbinary, tmp_path):
        # a worker killed at p = 11 sends no exception: the sweep stops with
        # an internal error naming it, writes no trailer, keeps --out as it
        # was and leaves no child unreaped
        this_process = os.getpid()

        def killed_at_11(ctx):
            if ctx.p == 11 and os.getpid() != this_process:
                os.kill(os.getpid(), signal.SIGKILL)
            return check_half_third_sixth(ctx)

        replace_checker(monkeypatch, check_half_third_sixth, killed_at_11)
        args = ["--pmax", "13", "--claims", "GL0,Thm1_Eq2", "--nmax", "2", "--jobs", "2"]
        assert main(args) == 2
        sys.stdout.flush()
        captured = capfdbinary.readouterr()
        assert b"summary" not in captured.out and b'"p":7' in captured.out
        err = captured.err.decode().splitlines()
        assert len(err) == 1
        assert err[0].startswith("trinocheck: error: internal error: RuntimeError: worker 0 ")
        assert err[0].endswith("ended before p = 11: SIGKILL")
        out = tmp_path / "r.jsonl"
        out.write_bytes(b"previous report\n")
        assert main(args + ["--out", str(out)]) == 2
        assert out.read_bytes() == b"previous report\n"
        assert [f.name for f in tmp_path.iterdir()] == ["r.jsonl"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("flags", [[], ["--summary-only", "--format", "csv"]],
                             ids=["jsonl", "summary-only-csv"])
    def test_workers_ship_no_records(self, monkeypatch, tmp_path, flags):
        # a worker ships its primes' rendered bytes and tallies: a passing
        # report at --jobs 2 comes out whole with no record picklable, and
        # this process reads one tally per prime
        def unpicklable(record, protocol):
            raise AssertionError("a record was pickled")

        args = ["--pmax", "97", "--nmax", "2", *flags,
                "--claims", ",".join(c.value for c in ClaimId if c is not ClaimId.CARLITZ)]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(args + ["--out", str(serial)]) == 0
        monkeypatch.setattr(CheckResult, "__reduce_ex__", unpicklable)
        with pytest.raises(AssertionError, match="a record was pickled"):
            pickle.dumps(CheckResult(ClaimId.GL0, 7, None, None, 7, [3], [3]))
        tallies = []
        load = pickle.load

        def recording_load(file):
            message = load(file)
            if isinstance(message, sweep.Summary):
                tallies.append(message)
            return message

        monkeypatch.setattr(pickle, "load", recording_load)
        assert main(args + ["--jobs", "2", "--out", str(pooled)]) == 0
        assert pooled.read_bytes() == serial.read_bytes()
        assert len(tallies) == 23  # one per prime 5 <= p <= 97, from the workers

    def test_workers_ship_bounded_pieces(self, monkeypatch):
        # each prime's bytes come in pieces of at most PIECE_BYTES, unless
        # one record is longer (a full Cor4 record is), and add up to the
        # bytes of one process
        monkeypatch.setattr(sweep, "PIECE_BYTES", 1 << 9)
        pieces = []
        load = pickle.load

        def recording_load(file):
            message = load(file)
            if type(message) is bytes:
                pieces.append(message)
            return message

        for summary_only in (True, False):
            cfg = SweepConfig(pmax=61, nmax=2, summary_only=summary_only)
            serial = _report(cfg, "csv")
            monkeypatch.setattr(pickle, "load", recording_load)
            pieces.clear()
            assert _report(cfg._replace(jobs=2), "csv") == serial
            monkeypatch.setattr(pickle, "load", load)
            assert b"".join(pieces) == serial[serial.index(b"\n") + 1 : serial.rindex(b"summary")]
            oversized = [x for x in pieces if len(x) > 1 << 9]
            for x in oversized:  # one record alone: one (claim, p, n)
                assert len({tuple(line.split(b",")[:3]) for line in x.splitlines()}) == 1
            # 16 primes, some of them in more than one piece
            assert len(pieces) > 16 and bool(oversized) is not summary_only

    def test_jobs_flag(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        args = ["--pmin", "5", "--pmax", "31", "--nmax", "1", "--claims", "Thm1_Eq2,Cong0"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--jobs", "3", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_import_leaves_numpy_out(self):
        # nor any module the run does not use; under -S, since a site hook
        # may import some of them first
        loaded = _bare_python(
            "import sys, trinocheck.cli; "
            "print(*sorted(set(sys.argv[1:]) & set(sys.modules)), file=sys.stderr)",
            *UNUSED_AT_IMPORT)
        assert loaded == b"\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_concurrent_futures_never_imported(self, tmp_path, jobs):
        # pickle only with forked workers, tempfile only with --out
        code = ("import sys, trinocheck.cli; rc = trinocheck.cli.main(sys.argv[1:]); "
                "print(rc, *(m in sys.modules for m in "
                "('concurrent.futures', 'pickle', 'tempfile')), file=sys.stderr)")
        args = ["--pmax", "11", "--jobs", str(jobs)]
        to_file = _bare_python(code, *args, "--out", str(tmp_path / "r.jsonl"))
        assert to_file == f"1 False {jobs > 1} True\n".encode()
        assert _bare_python(code, *args) == f"1 False {jobs > 1} False\n".encode()

    def test_module_entrypoint(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "trinocheck", "--pmin", "5", "--pmax", "5",
             "--nmax", "1", "--claims", "GL0,GL,GL2", "--format", "csv",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == "claim,p,n,k,modulus,lhs,rhs,pass"
