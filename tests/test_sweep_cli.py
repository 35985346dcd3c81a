import json
import os
import subprocess
import sys
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinocheck import cli
from trinocheck.claims import ClaimId, record_sort_key, result
from trinocheck.cli import main
from trinocheck.congruences import CLAIM_REGISTRY, ClaimSpec
from trinocheck.harmonic import ap_harmonic, inverse_table
from trinocheck.modular import fermat_quotient
from trinocheck.trinomial import row_mod_p2_prefix, row_mod_prefix
from trinocheck.sweep import (
    ConfigError,
    SweepConfig,
    _collapse,
    parse_claims,
    render,
    run_sweep,
)


def _cfg(**kwargs):
    defaults = dict(pmin=5, pmax=7, nmax=1, claims=(ClaimId.THM1_EQ2,))
    defaults.update(kwargs)
    return SweepConfig(**defaults)


def _falsified(claim):
    """A deliberately broken runner: every record fails."""

    def run(ctx, n=None):
        return [result(claim, ctx.p, ctx.p2, 0, 1, n=n)]

    return ClaimSpec(CLAIM_REGISTRY[claim].per_n, run)


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
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            _cfg(**kwargs)

    def test_parse_claims(self):
        assert parse_claims("Thm1_Eq2, GL0") == (ClaimId.THM1_EQ2, ClaimId.GL0)
        with pytest.raises(ConfigError):
            parse_claims("Thm1_Eq2,NoSuchClaim")
        with pytest.raises(ConfigError):
            parse_claims("  ,  ")


class TestRunSweep:
    def test_two_primes_one_claim(self):
        report = run_sweep(_cfg())
        assert len(report.records) == 2
        assert all(r.passed for r in report.records)
        assert [r.p for r in report.records] == [5, 7]
        assert report.summary.records == 2
        assert report.summary.failed == 0
        assert report.summary.first_failure is None

    def test_all_claims_p5(self):
        report = run_sweep(SweepConfig(pmin=5, pmax=5, nmax=1))
        assert all(r.passed for r in report.records)
        cor4 = [r for r in report.records if r.claim is ClaimId.COR4_EQ11]
        assert [r.k for r in cor4] == [0, 1, 2, 3, 4]

    def test_record_order(self):
        report = run_sweep(SweepConfig(pmin=5, pmax=11, nmax=2))
        keys = [record_sort_key(r) for r in report.records]
        assert keys == sorted(keys)

    def test_inapplicable_claim_emits_nothing(self):
        # C1b only applies to p == 1 mod 3; p = 5 contributes no record
        report = run_sweep(_cfg(pmin=5, pmax=5, claims=(ClaimId.C1B,)))
        assert report.records == []
        assert report.summary.records == 0

    def test_summary_per_claim_counts(self):
        report = run_sweep(
            _cfg(pmax=11, claims=(ClaimId.THM1_EQ2, ClaimId.GL0))
        )
        per = {c.value: t for c, t in report.summary.per_claim.items()}
        assert per["Thm1_Eq2"].records == 3
        assert per["GL0"].records == 3
        assert report.summary.passed == 6

    def test_fail_fast_truncates_at_first_failure(self, monkeypatch):
        monkeypatch.setitem(
            CLAIM_REGISTRY, ClaimId.THM2_EQ6, _falsified(ClaimId.THM2_EQ6)
        )
        cfg = _cfg(
            pmax=11,
            claims=(ClaimId.THM1_EQ2, ClaimId.THM2_EQ6),
            fail_fast=True,
        )
        report = run_sweep(cfg)
        # within p=5 the n-independent claim sorts first, so the stream is
        # exactly one failing record
        assert len(report.records) == 1
        assert not report.records[-1].passed
        assert report.summary.first_failure is report.records[-1]

    def test_parallel_matches_serial(self):
        cfg_serial = SweepConfig(pmin=5, pmax=31, nmax=2, jobs=1)
        cfg_parallel = SweepConfig(pmin=5, pmax=31, nmax=2, jobs=3)
        assert render(run_sweep(cfg_serial), "jsonl") == render(
            run_sweep(cfg_parallel), "jsonl"
        )

    def test_byte_determinism_across_runs(self):
        cfg = SweepConfig(pmin=5, pmax=31, nmax=2)
        assert render(run_sweep(cfg), "jsonl") == render(run_sweep(cfg), "jsonl")
        assert render(run_sweep(cfg), "csv") == render(run_sweep(cfg), "csv")


@cache
def _all_claims_records():
    return run_sweep(SweepConfig(pmin=5, pmax=61, nmax=2)).records


class TestSharedSpecs:
    """Claims checked by one function share one registry spec, which runs
    once per prime (per (p, n) when per_n)."""

    def test_work_counts_one_prime(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        modules = [m for name, m in sys.modules.items() if name.startswith("trinocheck")]
        for fn in (ap_harmonic, fermat_quotient, inverse_table, row_mod_p2_prefix,
                   row_mod_prefix):
            wrapped = counting(fn.__name__, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapped)
        replaced = {}
        for claim, spec in list(CLAIM_REGISTRY.items()):
            if spec not in replaced:
                replaced[spec] = ClaimSpec(spec.per_n, counting(spec.run.__name__, spec.run))
            monkeypatch.setitem(CLAIM_REGISTRY, claim, replaced[spec])

        nmax = 8
        report = run_sweep(SweepConfig(pmin=101, pmax=101, nmax=nmax))
        assert report.records
        for grouped in ("check_progression_lemmas", "check_reflections",
                        "check_half_third_sixth"):
            assert calls[grouped] == 1, grouped
        assert calls["check_thm1_eq2"] == nmax
        assert calls["ap_harmonic"] == 5
        assert calls["inverse_table"] == 1
        # q2 and q3, once each, when the prime's context is built
        assert calls["fermat_quotient"] == 2
        # one row per distinct exponent: n*p - 1 and n*p**2 - 1 for n <= nmax;
        # schoolbook powering is a test oracle only
        assert calls["row_mod_p2_prefix"] == 2 * nmax
        assert calls["row_mod_prefix"] == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    @settings(max_examples=15, deadline=None)
    @given(
        subset=st.sets(st.sampled_from(list(ClaimId)), min_size=1),
        pmax=st.integers(5, 61),
    )
    def test_subset_equals_filtered_full_sweep(self, jobs, subset, pmax):
        claims = tuple(c for c in ClaimId if c in subset)
        got = run_sweep(SweepConfig(pmin=5, pmax=pmax, nmax=2, claims=claims, jobs=jobs))
        want = [r for r in _all_claims_records() if r.claim in subset and r.p <= pmax]
        assert got.records == want

    @pytest.mark.parametrize("fail_fast", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    @settings(max_examples=10, deadline=None)
    @given(
        subset=st.sets(st.sampled_from(list(ClaimId))),
        pmax=st.integers(5, 61),
    )
    def test_summary_only_collapses_in_workers(self, jobs, fail_fast, subset, pmax):
        # Carlitz fails at every p >= 7, so with pmax >= 7 fail_fast truncates
        chosen = subset | {ClaimId.CARLITZ, ClaimId.COR4_EQ11}
        claims = tuple(c for c in ClaimId if c in chosen)
        got = run_sweep(SweepConfig(pmin=5, pmax=pmax, nmax=2, claims=claims, jobs=jobs,
                                    fail_fast=fail_fast, summary_only=True))
        want = _collapse(
            [r for r in _all_claims_records() if r.claim in chosen and r.p <= pmax]
        )
        if fail_fast:
            cut = next((i + 1 for i, r in enumerate(want) if not r.passed), len(want))
            want = want[:cut]
        assert got.records == want

    def test_replacing_one_shared_claim(self, monkeypatch):
        def falsified_gl(ctx):
            return [result(ClaimId.GL, ctx.p, ctx.p, 0, 1)]

        untouched = [r for r in _all_claims_records() if r.claim is not ClaimId.GL]
        monkeypatch.setitem(CLAIM_REGISTRY, ClaimId.GL, ClaimSpec(False, falsified_gl))
        records = run_sweep(SweepConfig(pmin=5, pmax=61, nmax=2)).records
        gl = [r for r in records if r.claim is ClaimId.GL]
        assert [r.p for r in gl] == sorted({r.p for r in records})
        assert not any(r.passed for r in gl)
        assert [r for r in records if r.claim is not ClaimId.GL] == untouched


class TestRender:
    def test_jsonl_record_schema(self):
        payload = render(run_sweep(_cfg(pmin=7, pmax=7)), "jsonl")
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
        payload = render(run_sweep(_cfg()), "jsonl")
        trailer = json.loads(payload.decode().splitlines()[-1])
        assert trailer["summary"]["records"] == 2
        assert trailer["summary"]["passed"] == 2
        assert trailer["summary"]["failed"] == 0
        assert trailer["summary"]["per_claim"]["Thm1_Eq2"]["records"] == 2
        assert trailer["summary"]["first_failure"] is None

    def test_empty_record_set_is_summary_only(self):
        report = run_sweep(_cfg(pmin=5, pmax=5, claims=(ClaimId.C1B,)))
        lines = render(report, "jsonl").decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["summary"]["records"] == 0

    def test_csv_layout(self):
        payload = render(run_sweep(_cfg(pmin=7, pmax=7)), "csv").decode()
        lines = payload.splitlines()
        assert lines[0] == "claim,p,n,k,modulus,lhs,rhs,pass"
        assert lines[1] == "Thm1_Eq2,7,1,,49,43,43,true"
        assert lines[2] == "summary,,,,,1,1,true"

    def test_csv_empty_cells_for_absent_n(self):
        # H_3 = 3 mod 7 on both sides
        payload = render(run_sweep(_cfg(pmin=7, pmax=7, claims=(ClaimId.GL0,))), "csv")
        assert payload.decode().splitlines()[1] == "GL0,7,,,7,3,3,true"

    def test_summary_only_collapses_per_instance_claims(self):
        cfg = _cfg(claims=(ClaimId.COR4_EQ11,), summary_only=True)
        report = run_sweep(cfg)
        assert [(r.p, r.n, r.k) for r in report.records] == [(5, 1, None), (7, 1, None)]
        # aggregates carry passed-count vs instance-count
        assert (report.records[0].lhs, report.records[0].rhs) == (5, 5)
        assert (report.records[1].lhs, report.records[1].rhs) == (7, 7)
        assert all(r.passed for r in report.records)

    def test_rejects_unknown_format(self):
        # the format is checked here and by the CLI's --format choices
        with pytest.raises(ValueError, match="unknown format"):
            render(run_sweep(_cfg()), "xml")

    def test_summary_only_keeps_single_instance_claims(self):
        cfg = _cfg(claims=(ClaimId.THM1_EQ2, ClaimId.GL0), summary_only=True)
        assert render(run_sweep(cfg), "jsonl") == render(
            run_sweep(_cfg(claims=(ClaimId.THM1_EQ2, ClaimId.GL0))), "jsonl"
        )


class TestCli:
    def test_exit_zero_and_stdout(self, capsysbinary):
        rc = main(["--pmin", "5", "--pmax", "7", "--nmax", "1", "--claims", "Thm1_Eq2"])
        assert rc == 0
        out = capsysbinary.readouterr().out
        assert b'"claim":"Thm1_Eq2"' in out

    def test_exit_one_on_injected_failure(self, monkeypatch, tmp_path):
        monkeypatch.setitem(
            CLAIM_REGISTRY, ClaimId.THM1_EQ2, _falsified(ClaimId.THM1_EQ2)
        )
        out = tmp_path / "report.jsonl"
        rc = main(
            ["--pmin", "5", "--pmax", "7", "--nmax", "1",
             "--claims", "Thm1_Eq2", "--out", str(out)]
        )
        assert rc == 1
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["pass"] is False
        assert json.loads(lines[-1])["summary"]["failed"] == 2

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

        monkeypatch.setitem(CLAIM_REGISTRY, ClaimId.GL0, ClaimSpec(False, raises))
        out = tmp_path / "r.jsonl"
        previous = b'{"summary":"an earlier run"}\n'
        out.write_bytes(previous)
        rc = main(["--pmin", "5", "--pmax", "13", "--claims", "GL0", "--out", str(out)])
        assert rc == 2
        assert "ZeroDivisionError" in capsys.readouterr().err
        assert out.read_bytes() == previous
        assert [f.name for f in tmp_path.iterdir()] == ["r.jsonl"]

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

        # pool workers are forked, so they see the patched registry too
        monkeypatch.setitem(CLAIM_REGISTRY, ClaimId.GL0, ClaimSpec(False, raises))
        rc = main(["--pmin", "5", "--pmax", "13", "--claims", "GL0,Thm1_Eq2",
                   "--jobs", jobs])
        assert rc == 2
        captured = capfdbinary.readouterr()
        assert captured.out == b""
        assert captured.err.decode().splitlines() == [
            "trinocheck: error: internal error: ZeroDivisionError: "
            "integer division or modulo by zero"
        ]

    def test_bad_out_path_fails_before_sweep(self, monkeypatch, tmp_path, capsys):
        swept = []

        def no_sweep(config):
            swept.append(config)
            raise AssertionError("run_sweep called despite an unwritable --out")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        rc = main(["--pmax", "1009", "--out", str(tmp_path / "missing" / "r.jsonl")])
        assert rc == 2
        assert swept == []
        assert "No such file or directory" in capsys.readouterr().err

    def test_directory_out_path_fails_before_sweep(self, monkeypatch, tmp_path, capsys):
        swept = []
        monkeypatch.setattr(cli, "run_sweep", swept.append)
        rc = main(["--pmax", "1009", "--out", str(tmp_path)])
        assert rc == 2
        assert swept == []
        assert "Is a directory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_jobs_flag(self, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        args = ["--pmin", "5", "--pmax", "31", "--nmax", "1", "--claims", "Thm1_Eq2,Cong0"]
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--jobs", "3", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_import_leaves_numpy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, trinocheck.cli; print('numpy' in sys.modules)"],
            capture_output=True, check=True,
        )
        assert proc.stdout == b"False\n"

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
