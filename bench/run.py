"""trinocheck benchmark: run one workload through the real CLI and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is `python -m trinocheck`
with `src` on PYTHONPATH, one process at a time, its report drained from a
stdout pipe into memory and checked after the process exits.  A run repeats
the workload in whole rounds while another round still fits in S seconds
(at least one round; two, one untraced and one traced, with --trace 1).
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
`--workload all` runs every workload in turn and prints one such line each.
See bench/README.md for the workloads, the metrics and how a run's rounds
become one number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

ROW_CLAIMS = ("Thm1_Eq2", "Thm1_Eq4", "Prop3_Eq9", "Prop3_Eq10", "Cor4_Eq11")
LEMMA_CLAIMS = tuple(c.name for c in check.CATALOG if c.name not in ROW_CLAIMS)
ALL_CLAIMS = tuple(c.name for c in check.CATALOG)

#: Fresh interpreters timed per run for setup_s, at least: one before each
#: round, then more after the last round up to this count.  The median is
#: reported.
SETUP_REPEATS = 7
#: The speed probe's loop takes this long on the machine at the speed that
#: timings are reported at (it was sized to take about that long here).
PROBE_REF_S = 0.001
#: Pause between two probes: the probe takes about 5% of the CPU it shares.
PROBE_GAP_S = 0.02
#: A round still running this long after the run began is killed as hung,
#: so that the run ends within its 180 s limit.
HANG_S = 150.0


@dataclass(frozen=True)
class Workload:
    """A fixed sweep: the report it must produce, its worker count and the
    exit code it must end with (1 when the cataloged Carlitz claim fails)."""

    spec: check.Spec
    jobs: int
    exit_code: int

    def argv(self) -> list[str]:
        s = self.spec
        args = ["--pmin", str(s.pmin), "--pmax", str(s.pmax), "--nmax", str(s.nmax)]
        if s.claims != ALL_CLAIMS:
            args += ["--claims", ",".join(s.claims)]
        args += ["--format", s.fmt, "--jobs", str(self.jobs)]
        return args + (["--summary-only"] if s.summary_only else [])


# Why each workload, and why its range, is in bench/README.md.
WORKLOADS = {
    # what users run: every claim, so every layer, and the JSONL renderer
    "default_sweep": Workload(check.Spec(5, 500, 8, ALL_CLAIMS, "jsonl", False), 1, 1),
    # the row-reading claims only: the trinomial row engine and the pool
    "row_engine": Workload(check.Spec(5, 600, 16, ROW_CLAIMS, "csv", True), 2, 0),
    # no trinomial rows: closed forms, harmonic tables, the CSV renderer
    "lemma_report": Workload(check.Spec(5, 1009, 8, LEMMA_CLAIMS, "csv", False), 1, 1),
}


@dataclass
class Round:
    wall_s: float
    first_record_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int | None  # None: killed as hung
    report: bytes
    stderr: bytes
    slowness: float  # mean probe time / PROBE_REF_S while the process ran


def _probe_loop() -> int:
    total = 0
    for i in range(20000):
        total += i
    return total


class SpeedProbe(threading.Thread):
    """Times a fixed pure-Python loop every PROBE_GAP_S, on the CPUs a timed
    process runs on, for as long as that process runs.

    This machine's speed drifts by tens of percent within seconds and
    minutes, and CPU time drifts with it.  A process's times divided by its
    slowness (mean probe time / PROBE_REF_S) read as times on the machine
    running at reference speed; on this machine the probe's time and a
    `default_sweep` round's time correlated 0.96 over 18 rounds.
    """

    def __init__(self, cpus: list[int]) -> None:
        super().__init__(daemon=True)
        self.cpus = cpus
        self.samples: list[float] = []
        self.halt = threading.Event()

    def run(self) -> None:
        while True:
            os.sched_setaffinity(0, {self.cpus[len(self.samples) % len(self.cpus)]})
            start = time.perf_counter()
            _probe_loop()
            self.samples.append(time.perf_counter() - start)
            if self.halt.wait(PROBE_GAP_S):
                return

    def slowness(self) -> float:
        self.halt.set()
        self.join()
        return statistics.fmean(self.samples) / PROBE_REF_S


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)


#: Runs in a small interpreter between the benchmark and each timed process:
#: argv is the fd to report on, the CPUs (JSON) and the command.  A process
#: started straight from the benchmark would count the benchmark's own peak
#: RSS as its own (Linux carries the parent's high-water mark into the
#: child's ru_maxrss across exec), so this launcher starts the process,
#: reaps it and reports its launch and exit times and its rusage.
_LAUNCHER = """
import json, os, sys, time
cpus = json.loads(sys.argv[2])
if cpus:
    os.sched_setaffinity(0, cpus)
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[3], sys.argv[3:], os.environ)
_, status, usage = os.wait4(pid, 0)
end = time.perf_counter()
os.write(int(sys.argv[1]), json.dumps([start, end, os.waitstatus_to_exitcode(status),
         usage.ru_utime + usage.ru_stime, usage.ru_maxrss]).encode())
"""


def run_round(cmd: list[str], header_lines: int, deadline: float,
              cpus: list[int] | None = None) -> Round:
    """Launch `cmd`, drain its stdout into memory, and time it: launch to
    exit, launch to the first complete record line, and the CPU and peak RSS
    of the process and its reaped workers (wait4 reports both).  With `cpus`,
    the process is held to those CPUs and a SpeedProbe runs on them."""
    start = time.perf_counter()
    status_r, status_w = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", _LAUNCHER, str(status_w), json.dumps(cpus or []), *cmd],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(), process_group=0,
        pass_fds=(status_w,))
    os.close(status_w)
    probe = None
    if cpus:
        probe = SpeedProbe(cpus)
        probe.start()
    out, err = [], []
    first_record = None
    newlines = 0
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                os.killpg(proc.pid, signal.SIGKILL)  # launcher, CLI and pool workers
                break
            for key, _ in sel.select(remaining):
                chunk = os.read(key.fd, 1 << 20)
                if not chunk:
                    sel.unregister(key.fileobj)
                    continue
                key.data.append(chunk)
                if key.data is out and first_record is None:
                    newlines += chunk.count(b"\n")
                    if newlines > header_lines:
                        first_record = time.perf_counter()
        proc.wait()
    slowness = probe.slowness() if probe else 1.0
    with os.fdopen(status_r, "rb") as fh:
        status = fh.read()
    proc.stdout.close()
    proc.stderr.close()
    if status:  # the launcher reaped the process
        launched, ended, exit_code, cpu, maxrss_kb = json.loads(status)
    else:  # killed as hung
        launched, ended, exit_code, cpu, maxrss_kb = start, time.perf_counter(), None, 0.0, 0
    wall = ended - launched
    return Round(
        wall_s=wall,
        first_record_s=wall if first_record is None else first_record - launched,
        cpu_s=cpu,
        peak_rss_mb=maxrss_kb / 1024,
        exit_code=exit_code,
        report=b"".join(out),
        stderr=b"".join(err),
        slowness=slowness,
    )


def setup_round(workload: Workload, cpus: list[int]) -> Round:
    """A fresh interpreter that imports trinocheck and parses the workload's
    arguments; `--help` after them stops the CLI before any prime is
    checked."""
    cmd = [sys.executable, "-m", "trinocheck", *workload.argv(), "--help"]
    r = run_round(cmd, 0, time.perf_counter() + HANG_S, cpus)
    if r.exit_code != 0:
        raise SystemExit(f"bench: setup exited {r.exit_code}: {r.stderr.decode()[-300:]}")
    return r


def require_source() -> None:
    """Fail unless `src/trinocheck` of this checkout is what gets imported."""
    probe = subprocess.run(
        [sys.executable, "-c", "import trinocheck; print(trinocheck.__file__)"],
        capture_output=True, text=True, env=_env())
    want = ROOT / "src" / "trinocheck"
    if probe.returncode != 0 or Path(probe.stdout.strip()).resolve().parent != want.resolve():
        raise SystemExit(f"bench: cannot import trinocheck from {want}: "
                         f"{probe.stderr.strip()[-300:] or probe.stdout.strip()}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: the result object, and the medians as measured (before
    dividing by slowness) with the median slowness."""
    workload = WORKLOADS[name]
    require_source()
    allowed = sorted(os.sched_getaffinity(0))
    # The CLI is held to as many CPUs as it has processes at work, and the
    # probe shares them.
    cpus = None if trace else allowed[:workload.jobs]
    setups: list[Round] = []
    OUT.mkdir(exist_ok=True)
    header_lines = 1 if workload.spec.fmt == "csv" else 0
    cli = [sys.executable, "-m", "trinocheck", *workload.argv()]
    rounds: list[Round] = []
    traced: list[bool] = []
    layers: list[dict] = []
    reports: dict[str, bytes] = {}  # one copy of each distinct report
    digests: list[str] = []
    start = time.perf_counter()
    while True:
        if not trace:
            setups.append(setup_round(workload, allowed[:1]))
        traced.append(trace and len(rounds) % 2 == 1)
        side = OUT / f"trace-{name}-{seed}-{len(rounds)}.json"
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(side), "--", *workload.argv()] \
            if traced[-1] else cli
        r = run_round(cmd, header_lines, start + HANG_S, cpus)
        if traced[-1] and side.exists():
            layers.append(json.loads(side.read_text()))
        digests.append(hashlib.sha256(r.report).hexdigest())
        reports.setdefault(digests[-1], r.report)
        r.report = b""
        rounds.append(r)
        if r.exit_code is None:
            break
        elapsed = time.perf_counter() - start
        slowest = max(x.wall_s for x in rounds)
        if (not trace or len(rounds) % 2 == 0) and elapsed + slowest > seconds:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setups.append(setup_round(workload, allowed[:1]))

    verdicts = {d: check.check_report(report, workload.spec, seed) for d, report in reports.items()}
    attempted = failed = 0
    for r, digest in zip(rounds, digests):
        v = verdicts[digest]
        attempted += v.attempted
        exit_ok = r.exit_code == workload.exit_code == int(v.any_record_fails)
        failed += v.failed if exit_ok else v.attempted
        if not exit_ok or v.failed:
            problems = v.problems or [f"exit code {r.exit_code}, want {workload.exit_code}"]
            print(f"bench: {name}: round failed: " + "; ".join(problems[:5]), file=sys.stderr)
            if r.stderr:
                print(r.stderr.decode(errors="replace")[-2000:], file=sys.stderr)

    plain = [r for r, t in zip(rounds, traced) if not t]
    measured: dict = {}
    if trace:
        metrics = trace_metrics([r for r, t in zip(rounds, traced) if t], layers, plain)
        (OUT / f"layers-{name}-{seed}.json").write_text(
            json.dumps({k: v for k, (v, _) in metrics.items()}, indent=1))
    else:
        def median(field: str, of: list[Round] = plain) -> float:
            return statistics.median(getattr(r, field) / r.slowness for r in of)

        wall = median("wall_s")
        metrics = {
            "wall_s": (wall, "s"),
            "first_record_s": (median("first_record_s"), "s"),
            "records_per_s": (verdicts[digests[0]].records / wall, "records/s"),
            "cpu_s": (median("cpu_s"), "s"),
            "peak_rss_mb": (max(r.peak_rss_mb for r in plain), "MB"),
            "setup_s": (median("wall_s", setups), "s"),
        }
        measured = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "setup_s": statistics.median(r.wall_s for r in setups),
            "slowness": statistics.median(r.slowness for r in plain),
            "rounds": len(plain),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, measured


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def trace_metrics(traced: list[Round], layers: list[dict], plain: list[Round]) -> dict:
    """Per-layer medians over the traced rounds, plus the tracing overhead:
    median traced wall_s minus median untraced wall_s."""
    if not layers:
        raise SystemExit("bench: the traced round wrote no per-layer metrics")
    metrics = {
        name: (statistics.median(float(m[name]) for m in layers), layer_unit(name))
        for name in layers[0]
    }
    overhead = statistics.median(r.wall_s for r in traced) - statistics.median(
        r.wall_s for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the records whose left sides are recomputed")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, measured = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        if measured:
            print(f"{name} as measured: " + " ".join(f"{k} {v:.6g}" for k, v in measured.items()))
        print(f"{name} attempted {result['attempted']} failed {result['failed']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
