"""Run the trinocheck CLI once with per-layer timers and counters.

    python3 bench/traced_cli.py SIDE_FILE -- [trinocheck arguments]

The report goes to stdout exactly as `python -m trinocheck` writes it, and
the exit code is the CLI's.  The per-layer metrics go to SIDE_FILE as JSON.

No source file is edited: the package's public functions are replaced, in
this process only, by wrappers that time and count their calls.  A wrapper
replaces every reference the package holds to the original, both module
attributes and the claim registry's runner closures, and each registry
runner is itself wrapped to time its claim.  Pool workers are forked from
this process, so they inherit the wrappers; each one writes its counters to
a file beside SIDE_FILE as it exits, and they are summed here.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing.util
import os
import resource
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from check import CATALOG

#: (module, function, size of the result counted as work items, or None).
LAYERS = (
    ("trinomial", "row_mod_prefix", len),
    ("trinomial", "coeff_closed_mod_p2", None),
    ("trinomial", "halfrow_binomial_check", None),
    ("harmonic", "inverse_table", None),
    ("harmonic", "harmonic_table", None),
    ("harmonic", "ap_harmonic", None),
    ("harmonic", "check_half_third_sixth", len),
    ("harmonic", "check_reflections", len),
    ("harmonic", "check_progression_lemmas", len),
    ("modular", "fermat_quotient", None),
    ("modular", "sieve_primes", None),
    ("sweep", "run_sweep", lambda report: len(report.records)),
    ("sweep", "render", len),
)
#: Grouped harmonic checkers, and the claims whose runners filter their output.
GROUPED = ("check_half_third_sixth", "check_reflections", "check_progression_lemmas")
GROUPED_CLAIMS = ("GL0", "GL", "GL2", "Cong0", "Cong1", "C1b", "C1c", "C2b", "C2c",
                  "C3", "C3b", "H0", "H1", "H2", "H3")


class Tracer:
    """Accumulated seconds, calls and work items per traced name."""

    def __init__(self, worker_dir: Path) -> None:
        self.secs: Counter = Counter()
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.worker_dir = worker_dir  # where pool workers leave their counts

    def wrap(self, name: str, fn, size=None):
        secs, calls, items = self.secs, self.calls, self.items
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                secs[name] += clock() - start
                calls[name] += 1
            if size is not None:
                items[name] += size(out)
            return out

        return traced

    def add(self, counts: dict) -> None:
        self.secs.update(counts["secs"])
        self.calls.update(counts["calls"])
        self.items.update(counts["items"])

    def counts(self) -> dict:
        return {"secs": dict(self.secs), "calls": dict(self.calls), "items": dict(self.items)}

    def start_worker(self) -> None:
        """In a forked pool worker: count from zero and hand the counts back
        when the worker exits."""
        for counter in (self.secs, self.calls, self.items):
            counter.clear()
        multiprocessing.util.Finalize(None, self.dump_worker, exitpriority=100)

    def dump_worker(self) -> None:
        (self.worker_dir / f"{os.getpid()}.json").write_text(json.dumps(self.counts()))


class _TimedBuffer:
    """stdout's binary buffer, timing the CLI's report writes."""

    def __init__(self, raw, tracer: Tracer) -> None:
        self.raw = raw
        self.write = tracer.wrap("cli.write", raw.write)
        self.flush = tracer.wrap("cli.write", raw.flush)

    def __getattr__(self, name):
        return getattr(self.raw, name)


class _TimedStdout:
    def __init__(self, real, tracer: Tracer) -> None:
        self.real = real
        self.buffer = _TimedBuffer(real.buffer, tracer)

    def __getattr__(self, name):
        return getattr(self.real, name)


def _substitute(original, replacement, modules, closures) -> None:
    """Point every reference the package holds to `original` at `replacement`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
    for fn in closures:
        for cell in fn.__closure__ or ():
            try:
                if cell.cell_contents is original:
                    cell.cell_contents = replacement
            except ValueError:  # empty cell
                pass


def install(tracer: Tracer) -> None:
    import trinocheck  # noqa: F401  (loads every submodule)

    modules = [m for name, m in sys.modules.items()
               if name == "trinocheck" or name.startswith("trinocheck.")]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    registry = getattr(by_name.get("congruences"), "CLAIM_REGISTRY", {})
    runners = [spec.run for spec in registry.values()]
    for module_name, fn_name, size in LAYERS:
        original = getattr(by_name.get(module_name), fn_name, None)
        if original is not None:
            _substitute(original, tracer.wrap(fn_name, original, size), modules, runners)
    for claim, spec in list(registry.items()):
        name = getattr(claim, "value", str(claim))
        registry[claim] = dataclasses.replace(
            spec, run=tracer.wrap(f"claim:{name}", spec.run, len))

    class TimedPool(ProcessPoolExecutor):
        """Times the parent's waits on the pool's results."""

        def map(self, fn, *iterables, **kwargs):
            results = super().map(fn, *iterables, **kwargs)

            def waited():
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(results)
                    except StopIteration:
                        return
                    finally:
                        tracer.secs["pool.wait"] += time.perf_counter() - start
                    yield item

            return waited()

    _substitute(ProcessPoolExecutor, TimedPool, modules, ())
    multiprocessing.util.register_after_fork(tracer, Tracer.start_worker)
    sys.stdout = _TimedStdout(sys.stdout, tracer)


def layer_metrics(tracer: Tracer, parent: dict, main_s: float, worker_cpu_s: float) -> dict:
    """The per-layer metrics, named after their modules.  `parent` holds the
    counts of this process alone, without the workers'."""
    s, c, i = tracer.secs, tracer.calls, tracer.items
    metrics = {
        "trinomial.row_mod_prefix.calls": c["row_mod_prefix"],
        "trinomial.row_mod_prefix.s": s["row_mod_prefix"],
        "trinomial.row_coeffs": i["row_mod_prefix"],
        "trinomial.coeff_closed_mod_p2.calls": c["coeff_closed_mod_p2"],
        "trinomial.coeff_closed_mod_p2.s": s["coeff_closed_mod_p2"],
        "trinomial.halfrow_binomial_check.s": s["halfrow_binomial_check"],
    }
    for name in ("inverse_table", "harmonic_table", "ap_harmonic"):
        metrics[f"harmonic.{name}.calls"] = c[name]
        metrics[f"harmonic.{name}.s"] = s[name]
    built = sum(i[name] for name in GROUPED)
    kept = sum(i[f"claim:{name}"] for name in GROUPED_CLAIMS)
    metrics["harmonic.lemma_useful_ratio"] = kept / built if built else 0.0
    metrics["modular.fermat_quotient.calls"] = c["fermat_quotient"]
    metrics["modular.sieve_primes.s"] = s["sieve_primes"]
    for claim in CATALOG:
        metrics[f"congruences.{claim.name}.s"] = s[f"claim:{claim.name}"]
    ps = parent["secs"]
    parent_claims_s = sum(v for k, v in ps.items() if k.startswith("claim:"))
    metrics.update({
        "sweep.run_sweep.s": s["run_sweep"],
        "sweep.self.s": ps.get("run_sweep", 0.0) - parent_claims_s
        - ps.get("pool.wait", 0.0) - ps.get("sieve_primes", 0.0),
        "sweep.render.s": s["render"],
        "sweep.records": i["run_sweep"],
        "sweep.report_bytes": i["render"],
        "sweep.pool.wait_s": s["pool.wait"],
        "sweep.pool.worker_cpu_s": worker_cpu_s,
        "cli.main.s": main_s,
        "cli.write.s": s["cli.write"],
    })
    return metrics


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SIDE_FILE -- [trinocheck arguments]", file=sys.stderr)
        return 2
    side, cli_args = Path(argv[0]), argv[2:]
    tracer = Tracer(side.with_name(side.name + ".workers"))
    tracer.worker_dir.mkdir(parents=True, exist_ok=True)
    install(tracer)
    from trinocheck import cli

    cpu_before = _children_cpu()
    start = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - start
    worker_cpu_s = _children_cpu() - cpu_before
    parent = tracer.counts()
    for path in sorted(tracer.worker_dir.glob("*.json")):
        tracer.add(json.loads(path.read_text()))
        path.unlink()
    tracer.worker_dir.rmdir()
    side.write_text(json.dumps(layer_metrics(tracer, parent, main_s, worker_cpu_s), indent=1))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
