#!/usr/bin/env python3
"""Benchmark of crouzeix-lab: seeded workloads through the public API and CLI.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload plane --seed 101 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

--trace 0 times the end-to-end metrics with nothing wrapped.  --trace 1 runs
a third of the time untraced, then the same inputs again with every probe in
layers.py installed, and reports the per-layer metrics, the tracing overhead,
and a failure for any result that differs between the two passes.

Each metric is printed as "workload.name value unit"; the last line is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, with provenance, goes to perfbench/_out/.  Exit status 0 once the
run completes, 2 when the program's sources are not next to the benchmark.
"""

import os

# one thread for every BLAS and OpenMP pool, set before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import layers
    import workloads
    from crouzeix_lab import region_certifier
    from spans import Tracer
except ImportError as exc:  # the program's sources are not next to the benchmark
    _IMPORT_ERROR = exc
else:
    _IMPORT_ERROR = None

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
#: the end-to-end metrics in BENCHMARK.json; the rest of a run's figures are
#: printed and stored as extras (see README.md for why)
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
}
_SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "sys.exit(workloads.setup_probe(sys.argv[3]))"
)
_KEEP_MESSAGES = 10


@dataclass
class Phase:
    """What one timed loop did."""

    durations: list = field(default_factory=list)
    fingerprints: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    certs: int = 0
    csv_bytes: int = 0
    ratios: list = field(default_factory=list)
    r1_hits: int = 0
    r1_misses: int = 0

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.messages) < _KEEP_MESSAGES:
            self.messages.append(msg)

    def absorb(self, other: "Phase") -> None:
        """Count another phase's attempts and failures as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages = (other.messages + self.messages)[:_KEEP_MESSAGES]

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / sum(self.durations) if self.durations else 0.0


def _attempt(ph, wl, inp, tracer, timed: bool) -> None:
    ph.attempted += 1
    try:
        t0 = time.perf_counter()
        if tracer is None:
            out = wl.op(inp)
        else:
            with tracer.span("op"):
                out = wl.op(inp)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        outcome = wl.check(inp, out)
    except Exception as exc:  # an operation that raises counts as failed
        ph.fail(f"{type(exc).__name__}: {exc}")
        if timed:
            ph.fingerprints.append(None)
        return
    finally:
        if tracer is not None:
            tracer.discard()
    if outcome.failures:
        ph.fail("; ".join(outcome.failures))
    if not timed:
        return
    ph.fingerprints.append(None if outcome.failures else outcome.fingerprint)
    if outcome.failures:
        return
    ph.durations.append(dt)
    ph.certs += outcome.certs
    ph.csv_bytes += outcome.csv_bytes
    if outcome.best_ratio is not None:
        ph.ratios.append(outcome.best_ratio)


def run_phase(wl, seed: int, seconds: float, tracer=None) -> Phase:
    """Warm up on the fixed first input, then run seeded inputs for `seconds`."""
    ph = Phase()
    workloads.reset_caches()
    _attempt(ph, wl, wl.first_input(), None, timed=False)
    inputs = wl.inputs(seed)
    hits0, misses0 = workloads.r1_counts()
    with tracer.installed(layers.PROBES) if tracer else contextlib.nullcontext():
        stop = time.perf_counter() + seconds
        while time.perf_counter() < stop:
            _attempt(ph, wl, next(inputs), tracer, timed=True)
    hits1, misses1 = workloads.r1_counts()
    ph.r1_hits, ph.r1_misses = hits1 - hits0, misses1 - misses0
    return ph


def run_replays(ph: Phase, repeats: int, tracer=None) -> list:
    """Time `replay` `repeats` times; a chain that fails counts as a failure."""
    times = []
    for _ in range(repeats):
        ph.attempted += 1
        try:
            t0 = time.perf_counter()
            with tracer.installed(layers.PROBES) if tracer else contextlib.nullcontext():
                report = region_certifier.replay_proofs()
            times.append(time.perf_counter() - t0)
        except Exception as exc:  # a replay that raises counts as failed
            ph.fail(f"replay: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.end_op()
        if not report.all_passed:
            ph.fail("replay: a chain failed")
    return times


def measure_setup(ph: Phase, wl) -> list:
    """Wall time of fresh interpreters that import the package and run the first op."""
    times = []
    for _ in range(SETUP_REPEATS):
        ph.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CODE, str(BENCH_DIR), str(SRC), wl.name],
                cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=SETUP_TIMEOUT_S, text=True,
            )
        except subprocess.TimeoutExpired:
            ph.fail(f"setup probe exceeded {SETUP_TIMEOUT_S} s")
            continue
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            ph.fail(f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times


def _percentile(values: list, pct: float) -> float:
    return float(np.percentile(values, pct)) if values else 0.0


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(wl, seed: int, seconds: float):
    setup = Phase()
    setups = measure_setup(setup, wl)
    loop = run_phase(wl, seed, seconds)
    replays = run_replays(loop, wl.replays)
    loop.absorb(setup)
    ms = [1e3 * d for d in loop.durations]
    metrics = {"setup_s": _median(setups), "ops_per_s": loop.ops_per_s}
    tail = _percentile(ms, wl.tail_pct)
    extra = {
        "op_ms_p50": (_percentile(ms, 50.0), "ms"),
        "op_ms_tail": (tail, "ms"),
        "tail_pct": (wl.tail_pct, "%"),
        "tail_samples_beyond": (sum(1 for v in ms if v > tail), "count"),
        "ops": (len(ms), "count"),
        "fail_frac": (loop.failed / loop.attempted, "ratio"),
    }
    if loop.certs:
        extra["certs_per_s"] = (loop.certs / sum(loop.durations), "1/s")
    if loop.ratios:
        extra["best_ratio_mean"] = (statistics.fmean(loop.ratios), "ratio")
    if replays:
        extra["replay_s"] = (_median(replays), "s")
    detail = {"setup_runs_s": setups, "replay_runs_s": replays}
    return loop, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, extra, detail


def per_layer(wl, seed: int, seconds: float):
    plain = run_phase(wl, seed, seconds / 3.0)
    tracer = Tracer()
    traced = run_phase(wl, seed, 2.0 * seconds / 3.0, tracer)
    run_replays(traced, min(wl.replays, 1), tracer)
    for i, (a, b) in enumerate(zip(plain.fingerprints, traced.fingerprints)):
        if a is not None and b is not None and a != b:
            traced.fail(f"op {i}: traced result differs from the untraced one")
    traced.absorb(plain)
    values = layers.layer_metrics(
        tracer,
        r1_hits=traced.r1_hits,
        r1_misses=traced.r1_misses,
        certs=traced.certs,
        csv_bytes=traced.csv_bytes,
        untraced_ops_per_s=plain.ops_per_s,
        traced_ops_per_s=traced.ops_per_s,
    )
    units = dict(layers.METRICS)
    spans = {name: {"calls": s.calls, "total_s": s.total, "self_s": s.self, "work": s.work}
             for name, s in sorted(tracer.stats.items())}
    detail = {"spans": spans, "missing_probes": tracer.missing}
    return traced, {k: (v, units[k]) for k, v in values.items()}, {}, detail


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, seconds: float) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "seconds": seconds,
        "src_lines": src_lines,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_one(wl, seed: int, seconds: float, trace: bool):
    """Run a workload, print its metrics, and write its result file."""
    measure = per_layer if trace else end_to_end
    ph, metrics, extra, detail = measure(wl, seed, seconds)
    print(f"# {wl.name} seed={seed} trace={int(trace)} attempted={ph.attempted} failed={ph.failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{wl.name}.{name} {value:.6g} {unit}")
    for msg in ph.messages:
        print(f"# failure: {msg}")
    result = {
        "workload": wl.name,
        "trace": int(trace),
        "attempted": ph.attempted,
        "failed": ph.failed,
        "failures": ph.messages,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "provenance": provenance(seed, seconds),
        **detail,
    }
    out = workloads.OUT_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    return ph, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("plane", "search", "perm", "matrix", "all"))
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _IMPORT_ERROR is not None:
        print(f"error: cannot import the program from {SRC}: {_IMPORT_ERROR}", file=sys.stderr)
        return 2
    workloads.OUT_DIR.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        seed = wl.default_seed if args.seed is None else args.seed
        ph, m = run_one(wl, seed, args.seconds, bool(args.trace))
        attempted += ph.attempted
        failed += ph.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
