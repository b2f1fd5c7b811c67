"""Seeded end-to-end and per-layer benchmark of etensor.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: the next op starts when the previous
one has returned and been checked.  A run repeats the workload's pool of
inputs in whole rounds; the latency and throughput metrics are taken over
each input's fastest repetition, which filters the slow spells of a shared
host.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics per traced round,
plus the traced-to-untraced throughput ratio.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with run metadata, goes to ``perfbench/results/``.  The program is
imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# one BLAS/OpenMP thread (at most nproc): the matrices are tiny, and extra
# threads would only contend for the cores with the benchmark process itself
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import gate  # noqa: E402  (numpy loads here, after the pinning above)
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 9
MIN_ROUNDS = 3
MAX_ERRORS_KEPT = 20

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import etensor; "
    "print(time.perf_counter() - t, etensor.__file__)"
)

clock = time.perf_counter


def fresh_import_seconds() -> float:
    """Time of ``import etensor`` in a new interpreter, as a CLI call pays it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = done.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"etensor imported from {path}, not {SRC}")
    return float(seconds)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that
    still has at least ten samples above it, or the maximum below 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Loop:
    """Runs the pool's ops, times them, checks them, and counts failures."""

    def __init__(self, pool) -> None:
        self.pool = pool
        self.samples: list[list[float]] = [[] for _ in pool]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, index: int, counts: dict | None = None) -> float:
        """One op; returns its latency.  ``counts`` marks a traced op."""
        op = self.pool[index]
        self.attempted += 1
        error = None
        start = clock()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises is a failed op
            latency = clock() - start
            error = f"{op.kind}: raised {exc!r}"
        else:
            latency = clock() - start
            try:
                op.check(result)
                if counts is not None and op.replay is not None:
                    op.replay(result)
                if counts is not None and op.tally is not None:
                    op.tally(result, counts)
            except gate.GateFailure as exc:
                error = f"{op.kind}: {exc}"
            except Exception as exc:  # malformed output
                error = f"{op.kind}: unreadable output {exc!r}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(error)
        self.samples[index].append(latency)
        return latency

    def round(self, counts: dict | None = None) -> float:
        """The whole pool once, in order; returns its op time."""
        return sum(self.run(i, counts) for i in range(len(self.pool)))

    def best(self) -> list[float]:
        """Each input's fastest repetition."""
        return [min(samples) for samples in self.samples]



def run_rounds(loop: Loop, seconds: float, between) -> int:
    """Whole rounds while the next one fits, and at least MIN_ROUNDS;
    ``between`` runs after each round, outside the op times."""
    start = clock()
    rounds = 0
    while rounds < MIN_ROUNDS or (clock() - start) * (rounds + 1) / rounds <= seconds:
        loop.round()
        rounds += 1
        between()
    return rounds


def run_traced(loop: Loop, seconds: float, workload, between):
    """Untraced and traced rounds, alternating."""
    recorder = spans.Recorder()
    counts: dict = defaultdict(int, best_values=[])
    untraced = traced = 0.0
    rounds = 0
    start = clock()
    while rounds == 0 or (clock() - start) * (rounds + 1) / rounds <= seconds:
        untraced += loop.round()
        for patch in workload.patches():
            counter = patch.count
            recorder.patch(patch.module, patch.attr, patch.span,
                           patch.result_span,
                           None if counter is None else
                           (lambda args, kwargs, c=counter: c(counts, args, kwargs)))
        try:
            for index in range(len(loop.pool)):
                recorder.op += 1
                traced += loop.run(index, counts)
        finally:
            recorder.unpatch()
        rounds += 1
        between()
    return recorder, counts, rounds, untraced, traced


# per_layer metrics of BENCHMARK.json, in order
CALL_SPANS = [
    "tensor.full_tensor", "tensor.compile", "tensor.evaluate",
    "tensor.component", "tensor.separability_scan",
    "supremum.maximize", "supremum.objective",
    "ketparse.parse_ket", "ketparse.load_ket_json", "ketparse.state_to_dict",
    "localops.apply_local", "localops.measure_party", "localops.regroup",
    "localops.trace_to_pair", "oracles", "cli.main",
]
COUNT_METRICS = [
    "tensor.subsets", "tensor.pair_choices", "tensor.sectors",
    "tensor.gathered_bytes_computed", "supremum.restarts", "cli.stdout_bytes",
]


def per_layer(recorder, counts: dict, rounds: int, untraced: float,
              traced: float) -> dict:
    busy, own, calls = spans.busy_and_self(recorder.spans)
    metrics = {}
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / rounds, "count")
        metrics[f"{name}.s"] = (busy.get(name, 0.0) / rounds, "s")
    metrics["supremum.self_s"] = (own.get("supremum.maximize", 0.0) / rounds, "s")
    metrics["cli.self_s"] = (own.get("cli.main", 0.0) / rounds, "s")
    for name in COUNT_METRICS:
        unit = "bytes" if "bytes" in name else "count"
        metrics[name] = (counts[name] / rounds, unit)
    restarts = counts["supremum.restarts"]
    metrics["supremum.restarts_at_best_ratio"] = (
        counts["supremum.restarts_at_best"] / restarts if restarts else 0.0, "ratio")
    # same ops both ways, so the time ratio is the throughput ratio
    metrics["trace.throughput_ratio"] = (untraced / traced, "ratio")
    return metrics


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    best = loop.best()
    value, _, _ = tail(best)
    completed = (loop.attempted - loop.failed) / loop.attempted
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (completed * len(best) / sum(best), "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "etensor" / "__init__.py").is_file():
        print(f"error: no etensor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import etensor
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workload = workloads.WORKLOADS[args.workload]
    meta = {
        "workload": workload.name, "why": workload.why, "sizes": workload.sizes,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "commit": commit(), "source_digest": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "etensor": etensor.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_threads": int(THREADS),
        "loadavg_start": os.getloadavg(), "platform": platform.platform(),
    }
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = HERE / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    setups: list[float] = []

    def set_up(directory: Path):
        """Fresh import plus input generation, timed as one set-up."""
        directory.mkdir(exist_ok=True)
        imported = fresh_import_seconds()
        start = clock()
        pool = workload.build(np.random.default_rng(args.seed), args.tiny,
                              str(directory))
        setups.append(imported + clock() - start)
        return pool

    def spare_set_up() -> None:
        # the other set-ups are spread between rounds, so that their median
        # samples the whole run rather than one moment of a shared host
        if len(setups) < SETUP_REPEATS:
            set_up(workdir / "spare")

    try:
        loop = Loop(set_up(workdir / "pool"))
        start = clock()
        if args.trace:
            recorder, counts, rounds, untraced, traced = run_traced(
                loop, args.seconds, workload, spare_set_up)
        else:
            rounds = run_rounds(loop, args.seconds, spare_set_up)
        measured = clock() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < SETUP_REPEATS:
            spare_set_up()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(setups)
    if args.trace:
        metrics = per_layer(recorder, counts, rounds, untraced, traced)
    else:
        metrics = end_to_end(loop, setup_s, peak)

    best = loop.best()
    value, percentile, beyond = tail(best)
    by_kind: dict[str, list[float]] = {}
    for op, latency in zip(loop.pool, best):
        by_kind.setdefault(op.kind, []).append(latency)
    detail = {
        "rounds": rounds, "measured_s": measured, "setup_samples_s": setups,
        "ops": loop.attempted, "failed_ratio": loop.failed / loop.attempted,
        "errors": loop.errors,
        "latency_tail": {"percentile": percentile, "inputs": len(best),
                         "samples_beyond": beyond, "ms": value * 1e3},
        "median_best_ms_by_kind": {k: statistics.median(v) * 1e3
                                   for k, v in sorted(by_kind.items())},
        "latencies_ms_by_op": [[x * 1e3 for x in samples]
                               for samples in loop.samples],
    }
    if args.trace:  # every traced round repeats the first one
        values = counts["best_values"]
        detail["best_values"] = values[:len(values) // rounds]
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        recorder.write(str(RESULTS / f"{tag}-spans.json"))
    summary = {
        "correct": loop.failed == 0, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in metrics.items()},
    }
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump({"meta": meta, "detail": detail, **summary}, fh, indent=1)

    for name, (v, unit) in metrics.items():
        print(f"{name:40s} {v:.6g} {unit}")
    print(f"{'failed_ratio':40s} {detail['failed_ratio']:.6g} "
          f"({loop.failed}/{loop.attempted})")
    print(f"{'latency_tail':40s} p{percentile:.2f} of {len(best)} inputs' "
          f"fastest latencies, {beyond} beyond; {rounds} rounds")
    for error in loop.errors:
        print(f"FAILED {error}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
