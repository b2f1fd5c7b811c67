"""The benchmark's own test: gate self-test, smoke run, determinism.

    python3 perfbench/selftest.py

1. Injected wrong answers: a perturbed value and a NaN, on a tensor, an
   optimizer and a CLI op, must each be counted as a failed op.
2. Every workload at tiny size, untraced and traced, must exit 0 and end
   with a correct result line naming exactly the metrics of BENCHMARK.json,
   with their units.
3. Two traced runs with one seed must repeat the exact counts and the
   optimizer best values.
4. Without the program's sources next to it, the benchmark must exit
   non-zero and print no result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile

import run  # pins the BLAS threads before numpy loads

EXACT_COUNTS = ("tensor.subsets", "tensor.pair_choices",
                "supremum.objective.calls", "supremum.restarts")
PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def gate_selftest() -> None:
    import numpy as np

    import workloads
    from etensor.tensor import TensorReport

    def bad_report(report, value):
        components = dict(report.components)
        pair = next(s for s in components if s.size == 2)
        components[pair] = value(components[pair])
        return TensorReport(report.structure, report.scheme, components)

    def bad_search(result, value):
        return dataclasses.replace(result, best_value=value(result.best_value))

    def bad_cli(result, value):
        code, out = result
        doc = json.loads(out)
        doc["value"] = value(doc["value"])
        return code, json.dumps(doc)

    rng = np.random.default_rng(0)
    tensor_op = workloads.build_many_subsets(rng, True, "")[0]
    search_op = workloads.build_optimize(rng, True, "")[1]
    with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
        cli_op = next(op for op in workloads.build_cli(rng, True, workdir)
                      if op.kind == "oracle-purity")
        # each perturbation is ten times the check's tolerance
        for op, corrupt, delta in ((tensor_op, bad_report, 1e-9),
                                   (search_op, bad_search, -1e-3),
                                   (cli_op, bad_cli, 1e-9)):
            clean = op.run()
            for label, value in (("perturbed", lambda v, d=delta: v + d),
                                 ("NaN", lambda v: math.nan)):
                loop = run.Loop([op, dataclasses.replace(
                    op, run=lambda c=clean, f=value: corrupt(c, f))])
                loop.round()
                expect(loop.attempted == 2 and loop.failed == 1,
                       f"{op.kind}: {label} value counted as failed, "
                       "clean value passed")


def smoke(workload: str, trace: int, seed: int = 3) -> dict | None:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    try:
        last = json.loads(done.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        last = None
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    ok = (done.returncode == 0 and last is not None
          and sorted(last) == ["attempted", "correct", "failed", "metrics"]
          and last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
          and {k: m["unit"] for k, m in last["metrics"].items()} == units)
    expect(ok, f"{workload} trace {trace}: tiny run passes its checks")
    if not ok:
        print(done.stdout[-2000:], done.stderr[-2000:])
        return None
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(run.RESULTS / f"{tag}.json") as fh:
        return json.load(fh)


def bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory(dir=run.HERE) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("results", "work", "tmp*",
                                                      "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-mixed",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    sys.path[:0] = [str(run.SRC)]
    from workloads import WORKLOADS

    gate_selftest()
    for workload in WORKLOADS:
        smoke(workload, 0)
        first = smoke(workload, 1)
        second = smoke(workload, 1)
        if first and second:
            same = all(first["metrics"][k] == second["metrics"][k]
                       for k in EXACT_COUNTS)
            same = same and (first["detail"]["best_values"]
                             == second["detail"]["best_values"])
            expect(same, f"{workload}: exact counts and best values repeat")
    bare_directory_fails()
    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
