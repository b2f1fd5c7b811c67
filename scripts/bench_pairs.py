"""Summarize alternating parent/change benchmark runs into one JSON file.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_7.json

Each tree is a checkout in which ``perfbench/run.py --trace 0`` was run,
once per seed and workload on each side.  Runs are paired by workload and
seed.  For every workload and every end-to-end metric named in the change
tree's ``BENCHMARK.json``, the output records each side's median and
quartiles, and how many pairs the change won (ties count for neither).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def load_runs(tree: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted((tree / "perfbench" / "results").glob("*-trace0.json")):
        run = json.loads(path.read_text())
        runs[run["meta"]["workload"], run["meta"]["seed"]] = run
    return runs


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: dict, change: dict, metrics: list[dict]) -> dict:
    out = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        entry = {
            "seeds": seeds,
            "seconds": pairs[0][0]["meta"]["seconds"],
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "metrics": {},
        }
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            before = [p["metrics"][name]["value"] for p, _ in pairs]
            after = [c["metrics"][name]["value"] for _, c in pairs]
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": spread(before),
                "change": spread(after),
                "wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
                "pairs": len(pairs),
            }
        out[workload] = entry
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    sample = next(iter(change.values()))["meta"]
    doc = {
        "host": {key: sample[key] for key in ("python", "numpy", "nproc", "platform")},
        "source_digest": {
            "parent": sorted({r["meta"]["source_digest"] for r in parent.values()}),
            "change": sorted({r["meta"]["source_digest"] for r in change.values()}),
        },
        "workloads": summarize(parent, change, metrics),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
