"""Summarize alternating parent/change benchmark runs into one JSON file.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_7.json \
        [--control CONTROL_TREE]

Each tree is a checkout in which ``perfbench/run.py --trace 0`` was run,
once per seed and workload on each side.  Runs are paired by workload and
seed.  For every workload and every end-to-end metric named in the change
tree's ``BENCHMARK.json``, the output records each side's median and
quartiles, and how many pairs the change won (ties count for neither).
A control tree is an unchanged copy of the parent, run on the same seeds:
its median, quartiles and wins against the parent, over the seeds it
shares with the pairs, show how far two runs of the same code drift.
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


def wins(before: list[float], after: list[float], sign: int) -> int:
    """Pairs in which ``after`` is better than ``before``; ties count for neither."""
    return sum(sign * (a - b) > 0 for b, a in zip(before, after))


def summarize(parent: dict, change: dict, metrics: list[dict],
              control: dict | None = None) -> dict:
    out = {}
    control = control or {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        controlled = [s for s in seeds if (workload, s) in control]
        entry = {
            "seeds": seeds,
            "seconds": pairs[0][0]["meta"]["seconds"],
            "failed": {"parent": sum(p["failed"] for p, _ in pairs),
                       "change": sum(c["failed"] for _, c in pairs)},
            "metrics": {},
        }
        if controlled:
            entry["failed"]["control"] = sum(control[workload, s]["failed"]
                                             for s in controlled)
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            before = [p["metrics"][name]["value"] for p, _ in pairs]
            after = [c["metrics"][name]["value"] for _, c in pairs]
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": spread(before),
                "change": spread(after),
                "wins": wins(before, after, sign),
                "pairs": len(pairs),
            }
            if controlled:
                base, same = ([side[workload, s]["metrics"][name]["value"]
                               for s in controlled] for side in (parent, control))
                entry["metrics"][name]["control"] = {
                    **spread(same), "wins": wins(base, same, sign),
                    "pairs": len(controlled)}
        out[workload] = entry
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--control", type=Path,
                        help="tree of an unchanged copy of the parent, same seeds")
    args = parser.parse_args()
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {"parent": args.parent, "change": args.change}
    if args.control:
        trees["control"] = args.control
    runs = {side: load_runs(tree) for side, tree in trees.items()}
    sample = next(iter(runs["change"].values()))["meta"]
    doc = {
        "host": {key: sample[key] for key in ("python", "numpy", "nproc", "platform")},
        "source_digest": {
            side: sorted({r["meta"]["source_digest"] for r in side_runs.values()})
            for side, side_runs in runs.items()
        },
        "workloads": summarize(runs["parent"], runs["change"], metrics,
                               runs.get("control")),
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
