#!/usr/bin/env python3
"""Tabulate the entanglement of the single-excitation W states.

For each party count M the intact state carries identical pair components,
while tracing out the other M-2 parties leaves a mixed pair whose
concurrence is smaller.  The default table shows both, their closed forms,
and the measured-vs-discarded ratio M/2.

``--every-size`` tabulates instead the supremum over local bases of the
component of parties 1..D of W_M, for M = 3..--max-m (at most 7) and every
D = 2..M.  It makes one search per D = 3..--max-m, on W_D itself: 6
restarts, seed 1.  Each such row gives the best sup^2, the spread of sup^2
over the top three restarts and each restart's stop reason.  Every row with
M > D is the proved law sup^2_D(W_M) = (D/M) sup^2_D(W_D) (README,
"Semantics"), with sup^2_D(W_D) from ``etensor.golden.W_D_SUP_SQUARED`` for
D <= 4 (1, 4/9 and 1/8) and from this scan's search on W_D for D >= 5,
where it is not known.
"""

import argparse
import math

from etensor import (
    OptimizerConfig,
    SubsetSelector,
    component,
    concurrence_mixed_2qubit,
    dur_average,
    maximize_component,
    trace_to_pair,
    w_state,
)
from etensor.golden import W_D_SUP_SQUARED


def pair_table(max_m: int) -> None:
    header = (f"{'M':>2}  {'pair comp':>12}  {'sqrt(2/M)':>12}  "
              f"{'traced C':>12}  {'2/M':>8}  {'mean C^2':>10}  "
              f"{'4/M^2':>8}  {'ratio':>6}")
    print(header)
    print("-" * len(header))
    for m in range(3, max_m + 1):
        state = w_state(m)
        pair_value = component(state, SubsetSelector((0, 1)))
        traced = concurrence_mixed_2qubit(trace_to_pair(state, (0, 1)))
        mean_sq = dur_average(m)
        ratio = pair_value**2 / traced**2
        print(f"{m:>2}  {pair_value:>12.9f}  {math.sqrt(2 / m):>12.9f}  "
              f"{traced:>12.9f}  {2 / m:>8.5f}  {mean_sq:>10.7f}  "
              f"{4 / m**2:>8.5f}  {ratio:>6.2f}")


def every_size_table(max_m: int) -> None:
    header = (f"{'M':>2}  {'D':>2}  {'sup^2':>12}  {'from':<6}  "
              f"{'top-3 spread':>12}  stop reasons")
    print(header)
    print("-" * len(header))
    w_d = dict(W_D_SUP_SQUARED)
    config = OptimizerConfig(restarts=6, seed=1)
    for m in range(3, max_m + 1):
        for d in range(2, m):
            print(f"{m:>2}  {d:>2}  {d / m * w_d[d]:>12.8f}  law")
        result = maximize_component(w_state(m), SubsetSelector(tuple(range(m))),
                                    config=config)
        best = result.best_value**2
        top = sorted((v * v for v in result.restart_values), reverse=True)
        w_d.setdefault(m, best)  # where no value is known, the law reads the search
        reasons = ",".join(r.stop_reason for r in result.restarts)
        print(f"{m:>2}  {m:>2}  {best:>12.8f}  search  {top[0] - top[2]:>12.2e}  "
              f"{reasons}")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-m", type=int,
                        help="largest party count (default 8, limit 10; "
                             "with --every-size default and limit 7)")
    parser.add_argument("--every-size", action="store_true",
                        help="the supremum of every subset size D: one search "
                             "on W_D per D, every M > D from the law")
    args = parser.parse_args()
    if args.every_size:
        max_m = 7 if args.max_m is None else args.max_m
        if not 3 <= max_m <= 7:
            parser.error("--every-size takes --max-m from 3 to 7")
        every_size_table(max_m)
    else:
        max_m = 8 if args.max_m is None else args.max_m
        if not 3 <= max_m <= 10:
            parser.error("--max-m takes 3 to 10")
        pair_table(max_m)


if __name__ == "__main__":
    main()
