#!/usr/bin/env python3
"""Count the Haar restart starts at which the full W_M component vanishes.

The every-size scan searches sup_M(W_M) with 6 restarts.  Its starts come
from ``supremum._restart_starts``: restart r >= 1 starts from one Haar
unitary per party.  For M = 5 and 6 and seeds 1..5 this prints how many of
the 25 starts (restarts 1..5) have a full-subset component below 1e-6.
For each such start it prints the largest component at 20 random local
steps of norm 0.01 from it (each party's unitary left-multiplied by
exp(i H_j), the H_j Hermitian with Frobenius norm 0.01 together), and the
value the search reaches from it (sup^2, stop reason, iterations).  A
start whose steps all stay at round-off lies in a region where the
component is flat zero, so its exact gradient vanishes and central
differences see only round-off.  For M = 3 and 4 it counts the same among
400 random local bases (seed 0).  It takes about 8 s on a 2-vCPU host.
"""

import numpy as np

from etensor import (
    LocalUnitary,
    OptimizerConfig,
    SubsetSelector,
    apply_local,
    component,
    maximize_component,
    w_state,
)
from etensor.supremum import _restart_starts, haar_unitary

ZERO = 1e-6
STEP = 0.01


def value_at(state, mats):
    """The full-subset component of ``state`` with ``mats`` applied."""
    for party, mat in enumerate(mats):
        state = apply_local(state, LocalUnitary(party, mat))
    return component(state, SubsetSelector(tuple(range(len(mats)))))


def largest_nearby(state, mats, rng: np.random.Generator) -> float:
    """The largest full-subset component at 20 random steps of norm ``STEP``."""
    largest = 0.0
    for _ in range(20):
        h = rng.normal(size=(len(mats), 2, 2)) + 1j * rng.normal(size=(len(mats), 2, 2))
        h += np.conj(np.swapaxes(h, 1, 2))
        h *= STEP / np.linalg.norm(h)
        eigvals, eigvecs = np.linalg.eigh(h)
        steps = (eigvecs * np.exp(1j * eigvals)[:, None, :]) @ np.conj(
            np.swapaxes(eigvecs, 1, 2))
        largest = max(largest, value_at(state, list(steps @ np.array(mats))))
    return largest


def restart_starts(m: int) -> None:
    state, full = w_state(m), SubsetSelector(tuple(range(m)))
    lines, climbed, nearby = [], 0, np.random.default_rng(0)
    for seed in range(1, 6):
        config = OptimizerConfig(restarts=6, seed=seed)
        result = maximize_component(state, full, config=config)
        starts = list(_restart_starts(state.structure.dims, config))[1:]
        for r, mats in enumerate(starts, 1):
            start = value_at(state, mats)
            if start < ZERO:
                end, record = result.restart_values[r], result.restarts[r]
                climbed += end >= ZERO
                lines.append(f"  seed {seed} restart {r}: start {start:.2e}, "
                             f"nearby {largest_nearby(state, mats, nearby):.2e}, "
                             f"end sup^2 {end * end:.8f} ({record.stop_reason}, "
                             f"{record.iterations} iterations)")
    print(f"W_{m}: {len(lines)} of 25 restart starts below {ZERO:g}; "
          f"the search climbs out of {climbed}")
    print("\n".join(lines))


def random_bases(m: int, count: int, rng: np.random.Generator) -> None:
    state = w_state(m)
    values = [value_at(state, [haar_unitary(2, rng) for _ in range(m)])
              for _ in range(count)]
    print(f"W_{m}: {sum(v < ZERO for v in values)} of {count} random bases "
          f"below {ZERO:g}; the least is {min(values):.3e}")


def main() -> None:
    for m in (5, 6):
        restart_starts(m)
    rng = np.random.default_rng(0)
    for m in (3, 4):
        random_bases(m, 400, rng)


if __name__ == "__main__":
    main()
