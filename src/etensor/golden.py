"""The paper's closed-form fixtures, held in one table.

``paper-suite`` prints one line per entry of :data:`CHECKS`, and the
acceptance tests assert each entry and compare ``full_tensor`` with the
closed forms in :data:`FIXTURES`.  :data:`W_D_SUP_SQUARED` holds the
known suprema of the W family, which the optimizer tests and
``scripts/w_family_scan.py`` read.  No state is built at import:
:func:`results` builds each fixture state once per run.
"""

import math
from functools import reduce
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from .ketparse import parse_ket
from .localops import (PartyGrouping, apply_local, hadamard, measure_party, regroup,
                       trace_to_pair)
from .oracles import (concurrence_mixed_2qubit, concurrence_pure_2qubit,
                      mean_traced_concurrence_squared)
from .states import (PartyStructure, StateVector, ghz_state, projection_probability,
                     w_state)
from .tensor import SubsetSelector, component, separability_scan

TOL = 1e-12
W_PARTIES = range(3, 9)
GHZ_X_PLUS_KET = "(|0,1,1,0> + |1,0,0,1> + |0,1,1,1> + |1,0,0,0>)/2"
NESTED_KET = ("(|0,0,0,1> + |0,0,1,0> + |1,1,0,1> + |1,1,1,0>"
              " + |0,1,0,0> + |0,1,1,1> + |1,0,0,0> + |1,0,1,1>)/sqrt(8)")

# name: (state from a getter of the other fixtures, closed-form subset component)
FIXTURES: dict[str, tuple[Callable[..., StateVector], Callable[..., float]]] = {
    "epr": (lambda get: ghz_state(2), lambda parties: 1.0),
    "skewed": (lambda get: StateVector(PartyStructure((2, 2)),
                                       [math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)]),
               lambda parties: 0.6),  # 2|a00 a11|
    "ghz": (lambda get: ghz_state(3), lambda parties: float(len(parties) == 3)),
    "hadamard-ghz": (lambda get: apply_local(get("ghz"), hadamard(0)),
                     lambda parties: float(parties == (1, 2))),
    "all-hadamard-ghz": (
        lambda get: reduce(apply_local, map(hadamard, (1, 2)), get("hadamard-ghz")),
        lambda parties: float(len(parties) == 2)),
    "ghz-x-plus": (lambda get: parse_ket(GHZ_X_PLUS_KET),
                   lambda parties: float(parties == (0, 1, 2))),
    "nested": (lambda get: parse_ket(NESTED_KET),
               lambda parties: float(len(parties) == 2)),
    **{f"w{m}": (lambda get, m=m: w_state(m), lambda parties, m=m:
                 math.sqrt(2.0 / m) if len(parties) == 2 else 0.0) for m in W_PARTIES},
}

# sup^2 over local bases of the component of every party of W_D, where it is
# known; parties 1..D of W_M then reach (D/M) times it (README, "Semantics")
W_D_SUP_SQUARED = {2: 1.0, 3: 4 / 9, 4: 1 / 8}


class Check(NamedTuple):
    name: str  # its first word names the fixture
    quantity: Callable[[StateVector], float]
    want: float
    tol: float = TOL


def _component(name: str, *subsets: tuple[int, ...]) -> Check:
    """The component of one subset, or the largest over several."""
    selectors = [SubsetSelector(s) for s in subsets]
    return Check(name, lambda state: max(component(state, s) for s in selectors),
                 max(map(FIXTURES[name.split()[0]][1], subsets)))


def _each_component(prefix: str, subsets: Iterable[tuple[int, ...]]) -> list[Check]:
    return [_component(prefix + "".join(str(p + 1) for p in s), s) for s in subsets]


_PAIR_12 = SubsetSelector((0, 1))

CHECKS: tuple[Check, ...] = (
    _component("epr pair component", (0, 1)),
    Check("epr spin-flip concurrence", concurrence_pure_2qubit, 1.0),
    _component("skewed pair component = 2|a00 a11|", (0, 1)),
    # pair 12 of w3 and w4 is checked with the W family below
    *_each_component("w3 pair ", [(0, 2), (1, 2)]),
    _component("w3 triple", (0, 1, 2)),
    _component("ghz triple", (0, 1, 2)),
    *_each_component("ghz pair ", combinations(range(3), 2)),
    *_each_component("hadamard-ghz pair ", [(1, 2), (0, 1), (0, 2)]),
    _component("hadamard-ghz triple", (0, 1, 2)),
    *(check for o in (0, 1) for check in (
        Check(f"hadamard-ghz outcome {o} probability", lambda state, o=o:
              projection_probability(state, {0: o}).probability, 0.5),
        Check(f"hadamard-ghz branch {o} concurrence", lambda state, o=o:
              concurrence_pure_2qubit(measure_party(state, 0, o)[1]), 1.0),
    )),
    *_each_component("all-hadamard-ghz pair ", combinations(range(3), 2)),
    _component("all-hadamard-ghz triple", (0, 1, 2)),
    *_each_component("ghz-x-plus c", combinations(range(4), 3)),
    _component("ghz-x-plus max pair", *combinations(range(4), 2)),
    _component("ghz-x-plus quadruple", (0, 1, 2, 3)),
    Check("ghz-x-plus party 4 detached",
          lambda state: float(separability_scan(state) == [False, False, False, True]),
          1.0, 0.5),
    *_each_component("nested pair ", combinations(range(4), 2)),
    _component("nested max triple", *combinations(range(4), 3)),
    _component("nested quadruple", (0, 1, 2, 3)),
    Check("nested regrouped 12|34 component",
          lambda state: component(regroup(state, PartyGrouping(((0, 1), (2, 3)))),
                                  _PAIR_12), 1.0),
    *_each_component("w4 pair ", list(combinations(range(4), 2))[1:]),
    _component("w4 max higher component", *combinations(range(4), 3), (0, 1, 2, 3)),
    *(check for m in W_PARTIES for check in (
        _component(f"w{m} pair 12", (0, 1)),
        Check(f"w{m} mean traced concurrence^2", mean_traced_concurrence_squared,
              4.0 / m**2, 1e-9),
        Check(f"w{m} component^2 / traced^2",
              lambda state: component(state, _PAIR_12) ** 2
              / concurrence_mixed_2qubit(trace_to_pair(state, (0, 1))) ** 2,
              m / 2.0, 1e-9),
    )),
)


def fixtures() -> Callable[[str], StateVector]:
    """A getter of fixture states by name that builds each one on first use."""
    built: dict[str, StateVector] = {}

    def get(name: str) -> StateVector:
        if name not in built:
            built[name] = FIXTURES[name][0](get)
        return built[name]

    return get


def results(checks: Iterable[Check]) -> Iterator[tuple[Check, float]]:
    """Each check with the value of its quantity, building each fixture once."""
    get = fixtures()
    for check in checks:
        yield check, check.quantity(get(check.name.split()[0]))
