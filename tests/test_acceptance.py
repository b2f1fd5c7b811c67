"""Acceptance suite: one printed PASS/FAIL line per criterion or golden entry.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  The
closed-form fixtures of criteria 3-7, their expected values and tolerances
come from ``etensor.golden``, the table that ``paper-suite`` prints.  Direct
evaluations are checked at 1e-9 or tighter (1e-12 where the target is a
closed form in the computation basis); optimizer results at 1e-4.  Every
other expected number is recomputed here by an independent route (explicit
spin flip, reduced-density purity, chained measurements, eigenvalue formula).
"""

import itertools
import math

import numpy as np
import pytest

from etensor import golden
from etensor.localops import (
    PartyGrouping,
    apply_local,
    measure_party,
    phase_gate,
    reduced_density,
    regroup,
    ungroup,
)
from etensor.oracles import concurrence_pure_2qubit
from etensor.states import (
    PartyStructure,
    StateVector,
    epr_state,
    ghz_state,
    random_product_state,
    random_state,
    w_state,
)
from etensor.supremum import OptimizerConfig, maximize_component
from etensor.tensor import (
    SubsetSelector,
    component,
    full_tensor,
    subsets_of_size,
)

PAIR_12 = SubsetSelector((0, 1))


def _report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_criterion_1_bipartite_reduction():
    rng = np.random.default_rng(1001)
    structure = PartyStructure((2, 2))
    worst = 0.0
    for _ in range(200):
        state = random_state(structure, rng)
        a = state.tensor
        closed_form = 2.0 * abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        got = component(state, PAIR_12)
        oracle = concurrence_pure_2qubit(state)
        worst = max(worst, abs(got - oracle), abs(got - closed_form))
    epr_gap = abs(component(epr_state(), PAIR_12) - 1.0)
    ok = worst < 1e-10 and epr_gap < 1e-12
    _report(ok, "criterion 1: two-qubit component = spin-flip concurrence "
                f"(worst gap {worst:.2e}, epr gap {epr_gap:.2e})")


def test_criterion_2_purity_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        state = random_state(PartyStructure(dims), rng)
        rho = reduced_density(state, (0,))
        target = 2.0 * (1.0 - float(np.trace(rho @ rho).real))
        worst = max(worst, abs(component(state, PAIR_12) ** 2 - target))
    ok = worst < 1e-9
    _report(ok, f"criterion 2: component^2 = 2(1 - Tr rho^2) (worst {worst:.2e})")


@pytest.mark.parametrize("check", golden.CHECKS, ids=lambda check: check.name)
def test_golden_table(check):
    """Criteria 3-7: each closed-form fixture of the paper, one entry each."""
    ((_, got),) = golden.results([check])
    _report(abs(got - check.want) <= check.tol,
            f"{check.name}: got {got:.15g}, want {check.want:.15g}")


def _worst_closed_form_gap(names, sizes=None):
    """Largest gap between full_tensor and the fixtures' closed forms."""
    get = golden.fixtures()
    return max(
        abs(value - golden.FIXTURES[name][1](subset.parties))
        for name in names
        for subset, value in full_tensor(get(name), sizes=sizes).components.items()
    )


def test_criterion_6_four_partite_examples():
    worst = _worst_closed_form_gap(["ghz-x-plus", "nested", "w4"])
    _report(worst < golden.TOL, "criterion 6: every component of the four-partite "
                                f"fixtures (worst {worst:.2e})")


def test_criterion_7_w_family():
    worst = _worst_closed_form_gap([f"w{m}" for m in golden.W_PARTIES], sizes=[2])
    _report(worst < golden.TOL, "criterion 7: every w-family pair component is "
                                f"sqrt(2/M) (worst {worst:.2e})")


def _conditioned_concurrence_average(state: StateVector, pair: tuple[int, int]):
    """Sum of p(outcome) * C^2 over outcomes of the unselected parties,
    conditioning through chained single-party measurements."""
    num = state.structure.num_parties
    rest = [p for p in range(num) if p not in pair]
    total = 0.0
    for outcomes in itertools.product(*(range(2) for _ in rest)):
        current = state
        weight = 1.0
        # measure from the highest party down so lower indices stay put
        for party, outcome in sorted(zip(rest, outcomes), reverse=True):
            prob, current = measure_party(current, party, outcome)
            weight *= prob
            if current is None:
                break
        if current is None or weight <= 0.0:
            continue
        total += weight * concurrence_pure_2qubit(current) ** 2
    return total


def test_criterion_8_property_suites():
    rng = np.random.default_rng(1008)

    phase_worst = 0.0
    for _ in range(50):
        structure = PartyStructure(tuple(rng.integers(2, 4, size=3)))
        state = random_state(structure, rng)
        before = full_tensor(state)
        shifted = state
        for party, dim in enumerate(structure.dims):
            shifted = apply_local(
                shifted, phase_gate(party, rng.uniform(0, 2 * np.pi, size=dim))
            )
        after = full_tensor(shifted)
        for subset, value in before.components.items():
            phase_worst = max(phase_worst, abs(value - after.components[subset]))

    product_worst = 0.0
    for _ in range(50):
        structure = PartyStructure(tuple(rng.integers(2, 4, size=3)))
        state = random_product_state(structure, rng)
        product_worst = max(
            product_worst, max(full_tensor(state).components.values())
        )

    average_worst = 0.0
    for index in range(50):
        num = 3 + index % 2
        state = random_state(PartyStructure((2,) * num), rng)
        for pair in itertools.combinations(range(num), 2):
            got = component(state, SubsetSelector(pair)) ** 2
            want = _conditioned_concurrence_average(state, pair)
            average_worst = max(average_worst, abs(got - want))

    completeness_worst = 0.0
    mixture_worst = 0.0
    for _ in range(20):
        structure = PartyStructure((3, 2, 2))
        state = random_state(structure, rng)
        probs = 0.0
        mixture = np.zeros((4, 4), dtype=complex)
        for outcome in range(3):
            prob, branch = measure_party(state, 0, outcome)
            probs += prob
            if branch is not None:
                mixture += prob * np.outer(
                    branch.amplitudes, branch.amplitudes.conj()
                )
        completeness_worst = max(completeness_worst, abs(probs - 1.0))
        mixture_worst = max(
            mixture_worst,
            float(np.max(np.abs(mixture - reduced_density(state, (1, 2))))),
        )

    regroup_ok = True
    for _ in range(20):
        structure = PartyStructure((2, 2, 3, 2))
        state = random_state(structure, rng)
        order = list(rng.permutation(4))
        cut = int(rng.integers(1, 4))
        grouping = PartyGrouping((tuple(order[:cut]), tuple(order[cut:])))
        merged = regroup(state, grouping)
        restored = ungroup(merged, grouping, structure)
        regroup_ok = regroup_ok and np.array_equal(
            restored.amplitudes, state.amplitudes
        )

    ok = (
        phase_worst < 1e-12
        and product_worst < 1e-10
        and average_worst < 1e-9
        and completeness_worst < 1e-12
        and mixture_worst < 1e-10
        and regroup_ok
    )
    _report(ok, "criterion 8: phase invariance "
                f"{phase_worst:.2e}, product nullity {product_worst:.2e}, "
                f"measurement average {average_worst:.2e}, completeness "
                f"{completeness_worst:.2e}, mixture {mixture_worst:.2e}, "
                f"regroup round-trip {regroup_ok}")


def test_criterion_9_optimizer():
    ghz = ghz_state(3)
    ghz_result = maximize_component(
        ghz, SubsetSelector((1, 2)),
        config=OptimizerConfig(restarts=8, max_iters=300, seed=901),
    )
    ghz_ok = ghz_result.best_value >= 1 - 1e-4

    reach_worst = 0.0
    exceed_worst = 0.0
    for m, target in ((3, math.sqrt(2 / 3)), (4, math.sqrt(0.5))):
        wm = w_state(m)
        for subset in subsets_of_size(wm.structure, 2):
            result = maximize_component(
                wm, subset,
                config=OptimizerConfig(restarts=32, max_iters=300,
                                       seed=900 + m),
            )
            reach_worst = max(reach_worst, target - result.best_value)
            exceed_worst = max(
                exceed_worst, max(result.restart_values) - target
            )
    w_ok = reach_worst <= 1e-4 and exceed_worst <= 1e-4

    config = OptimizerConfig(restarts=4, max_iters=200, seed=77)
    first = maximize_component(w_state(3), PAIR_12, config=config)
    second = maximize_component(w_state(3), PAIR_12, config=config)
    deterministic = (
        first.best_value == second.best_value
        and first.restart_values == second.restart_values
        and all(
            np.array_equal(u1.matrix, u2.matrix)
            for u1, u2 in zip(first.best_unitaries, second.best_unitaries)
        )
    )

    ok = ghz_ok and w_ok and deterministic
    _report(ok, "criterion 9: optimizer (ghz pair 23 best "
                f"{ghz_result.best_value:.6f}, w reach gap {reach_worst:.2e}, "
                f"w exceed {exceed_worst:.2e}, deterministic={deterministic})")
