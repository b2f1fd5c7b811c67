import copy
import gc
import hashlib
import inspect
import itertools
import math
import pickle
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etensor import golden
from etensor.ketparse import parse_ket
from etensor.localops import (LocalUnitary, PartyGrouping, apply_local,
                              measure_party, phase_gate)
from etensor.oracles import concurrence_purity
from etensor.states import (
    PartyStructure,
    StateVector,
    basis_state,
    epr_state,
    ghz_state,
    product_state,
    random_product_state,
    random_state,
    w_state,
)
from etensor.supremum import _Objective, haar_unitary
from etensor import kernel as kernel_module
from etensor import tensor as tensor_module
from etensor.tensor import (
    ZERO_COMPONENT_THRESHOLD,
    NormalizationScheme,
    SubsetSelector,
    WorkLimitError,
    component,
    component_evaluator,
    component_with_nesting_order,
    full_tensor,
    permutation_difference,
    report_to_dict,
    separability_scan,
    subsets_of_size,
    tensor_norm,
)

PAIR_12 = SubsetSelector((0, 1))
TRIPLE = SubsetSelector((0, 1, 2))

seed_strategy = st.integers(0, 2**32 - 1)


class TestSubsetSelector:
    def test_must_increase(self):
        with pytest.raises(ValueError):
            SubsetSelector((1, 0))
        with pytest.raises(ValueError):
            SubsetSelector((0, 0))

    def test_needs_two_parties(self):
        with pytest.raises(ValueError):
            SubsetSelector((0,))

    def test_range_check(self):
        with pytest.raises(ValueError):
            SubsetSelector((0, 5)).validate_for(PartyStructure((2, 2)))

    def test_hashes_as_its_parties(self):
        subset = SubsetSelector((1, 3, 4))
        assert hash(subset) == hash((1, 3, 4))
        assert subset == SubsetSelector([1, 3, 4]) and subset != (1, 3, 4)
        assert repr(subset) == "SubsetSelector(parties=(1, 3, 4))"
        assert not hasattr(subset, "__dict__")

    def test_pickle_and_deepcopy_round_trip(self):
        subset = SubsetSelector((0, 2))
        for twin in (pickle.loads(pickle.dumps(subset)), copy.deepcopy(subset)):
            assert twin == subset and hash(twin) == hash(subset)
            assert repr(twin) == repr(subset)
            assert twin.parties == (0, 2) and twin.size == 2

    @pytest.mark.parametrize("m,d", [(3, 2), (4, 2), (4, 3), (5, 3), (6, 4)])
    def test_subset_count_is_binomial(self, m, d):
        structure = PartyStructure((2,) * m)
        assert len(subsets_of_size(structure, d)) == math.comb(m, d)


class TestNormalizationScheme:
    def test_default_is_four(self):
        scheme = NormalizationScheme()
        assert scheme.constant(2) == 4.0
        assert scheme.constant(7) == 4.0

    def test_override(self):
        scheme = NormalizationScheme({3: 9.0})
        assert scheme.constant(3) == 9.0
        assert scheme.constant(2) == 4.0

    def test_positive_required(self):
        with pytest.raises(ValueError):
            NormalizationScheme({2: 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_finite_required(self, value):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            NormalizationScheme({2: value})


class TestPermutationDifference:
    def test_epr(self):
        value = permutation_difference(epr_state(), (0, 0), (1, 1), 1)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_product_state_vanishes(self):
        state = product_state([[1.0, 0.0], [1.0, 1.0]])
        for k in itertools.product(range(2), repeat=2):
            for l in itertools.product(range(2), repeat=2):
                assert permutation_difference(state, k, l, 1) == pytest.approx(
                    0.0, abs=1e-15
                )

    def test_ghz(self):
        value = permutation_difference(ghz_state(3), (0, 0, 0), (1, 1, 1), 2)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_bad_party(self):
        with pytest.raises(ValueError):
            permutation_difference(epr_state(), (0, 0), (1, 1), 2)

    def test_bad_tuple(self):
        with pytest.raises(ValueError):
            permutation_difference(epr_state(), (0, 0, 0), (1, 1), 1)
        with pytest.raises(ValueError):
            permutation_difference(epr_state(), (0, 2), (1, 1), 1)


class TestGoldenComponents:
    def test_w3(self):
        w3 = w_state(3)
        expected = math.sqrt(2 / 3)
        for subset in subsets_of_size(w3.structure, 2):
            assert component(w3, subset) == pytest.approx(expected, abs=1e-12)
        assert component(w3, TRIPLE) == pytest.approx(0.0, abs=1e-12)

    def test_ghz(self):
        ghz = ghz_state(3)
        assert component(ghz, TRIPLE) == pytest.approx(1.0, abs=1e-12)
        for subset in subsets_of_size(ghz.structure, 2):
            assert component(ghz, subset) == pytest.approx(0.0, abs=1e-12)

    def test_ghz_component_scales_with_constant(self):
        ghz = ghz_state(3)
        scheme = NormalizationScheme({3: 16.0})
        assert component(ghz, TRIPLE, scheme) == pytest.approx(2.0, abs=1e-12)

    def test_four_qubit_ghz_times_plus(self):
        state = parse_ket("(|0,1,1,0> + |1,0,0,1> + |0,1,1,1> + |1,0,0,0>)/2")
        assert component(state, TRIPLE) == pytest.approx(1.0, abs=1e-12)
        for triple in ((0, 1, 3), (0, 2, 3), (1, 2, 3)):
            assert component(state, SubsetSelector(triple)) == pytest.approx(
                0.0, abs=1e-12
            )
        for pair in itertools.combinations(range(4), 2):
            assert component(state, SubsetSelector(pair)) == pytest.approx(
                0.0, abs=1e-12
            )
        assert component(state, SubsetSelector((0, 1, 2, 3))) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_nested_entanglement_state(self):
        state = parse_ket(
            "(|0,0,0,1> + |0,0,1,0> + |1,1,0,1> + |1,1,1,0>"
            " + |0,1,0,0> + |0,1,1,1> + |1,0,0,0> + |1,0,1,1>)/sqrt(8)"
        )
        report = full_tensor(state)
        for subset, value in report.components.items():
            if subset.size == 2:
                assert value == pytest.approx(1.0, abs=1e-12)
            else:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_w4(self):
        w4 = w_state(4)
        report = full_tensor(w4)
        for subset, value in report.components.items():
            if subset.size == 2:
                assert value == pytest.approx(1 / math.sqrt(2), abs=1e-12)
            else:
                assert value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_w_family(self, m):
        wm = w_state(m)
        report = full_tensor(wm)
        for subset, value in report.components.items():
            if subset.size == 2:
                assert value == pytest.approx(math.sqrt(2 / m), abs=1e-12)
            else:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_zero_probability_sector_contributes_zero(self):
        # party 3 never takes value 1, so that sector has probability 0
        state = parse_ket("(|0,0,0> + |1,1,0>)/sqrt(2)")
        assert component(state, PAIR_12) == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(component(state, SubsetSelector((1, 2))))


class TestTwoQubitClosedForm:
    @given(seed_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_determinant_form(self, seed):
        state = random_state(PartyStructure((2, 2)), np.random.default_rng(seed))
        a = state.tensor
        expected = 2.0 * abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        assert component(state, PAIR_12) == pytest.approx(expected, abs=1e-13)


class TestPurityIdentity:
    @given(seed_strategy, st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_component_squared_equals_mixedness(self, seed, d1, d2):
        structure = PartyStructure((d1, d2))
        state = random_state(structure, np.random.default_rng(seed))
        oracle = concurrence_purity(state, PartyGrouping(((0,), (1,))))
        got = component(state, PAIR_12)
        assert got**2 == pytest.approx(oracle**2, abs=1e-9)


class TestInvariance:
    @given(seed_strategy)
    @settings(max_examples=50, deadline=None)
    def test_local_phase_invariance(self, seed):
        rng = np.random.default_rng(seed)
        structure = PartyStructure((2, 3, 2))
        state = random_state(structure, rng)
        before = full_tensor(state)
        transformed = state
        for party, dim in enumerate(structure.dims):
            transformed = apply_local(
                transformed, phase_gate(party, rng.uniform(0, 2 * np.pi, size=dim))
            )
        after = full_tensor(transformed)
        for subset in before.components:
            assert abs(before.components[subset] - after.components[subset]) < 1e-12

    @given(seed_strategy)
    @settings(max_examples=50, deadline=None)
    def test_product_state_nullity(self, seed):
        structure = PartyStructure((2, 2, 3))
        state = random_product_state(structure, np.random.default_rng(seed))
        report = full_tensor(state)
        assert all(v < 1e-10 for v in report.components.values())

    @given(seed_strategy)
    @settings(max_examples=25, deadline=None)
    def test_pair_component_is_measurement_average(self, seed):
        # conditioning the unselected parties on each outcome and averaging
        # the squared pair concurrence reproduces the squared component
        rng = np.random.default_rng(seed)
        num = int(rng.integers(3, 5))
        structure = PartyStructure((2,) * num)
        state = random_state(structure, rng)
        subset = (0, 1)
        rest = [p for p in range(num) if p not in subset]
        total = 0.0
        for outcomes in itertools.product(*(range(2) for _ in rest)):
            tensor = state.tensor
            indexer = [slice(None)] * num
            for party, value in zip(rest, outcomes):
                indexer[party] = value
            block = np.asarray(tensor[tuple(indexer)]).reshape(-1)
            prob = float(np.sum(np.abs(block) ** 2))
            if prob <= 0:
                continue
            conditioned = block / math.sqrt(prob)
            conc = 2.0 * abs(
                conditioned[0] * conditioned[3] - conditioned[1] * conditioned[2]
            )
            total += prob * conc**2
        assert component(state, PAIR_12) ** 2 == pytest.approx(total, abs=1e-9)


def _component_scan(state):
    """Reference scan: a party is detached when every component holding it
    is below the threshold.  It speaks only for the basis at hand."""
    components = full_tensor(state).components
    return [
        all(value < ZERO_COMPONENT_THRESHOLD
            for subset, value in components.items() if party in subset.parties)
        for party in range(state.structure.num_parties)
    ]


def _haar_vector(dim, rng):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def _with_detached(core, detached, rng):
    """``core``'s parties in order, with a Haar local vector at each of the
    ``detached`` party places (a dict of place to dim)."""
    tensor = core.tensor
    for dim in detached.values():
        tensor = np.multiply.outer(tensor, _haar_vector(dim, rng))
    places = [i for i in range(tensor.ndim) if i not in detached] + list(detached)
    tensor = tensor.transpose(np.argsort(places))
    return StateVector(PartyStructure(tensor.shape), tensor.reshape(-1))


@st.composite
def _factored_states(draw):
    """A Haar core of at least two parties with Haar local vectors factored
    out at random places: 3-5 parties of dims 2-4."""
    dims = draw(st.lists(st.integers(2, 4), min_size=3, max_size=5))
    detached = draw(st.sets(st.integers(0, len(dims) - 1), max_size=len(dims) - 2))
    rng = np.random.default_rng(draw(seed_strategy))
    core = random_state(
        PartyStructure(tuple(d for i, d in enumerate(dims) if i not in detached)),
        rng,
    )
    state = _with_detached(core, {i: dims[i] for i in sorted(detached)}, rng)
    return state, detached, rng


class TestSeparabilityScan:
    def test_detached_first_party(self):
        state = parse_ket("(|0,0,0> + |0,1,1>)/sqrt(2)")  # |0> x EPR
        assert separability_scan(state) == [True, False, False]

    def test_visible_product_factor(self):
        state = parse_ket("(|0,1,1,0> + |1,0,0,1> + |0,1,1,1> + |1,0,0,0>)/2")
        assert separability_scan(state) == [False, False, False, True]

    def test_ghz_has_no_detached_party(self):
        assert separability_scan(ghz_state(3)) == [False, False, False]

    @pytest.mark.parametrize("name", sorted(set(golden.FIXTURES) - {"hadamard-ghz"}))
    def test_agrees_with_component_scan(self, name):
        state = golden.fixtures()(name)
        assert separability_scan(state) == _component_scan(state)

    def test_hadamard_ghz_is_the_named_disagreement(self):
        # every component holding party 0 is zero in this basis, yet party 0
        # has concurrence 1 against the rest
        state = golden.fixtures()("hadamard-ghz")
        assert _component_scan(state) == [True, False, False]
        assert separability_scan(state) == [False, False, False]
        assert concurrence_purity(state, PartyGrouping(((0,), (1, 2)))) == (
            pytest.approx(1.0, abs=1e-12))

    def test_haar_qubit_factored_out_of_qudit_core(self):
        # the component scan missed this qubit in all 20 states: the square
        # root lifts round-off in its components to about 5e-9
        rng = np.random.default_rng(2004)
        for _ in range(20):
            core = random_state(PartyStructure((3, 3, 2, 2, 2)), rng)
            state = _with_detached(core, {3: 2}, rng)
            assert state.structure.dims == (3, 3, 2, 2, 2, 2)
            assert separability_scan(state) == [False, False, False, True, False,
                                                False]

    @given(_factored_states())
    @settings(max_examples=60, deadline=None)
    def test_finds_exactly_the_factored_parties(self, case):
        state, detached, rng = case
        want = [i in detached for i in range(state.structure.num_parties)]
        assert separability_scan(state) == want
        for party, dim in enumerate(state.structure.dims):
            state = apply_local(state, LocalUnitary(party, haar_unitary(dim, rng)))
        assert separability_scan(state) == want


class TestAggregateAndReport:
    def test_product_state_norm_zero(self):
        state = product_state([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        assert tensor_norm(full_tensor(state)) == pytest.approx(0.0, abs=1e-10)

    def test_ghz_norm_one(self):
        assert tensor_norm(full_tensor(ghz_state(3))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_all_hadamard_ghz_norm(self):
        state = parse_ket("(|0,0,0> + |0,1,1> + |1,0,1> + |1,1,0>)/2")
        assert tensor_norm(full_tensor(state)) == pytest.approx(
            math.sqrt(3), abs=1e-12
        )

    def test_report_dict_schema(self):
        report = full_tensor(w_state(3))
        doc = report_to_dict(report)
        assert doc["dims"] == [2, 2, 2]
        assert doc["norm_constants"] == {"2": 4.0, "3": 4.0}
        subsets = [entry["subset"] for entry in doc["components"]]
        assert subsets == [[1, 2], [1, 3], [2, 3], [1, 2, 3]]
        assert all(entry["value"] >= 0 for entry in doc["components"])
        assert doc["tensor_norm"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert "basis_note" in doc

    def test_sizes_filter(self):
        report = full_tensor(w_state(4), sizes=[2])
        assert all(s.size == 2 for s in report.components)
        assert len(report.components) == 6
        with pytest.raises(ValueError):
            full_tensor(w_state(3), sizes=[5])

    def test_reports_reproduce_bit_for_bit(self):
        state = random_state(PartyStructure((2, 3, 2)), np.random.default_rng(6))
        first = full_tensor(state)
        second = full_tensor(state)
        assert first.components == second.components


class TestNestingOrder:
    def test_sorted_order_matches_component(self):
        rng = np.random.default_rng(3)
        state = random_state(PartyStructure((2, 2, 2)), rng)
        assert component_with_nesting_order(state, (0, 1, 2)) == pytest.approx(
            component(state, TRIPLE), abs=0
        )

    def test_order_sensitivity_is_recorded_not_asserted(self):
        # the nesting convention (which party anchors, which is innermost)
        # can change triple values on generic states; log the spread so the
        # behavior is visible, but do not fail on it
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(10):
            state = random_state(PartyStructure((2, 2, 2)), rng)
            values = [
                component_with_nesting_order(state, order)
                for order in itertools.permutations((0, 1, 2))
            ]
            worst = max(worst, max(values) - min(values))
        print(f"\nnesting-order spread over 10 random 3-qubit states: {worst:.3e}")

    def test_symmetric_states_are_order_insensitive(self):
        for state in (ghz_state(3), w_state(3)):
            values = {
                round(component_with_nesting_order(state, order), 12)
                for order in itertools.permutations((0, 1, 2))
            }
            assert len(values) == 1


def _make_evaluator(
    dims: tuple[int, ...],
    selected: tuple[int, ...],
    constant: float,
):
    """Reference: the per-pair-choice loop the batched kernel replaced."""
    unselected = tuple(i for i in range(len(dims)) if i not in selected)
    depth = len(selected)
    perm = selected + unselected
    sel_shape = tuple(dims[i] for i in selected)
    num_sectors = math.prod(dims[i] for i in unselected) if unselected else 1
    sector_range = np.arange(num_sectors)
    pair_lists = [
        list(itertools.combinations(range(dims[i]), 2)) for i in selected
    ]
    pair_indexers = [
        np.ix_(*[np.asarray(pair) for pair in choice], sector_range)
        for choice in itertools.product(*pair_lists)
    ]
    flip_all = (slice(None, None, -1),) * (depth - 1) + (slice(None),)
    sum_axes = tuple(range(depth))

    def evaluate(tensor: np.ndarray) -> float:
        sectors = tensor.transpose(perm).reshape(sel_shape + (num_sectors,))
        prob = np.sum(sectors.real**2 + sectors.imag**2, axis=sum_axes)
        weight = np.divide(
            1.0, prob, out=np.zeros_like(prob), where=prob > 0.0
        )
        acc = np.zeros(num_sectors)
        for indexer in pair_indexers:
            block = sectors[indexer]
            # products a(k-side) * a(l-side) over the swap lattice of the
            # non-anchor parties; the anchor is consumed by block[0]/block[1]
            products = block[0] * block[1][flip_all]
            reduced = np.abs(products[..., 0, :] - products[..., 1, :]) ** 2
            while reduced.ndim > 1:
                reduced = np.abs(reduced[..., 0, :] - reduced[..., 1, :])
            acc += reduced
        return math.sqrt(constant * float(np.dot(weight, acc)))

    return evaluate


def _count_calls(monkeypatch, name):
    """Record each call of a function of ``etensor.kernel``.

    Only a size is kept, so the record holds no arrays alive: the entries
    of the pass whose shape ``_evaluate_pass`` takes first, and the length
    of the first argument of any other function.
    """
    calls = []
    original = getattr(kernel_module, name)

    def counted(first, *args):
        calls.append(_entries(first) if name == "_evaluate_pass" else len(first))
        return original(first, *args)

    monkeypatch.setattr(kernel_module, name, counted)
    return calls


def _entries(shape):
    """The subsets or probes a pass of ``shape`` evaluates."""
    return sum(group.batch for group in shape.groups)


def _one_group_bytes(batch, lattice, choices, window, positions, sectors):
    """Workspace bytes of a pass of one group that builds its indexes."""
    group = kernel_module._Group(lattice, choices, batch, positions, sectors)
    return kernel_module._pass_bytes(*kernel_module._regions(
        kernel_module._Shape((group,), window, False, 0)))


class TestBatchedKernel:
    """The batched kernel against the loop evaluator it replaced."""

    @pytest.mark.parametrize(
        "dims", [(2, 3, 2, 2), (3, 3, 3), (4, 4, 3), (3, 2, 3, 2, 2), (2,) * 6]
    )
    def test_matches_loop_reference(self, dims):
        structure = PartyStructure(dims)
        state = random_state(structure, np.random.default_rng(sum(dims)))
        scheme = NormalizationScheme({3: 9.0})
        report = full_tensor(state, scheme)
        assert len(report.components) == 2 ** len(dims) - len(dims) - 1
        for subset, value in report.components.items():
            constant = scheme.constant(subset.size)
            expected = _make_evaluator(dims, subset.parties, constant)(state.tensor)
            evaluated = component_evaluator(structure, subset, scheme)(state.tensor)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert evaluated == pytest.approx(expected, rel=1e-12, abs=1e-12)
        for order in itertools.permutations((0, 1, 2)):
            expected = _make_evaluator(dims, order, 4.0)(state.tensor)
            got = component_with_nesting_order(state, order)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_probability_sectors_match_reference(self):
        # party 3 never takes value 2, so those sectors have probability 0
        state = parse_ket("(|0,1,0> + |1,0,1> + |2,2,0>)/sqrt(3)",
                          PartyStructure((3, 3, 3)))
        for subset, value in full_tensor(state).components.items():
            expected = _make_evaluator((3, 3, 3), subset.parties, 4.0)(state.tensor)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_chunking_does_not_change_values(self, monkeypatch):
        dims = (3, 3, 3, 2)
        state = random_state(PartyStructure(dims), np.random.default_rng(5))
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        windows = _count_calls(monkeypatch, "_window_sums")
        whole = full_tensor(state).components
        single = component_evaluator(state.structure, SubsetSelector((0, 1, 2)))
        whole_single = single(state.tensor)
        # with this budget the (0, 1, 2) subset alone does not fit, so its
        # 27 pair choices are split into windows, and no two subsets of the
        # (3, 3) pair group share a pass
        budget = 4000
        assert budget < _one_group_bytes(1, 8, 27, 27, 27, 2)
        assert budget < 2 * _one_group_bytes(1, 4, 9, 9, 9, 6)
        monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
        assert kernel_module._layout((3, 3, 3), 2, budget).window < 27
        passes.clear()
        windows.clear()
        split = full_tensor(state).components
        # the plan cached under the default budget must not be reused: the
        # split run makes one pass per subset, and some pass several windows
        assert len(passes) == len(whole)
        assert len(windows) > len(passes)
        assert list(split) == list(whole)
        assert split == whole
        chunked = component_evaluator(state.structure, SubsetSelector((0, 1, 2)))
        assert chunked(state.tensor) == whole_single

    def test_peak_memory_grows_by_at_most_the_budget(self, monkeypatch):
        state = random_state(PartyStructure((2,) * 10), np.random.default_rng(8))
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        peaks, counts = {}, {}
        # a budget of one byte makes every pass a single subset and window;
        # its peak is the report itself plus one small pass.  The first call
        # under each budget builds its plans, so only the second is traced.
        for budget in (1, 512 << 10):
            monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
            full_tensor(state)
            passes.clear()
            tracemalloc.start()
            try:
                full_tensor(state)
                peaks[budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            counts[budget] = list(passes)
        assert counts[1] == [1] * (2**10 - 10 - 1)
        assert len(counts[512 << 10]) < len(counts[1])
        assert peaks[512 << 10] <= peaks[1] + (512 << 10)

    def test_components_keep_size_then_lexicographic_order(self):
        structure = PartyStructure((2, 3, 2, 3))
        state = random_state(structure, np.random.default_rng(2))
        expected = [
            subset
            for size in range(2, 5)
            for subset in subsets_of_size(structure, size)
        ]
        assert list(full_tensor(state).components) == expected
        assert [s.parties for s in expected[:6]] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
        ]


def _reference_batch(sectors: np.ndarray, constant: float) -> np.ndarray:
    """Reference: the batched kernel before kernel-order gathers.

    ``_evaluate_batch`` and ``_pair_sums`` as ``full_tensor`` ran them,
    with all pair choices in one window.  ``sectors`` is a C-contiguous
    ``(B, *selected_dims, S)`` stack: per entry, the amplitudes with the
    selected parties in nesting order and the others flattened into S
    sectors.
    """
    pairs = tuple(
        None if d == 2 else np.array(list(itertools.combinations(range(d), 2)))
        for d in sectors.shape[1:-1]
    )
    batch, num_sectors = sectors.shape[0], sectors.shape[-1]
    flat = sectors.reshape(batch, -1, num_sectors)
    squares = flat.conj()
    squares *= flat
    prob = np.add.reduce(squares.real, axis=1)
    del squares
    weight = 1.0 / np.maximum(prob, sys.float_info.min)
    sums = np.empty((batch,) + tuple(len(p) for p in pairs if p is not None))
    sums[...] = _reference_pair_sums(sectors, pairs, weight)
    return np.sqrt(constant * np.add.reduce(sums.reshape(batch, -1), axis=1))


def _reference_pair_sums(sectors, pairs, weight):
    depth = len(pairs)
    block = sectors
    # gather the last axis first, so the earlier axis numbers stay valid;
    # each gathered axis d becomes (pair choice, k/l)
    for axis in reversed(range(depth)):
        if pairs[axis] is not None:
            block = np.take(block, pairs[axis], axis=axis + 1)
    if block is not sectors:
        choice_axes, lattice_axes, pos = [], [], 1
        for p in pairs:
            if p is not None:
                choice_axes.append(pos)
                pos += 1
            lattice_axes.append(pos)
            pos += 1
        block = block.transpose([0, *choice_axes, *lattice_axes, pos])
    # leading (subset, pair choice...) axes, then the 2^depth swap lattice
    # and the sectors; the anchor is consumed by its k and l sides, and the
    # non-anchor parties of the l side are flipped to their swapped values
    head = (slice(None),) * (block.ndim - depth - 1)
    flip = (slice(None, None, -1),) * (depth - 1)
    products = block[head + (0,)] * block[head + (1,) + flip]
    del block
    reduced = np.abs(products[..., 0, :] - products[..., 1, :]) ** 2
    for _ in range(depth - 2):
        reduced = np.abs(reduced[..., 0, :] - reduced[..., 1, :])
    weight = weight.reshape((len(weight),) + (1,) * (len(head) - 1) + (-1,))
    return np.add.reduce(reduced * weight, axis=-1)


def _reference_stack(stack, dims, order):
    """``(B, *selected_dims, S)``, C-contiguous, off a ``(B, *dims)`` stack."""
    others = tuple(p for p in range(len(dims)) if p not in order)
    shape = tuple(dims[p] for p in order) + (-1,)
    moved = stack.transpose((0,) + tuple(1 + p for p in order + others))
    return np.ascontiguousarray(moved.reshape((len(stack),) + shape))


def _level_layout(level, groups):
    """Reference: a packed pass's kernel-order layout at reduction ``level``.

    ``groups`` are ``(depth, values)`` in pass order, ``values`` a group's
    ``(2^(depth - level), count)`` entries at that level (one row once its
    depth is reached).  The groups already reduced come first, then the
    lower halves of the others and then their upper halves, each in the
    layout of the next level.
    """
    if all(depth <= level for depth, _ in groups):
        return np.concatenate([values.reshape(-1) for _, values in groups])
    halves = [[(depth, values if depth <= level else
                values[side * len(values) // 2:(side + 1) * len(values) // 2])
               for depth, values in groups] for side in (0, 1)]
    done = sum(values.size for depth, values in groups if depth <= level)
    return np.concatenate([_level_layout(level + 1, halves[0]),
                           _level_layout(level + 1, halves[1])[done:]])


def _full_plan(dims, budget):
    """The plan of a ``full_tensor`` call of every size on ``dims``."""
    return tensor_module._plan(dims, tuple(range(2, len(dims) + 1)), budget)


def _reference_value(state, order, constant=4.0):
    sectors = _reference_stack(state.tensor[None], state.structure.dims, order)
    return float(_reference_batch(sectors, constant)[0])


# a party never takes some value, so some sectors have probability zero
ZERO_SECTOR_KETS = [
    ("(|0,1,0> + |1,0,1> + |2,2,0>)/sqrt(3)", (3, 3, 3)),
    ("(|0,0,0> + |1,1,0>)/sqrt(2)", (2, 2, 2)),
]
KERNEL_DIMS = [(2,) * m for m in range(3, 11)] + [
    (3, 3, 2), (4, 4, 3), (3, 2, 4, 2), (3,) * 6, (5, 2, 2, 2),
]


def _kernel_states():
    rng = np.random.default_rng(2020)
    for dims in KERNEL_DIMS:
        yield random_state(PartyStructure(dims), rng)
    for text, dims in ZERO_SECTOR_KETS:
        yield parse_ket(text, PartyStructure(dims))


class TestKernelOrder:
    """The kernel-order kernel equals the reference bit for bit."""

    @pytest.mark.parametrize("budget", [None, 4000])
    def test_full_tensor_equals_reference(self, monkeypatch, budget):
        # 4000 bytes puts one subset in a pass and splits the larger
        # subsets of the qudit dims into windows of pair choices
        if budget is not None:
            monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
        windows = _count_calls(monkeypatch, "_window_sums")
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        for state in _kernel_states():
            if budget is not None and state.structure.num_parties > 8:
                continue
            for subset, value in full_tensor(state).components.items():
                assert value == _reference_value(state, subset.parties)
        if budget is not None:
            assert len(windows) > len(passes)

    @pytest.mark.parametrize("budget", [None, 4000])
    def test_kernel_order_index_equals_old_construction(self, monkeypatch, budget):
        # a pass gathers through a row-major index, (L, B, S) per group, and
        # the kernel-order index is rows of it; the kernel once built that
        # index from the (B, L, S) one as positions of the selected places
        # plus offsets.  A packed pass keeps both in its own layout.
        budget = budget or tensor_module.GATHER_BUDGET_BYTES
        monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
        passes = []
        evaluate_pass = kernel_module._evaluate_pass

        def recorded(shape, index, amplitudes, squares, windows, *args):
            passes.append((shape, index.copy(), [w.copy() for w in windows]))
            return evaluate_pass(shape, index, amplitudes, squares, windows, *args)

        monkeypatch.setattr(kernel_module, "_evaluate_pass", recorded)
        single = windows = packed = 0
        for state in _kernel_states():
            dims, num = state.structure.dims, state.structure.num_parties
            if budget < 1 << 20 and num > 8:
                continue
            total = math.prod(dims)
            passes.clear()
            full_tensor(state)
            # per pass, the nesting order and first flat place of each entry
            subsets, kept, groups = _full_plan(dims, budget)
            entries = [[(subsets[p].parties, 0) for p in places]
                       for places, *_ in kept]
            for places, _, layout in groups:
                for start in range(0, len(places), layout.batch):
                    entries.append([(subsets[p].parties, 0) for p in
                                    places[start:start + layout.batch]])
            # an evaluator's passes: one tensor, then a stack of 3 cut into
            # passes of at most its batch, each probe total further on
            for subset in subsets_of_size(state.structure, num - 1)[:2]:
                evaluate = component_evaluator(state.structure, subset)
                evaluate(state.tensor)
                evaluate(np.stack([state.tensor] * 3))
                entries.append([(subset.parties, 0)])
                for start in range(0, 3, evaluate.batch):
                    entries.append([(subset.parties, total * probe) for probe
                                    in range(min(3 - start, evaluate.batch))])
            assert len(passes) == len(entries)
            flat = np.arange(total).reshape((1,) + dims)
            for (shape, index, tables), pass_entries in zip(passes, entries):
                assert _entries(shape) == len(pass_entries)
                start, rows, natural = 0, [], []
                for group in shape.groups:
                    members = pass_entries[start:start + group.batch]
                    start += group.batch
                    row_major = np.stack([
                        _reference_stack(flat, dims, order)[0].reshape(
                            group.positions, -1) + first
                        for order, first in members])
                    rows.append(row_major.transpose(1, 0, 2))
                    positions = row_major[:, :, 0] - row_major[:, :1, 0]
                    offsets = row_major[:, 0, :]
                    order = members[0][0]
                    layout = kernel_module._layout(
                        tuple(dims[p] for p in order), group.sectors, budget)
                    assert len(order) == group.lattice.bit_length() - 1
                    for places, table in zip(layout.windows, tables):
                        old = positions.take(places, axis=1).T[:, :, None] + offsets
                        if shape.packed:
                            natural.append((len(order), old.reshape(group.lattice, -1)))
                        else:
                            assert np.array_equal(table, places)
                            assert np.array_equal(index.take(places, axis=0), old)
                            windows += 1
                if not shape.packed:
                    (rows,) = rows
                    assert np.array_equal(index, rows)
                    single += 1
                    continue
                packed += 1
                blocks = []
                for (positions, sectors), run in itertools.groupby(
                        zip(shape.groups, rows),
                        key=lambda item: (item[0].positions, item[0].sectors)):
                    block = np.concatenate([r for _, r in run], axis=1)
                    blocks.append((block.reshape(positions, -1).T if sectors == 1
                                   else block).reshape(-1))
                assert np.array_equal(index, np.concatenate(blocks))
                (order,) = tables
                assert np.array_equal(order, _level_layout(0, natural))
        # the larger qudit subsets split into windows of pair choices, and
        # the groups that fit one pass are packed
        assert windows > single and packed

    @pytest.mark.parametrize("budget", [None, 4000])
    def test_evaluators_equal_reference(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
        for state in _kernel_states():
            structure = state.structure
            subsets = [s for size in range(2, structure.num_parties + 1)
                       for s in subsets_of_size(structure, size)][::7]
            for subset in subsets:
                got = component_evaluator(structure, subset)(state.tensor)
                assert got == _reference_value(state, subset.parties)
            for order in itertools.permutations(range(3)):
                order += tuple(range(3, min(structure.num_parties, 5)))
                assert component_with_nesting_order(state, order) == (
                    _reference_value(state, order))

    def test_evaluator_equals_full_tensor(self):
        # the evaluator gathers as full_tensor does, whatever the subset
        for state in list(_kernel_states())[:6]:
            for subset, value in full_tensor(state).components.items():
                assert component_evaluator(state.structure, subset)(
                    state.tensor) == value

    @pytest.mark.parametrize("dims, parties_list, combine", [
        ((2, 2, 2, 2), [(0, 1), (1, 2, 3)], "min"),
        ((3, 3, 2), [(0, 2), (0, 1, 2)], "mean"),
        ((3, 2, 4, 2), [(1, 3), (0, 1, 2)], "min"),
        ((5, 2, 2, 2), [(0, 1, 2, 3)], "min"),
    ])
    @pytest.mark.parametrize("budget", [None, 4000])
    def test_probe_scores_equal_reference(self, monkeypatch, dims, parties_list,
                                          combine, budget):
        if budget is not None:
            monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
        rng = np.random.default_rng(sum(dims))
        structure = PartyStructure(dims)
        objective = _Objective(structure, [SubsetSelector(p) for p in parties_list],
                               NormalizationScheme(), combine)
        stack = np.stack([random_state(structure, rng).tensor for _ in range(5)])
        stack[1, 0] = 0.0  # sectors of probability zero
        values = [0.25] * len(parties_list)
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        scored = 0
        for party in range(len(dims)):
            scores = np.array([
                [values[row] if len(p) == 2 and party in p else
                 float(_reference_batch(_reference_stack(stack[i:i + 1], dims, p),
                                        4.0)[0])
                 for i in range(len(stack))]
                for row, p in enumerate(parties_list)
            ])
            want = (scores.min(axis=0) if combine == "min"
                    else scores.sum(axis=0) / len(parties_list))
            got = objective.scores(stack, party, np.array(values)[:, None])[1]
            scored += sum(not (len(p) == 2 and party in p) for p in parties_list)
            assert got.tolist() == want.tolist()
        # each scored stack of 5 probes is one pass in the default budget;
        # in 4,000 bytes, where one pass of the qudit subsets holds fewer
        # than 5 probes, the evaluators cut their stacks into several passes
        assert sum(passes) == 5 * scored
        if budget is None or dims == (2, 2, 2, 2):
            assert passes == [5] * scored
        else:
            assert len(passes) > scored



def _stack_states():
    """Qubit, qutrit and mixed dims, and a state with empty sectors."""
    rng = np.random.default_rng(41)
    for dims in [(2, 2, 2, 2), (3, 3, 3), (3, 2, 4, 2)]:
        yield random_state(PartyStructure(dims), rng)
    text, dims = ZERO_SECTOR_KETS[0]
    yield parse_ket(text, PartyStructure(dims))


def _probe_stack(state, probes, rng):
    """``(probes, *dims)``: phases of ``state`` on even rows, Haar states on odd."""
    return np.stack([
        state.tensor * np.exp(1j * k) if k % 2 == 0
        else random_state(state.structure, rng).tensor
        for k in range(probes)
    ])


class TestStackEvaluator:
    """An evaluator scores one tensor, or each tensor of a ``(P, *dims)`` stack."""

    @staticmethod
    def subsets(structure):
        return [s for size in range(2, structure.num_parties + 1)
                for s in subsets_of_size(structure, size)]

    @pytest.mark.parametrize("probes", [1, 7])
    def test_stack_equals_single_calls(self, probes):
        rng = np.random.default_rng(probes)
        for state in _stack_states():
            structure = state.structure
            stack = _probe_stack(state, probes, rng)
            for subset in self.subsets(structure):
                evaluate = component_evaluator(structure, subset)
                got = evaluate(stack)
                assert isinstance(got, np.ndarray) and got.shape == (probes,)
                single = component_evaluator(structure, subset)
                assert got.tolist() == [single(tensor) for tensor in stack]
                # the same evaluator still maps one tensor to a float
                for tensor in (stack[-1], stack[-1].reshape(-1)):
                    value = evaluate(tensor)
                    assert type(value) is float and value == got[-1]

    @pytest.mark.parametrize("tensor, size", [
        (np.ones((2, 2)) / 2, 4),
        (np.ones(4) / 2, 4),
        (np.ones(16) / 4, 16),
        (np.ones((3, 2, 2)) / 2, 12),
    ], ids=["single", "flat-short", "flat-long", "stack"])
    def test_wrong_sizes_are_refused(self, monkeypatch, tensor, size):
        # the gathers wrap around, so these used to read wrapped amplitudes
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        evaluate = component_evaluator(PartyStructure((2, 2, 2)),
                                       SubsetSelector((0, 1)))
        with pytest.raises(ValueError, match=(
                rf"of {size} amplitudes, but dims \(2, 2, 2\) have 8")):
            evaluate(tensor)
        assert passes == []

    def test_empty_stack_gives_no_values(self, monkeypatch):
        # the gather index of an empty stack used to fail to reshape
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        structure = PartyStructure((2, 3, 2))
        for parties in [(0, 1), (0, 1, 2)]:
            got = component_evaluator(structure, SubsetSelector(parties))(
                np.empty((0, 2, 3, 2), complex))
            assert isinstance(got, np.ndarray) and got.shape == (0,)
        assert passes == []

    def test_stack_over_one_pass_is_cut(self, monkeypatch):
        budget = 4000
        monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        rng = np.random.default_rng(43)
        for state in _stack_states():
            structure = state.structure
            for subset in self.subsets(structure):
                evaluate = component_evaluator(structure, subset)
                batch = evaluate.batch
                stack = _probe_stack(state, batch + 1, rng)
                single = component_evaluator(structure, subset)
                passes.clear()
                got = evaluate(stack)
                assert passes == [batch, 1]
                assert got.tolist() == [single(tensor) for tensor in stack]

    def test_evaluator_keeps_one_probe_index(self, monkeypatch):
        # an evaluator keeps the (L, 1, S) index of one tensor, built when
        # it is compiled, and hands it to the kernel as it is; a stack
        # writes its index into the workspace.  Scoring 100 probes of a
        # (2,)*8 triple used to keep their 200 KiB index.
        structure, triple = PartyStructure((2,) * 8), SubsetSelector((0, 3, 5))
        state = random_state(structure, np.random.default_rng(44))
        stack = _probe_stack(state, 100, np.random.default_rng(45))
        component_evaluator(structure, triple)(stack)  # carves the pass views
        tracemalloc.start()
        try:
            evaluate = component_evaluator(structure, triple)
            compiled = tracemalloc.get_traced_memory()[0]
            values = evaluate(stack)
            del values
            scored = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        (index,) = [value for value in
                    inspect.getclosurevars(evaluate).nonlocals.values()
                    if isinstance(value, np.ndarray)]
        assert index.shape == (8, 1, 32) and index.nbytes == 2 << 10
        assert index.flags.c_contiguous and index.flags.writeable
        assert scored - compiled < 1 << 10
        handed = []
        evaluate_pass = kernel_module._evaluate_pass

        def recorded(shape, index, *args):
            handed.append(index)
            return evaluate_pass(shape, index, *args)

        monkeypatch.setattr(kernel_module, "_evaluate_pass", recorded)
        got = [evaluate(tensor) for tensor in stack[:3]]
        assert all(kept is index for kept in handed)
        handed.clear()
        assert evaluate(stack[:3]).tolist() == got
        (written,) = handed
        assert written.shape == (8, 3, 32)
        assert np.shares_memory(written, kernel_module._thread.workspace[0])


class TestWorkspace:
    """One workspace per thread, reused between calls, within the budget."""

    def states(self):
        get = golden.fixtures()
        yield from (get(name) for name in golden.FIXTURES)
        for text, dims in ZERO_SECTOR_KETS:
            yield parse_ket(text, PartyStructure(dims))

    def test_no_floating_point_warnings(self):
        with np.errstate(all="raise"):
            for state in self.states():
                report = full_tensor(state)
                for subset in report.components:
                    component_evaluator(state.structure, subset)(state.tensor)
                component_with_nesting_order(
                    state, tuple(reversed(range(state.structure.num_parties))))

    def test_reports_do_not_alias_the_workspace(self):
        rng = np.random.default_rng(31)
        first_state, second_state = (
            random_state(PartyStructure((2, 3, 2, 2)), rng) for _ in range(2))
        first = full_tensor(first_state).components
        kept = dict(first)
        full_tensor(second_state)
        assert first == kept
        values = component_evaluator(PartyStructure((2, 2)), SubsetSelector((0, 1)))(
            np.stack([ghz_state(2).tensor] * 2))
        assert not np.shares_memory(values, kernel_module._thread.workspace[0])

    def test_threads_give_single_thread_values(self):
        rng = np.random.default_rng(32)
        states = [random_state(PartyStructure(dims), rng)
                  for dims in [(2,) * 8, (3, 3, 2, 2), (4, 2, 3), (2,) * 6]]
        want = [full_tensor(state).components for state in states]
        results, errors = {}, []

        def work(worker):
            try:
                for _ in range(3):
                    for k, state in enumerate(states):
                        results[worker, k] = full_tensor(state).components
            except Exception as exc:  # reported below
                errors.append(exc)

        # more threads than cores, switching often, so passes interleave
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 4 * len(states)
        for (worker, k), got in results.items():
            assert got == want[k]

    def test_workspace_and_its_views_are_kept_between_calls(self):
        state = random_state(PartyStructure((2, 3, 2, 2)), np.random.default_rng(34))
        first = full_tensor(state).components
        buffer, carved = kernel_module._thread.workspace
        views = dict(carved)
        assert views
        assert full_tensor(state).components == first
        assert kernel_module._thread.workspace[0] is buffer
        assert all(carved[key] is kept for key, kept in views.items())

    def test_a_full_workspace_drops_only_its_oldest_views(self):
        # the carved view sets were all dropped when the 129th pass shape
        # came, so a process over that many shapes re-carved most passes
        layout = kernel_module._layout((2, 2), 2, tensor_module.GATHER_BUDGET_BYTES)
        shapes = [kernel_module._single(layout, batch)
                  for batch in range(1, kernel_module.PLAN_CACHE_SIZE + 2)]
        carved = {}

        def touch():  # in a new thread, whose workspace starts empty
            for shape in shapes:
                kernel_module._pass_views(shape)
            carved.update(kernel_module._thread.workspace[1])

        thread = threading.Thread(target=touch)
        thread.start()
        thread.join(timeout=60)
        assert list(carved) == shapes[1:]

    @pytest.mark.parametrize("budget", [1 << 20, 4000])
    def test_passes_fit_the_budget(self, budget):
        # only a pass of one subset and one pair choice may need more
        for dims in KERNEL_DIMS + [(4,) * 5]:
            _, passes, groups = _full_plan(dims, budget)
            shapes = [shape for _, shape, _, _ in passes] + [
                kernel_module._single(layout, layout.batch)
                for *_, layout in groups]
            for shape in shapes:
                assert (kernel_module._pass_bytes(*kernel_module._regions(shape))
                        <= budget or shape.window == 1)

    def test_kept_workspace_stays_within_the_budget(self, monkeypatch):
        budget = 4000
        monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
        state = random_state(PartyStructure((2,) * 8), np.random.default_rng(33))
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        full_tensor(state)
        # the full 8-qubit subset alone needs more than the budget
        assert _one_group_bytes(1, 256, 1, 1, 256, 1) > budget
        assert passes[-1] == 1
        assert len(kernel_module._thread.workspace[0]) <= budget


@st.composite
def _pair_bound_states(draw, max_parties=5):
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=3, max_size=max_parties)
                      .filter(lambda dims: math.prod(dims) <= 1 << 10)))
    rng = np.random.default_rng(draw(seed_strategy))
    psi = random_state(PartyStructure(dims), rng).amplitudes
    if draw(st.booleans()):
        kept = rng.choice(len(psi), size=min(len(psi), draw(st.integers(1, 6))),
                          replace=False)
        sparse = np.zeros_like(psi)
        sparse[kept] = psi[kept]
        psi = sparse / np.linalg.norm(sparse)
    return StateVector(PartyStructure(dims), psi)


class TestPairBound:
    """A pair component never exceeds either party's concurrence with the rest.

    1 - Tr rho^2 is concave and rho_i = sum_s p_s rho_{i,s}, so the sector
    average in the pair component is at most the party's own mixedness.
    The purity oracle is exact only in its square, so squares are compared.
    This checks the kernel without the kernel.
    """

    @given(_pair_bound_states())
    @settings(max_examples=60, deadline=None)
    def test_pairs_below_purity_concurrence(self, state):
        num = state.structure.num_parties
        bounds = [
            concurrence_purity(state, PartyGrouping(
                ((party,), tuple(p for p in range(num) if p != party)))) ** 2
            for party in range(num)
        ]
        for subset, value in full_tensor(state, sizes=[2]).components.items():
            for party in subset.parties:
                assert value**2 <= bounds[party] + 1e-12


class TestPackingInvariance:
    """How the subsets of a call are packed into passes moves no bit.

    A call of every size packs the groups of all sizes together; a call of
    one size packs only that size's groups; in 4,000 bytes each group runs
    alone, the larger subsets over windows of pair choices.
    """

    @pytest.mark.parametrize("budget", [1 << 20, 4000])
    @given(state=_pair_bound_states(max_parties=7))
    @settings(max_examples=20, deadline=None)
    def test_packed_sizes_equal_single_sizes_and_reference(self, budget, state):
        default = tensor_module.GATHER_BUDGET_BYTES
        tensor_module.GATHER_BUDGET_BYTES = budget
        try:
            whole = full_tensor(state).components
            union = {}
            for size in range(2, state.structure.num_parties + 1):
                union.update(full_tensor(state, sizes=[size]).components)
        finally:
            tensor_module.GATHER_BUDGET_BYTES = default
        assert list(whole) == list(union)
        assert whole == union
        for subset, value in whole.items():
            assert value == _reference_value(state, subset.parties)


def _sector_purity_square(state, pair):
    """sum_s p_s C_s^2 over the sectors of the parties outside ``pair``.

    Each sector is measured one party at a time, the highest first so the
    lower indices stay put, and C_s is the purity concurrence of the pair
    that is left.  Sectors that ``measure_party`` finds empty add nothing.
    """
    dims = state.structure.dims
    others = [k for k in reversed(range(len(dims))) if k not in pair]
    total = 0.0
    for outcomes in itertools.product(*(range(dims[k]) for k in others)):
        prob, branch = 1.0, state
        for party, outcome in zip(others, outcomes):
            p, branch = measure_party(branch, party, outcome)
            prob *= p
            if branch is None:
                break
        else:
            total += prob * concurrence_purity(
                branch, PartyGrouping(((0,), (1,)))) ** 2
    return total


class TestSectorPurity:
    """Every pair component is sqrt(sum_s p_s C_s^2) (Rungta et al. 2001).

    The sum runs over the basis values s of the other parties, with p_s
    the probability of s and C_s the concurrence of the pair left in it.
    Near zero, 1 - Tr rho^2 keeps a rounding of about 1e-16, whose square
    root is 1e-8; there the squares are compared instead.
    """

    @given(_pair_bound_states())
    @settings(max_examples=25, deadline=None)
    def test_pair_components(self, state):
        for subset, value in full_tensor(state, sizes=[2]).components.items():
            want = _sector_purity_square(state, subset.parties)
            if want > 1e-12:
                assert abs(value - math.sqrt(want)) <= 1e-10
            else:
                assert abs(value**2 - want) <= 1e-14


def _assert_matches_reference(state, components):
    for subset, value in components.items():
        expected = _make_evaluator(state.structure.dims, subset.parties, 4.0)(
            state.tensor
        )
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestKernelWorkLimit:
    def test_work_matches_enumeration(self):
        for dims in [(2, 3, 2, 2), (4, 2, 3), (3,) * 5]:
            for size in range(2, len(dims) + 1):
                enumerated = sum(
                    math.prod(math.comb(dims[i], 2) for i in subset)
                    * 2**size
                    * math.prod(d for i, d in enumerate(dims) if i not in subset)
                    for subset in itertools.combinations(range(len(dims)), size)
                )
                assert tensor_module._kernel_work(dims, size) == enumerated

    def test_twenty_qubits_refused_before_any_plan(self, monkeypatch):
        def no_plan(*args):
            raise AssertionError("a plan was built")

        monkeypatch.setattr(tensor_module, "_plan", no_plan)
        state = basis_state(PartyStructure((2,) * 20), (0,) * 20)
        with pytest.raises(WorkLimitError, match="1,099,489,607,680 units"):
            full_tensor(state)
        # the scan evaluates no component, so the limit is not its concern
        monkeypatch.setattr(tensor_module, "full_tensor", no_plan)
        state = basis_state(PartyStructure((2,) * 16), (0,) * 16)
        assert separability_scan(state) == [True] * 16

    def test_oversized_subset_refused(self):
        structure = PartyStructure((16,) * 6)
        with pytest.raises(WorkLimitError, match=r"subset \(0, 1, 2, 3, 4, 5\)"):
            component_evaluator(structure, SubsetSelector(tuple(range(6))))


class TestKeptIndex:
    """Only packed passes keep their gather indexes in the plan.

    A plan holds two kinds of group: those packed into passes with kept
    indexes, and those whose passes build their index in the workspace.
    """

    @pytest.mark.parametrize("budget", [1 << 20, 4000])
    def test_packed_passes_keep_their_index(self, budget):
        for dims in KERNEL_DIMS + [(4,) * 5]:
            total = math.prod(dims)
            flat = np.arange(total).reshape((1,) + dims)
            subsets, passes, groups = _full_plan(dims, budget)

            def fits(places, layout):
                return (len(places) <= layout.batch
                        and 2 * 8 * len(places) * total <= budget
                        and layout.window == layout.choices)

            every = np.concatenate([p for p, *_ in passes] + [p for p, *_ in groups])
            assert sorted(every.tolist()) == list(range(len(subsets)))
            for places, shape, index, windows in passes:
                assert shape.packed
                # a packed pass holds its groups' indexes in blocks of equal
                # (L, S); cut them back into each (L, B, S) index
                rows, start = [], 0
                for (positions, sectors), run in itertools.groupby(
                        shape.groups, key=lambda g: (g.positions, g.sectors)):
                    batches = [g.batch for g in run]
                    size = positions * sum(batches) * sectors
                    block = index[start:start + size]
                    start += size
                    block = (block.reshape(-1, positions).T[:, :, None]
                             if sectors == 1
                             else block.reshape(positions, -1, sectors))
                    rows += np.split(block, np.cumsum(batches)[:-1], axis=1)
                assert start == len(index)
                first = 0
                for group, got in zip(shape.groups, rows):
                    members = places[first:first + group.batch]
                    first += group.batch
                    order = subsets[members[0]].parties
                    layout = kernel_module._layout(
                        tuple(dims[p] for p in order), group.sectors, budget)
                    assert fits(members, layout)
                    assert np.array_equal(got, np.stack([
                        _reference_stack(flat, dims, subsets[p].parties)[0]
                        .reshape(group.positions, -1) for p in members], axis=1))
                assert first == len(places)
            for places, tables, layout in groups:
                assert not fits(places, layout)
                assert np.array_equal(tensor_module._gather_index(*tables), np.stack([
                    _reference_stack(flat, dims, subsets[p].parties)[0]
                    .reshape(layout.positions, -1) for p in places], axis=1))

    def test_kept_bytes(self):
        # every size of 8 qubits runs packed, with its row-major and
        # kernel-order indexes; no group of the qudit dims is packed, and
        # their subset of every party, one pass of several windows, builds
        # its index per pass like the groups of several passes
        def kept_bytes(dims):
            return sum(index.nbytes + order.nbytes
                       for _, _, index, (order,) in _full_plan(dims, 1 << 20)[1])

        assert kept_bytes((2,) * 8) == 2 * 247 * 256 * 8
        assert kept_bytes((2,) * 12) == 2 * 4096 * 8
        assert kept_bytes((4,) * 5) == 0
        assert kept_bytes((3,) * 6) == 0

    def test_no_digit_table_outlives_its_use(self, monkeypatch):
        # a kept group drops its tables, so no cache may keep them alive:
        # a table of (2,)*12 is 393 KB, for a kept index of 32 KB
        built, digits = [], kernel_module._digits

        def owner(table):  # the array whose memory a table or its view is
            return table if table.base is None else table.base

        def recorded(shape):
            table = digits(shape)
            built.append(weakref.ref(owner(table)))
            return table

        monkeypatch.setattr(kernel_module, "_digits", recorded)
        budget = (1 << 20) + 8  # a key no other test builds plans for
        plans = [_full_plan(dims, budget)
                 for dims in [(2,) * 8, (2,) * 12, (3, 3, 2, 2, 2, 2)]]
        held = {id(owner(table)) for _, _, groups in plans
                for _, tables, _ in groups for table in tables[2:]}
        kept = sum(len(shape.groups) for _, passes, _ in plans
                   for _, shape, _, _ in passes)
        gc.collect()
        alive = [ref() for ref in built if ref() is not None]
        assert kept >= 8 and len(built) > len(alive)
        assert all(id(table) in held for table in alive)

    def test_warm_calls_hand_the_kernel_one_index(self, monkeypatch):
        rng = np.random.default_rng(35)
        states = [random_state(PartyStructure((2,) * 8), rng) for _ in range(2)]
        full_tensor(states[0])
        handed = []
        evaluate_pass = kernel_module._evaluate_pass

        def recorded(shape, index, *args):
            handed.append(index)
            return evaluate_pass(shape, index, *args)

        monkeypatch.setattr(kernel_module, "_evaluate_pass", recorded)
        reports = [full_tensor(state).components for state in states]
        assert len(handed) == 2 * 2
        for first, second in zip(handed[:2], handed[2:]):
            assert first is second
            assert not np.shares_memory(first, kernel_module._thread.workspace[0])
        for state, components in zip(states, reports):
            _assert_matches_reference(state, components)


def _arrays(kept):
    """Every array in a nest of tuples and lists, such as a plan."""
    if isinstance(kept, np.ndarray):
        yield kept
    elif isinstance(kept, (tuple, list)):
        for item in kept:
            yield from _arrays(item)


class TestPackedPasses:
    """A warm call runs all its kept groups in a few packed passes."""

    @pytest.mark.parametrize("dims, most", [
        ((2,) * 8, 2),                 # 7 passes, one per size, at the parent
        ((3, 2, 3, 2, 2, 2, 2), 4),    # 31, one per transposed shape
    ])
    def test_warm_call_makes_few_passes(self, monkeypatch, dims, most):
        state = random_state(PartyStructure(dims), np.random.default_rng(36))
        full_tensor(state)
        passes = _count_calls(monkeypatch, "_evaluate_pass")
        components = full_tensor(state).components
        assert len(passes) <= most
        assert sum(passes) == len(components) == 2 ** len(dims) - len(dims) - 1
        for subset, value in components.items():
            assert value == _reference_value(state, subset.parties)

    def test_warm_call_copies_no_index(self):
        # take copies an index that is not writeable or not contiguous; at
        # the parent the kept read-only indexes were copied, 145 KiB at peak
        state = random_state(PartyStructure((2,) * 8), np.random.default_rng(37))
        full_tensor(state)
        tracemalloc.start()
        try:
            full_tensor(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    def test_kept_arrays_stay_unchanged(self, monkeypatch):
        # kept arrays are writeable, so that take does not copy them; no
        # call may write to them, and no public function hands one out
        runs = []
        for budget in (1 << 20, 4000):
            monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
            for state in _kernel_states():
                structure = state.structure
                # in 4,000 bytes a state of over 512 amplitudes makes
                # hundreds of passes, and adds nothing to what is checked
                if budget < 1 << 20 and structure.total_dim > 512:
                    continue
                subsets = [s for size in range(2, structure.num_parties + 1)
                           for s in subsets_of_size(structure, size)][::17]
                stack = np.stack([state.tensor, state.tensor * 1j, state.tensor])
                runs.append((budget, state, stack, [
                    component_evaluator(structure, subset) for subset in subsets]))
        for budget, state, stack, evaluators in runs:
            monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
            full_tensor(state)
            for evaluate in evaluators:
                evaluate(stack)
        # each evaluator keeps its one-probe index and its layout, each plan
        # its packed passes' indexes and its other groups' tables and layouts
        closures = [inspect.getclosurevars(evaluate).nonlocals
                    for *_, evaluators in runs for evaluate in evaluators]
        kept = [array for names in closures
                for array in _arrays([names["index"], names["layout"]])]
        kept += [array for budget, state, *_ in runs
                 for array in _arrays(_full_plan(state.structure.dims, budget))]
        before = [hashlib.sha256(array.tobytes()).digest() for array in kept]
        for budget in (1 << 20, 4000):
            monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
            for rounds in range(20):
                for _, state, stack, evaluators in filter(
                        lambda run: run[0] == budget, runs):
                    components = full_tensor(state).components
                    assert all(type(v) is float for v in components.values())
                    for evaluate in evaluators:
                        assert type(evaluate(state.tensor)) is float
                        got = [evaluate(stack), evaluate(stack[:2])]
                        assert rounds or not any(np.shares_memory(values, array)
                                                 for values in got for array in kept)
        assert [hashlib.sha256(array.tobytes()).digest() for array in kept] == before


class TestPlanCache:
    """Cached per-dims plans give the same values as freshly built ones."""

    def test_interleaved_dims_match_fresh_plans(self):
        states = [
            random_state(PartyStructure(dims), np.random.default_rng(seed))
            for seed, dims in enumerate([(2,) * 8, (3, 3, 2, 2, 2, 2), (2, 3, 2, 3)])
        ]
        tensor_module._plan.cache_clear()
        cached = []
        for _ in range(2):
            for state in states:
                cached.append(full_tensor(state, sizes=[3]).components)
                cached.append(full_tensor(state).components)
        fresh = []
        for _ in range(2):
            for state in states:
                tensor_module._plan.cache_clear()
                fresh.append(full_tensor(state, sizes=[3]).components)
                tensor_module._plan.cache_clear()
                fresh.append(full_tensor(state).components)
        for got, want in zip(cached, fresh):
            assert list(got) == list(want)
            assert got == want
        for state, components in zip(states, cached[1::2]):
            _assert_matches_reference(state, components)

    def test_plans_hold_no_amplitudes(self):
        structure = PartyStructure((2, 3, 2, 3))
        first = random_state(structure, np.random.default_rng(21))
        second = random_state(structure, np.random.default_rng(22))
        reports = [full_tensor(state).components for state in (first, second)]
        assert reports[0] != reports[1]
        for state, components in zip((first, second), reports):
            _assert_matches_reference(state, components)
        assert full_tensor(first).components == reports[0]

    def test_cache_size_stays_bounded(self, monkeypatch):
        capacity = tensor_module.PLAN_CACHE_SIZE
        assert capacity >= 128
        assert tensor_module._plan.cache_info().maxsize == capacity
        state = w_state(3)
        # every budget is a distinct key
        for budget in range(1, capacity + 20):
            monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", budget)
            full_tensor(state, sizes=[2])
            assert tensor_module._plan.cache_info().currsize <= capacity
        assert tensor_module._plan.cache_info().currsize == capacity


@st.composite
def _dims_and_sizes(draw):
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=2, max_size=7)))
    sizes = draw(st.sets(st.integers(2, len(dims)), min_size=1))
    return dims, sorted(sizes)


class TestComponentsView:
    """A report's components: a read-only Mapping in plan order.

    It walks the plan's selectors beside the call's values, and finds a
    key's place by arithmetic, so the dict it replaces, ``dict(zip(plan
    subsets, values))``, is the reference for every read.
    """

    def test_warm_call_hashes_no_selector(self, monkeypatch):
        state = random_state(PartyStructure((2,) * 8), np.random.default_rng(18))
        full_tensor(state)
        hashed = []
        original = SubsetSelector.__hash__

        def counted(self):
            hashed.append(self)
            return original(self)

        monkeypatch.setattr(SubsetSelector, "__hash__", counted)
        report = full_tensor(state)
        tensor_module.report_document(report)
        tensor_norm(report)
        assert len(report.components) == 247
        assert hashed == []
        # the counter sees the dict the call once built
        dict(zip(report.components, report.components.values()))
        assert len(hashed) == 247

    @given(_dims_and_sizes(), seed_strategy)
    @settings(max_examples=40, deadline=None)
    def test_equals_the_dict_of_plan_subsets_and_values(self, case, seed):
        dims, sizes = case
        state = random_state(PartyStructure(dims), np.random.default_rng(seed))
        view = full_tensor(state, sizes=sizes).components
        subsets = tensor_module._plan(dims, tuple(sizes),
                                      tensor_module.GATHER_BUDGET_BYTES)[0]
        values = list(view.values())
        want = dict(zip(subsets, values))
        assert list(view.items()) == list(want.items())
        assert view == want and want == view
        assert list(view) == [subset for size in sizes for subset in
                              subsets_of_size(state.structure, size)]
        for place, subset in enumerate(subsets):
            assert subset in view
            assert view[subset] is values[place]

    def test_other_keys_raise_key_error(self):
        view = full_tensor(w_state(4), sizes=[2, 4]).components
        want = dict(view)
        for key in [(0, 1), SubsetSelector((0, 1, 2)), SubsetSelector((2, 4)),
                    SubsetSelector((0, 1, 2, 3, 4)), "0,1", None]:
            with pytest.raises(KeyError):
                want[key]
            with pytest.raises(KeyError):
                view[key]
            assert key not in view
            assert view.get(key) is None

    def test_reads_as_a_dict(self):
        state = random_state(PartyStructure((2, 3, 2, 2)), np.random.default_rng(9))
        view = full_tensor(state).components
        want = dict(view)
        assert len(view) == len(want) == 11
        assert list(view) == list(want) and list(view.keys()) == list(want)
        assert list(view.values()) == list(want.values())
        assert list(view.items()) == list(want.items())
        assert len(view.items()) == len(view.values()) == 11
        first, value = next(iter(view.items()))
        assert (first, value) in view.items() and value in view.values()
        assert (first, value + 1.0) not in view.items()
        assert view != {**want, first: value + 1.0}
        assert repr(view) == repr(want)
        with pytest.raises(TypeError):
            view[first] = 0.0
        with pytest.raises(TypeError):
            del view[first]
        assert not hasattr(view, "__dict__")

    @pytest.mark.parametrize("constants", [{}, {3: 2.0}, {2: 1.0, 4: 9.0}])
    def test_constants_per_size_match_the_reference(self, constants):
        # sizes with one shared constant and sizes with their own
        scheme = NormalizationScheme(constants)
        state = random_state(PartyStructure((2, 3, 2, 2)), np.random.default_rng(7))
        report = full_tensor(state, scheme)
        for subset, value in report.components.items():
            assert value == _reference_value(state, subset.parties,
                                             scheme.constant(subset.size))
