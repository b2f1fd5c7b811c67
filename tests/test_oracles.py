import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etensor import golden, oracles
from etensor.localops import DensityMatrix, PartyGrouping, trace_to_pair, trace_to_pairs
from etensor.oracles import (
    FLIP_2Q,
    concurrence_mixed_2qubit,
    concurrence_of_assistance,
    concurrence_pure_2qubit,
    concurrence_purity,
    dur_average,
    mean_traced_concurrence_squared,
    spin_flip,
)
from etensor.states import (
    PartyStructure,
    StateVector,
    epr_state,
    ghz_state,
    product_state,
    random_product_state,
    random_state,
    w_state,
)
from etensor.tensor import SubsetSelector, component, component_evaluator, full_tensor

seed_strategy = st.integers(0, 2**32 - 1)
PAIR = SubsetSelector((0, 1))


class TestSpinFlip:
    def test_double_flip_is_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            state = random_state(PartyStructure((2, 2)), rng)
            again = spin_flip(spin_flip(state))
            assert np.max(np.abs(again.amplitudes - state.amplitudes)) < 1e-12

    def test_flip_of_product_state_is_orthogonal(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            state = random_product_state(PartyStructure((2, 2)), rng)
            flipped = spin_flip(state)
            overlap = abs(np.vdot(state.amplitudes, flipped.amplitudes))
            assert overlap < 1e-12

    def test_flip_operator_squares_to_identity(self):
        assert np.array_equal(FLIP_2Q @ FLIP_2Q, np.eye(4))

    def test_requires_two_qubits(self):
        with pytest.raises(ValueError):
            spin_flip(ghz_state(3))


class TestPureConcurrence:
    def test_epr(self):
        assert concurrence_pure_2qubit(epr_state()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_product(self):
        state = product_state([[1.0, 1.0], [0.6, 0.8j]])
        assert concurrence_pure_2qubit(state) == pytest.approx(0.0, abs=1e-12)

    def test_skewed_superposition(self):
        amps = np.array([math.sqrt(0.9), 0, 0, math.sqrt(0.1)], dtype=complex)
        state = StateVector(PartyStructure((2, 2)), amps)
        assert concurrence_pure_2qubit(state) == pytest.approx(0.6, abs=1e-12)

    @given(seed_strategy)
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_tensor_component(self, seed):
        state = random_state(PartyStructure((2, 2)), np.random.default_rng(seed))
        assert abs(
            concurrence_pure_2qubit(state) - component(state, PAIR)
        ) < 1e-10


class TestPurityConcurrence:
    def test_epr(self):
        grouping = PartyGrouping(((0,), (1,)))
        assert concurrence_purity(epr_state(), grouping) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_ghz_one_versus_rest(self):
        grouping = PartyGrouping(((0,), (1, 2)))
        assert concurrence_purity(ghz_state(3), grouping) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_product_state_vanishes(self):
        rng = np.random.default_rng(2)
        state = random_product_state(PartyStructure((3, 4)), rng)
        grouping = PartyGrouping(((0,), (1,)))
        assert concurrence_purity(state, grouping) < 1e-10

    def test_needs_two_blocks(self):
        with pytest.raises(ValueError, match="two blocks"):
            concurrence_purity(ghz_state(3), PartyGrouping(((0,), (1,), (2,))))


class TestMixedConcurrence:
    def test_maximally_mixed_is_separable(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert concurrence_mixed_2qubit(rho) == pytest.approx(0.0, abs=1e-12)

    def test_pure_epr_projector(self):
        amps = epr_state().amplitudes
        rho = DensityMatrix(np.outer(amps, amps.conj()))
        assert concurrence_mixed_2qubit(rho) == pytest.approx(1.0, abs=1e-9)

    @given(seed_strategy)
    @settings(max_examples=50, deadline=None)
    def test_rank_one_agrees_with_pure_formula(self, seed):
        state = random_state(PartyStructure((2, 2)), np.random.default_rng(seed))
        rho = DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()))
        assert concurrence_mixed_2qubit(rho) == pytest.approx(
            concurrence_pure_2qubit(state), abs=1e-9
        )

    @pytest.mark.parametrize("m", range(3, 9))
    def test_w_state_pair_reduction(self, m):
        rho = trace_to_pair(w_state(m), (0, 1))
        assert concurrence_mixed_2qubit(rho) == pytest.approx(2 / m, abs=1e-9)

    def test_ghz_pair_reduction_is_separable(self):
        rho = trace_to_pair(ghz_state(3), (0, 1))
        assert concurrence_mixed_2qubit(rho) == pytest.approx(0.0, abs=1e-9)

    def test_product_pair_reduction_is_separable(self):
        state = random_product_state(
            PartyStructure((2, 2, 2)), np.random.default_rng(4)
        )
        rho = trace_to_pair(state, (0, 2))
        assert concurrence_mixed_2qubit(rho) == pytest.approx(0.0, abs=1e-9)


class TestStackedConcurrence:
    """A stack of pair densities scored at once, against one call per pair."""

    @given(seed_strategy, st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_stack_equals_single_calls(self, seed, num):
        state = random_state(PartyStructure((2,) * num), np.random.default_rng(seed))
        pairs = list(itertools.combinations(range(num), 2))
        stacked = concurrence_mixed_2qubit(trace_to_pairs(state, pairs))
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(pairs),)
        single = [concurrence_mixed_2qubit(trace_to_pair(state, keep))
                  for keep in pairs]
        assert all(type(value) is float for value in single)
        assert stacked.tolist() == single

    def test_stack_of_one_gives_an_array(self):
        rho = trace_to_pairs(w_state(3), [(0, 2)])
        assert concurrence_mixed_2qubit(rho).shape == (1,)
        assert concurrence_of_assistance(rho).shape == (1,)


class TestConcurrenceOfAssistance:
    @pytest.mark.parametrize("m", range(3, 11))
    def test_w_state_pairs(self, m):
        pairs = list(itertools.combinations(range(m), 2))
        values = concurrence_of_assistance(trace_to_pairs(w_state(m), pairs))
        assert np.max(np.abs(values - 2 / m)) < 1e-12
        single = concurrence_of_assistance(trace_to_pair(w_state(m), (0, 1)))
        assert type(single) is float and abs(single - 2 / m) < 1e-12

    def test_ghz_pair(self):
        rho = trace_to_pair(ghz_state(3), (0, 1))
        assert abs(concurrence_of_assistance(rho) - 1.0) < 1e-12

    @given(seed_strategy, st.integers(3, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_bounds_wootters_and_pair_components(self, seed, num, data):
        # every qubit pair component lies in [C(rho), sqrt(C_a(rho))]: the
        # other parties' basis makes an ensemble of rho, whose average
        # concurrence is at least Wootters' C (Jensen on the root-mean-square)
        state = random_state(PartyStructure((2,) * num), np.random.default_rng(seed))
        if data.draw(st.booleans(), label="sparse"):
            # sparse: a drawn mask keeps some amplitudes, at least one
            size = 2**num
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=size,
                                               max_size=size), label="mask"))
            mask[data.draw(st.integers(0, size - 1), label="kept")] = True
            psi = np.where(mask, state.amplitudes, 0)
            state = StateVector(state.structure, psi / np.linalg.norm(psi))
        pairs = list(itertools.combinations(range(num), 2))
        rho = trace_to_pairs(state, pairs)
        assistance = concurrence_of_assistance(rho)
        wootters = concurrence_mixed_2qubit(rho)
        assert np.all(assistance >= wootters)
        components = full_tensor(state).components
        for keep, low, high in zip(pairs, wootters, np.sqrt(assistance)):
            assert low - 1e-12 <= components[SubsetSelector(keep)] <= high + 1e-12


class TestWFamilyAverages:
    @pytest.mark.parametrize("m", range(3, 11))
    def test_equals_one_pair_at_a_time(self, m):
        state = w_state(m)
        squares = [
            concurrence_mixed_2qubit(trace_to_pair(state, (i, j))) ** 2
            for i in range(m)
            for j in range(i + 1, m)
        ]
        assert dur_average(m) == float(np.mean(squares))

    @pytest.mark.parametrize("m,expected", [(3, 4 / 9), (4, 1 / 4), (6, 1 / 9)])
    def test_closed_form_examples(self, m, expected):
        assert dur_average(m) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_general_closed_form(self, m):
        assert dur_average(m) == pytest.approx(4 / m**2, abs=1e-9)

    @pytest.mark.parametrize("m", range(3, 11))
    def test_is_the_pair_average_of_w(self, m):
        assert dur_average(m) == mean_traced_concurrence_squared(w_state(m))

    def test_suite_builds_each_w_state_once(self, monkeypatch):
        built = []

        def counted(m):
            built.append(m)
            return w_state(m)

        monkeypatch.setattr(golden, "w_state", counted)
        monkeypatch.setattr(oracles, "w_state", counted)
        for check, got in golden.results(golden.CHECKS):
            assert abs(got - check.want) <= check.tol, check.name
        assert built == list(golden.W_PARTIES)

    def test_range_check(self):
        with pytest.raises(ValueError):
            dur_average(2)
        with pytest.raises(ValueError):
            dur_average(11)

    @pytest.mark.parametrize("m", range(3, 7))
    def test_measured_versus_discarded_ratio(self, m):
        # intact pair components square to 2/M while traced-out pairs square
        # to 4/M^2: helpers who measure and report beat helpers who vanish
        wm = w_state(m)
        pair_value = component_evaluator(wm.structure, PAIR)(wm.tensor)
        traced = concurrence_mixed_2qubit(trace_to_pair(wm, (0, 1)))
        assert pair_value**2 / traced**2 == pytest.approx(m / 2, abs=1e-9)
