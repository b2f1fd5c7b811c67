import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etensor.states import (
    NormalizationError,
    PartyStructure,
    StateVector,
    basis_state,
    epr_state,
    flat_index,
    ghz_state,
    product_state,
    projection_probability,
    random_product_state,
    random_state,
    tuple_of,
    w_state,
)

dims_strategy = st.lists(st.integers(2, 4), min_size=1, max_size=4).map(tuple)


class TestPartyStructure:
    def test_defaults(self):
        s = PartyStructure((2, 3, 2))
        assert s.num_parties == 3
        assert s.total_dim == 12
        assert s.labels == ("1", "2", "3")

    def test_rejects_trivial_party(self):
        with pytest.raises(ValueError, match=">= 2"):
            PartyStructure((2, 1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PartyStructure(())

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            PartyStructure((2, 2), labels=("a",))

    def test_immutable(self):
        s = PartyStructure((2, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.dims = (3, 3)


class TestIndexing:
    def test_binary_reading(self):
        s = PartyStructure((2, 2, 2))
        assert flat_index(s, (1, 0, 1)) == 5

    def test_mixed_radix(self):
        s = PartyStructure((2, 3))
        assert flat_index(s, (1, 2)) == 5

    def test_flat_out_of_range(self):
        s = PartyStructure((2, 2))
        with pytest.raises(ValueError):
            tuple_of(s, 4)

    def test_component_out_of_range(self):
        s = PartyStructure((2, 3))
        with pytest.raises(ValueError):
            flat_index(s, (0, 3))

    def test_wrong_arity(self):
        s = PartyStructure((2, 2))
        with pytest.raises(ValueError):
            flat_index(s, (0, 0, 0))

    @given(dims_strategy, st.data())
    @settings(max_examples=50)
    def test_round_trip(self, dims, data):
        s = PartyStructure(dims)
        flat = data.draw(st.integers(0, s.total_dim - 1))
        assert flat_index(s, tuple_of(s, flat)) == flat

    @given(dims_strategy, st.data())
    @settings(max_examples=50)
    def test_round_trip_from_tuple(self, dims, data):
        s = PartyStructure(dims)
        tup = tuple(data.draw(st.integers(0, n - 1)) for n in dims)
        assert tuple_of(s, flat_index(s, tup)) == tup


class TestStateVector:
    def test_norm_enforced(self):
        s = PartyStructure((2, 2))
        with pytest.raises(NormalizationError, match="squared norm"):
            StateVector(s, np.array([1.0, 0.0, 0.0, 1.0]))

    def test_normalize_flag(self):
        s = PartyStructure((2, 2))
        state = StateVector(s, np.array([1.0, 0.0, 0.0, 1.0]), normalize=True)
        assert state.amplitude((0, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_zero_vector_rejected(self):
        s = PartyStructure((2, 2))
        with pytest.raises(NormalizationError):
            StateVector(s, np.zeros(4), normalize=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_non_finite_rejected(self, bad, normalize):
        # abs(nan - 1) > tol is False, so the norm test alone lets NaN through
        s = PartyStructure((2, 2))
        amps = np.array([1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2)], dtype=complex)
        amps[1] = bad
        with pytest.raises(NormalizationError, match="finite"):
            StateVector(s, amps, normalize=normalize)

    def test_length_mismatch(self):
        s = PartyStructure((2, 2))
        with pytest.raises(ValueError, match="length"):
            StateVector(s, np.array([1.0, 0.0]))

    def test_amplitudes_read_only(self):
        state = epr_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_tensor_view_shape(self):
        state = ghz_state(3)
        assert state.tensor.shape == (2, 2, 2)
        assert state.tensor[1, 1, 1] == pytest.approx(1 / math.sqrt(2))


class TestBuilders:
    def test_w_state_amplitudes(self):
        w3 = w_state(3)
        third = 1 / math.sqrt(3)
        for tup in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert w3.amplitude(tup) == pytest.approx(third)
        assert w3.amplitude((1, 1, 0)) == 0

    def test_basis_state(self):
        s = PartyStructure((2, 3))
        state = basis_state(s, (1, 2))
        assert state.amplitude((1, 2)) == 1.0

    def test_product_state_normalizes_factors(self):
        state = product_state([[2.0, 0.0], [1.0, 1.0]])
        assert state.amplitude((0, 0)) == pytest.approx(1 / math.sqrt(2))

    def test_random_states_are_normalized(self):
        rng = np.random.default_rng(11)
        s = PartyStructure((2, 3, 2))
        for builder in (random_state, random_product_state):
            state = builder(s, rng)
            assert np.vdot(state.amplitudes, state.amplitudes).real == pytest.approx(1.0)


class TestProjection:
    def test_w3_third_party_zero(self):
        w3 = w_state(3)
        # independent enumeration over flat indices with that digit fixed
        expected = sum(
            abs(w3.amplitudes[i]) ** 2
            for i in range(8)
            if i % 2 == 0
        )
        got = projection_probability(w3, {2: 0}).probability
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(2 / 3, abs=1e-12)

    def test_ghz_symmetry(self):
        ghz = ghz_state(3)
        assert projection_probability(ghz, {0: 0}).probability == pytest.approx(
            0.5, abs=1e-12
        )

    def test_empty_projection(self):
        state = epr_state()
        assert projection_probability(state, {}).probability == pytest.approx(
            1.0, abs=1e-12
        )

    def test_joint_projection(self):
        w3 = w_state(3)
        assert projection_probability(w3, {0: 0, 1: 0}).probability == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_out_of_range_party(self):
        with pytest.raises(ValueError):
            projection_probability(epr_state(), {5: 0})

    def test_out_of_range_value(self):
        with pytest.raises(ValueError):
            projection_probability(epr_state(), {0: 2})

    @given(dims_strategy, st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_single_party_completeness(self, dims, seed, data):
        structure = PartyStructure(dims)
        state = random_state(structure, np.random.default_rng(seed))
        party = data.draw(st.integers(0, len(dims) - 1))
        total = sum(
            projection_probability(state, {party: k}).probability
            for k in range(dims[party])
        )
        assert abs(total - 1.0) < 1e-12
