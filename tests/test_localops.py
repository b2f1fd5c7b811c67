import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etensor.ketparse import parse_ket
from etensor.localops import (
    DensityMatrix,
    LocalUnitary,
    PartyGrouping,
    apply_local,
    hadamard,
    identity_gate,
    measure_party,
    phase_gate,
    reduced_density,
    regroup,
    trace_to_pair,
    trace_to_pairs,
    ungroup,
)
from etensor.oracles import concurrence_pure_2qubit
from etensor.states import (
    PartyStructure,
    epr_state,
    ghz_state,
    random_state,
    w_state,
)
from etensor.supremum import haar_unitary
from etensor.tensor import SubsetSelector, component, full_tensor

seed_strategy = st.integers(0, 2**32 - 1)


def hadamard_ghz():
    return apply_local(ghz_state(3), hadamard(0))


class TestLocalUnitary:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            LocalUnitary(0, np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            LocalUnitary(0, np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            LocalUnitary(0, [[bad, 0.0], [0.0, 1.0]])

    def test_dagger_inverts(self):
        rng = np.random.default_rng(5)
        u = LocalUnitary(0, haar_unitary(3, rng))
        product = u.matrix @ u.dagger().matrix
        assert np.allclose(product, np.eye(3), atol=1e-12)


class TestApplyLocal:
    def test_hadamard_on_ghz(self):
        state = hadamard_ghz()
        half = 0.5
        assert state.amplitude((0, 0, 0)) == pytest.approx(half, abs=1e-12)
        assert state.amplitude((1, 0, 0)) == pytest.approx(half, abs=1e-12)
        assert state.amplitude((0, 1, 1)) == pytest.approx(half, abs=1e-12)
        assert state.amplitude((1, 1, 1)) == pytest.approx(-half, abs=1e-12)
        assert component(state, SubsetSelector((1, 2))) == pytest.approx(
            1.0, abs=1e-12
        )
        for subset in ((0, 1), (0, 2), (0, 1, 2)):
            assert component(state, SubsetSelector(subset)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_triple_hadamard_gives_flipped_w(self):
        state = ghz_state(3)
        for party in range(3):
            state = apply_local(state, hadamard(party))
        for tup in ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)):
            assert state.amplitude(tup) == pytest.approx(0.5, abs=1e-12)
        for tup in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)):
            assert state.amplitude(tup) == pytest.approx(0.0, abs=1e-12)

    def test_identity_is_noop(self):
        state = w_state(3)
        out = apply_local(state, identity_gate(1, 2))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_dimension_mismatch(self):
        state = random_state(PartyStructure((2, 3)), np.random.default_rng(0))
        with pytest.raises(ValueError, match="does not match"):
            apply_local(state, hadamard(1))

    @given(seed_strategy)
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved_and_inverted(self, seed):
        rng = np.random.default_rng(seed)
        structure = PartyStructure((2, 3, 2))
        state = random_state(structure, rng)
        unitary = LocalUnitary(1, haar_unitary(3, rng))
        moved = apply_local(state, unitary)
        assert abs(np.linalg.norm(moved.amplitudes) - 1.0) < 1e-12
        back = apply_local(moved, unitary.dagger())
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


class TestMeasurement:
    def test_hadamard_ghz_branches(self):
        state = hadamard_ghz()
        prob0, branch0 = measure_party(state, 0, 0)
        assert prob0 == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros(4, dtype=complex)
        expected[0] = expected[3] = 1 / math.sqrt(2)
        assert np.max(np.abs(branch0.amplitudes - expected)) < 1e-12

        prob1, branch1 = measure_party(state, 0, 1)
        assert prob1 == pytest.approx(0.5, abs=1e-12)
        expected[3] = -expected[3]
        assert np.max(np.abs(branch1.amplitudes - expected)) < 1e-12
        assert concurrence_pure_2qubit(branch1) == pytest.approx(1.0, abs=1e-12)

    def test_w3_projects_to_product(self):
        prob, branch = measure_party(w_state(3), 2, 1)
        assert prob == pytest.approx(1 / 3, abs=1e-12)
        assert branch.amplitude((0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_labels_keep_original_names(self):
        _, branch = measure_party(w_state(3), 1, 0)
        assert branch.structure.labels == ("1", "3")

    def test_impossible_outcome(self):
        state = parse_ket("|0,0>")
        prob, branch = measure_party(state, 0, 1)
        assert prob == 0.0
        assert branch is None

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            measure_party(epr_state(), 0, 2)
        with pytest.raises(ValueError):
            measure_party(epr_state(), 3, 0)

    @given(seed_strategy)
    @settings(max_examples=30, deadline=None)
    def test_completeness_and_mixture(self, seed):
        rng = np.random.default_rng(seed)
        structure = PartyStructure((3, 2, 2))
        state = random_state(structure, rng)
        probs = []
        mixture = np.zeros((4, 4), dtype=complex)
        for outcome in range(3):
            prob, branch = measure_party(state, 0, outcome)
            probs.append(prob)
            if branch is not None:
                rho = np.outer(branch.amplitudes, branch.amplitudes.conj())
                mixture += prob * rho
        assert abs(sum(probs) - 1.0) < 1e-12
        direct = reduced_density(state, (1, 2))
        assert np.max(np.abs(mixture - direct)) < 1e-10


class TestRegroup:
    def test_nested_pairs_block(self):
        state = parse_ket(
            "(|0,0,0,1> + |0,0,1,0> + |1,1,0,1> + |1,1,1,0>"
            " + |0,1,0,0> + |0,1,1,1> + |1,0,0,0> + |1,0,1,1>)/sqrt(8)"
        )
        merged = regroup(state, PartyGrouping(((0, 1), (2, 3))))
        assert merged.structure.dims == (4, 4)
        assert merged.structure.labels == ("1+2", "3+4")
        assert component(merged, SubsetSelector((0, 1))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_trivial_grouping_is_identity(self):
        state = epr_state()
        merged = regroup(state, PartyGrouping(((0,), (1,))))
        assert merged.structure.dims == (2, 2)
        assert np.array_equal(merged.amplitudes, state.amplitudes)

    def test_ghz_split_single_vs_rest(self):
        merged = regroup(ghz_state(3), PartyGrouping(((0,), (1, 2))))
        assert merged.structure.dims == (2, 4)
        assert component(merged, SubsetSelector((0, 1))) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_invalid_partition(self):
        with pytest.raises(ValueError, match="disjoint"):
            PartyGrouping(((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="cover"):
            regroup(ghz_state(3), PartyGrouping(((0, 1),)))

    @given(seed_strategy, st.permutations(list(range(4))), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_bit_for_bit(self, seed, order, cut):
        structure = PartyStructure((2, 3, 2, 2))
        state = random_state(structure, np.random.default_rng(seed))
        grouping = PartyGrouping((tuple(order[:cut]), tuple(order[cut:])))
        merged = regroup(state, grouping)
        restored = ungroup(merged, grouping, structure)
        assert np.array_equal(restored.amplitudes, state.amplitudes)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.triu(np.ones((4, 4))) / 4)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) / 2)
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(bad)
        with pytest.raises(ValueError, match="4x4"):
            DensityMatrix(np.eye(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_refused(self, value):
        # NaN used to pass the Hermitian and trace checks and reach eigvalsh
        full = np.full((4, 4), value, dtype=complex)
        one = (np.eye(4) / 4).astype(complex)
        one[1, 2] = value
        imaginary = np.eye(4) / 4 + 0j
        imaginary[3, 3] = complex(0.25, value)
        for mat in (full, one, imaginary):
            with pytest.raises(ValueError, match="must be finite"):
                DensityMatrix(mat)
            with pytest.raises(ValueError, match="must be finite"):
                DensityMatrix(np.stack([np.eye(4) / 4, mat]))

    def test_trace_to_pair_requires_qubits(self):
        state = random_state(PartyStructure((2, 3, 2)), np.random.default_rng(1))
        with pytest.raises(ValueError, match="qubit"):
            trace_to_pair(state, (0, 1))
        with pytest.raises(ValueError, match="two parties"):
            trace_to_pair(state, (0,))
        with pytest.raises(ValueError, match="distinct"):
            trace_to_pair(state, (2, 2))
        with pytest.raises(ValueError, match="qubit"):
            trace_to_pairs(state, [(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="at least one pair"):
            trace_to_pairs(state, [])

    def test_ghz_pair_reduction_is_classical_mixture(self):
        rho = trace_to_pair(ghz_state(3), (0, 1))
        expected = np.diag([0.5, 0.0, 0.0, 0.5])
        assert np.max(np.abs(rho.entries - expected)) < 1e-12


BAD_DENSITIES = {
    "Hermitian": np.triu(np.ones((4, 4))) / 4,
    "trace": np.eye(4) / 2,
    "negative eigenvalue": np.diag([1.5, -0.5, 0.0, 0.0]),
    "NaN": np.full((4, 4), np.nan),
    "inf": np.diag([np.inf, 0.0, 0.0, 0.0]),
}


class TestDensityStack:
    """A ``(P, 4, 4)`` stack: the pair reductions of one state, checked at once."""

    def test_stack_equals_single_pairs(self):
        state = random_state(PartyStructure((2, 2, 3, 2)), np.random.default_rng(5))
        pairs = [(0, 1), (3, 0), (1, 3), (0, 3)]
        stack = trace_to_pairs(state, pairs).entries
        assert stack.shape == (4, 4, 4) and not stack.flags.writeable
        for keep, rho in zip(pairs, stack):
            single = trace_to_pair(state, keep).entries
            assert single.shape == (4, 4)
            assert np.array_equal(rho, single)
            assert np.array_equal(rho, reduced_density(state, keep))

    @pytest.mark.parametrize("kind", BAD_DENSITIES)
    @pytest.mark.parametrize("position", range(4))
    def test_one_bad_matrix_anywhere_gives_its_own_message(self, kind, position):
        good = trace_to_pairs(w_state(4), [(0, 1), (0, 2), (1, 3), (2, 3)]).entries
        stack = good.copy()
        stack[position] = BAD_DENSITIES[kind]
        with pytest.raises(ValueError) as alone:
            DensityMatrix(BAD_DENSITIES[kind])
        with pytest.raises(ValueError) as stacked:
            DensityMatrix(stack)
        assert str(stacked.value) == str(alone.value)

    def test_shapes(self):
        for shape in [(4,), (3, 3), (2, 4, 4, 4), (2, 4, 3)]:
            with pytest.raises(ValueError, match="4x4"):
                DensityMatrix(np.zeros(shape))


class TestPhaseGates:
    @given(seed_strategy)
    @settings(max_examples=25, deadline=None)
    def test_components_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(PartyStructure((2, 2, 3)), rng)
        before = full_tensor(state)
        shifted = state
        for party, dim in enumerate(state.structure.dims):
            shifted = apply_local(
                shifted, phase_gate(party, rng.uniform(0, 2 * np.pi, size=dim))
            )
        after = full_tensor(shifted)
        for subset, value in before.components.items():
            assert abs(value - after.components[subset]) < 1e-12
