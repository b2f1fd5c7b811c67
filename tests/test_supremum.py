import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etensor import kernel as kernel_module
from etensor import supremum as supremum_module
from etensor import tensor as tensor_module
from etensor.golden import W_D_SUP_SQUARED
from etensor.localops import LocalUnitary, apply_local, hadamard
from etensor.states import (
    PartyStructure,
    StateVector,
    ghz_state,
    random_product_state,
    random_state,
    w_state,
)
from etensor.supremum import (
    GRADIENT_STEP,
    MAX_RESTARTS,
    OptimizerConfig,
    haar_unitary,
    maximize_component,
    maximize_simultaneous,
    _antihermitian,
    _ascend,
    _Objective,
    _restart_starts,
    _unitary_exp,
)
from etensor.tensor import (
    DEFAULT_SCHEME,
    SubsetSelector,
    component,
    full_tensor,
    subsets_of_size,
)

FAST = OptimizerConfig(restarts=6, max_iters=200, seed=20240601)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=0)
        with pytest.raises(ValueError):
            OptimizerConfig(step_tol=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(seed=-1)

    def test_restarts_are_bounded(self):
        # a 30-digit count used to overflow while spawning the seed streams
        OptimizerConfig(restarts=MAX_RESTARTS)
        for restarts in (MAX_RESTARTS + 1, 10**30):
            with pytest.raises(ValueError, match="between 1 and 10,000"):
                OptimizerConfig(restarts=restarts)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerances_are_refused(self, tol):
        # NaN used to pass the `tol <= 0.0` check, and so did +inf
        for field in ("step_tol", "value_tol"):
            with pytest.raises(ValueError, match="finite and positive"):
                OptimizerConfig(**{field: tol})


class TestHaarSampling:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4):
            u = haar_unitary(dim, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12

    def test_reproducible(self):
        a = haar_unitary(3, np.random.default_rng(123))
        b = haar_unitary(3, np.random.default_rng(123))
        assert np.array_equal(a, b)


class TestMaximizeComponent:
    def test_ghz_rear_pair_reaches_one(self):
        result = maximize_component(
            ghz_state(3), SubsetSelector((1, 2)),
            config=OptimizerConfig(restarts=8, max_iters=200, seed=7),
        )
        assert result.best_value >= 1 - 1e-4
        assert result.best_value <= 1 + 1e-6

    def test_identity_start_floors_the_result(self):
        w3 = w_state(3)
        subset = SubsetSelector((0, 1))
        result = maximize_component(w3, subset, config=FAST)
        assert result.best_value >= component(w3, subset) - 1e-12

    def test_w3_pair_supremum(self):
        result = maximize_component(
            w_state(3), SubsetSelector((0, 1)),
            config=OptimizerConfig(restarts=8, max_iters=200, seed=3),
        )
        target = math.sqrt(2 / 3)
        assert abs(result.best_value - target) <= 1e-4
        assert max(result.restart_values) <= target + 1e-4

    def test_product_state_stays_flat(self):
        state = random_product_state(
            PartyStructure((2, 2, 2)), np.random.default_rng(8)
        )
        result = maximize_component(state, SubsetSelector((0, 1)), config=FAST)
        assert result.best_value < 1e-6

    def test_certificate(self):
        result = maximize_component(
            ghz_state(3), SubsetSelector((1, 2)), config=FAST
        )
        replayed = result.apply_to(ghz_state(3))
        value = component(replayed, SubsetSelector((1, 2)))
        assert abs(value - result.best_value) < 1e-10

    def test_determinism(self):
        config = OptimizerConfig(restarts=4, max_iters=120, seed=99)
        subset = SubsetSelector((0, 1))
        first = maximize_component(w_state(3), subset, config=config)
        second = maximize_component(w_state(3), subset, config=config)
        assert first.best_value == second.best_value
        assert first.restart_values == second.restart_values
        assert first.best_restart == second.best_restart
        for u1, u2 in zip(first.best_unitaries, second.best_unitaries):
            assert np.array_equal(u1.matrix, u2.matrix)

    def test_restart_statistics_shape(self):
        result = maximize_component(
            ghz_state(3), SubsetSelector((1, 2)), config=FAST
        )
        assert len(result.restart_values) == FAST.restarts
        assert result.best_value == max(result.restart_values)
        assert result.restart_values[result.best_restart] == result.best_value


class TestAscendResult:
    """What one restart returns: a value no lower than its start's, reached
    by the unitaries it returns, and the evaluations the objective counted."""

    def test_value_is_reached_by_the_returned_unitaries(self):
        state, subset = w_state(3), SubsetSelector((0, 1))
        rng = np.random.default_rng(17)
        starts = [haar_unitary(2, rng) for _ in range(3)]
        objective = _Objective(state.structure, [subset], DEFAULT_SCHEME, "min")
        config = OptimizerConfig(restarts=1, max_iters=200, seed=0)
        value, mats, record = _ascend(state.tensor, starts, objective, config)
        again = _ascend(state.tensor, starts, objective, config)[2]
        assert record.evaluations == again.evaluations > 1
        assert objective.evaluations == 2 * record.evaluations
        start_value = objective.scores(_rotated(state, starts).tensor[None])[1][0]
        assert value >= start_value
        assert abs(component(_rotated(state, mats), subset) - value) <= 1e-12


class TestRestartStarts:
    def test_identity_then_one_seed_stream_per_restart(self):
        dims, restarts, seed = (2, 3, 2), 4, 9
        starts = list(_restart_starts(dims, OptimizerConfig(restarts=restarts,
                                                            seed=seed)))
        assert len(starts) == restarts
        for mat, n in zip(starts[0], dims):
            assert np.array_equal(mat, np.eye(n))
        streams = np.random.SeedSequence(seed).spawn(restarts)
        for r in range(1, restarts):
            rng = np.random.default_rng(streams[r])
            assert len(starts[r]) == len(dims)
            for mat, n in zip(starts[r], dims):
                assert np.array_equal(mat, haar_unitary(n, rng))


class TestMaximizeSimultaneous:
    def test_single_subset_degenerates(self):
        config = OptimizerConfig(restarts=4, max_iters=150, seed=11)
        subset = SubsetSelector((1, 2))
        joint = maximize_simultaneous(ghz_state(3), [subset], config=config)
        single = maximize_component(ghz_state(3), subset, config=config)
        assert joint.best_value == single.best_value
        assert joint.restart_values == single.restart_values

    def test_ghz_all_pairs_jointly_reach_one(self):
        subsets = subsets_of_size(PartyStructure((2, 2, 2)), 2)
        result = maximize_simultaneous(
            ghz_state(3), subsets,
            config=OptimizerConfig(restarts=8, max_iters=300, seed=5),
            objective="min",
        )
        assert result.best_value >= 1 - 1e-3

    def test_w4_pairs_stay_at_claimed_plateau(self):
        w4 = w_state(4)
        subsets = subsets_of_size(w4.structure, 2)
        result = maximize_simultaneous(
            w4, subsets,
            config=OptimizerConfig(restarts=4, max_iters=200, seed=6),
            objective="min",
        )
        target = math.sqrt(0.5)
        assert result.best_value >= target - 1e-3
        assert result.best_value <= target + 1e-3

    def test_mean_objective(self):
        subsets = subsets_of_size(PartyStructure((2, 2, 2)), 2)
        result = maximize_simultaneous(
            ghz_state(3), subsets, config=FAST, objective="mean"
        )
        assert result.best_value >= 1 - 1e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            maximize_simultaneous(ghz_state(3), [], config=FAST)
        with pytest.raises(ValueError):
            maximize_simultaneous(
                ghz_state(3), [SubsetSelector((0, 1))],
                config=FAST, objective="max",
            )


class TestClaimedSupremaNotExceeded:
    # empirical consistency checks: a restart beating one of these plateaus
    # by more than tolerance would be a genuine finding, so it fails loudly
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_w_family_pairs(self, m):
        result = maximize_component(
            w_state(m), SubsetSelector((0, 1)),
            config=OptimizerConfig(restarts=6, max_iters=150, seed=m),
        )
        assert max(result.restart_values) <= math.sqrt(2 / m) + 1e-4

    @pytest.mark.parametrize("m, d", [(m, 3) for m in range(3, 7)]
                             + [(m, 4) for m in range(4, 7)])
    def test_w_family_plateaus_of_three_and_four_parties(self, m, d):
        # sup^2 = (D/M) sup^2(W_D); the plateau is reached from Haar
        # restarts and never beaten
        plateau = math.sqrt(d / m * W_D_SUP_SQUARED[d])
        result = maximize_component(
            w_state(m), SubsetSelector(tuple(range(d))),
            config=OptimizerConfig(restarts=6, max_iters=150, seed=m),
        )
        assert abs(result.best_value - plateau) <= 1e-4
        assert max(result.restart_values) <= plateau + 1e-4

    def test_ghz_triple_capped_at_one(self):
        result = maximize_component(
            ghz_state(3), SubsetSelector((0, 1, 2)),
            config=OptimizerConfig(restarts=6, max_iters=150, seed=2),
        )
        assert max(result.restart_values) <= 1 + 1e-6


def _rotated(state, unitaries):
    """``state`` with ``unitaries[k]`` applied to party k."""
    for party, unitary in enumerate(unitaries):
        state = apply_local(state, LocalUnitary(party, unitary))
    return state


class TestWFamilyLowerHalf:
    """The same unitaries on parties 0..D-1 of W_M and of W_D.

    Read in the computational basis, the other M - D parties of W_M are
    all 0 with probability D/M, and then parties 0..D-1 hold W_D; any other
    reading leaves them in a product state, which scores 0.  A sector of
    probability p holds sqrt(p) times its normalized state, so its
    degree-4 term scales by p^2 and its weight 1/p leaves p: a component
    squared is the p-weighted sum of its sectors' squares.  So the D-party
    component of W_M squares to D/M times that of W_D, in every basis of
    the D parties: the lower half of the W_M law, whose upper half
    :class:`TestWFamilyLaw` pins.
    """

    def test_rotated_subset_scales_w_d(self):
        rng = np.random.default_rng(16)
        for m in range(2, 8):
            for d in range(2, m + 1):
                subset = SubsetSelector(tuple(range(d)))
                for _ in range(2):
                    unitaries = [haar_unitary(2, rng) for _ in range(d)]
                    w_m = _rotated(w_state(m), unitaries)
                    w_d = _rotated(w_state(d), unitaries)
                    assert abs(component(w_m, subset) ** 2
                               - d / m * component(w_d, subset) ** 2) <= 1e-12


class TestWFamilyLaw:
    """sup^2_D(W_M) = (D/M) sup^2_D(W_D), the proof of README "Semantics".

    The identity: for phi in the span of the one-excitation kets and
    |alpha|^2 + |beta|^2 = 1, comp^2_U(alpha phi + beta |0...0>) =
    |alpha|^4 comp^2_U(phi) in every product basis U.  Reading the other
    M - D parties of W_M, rotated, leaves such a state on the D selected
    parties in every sector, so comp^2_U(W_M) <= (D/M) comp^2_U(W_D).
    """

    @staticmethod
    def _form(amplitudes, unitaries):
        """comp^2 of all parties of the rotated ``amplitudes``, scaled as a
        degree-4 form, so that an unnormalized sum compares term by term."""
        norm = np.linalg.norm(amplitudes)
        d = len(unitaries)
        state = _rotated(StateVector(PartyStructure((2,) * d), amplitudes / norm),
                         unitaries)
        return component(state, SubsetSelector(tuple(range(d)))) ** 2 * norm**4

    def test_one_excitation_identity_and_ghz_control(self):
        rng = np.random.default_rng(23)
        for d in range(2, 7):
            vacuum = np.zeros(2**d, complex)
            vacuum[0] = 1
            ghz = ghz_state(d).amplitudes
            ghz_misses = []
            for _ in range(10):
                unitaries = [haar_unitary(2, rng) for _ in range(d)]
                phi = np.zeros(2**d, complex)
                phi[[1 << k for k in range(d)]] = (rng.normal(size=d)
                                                   + 1j * rng.normal(size=d))
                phi /= np.linalg.norm(phi)
                alpha, beta = rng.normal(size=2) + 1j * rng.normal(size=2)
                norm = math.hypot(abs(alpha), abs(beta))
                alpha, beta = alpha / norm, beta / norm
                assert abs(self._form(alpha * phi + beta * vacuum, unitaries)
                           - abs(alpha) ** 4 * self._form(phi, unitaries)) <= 1e-12
                ghz_misses.append(abs(self._form(alpha * ghz + beta * vacuum, unitaries)
                                      - abs(alpha) ** 4 * self._form(ghz, unitaries)))
            # GHZ_D's unfolding shares no vector with that of |0...0>, so the
            # cross term of the innermost minors survives
            assert d == 2 or max(ghz_misses) > 1e-3

    def test_every_party_rotated_is_bounded_by_w_d(self):
        rng = np.random.default_rng(24)
        for m in range(2, 8):
            for d in range(2, m + 1):
                subset = SubsetSelector(tuple(range(d)))
                for _ in range(3):
                    unitaries = [haar_unitary(2, rng) for _ in range(m)]
                    w_m = _rotated(w_state(m), unitaries)
                    w_d = _rotated(w_state(d), unitaries[:d])
                    assert (component(w_m, subset) ** 2
                            <= d / m * component(w_d, subset) ** 2 + 1e-12)


class TestWHadamardBasis:
    """H on every party of W_D: the full component squares to a rational.

    The rotated amplitudes are (D - 2|x|)/sqrt(D 2^D).  For W_5 and W_7 the
    values, 1/50 and 1/1568, lie above every basis search so far.
    """

    @pytest.mark.parametrize("d, squared", list(zip(range(2, 14), [
        1, 4 / 9, 1 / 8, 1 / 50, 0, 1 / 1568, 0, 0, 0, 1 / 991232, 0, 0])))
    def test_full_component(self, d, squared):
        state = w_state(d)
        for party in range(d):
            state = apply_local(state, hadamard(party))
        value = component(state, SubsetSelector(tuple(range(d))))
        assert abs(value**2 - squared) <= 1e-15


class TestRestartRecords:
    def test_iteration_cap_is_reported(self):
        result = maximize_component(
            w_state(3), SubsetSelector((0, 1)),
            config=OptimizerConfig(restarts=3, max_iters=1, seed=4),
        )
        assert len(result.restarts) == 3
        # restarts 1 and 2 start from Haar bases, far from the plateau
        for record in result.restarts[1:]:
            assert record.stop_reason == "max_iters"
            assert record.iterations == 1
            # the start, 2 probes per parameter of the one moving qubit,
            # and at least one line-search point
            assert record.evaluations >= 1 + 2 * 4 + 1
            assert record.seconds > 0.0

    def test_converged_run_is_not_capped(self):
        result = maximize_component(
            w_state(3), SubsetSelector((0, 1)),
            config=OptimizerConfig(restarts=8, max_iters=200, seed=3),
        )
        reasons = {record.stop_reason for record in result.restarts}
        assert "max_iters" not in reasons
        assert reasons <= {"grad_zero", "line_search_stall", "value_tol"}
        for record in result.restarts:
            assert 1 <= record.iterations < 200
            assert record.evaluations > record.iterations


def _haar_point(psi, dims, rng):
    """Haar unitaries on every party, and ``psi`` with them applied."""
    mats = [haar_unitary(n, rng) for n in dims]
    for j, mat in enumerate(mats):
        psi = supremum_module._apply_matrix(mat, psi, j)
    return mats, psi


def _loop_gradient(point, dims, objective):
    """The per-probe loop the batched gradient replaced, over every party.

    Probe k of party j is exp(+-h G_k) on axis j of the point tensor, built
    and scored on its own; the two sides differ only in batching and in the
    pairs that the batched gradient reuses.
    """
    def single(tensor):
        return objective.scores(tensor[None])[1][0]

    grads = []
    for j, n in enumerate(dims):
        grad = np.zeros(n * n)
        for k in range(n * n):
            shift = np.zeros(n * n)
            shift[k] = GRADIENT_STEP
            up = _unitary_exp(_antihermitian(shift, n))
            um = _unitary_exp(_antihermitian(-shift, n))
            grad[k] = (single(supremum_module._apply_matrix(up, point, j))
                       - single(supremum_module._apply_matrix(um, point, j))
                       ) / (2 * GRADIENT_STEP)
        grads.append(grad)
    return grads


def _gradient_case(dims, parties_list, combine, seed):
    """Batched and loop gradients at random Haar unitaries of a random state."""
    structure = PartyStructure(dims)
    rng = np.random.default_rng(seed)
    psi = random_state(structure, rng).tensor
    subsets = [SubsetSelector(p) for p in parties_list]
    objective = _Objective(structure, subsets, DEFAULT_SCHEME, combine)
    _, point = _haar_point(psi, dims, rng)
    batched = objective.gradient(point, objective.scores(point[None])[0])
    loop = _loop_gradient(point, dims, objective)
    return objective, batched, loop


# Round-off floor of a central difference: values near 1 that differ by a
# few ulps between two evaluation orders, over the probe distance 2h.  The
# loop scores each probe alone, and re-scores the pairs that the batched
# gradient reuses; both move its probe values by ulps.
FD_ROUND_OFF = 4 * np.finfo(float).eps / (2 * GRADIENT_STEP)


class TestBatchedGradient:
    @pytest.mark.parametrize("dims, parties_list, combine", [
        ((2, 2, 2), [(0, 1)], "min"),
        ((2, 2, 2, 2), [(1, 3)], "min"),
        ((3, 2, 3), [(0, 2)], "min"),
        ((3, 3, 2), [(0, 1, 2)], "min"),
        ((2, 2, 2), [(0, 1, 2)], "min"),
        ((2, 2, 2, 2), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], "min"),
        ((2, 3, 2), [(0, 1), (1, 2), (0, 1, 2)], "min"),
        ((2, 3, 2), [(0, 1), (0, 2)], "mean"),
    ])
    def test_matches_loop_reference(self, dims, parties_list, combine):
        objective, batched, loop = _gradient_case(dims, parties_list, combine,
                                                  seed=len(parties_list) + sum(dims))
        for j, a, b in objective.moving:
            assert np.max(np.abs(batched[a:b] - loop[j])) < FD_ROUND_OFF
        for j in objective.frozen:
            assert np.max(np.abs(loop[j])) < 1e-8
        # pruned: the parties that every subset holds as one of a pair
        assert objective.frozen == tuple(
            j for j in range(len(dims))
            if all(len(p) == 2 and j in p for p in parties_list)
        )

    def test_chunked_probe_stack_is_exact(self, monkeypatch):
        dims, parties_list = (3, 2, 3), [(0, 1), (0, 1, 2)]
        passes, stacks = [], []
        evaluate_pass = kernel_module._evaluate_pass
        apply = supremum_module._apply_matrix

        def counted(shape, *args):
            (group,) = shape.groups
            passes.append(group.batch)
            return evaluate_pass(shape, *args)

        def applied(mats, amplitudes, party):
            if mats.ndim == 3:
                stacks.append(len(mats))
            return apply(mats, amplitudes, party)

        monkeypatch.setattr(kernel_module, "_evaluate_pass", counted)
        monkeypatch.setattr(supremum_module, "_apply_matrix", applied)
        _, whole, _ = _gradient_case(dims, parties_list, "min", seed=5)
        whole_passes = list(passes)
        # each party's probes are applied as one stack in the default budget
        assert stacks == [18, 8, 18]
        monkeypatch.setattr(tensor_module, "GATHER_BUDGET_BYTES", 4000)
        passes.clear()
        stacks.clear()
        objective, chunked, _ = _gradient_case(dims, parties_list, "min", seed=5)
        # and one pass at a time in 4,000 bytes
        assert sum(stacks) == 44
        assert max(stacks) == objective.batch < 8
        # after one point of both subsets, the gradient scores the triple's
        # stacks of 18, 8 and 18 probes (the pair is reused on its parties),
        # one pass each in the default budget; the loop reference follows.
        # In 4,000 bytes the same probes take more, smaller passes.
        assert whole_passes[:5] == [1, 1, 18, 8, 18]
        assert sum(passes) == sum(whole_passes)
        assert len(passes) > len(whole_passes)
        assert max(passes) < 8
        assert np.array_equal(chunked, whole)


class TestGradientOfTheStep:
    """The gradient is the derivative of the step the ascent takes.

    Along a random unit direction v, ``grad @ v`` must match a central
    difference of the objective over ``stepped(mats, +-eps v)``, so a probe
    convention that does not match the step convention fails here.
    """

    EPS = 1e-4

    @pytest.mark.parametrize("dims, parties_list, combine", [
        ((2, 2, 2), [(0, 1)], "min"),
        ((3, 2, 3), [(0, 2)], "min"),
        ((3, 3, 2), [(0, 1, 2)], "min"),
        ((2, 2, 2, 2), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], "min"),
        ((2, 3, 2), [(0, 1), (0, 2)], "mean"),
        ((2, 2, 2, 2, 2), [(0, 1, 2, 3, 4)], "min"),
        ((4, 3, 3), [(0, 1, 2)], "min"),
    ])
    def test_directional_derivative(self, dims, parties_list, combine):
        structure = PartyStructure(dims)
        rng = np.random.default_rng(sum(dims) + len(parties_list))
        # the six pairs are the W4 joint search's objective, so on W4
        psi = (w_state(4).tensor if dims == (2, 2, 2, 2)
               else random_state(structure, rng).tensor)
        objective = _Objective(structure, [SubsetSelector(p) for p in parties_list],
                               DEFAULT_SCHEME, combine)
        mats, point = _haar_point(psi, dims, rng)

        def moved(direction):
            tensor = psi
            for j, mat in enumerate(objective.stepped(mats, direction)):
                tensor = supremum_module._apply_matrix(mat, tensor, j)
            return objective.scores(tensor[None])[1][0]

        grad = objective.gradient(point, objective.scores(point[None])[0])
        v = rng.normal(size=objective.num_params)
        v /= np.linalg.norm(v)
        along = (moved(self.EPS * v) - moved(-self.EPS * v)) / (2 * self.EPS)
        assert abs(grad @ v - along) <= 1e-6 * abs(along)

    def test_gradient_builds_no_unitary(self, monkeypatch):
        dims = (3, 2, 3)
        structure = PartyStructure(dims)
        rng = np.random.default_rng(24)
        objective = _Objective(structure, [SubsetSelector((0, 1)),
                                           SubsetSelector((0, 1, 2))],
                               DEFAULT_SCHEME, "min")
        mats, point = _haar_point(random_state(structure, rng).tensor, dims, rng)
        values = objective.scores(point[None])[0]
        exps, eighs = [], []
        unitary_exp, eigh = supremum_module._unitary_exp, np.linalg.eigh
        monkeypatch.setattr(supremum_module, "_unitary_exp",
                            lambda a: exps.append(a.shape) or unitary_exp(a))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eighs.append(a.shape) or eigh(a))
        grad = objective.gradient(point, values)
        assert (exps, eighs) == ([], [])
        # a step does build its unitaries: one stacked eigh per dimension
        objective.stepped(mats, grad)
        assert exps == [(1, 2, 2), (2, 3, 3)] and eighs == exps


@st.composite
def _states_and_pairs(draw):
    dims = tuple(draw(st.lists(st.integers(2, 4), min_size=3, max_size=5)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    psi = random_state(PartyStructure(dims), rng).amplitudes
    if draw(st.booleans()):
        # sparse: keep a few amplitudes, so some sectors are empty
        kept = rng.choice(len(psi), size=min(len(psi), draw(st.integers(1, 6))),
                          replace=False)
        sparse = np.zeros_like(psi)
        sparse[kept] = psi[kept]
        psi = sparse / np.linalg.norm(sparse)
    pair = tuple(sorted(rng.choice(len(dims), 2, replace=False).tolist()))
    return StateVector(PartyStructure(dims), psi), pair, rng


class TestPairInvariance:
    """A pair component ignores unitaries on its own two parties.

    The optimizer relies on this to leave those directions unprobed.
    """

    @given(_states_and_pairs())
    @settings(max_examples=60, deadline=None)
    def test_pair_unchanged_by_its_own_unitaries(self, case):
        state, pair, rng = case
        rotated = state
        for party in pair:
            unitary = haar_unitary(state.structure.dims[party], rng)
            rotated = apply_local(rotated, LocalUnitary(party, unitary))
        before = full_tensor(state, sizes=[2]).components
        after = full_tensor(rotated, sizes=[2]).components
        for subset, value in before.items():
            if set(subset.parties) == set(pair):
                assert abs(after[subset] - value) < 1e-12
