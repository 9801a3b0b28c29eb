"""Transport tests: Sinkhorn behavior, assignment oracle, end-to-end metric."""

import itertools

import numpy as np
import pytest

from reupgen import statevec as sv
from reupgen import transport
from reupgen.datasets import ring_y_ensemble
from reupgen.transport import (
    SinkhornConfig,
    TransportPlan,
    cost_matrix,
    exact_assignment,
    regularized_value,
    sinkhorn,
    transport_value,
    uniform_marginals,
    wasserstein_distance,
)

ZERO = np.array([[1, 0]], dtype=complex)
ONE = np.array([[0, 1]], dtype=complex)
PLUS = np.array([[1, 1]], dtype=complex) / np.sqrt(2)


class TestCostMatrix:
    def test_identical_states(self):
        np.testing.assert_allclose(cost_matrix(ZERO, ZERO), [[0.0]], atol=1e-15)

    def test_orthogonal_states(self):
        np.testing.assert_allclose(cost_matrix(ZERO, ONE), [[1.0]])

    def test_zero_vs_plus(self):
        np.testing.assert_allclose(cost_matrix(ZERO, PLUS), [[1 - 1 / np.sqrt(2)]], atol=1e-12)
        assert cost_matrix(ZERO, PLUS)[0, 0] == pytest.approx(0.29289, abs=1e-5)

    def test_matches_pairwise_overlap(self):
        rng = np.random.default_rng(30)
        a = ring_y_ensemble(6, seed=1)
        b = ring_y_ensemble(4, seed=2)
        cost = cost_matrix(a, b)
        for i in range(6):
            for j in range(4):
                assert cost[i, j] == pytest.approx(1 - abs(sv.overlap(a[i], b[j])), abs=1e-12)

    def test_qubit_mismatch(self):
        with pytest.raises(ValueError):
            cost_matrix(ZERO, np.eye(4, dtype=complex)[:1])

    def test_shot_mode_close_to_exact(self):
        a = ring_y_ensemble(5, seed=3)
        b = ring_y_ensemble(5, seed=4)
        exact = cost_matrix(a, b)
        sampled = cost_matrix(a, b, shots=10**6, rng=np.random.default_rng(5))
        diff = np.abs(exact - sampled)
        # the sqrt inversion amplifies shot noise near orthogonal pairs
        # (error ~ shots^-1/4 there, shots^-1/2 elsewhere)
        assert np.max(diff[exact < 0.9]) < 0.01
        assert np.max(diff) < 0.05

    def test_shot_mode_deterministic_given_rng(self):
        a = ring_y_ensemble(3, seed=6)
        first = cost_matrix(a, a, shots=100, rng=np.random.default_rng(7))
        second = cost_matrix(a, a, shots=100, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(first, second)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(31)
        vecs = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        cost = cost_matrix(vecs, vecs)
        assert cost.min() >= 0.0 and cost.max() <= 1.0


class TestSinkhorn:
    def test_1x1(self):
        plan = sinkhorn(np.array([[0.4]]), np.array([1.0]), np.array([1.0]), SinkhornConfig())
        np.testing.assert_allclose(plan.plan, [[1.0]], atol=1e-9)
        assert plan.converged

    def test_2x2_diagonal(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = sinkhorn(cost, *uniform_marginals(2, 2), SinkhornConfig(epsilon=0.001))
        np.testing.assert_allclose(plan.plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-3)

    def test_large_epsilon_gives_outer_product(self):
        rng = np.random.default_rng(32)
        cost = rng.uniform(size=(3, 5))
        a, b = uniform_marginals(3, 5)
        plan = sinkhorn(cost, a, b, SinkhornConfig(epsilon=100.0))
        np.testing.assert_allclose(plan.plan, np.outer(a, b), atol=1e-3)

    def test_non_finite_cost_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn(np.array([[np.inf]]), np.array([1.0]), np.array([1.0]), SinkhornConfig())

    def test_marginals_satisfied_when_converged(self):
        rng = np.random.default_rng(33)
        cost = rng.uniform(size=(12, 9))
        a, b = uniform_marginals(12, 9)
        config = SinkhornConfig(epsilon=0.05, max_iterations=20000, marginal_tolerance=1e-8)
        plan = sinkhorn(cost, a, b, config)
        assert plan.converged
        assert np.abs(plan.plan.sum(axis=1) - a).sum() < config.marginal_tolerance
        assert np.abs(plan.plan.sum(axis=0) - b).sum() < config.marginal_tolerance
        assert plan.plan.min() >= -1e-12

    def test_unconverged_flag(self):
        rng = np.random.default_rng(34)
        cost = rng.uniform(size=(8, 8))
        plan = sinkhorn(cost, *uniform_marginals(8, 8), SinkhornConfig(epsilon=1e-4, max_iterations=3))
        assert not plan.converged
        assert plan.iterations == 3


def _log_domain_sinkhorn(cost, a, b, config):
    """Plain log-domain Sinkhorn: the loop the stabilized solver must track."""

    def lse_rows(mat):
        peak = mat.max(axis=1)
        return peak + np.log(np.exp(mat - peak[:, None]).sum(axis=1))

    def lse_cols(mat):
        peak = mat.max(axis=0)
        return peak + np.log(np.exp(mat - peak[None, :]).sum(axis=0))

    eps = config.epsilon
    log_a, log_b = np.log(a), np.log(b)
    f = np.zeros(cost.shape[0])
    g = np.zeros(cost.shape[1])
    converged = False
    for iterations in range(1, config.max_iterations + 1):
        f = eps * (log_a - lse_rows((g[None, :] - cost) / eps))
        g = eps * (log_b - lse_cols((f[:, None] - cost) / eps))
        if iterations % 5 == 0 or iterations == config.max_iterations:
            plan = np.exp((f[:, None] + g[None, :] - cost) / eps)
            row_err = np.abs(plan.sum(axis=1) - a).sum()
            col_err = np.abs(plan.sum(axis=0) - b).sum()
            if row_err < config.marginal_tolerance and col_err < config.marginal_tolerance:
                converged = True
                break
    plan = np.exp((f[:, None] + g[None, :] - cost) / eps)
    return TransportPlan(plan=plan, converged=converged, iterations=iterations)


def _solve_counting_log_steps(monkeypatch, cost, config):
    """Stabilized solve plus the number of log-domain steps it took."""
    calls = []
    original = transport._log_domain_step

    def spy(*args):
        calls.append(1)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(transport, "_log_domain_step", spy)
        plan = sinkhorn(cost, *uniform_marginals(*cost.shape), config)
    return plan, len(calls)


EPSILONS = [1e-5, 1e-4, 1e-3, 0.01, 0.05, 1.0, 100.0]
SHAPES = [(1, 1), (3, 5), (12, 9), (100, 100)]


class TestStabilizedScaling:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_matches_log_domain_loop(self, monkeypatch, epsilon, shape):
        cost = np.random.default_rng(list(shape)).uniform(size=shape)
        config = SinkhornConfig(epsilon=epsilon)
        plan, log_steps = _solve_counting_log_steps(monkeypatch, cost, config)
        expected = _log_domain_sinkhorn(cost, *uniform_marginals(*shape), config)
        assert log_steps >= 1  # the solve always opens with a log-domain step
        assert plan.iterations == expected.iterations
        assert plan.converged == expected.converged
        assert np.all(np.isfinite(plan.plan))
        # the reference's exponents (f + g - C) / eps carry a rounding error
        # of about 1e-16 / eps, which bounds how closely it can be matched
        np.testing.assert_allclose(plan.plan, expected.plan, rtol=0, atol=max(1e-12, 1e-16 / epsilon))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs extended precision")
    def test_tighter_than_log_domain_at_tiny_epsilon(self):
        cost = np.random.default_rng([3, 5]).uniform(size=(3, 5))
        a, b = uniform_marginals(3, 5)
        config = SinkhornConfig(epsilon=1e-5)
        exact = _log_domain_sinkhorn(
            cost.astype(np.longdouble), a.astype(np.longdouble), b.astype(np.longdouble), config
        )
        plan = sinkhorn(cost, a, b, config)
        assert plan.iterations == exact.iterations
        np.testing.assert_allclose(plan.plan, exact.plan.astype(float), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("epsilon", [1e-5, 1e-4, 1e-3])
    def test_small_epsilon_folds_into_potentials(self, monkeypatch, epsilon):
        # a 1x1 plan is exact after the opening step, so only the larger
        # shapes can drive the scalings out of range
        folds = 0
        for shape in SHAPES[1:]:
            cost = np.random.default_rng(list(shape)).uniform(size=shape)
            _, log_steps = _solve_counting_log_steps(monkeypatch, cost, SinkhornConfig(epsilon=epsilon))
            folds += log_steps - 1
        assert folds >= 1

    def test_no_fold_at_moderate_epsilon(self, monkeypatch):
        cost = np.random.default_rng([100, 100]).uniform(size=(100, 100))
        _, log_steps = _solve_counting_log_steps(monkeypatch, cost, SinkhornConfig(epsilon=0.05))
        assert log_steps == 1


class TestTransportValue:
    def test_scalar(self):
        assert transport_value(np.array([[0.3]]), np.array([[1.0]])) == pytest.approx(0.3)

    def test_identical_ensembles_near_zero(self):
        states = ring_y_ensemble(20, seed=8)
        assert wasserstein_distance(states, states) < 1e-2

    def test_regularization_suboptimality(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            cost = rng.uniform(size=(10, 10))
            plan = sinkhorn(cost, *uniform_marginals(10, 10), SinkhornConfig(epsilon=0.01, max_iterations=20000))
            _, exact = exact_assignment(cost)
            assert transport_value(cost, plan) >= exact - 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            transport_value(np.zeros((2, 2)), np.zeros((2, 3)))


class TestExactAssignment:
    def test_zero_diagonal(self):
        sigma, value = exact_assignment(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(sigma, [0, 1])
        assert value == 0.0

    def test_zero_antidiagonal(self):
        sigma, value = exact_assignment(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(sigma, [1, 0])
        assert value == 0.0

    def test_matches_brute_force_8x8(self):
        rng = np.random.default_rng(36)
        for _ in range(3):
            cost = rng.uniform(size=(8, 8))
            _, value = exact_assignment(cost)
            brute = min(
                sum(cost[i, perm[i]] for i in range(8)) for perm in itertools.permutations(range(8))
            )
            assert value == pytest.approx(brute / 8, abs=1e-12)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            exact_assignment(np.zeros((2, 3)))


class TestAgainstAssignmentOracle:
    def test_small_epsilon_matches_hungarian_16x16(self):
        rng = np.random.default_rng(37)
        config = SinkhornConfig(epsilon=1e-3, max_iterations=20000, marginal_tolerance=1e-6)
        for _ in range(5):
            cost = rng.uniform(size=(16, 16))
            plan = sinkhorn(cost, *uniform_marginals(16, 16), config)
            _, exact = exact_assignment(cost)
            assert abs(transport_value(cost, plan) - exact) < 5e-3

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(38)
        for _ in range(5):
            cost = rng.uniform(size=(16, 16))
            a, b = uniform_marginals(16, 16)
            tight = transport_value(cost, sinkhorn(cost, a, b, SinkhornConfig(epsilon=0.001, max_iterations=20000)))
            loose = transport_value(cost, sinkhorn(cost, a, b, SinkhornConfig(epsilon=0.1, max_iterations=20000)))
            assert tight <= loose + 1e-6


class TestWassersteinDistance:
    def test_orthogonal_singletons(self):
        assert wasserstein_distance(ZERO, ONE) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self):
        config = SinkhornConfig(epsilon=0.05, max_iterations=50000, marginal_tolerance=1e-12)
        a = ring_y_ensemble(15, seed=9)
        b = ring_y_ensemble(12, seed=10)
        forward = wasserstein_distance(a, b, config)
        backward = wasserstein_distance(b, a, config)
        assert abs(forward - backward) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(39)
        for _ in range(5):
            a = ring_y_ensemble(10, seed=int(rng.integers(1e6)))
            b = ring_y_ensemble(10, seed=int(rng.integers(1e6)))
            assert wasserstein_distance(a, b) >= -1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_distance(np.empty((0, 2)), ZERO)

    def test_two_draw_baseline_is_stable(self):
        # self-calibration constant: distance between two independent
        # 100-sample ring draws, reported over 20 seed pairs
        values = [
            wasserstein_distance(ring_y_ensemble(100, seed=50 + 2 * k), ring_y_ensemble(100, seed=51 + 2 * k))
            for k in range(20)
        ]
        values = np.array(values)
        assert values.std() < 0.5 * values.mean()
        assert 0.005 < values.mean() < 0.1


def test_regularized_value_dominates_plain_value():
    # the entropy term is negative near permutation plans of mass 1/n,
    # so the regularized objective sits below <P, C> + eps * 0
    rng = np.random.default_rng(40)
    cost = rng.uniform(size=(6, 6))
    plan = sinkhorn(cost, *uniform_marginals(6, 6), SinkhornConfig(epsilon=0.05, max_iterations=20000))
    assert regularized_value(cost, plan, 0.05) < transport_value(cost, plan)
