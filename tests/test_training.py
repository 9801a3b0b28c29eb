"""Optimizer and trainer tests (small instances; full scale lives in acceptance)."""

import numpy as np
import pytest

from reupgen.datasets import NoiseSpec, draw_noise, ring_y_ensemble, ring_z_ensemble
from reupgen.generator import GeneratorConfig, forward_states, random_theta
from reupgen.gradients import ensemble_loss_gradient, entropy_loss_gradient
from reupgen.metrics import mean_squared_pauli
from reupgen.statevec import entanglement_entropies
from reupgen.training import (
    TrainConfig,
    TrainingDiverged,
    _DivergenceGuard,
    adam_step,
    init_adam,
    train_conditional,
    train_ensemble,
    train_entropy_series,
)
from reupgen.transport import SinkhornConfig


def small_sinkhorn():
    return SinkhornConfig(epsilon=0.01, max_iterations=2000, marginal_tolerance=1e-6)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        theta = np.zeros((2, 1, 3))
        state = init_adam(theta, lr=0.05)
        state, new_theta = adam_step(state, theta, np.ones_like(theta))
        np.testing.assert_allclose(new_theta, -0.05, rtol=1e-7)
        assert state.t == 1

    def test_zero_gradient_keeps_theta(self):
        theta = np.random.default_rng(0).normal(size=(1, 1, 3))
        state = init_adam(theta, lr=0.05)
        _, new_theta = adam_step(state, theta, np.zeros_like(theta))
        np.testing.assert_array_equal(new_theta, theta)

    def test_three_steps_match_scalar_reference(self):
        # hand-rolled reference trace on f(t) = t^2 from t = 1
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        t_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        expected = []
        for step in range(1, 4):
            g = 2.0 * t_ref
            m_ref = b1 * m_ref + (1 - b1) * g
            v_ref = b2 * v_ref + (1 - b2) * g * g
            m_hat = m_ref / (1 - b1**step)
            v_hat = v_ref / (1 - b2**step)
            t_ref = t_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
            expected.append(t_ref)

        theta = np.full((1, 1, 1), 1.0)
        state = init_adam(theta, lr=lr)
        got = []
        for _ in range(3):
            state, theta = adam_step(state, theta, 2.0 * theta)
            got.append(float(theta[0, 0, 0]))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_non_finite_gradient_aborts(self):
        theta = np.zeros((1, 1, 3))
        state = init_adam(theta, lr=0.05)
        grad = np.zeros_like(theta)
        grad[0, 0, 1] = np.nan
        with pytest.raises(TrainingDiverged):
            adam_step(state, theta, grad)

    def test_shape_mismatch(self):
        theta = np.zeros((1, 1, 3))
        with pytest.raises(ValueError):
            adam_step(init_adam(theta, 0.05), theta, np.zeros((2, 1, 3)))

    def test_state_shapes_stable(self):
        theta = np.random.default_rng(1).normal(size=(3, 2, 3))
        state = init_adam(theta, lr=0.01)
        for _ in range(5):
            state, theta = adam_step(state, theta, np.ones_like(theta))
            assert state.m.shape == theta.shape
            assert state.v.shape == theta.shape
            assert np.all(state.v >= 0)


class TestTrainEnsemble:
    def test_collapse_to_single_state(self):
        config = GeneratorConfig(n_qubits=1, reps=4)
        target = ring_y_ensemble(1, seed=2)
        tconf = TrainConfig(
            epochs=200, lr=0.05, seed=3, batch_generated=8,
            sinkhorn=small_sinkhorn(), noise=NoiseSpec("uniform", lo=-0.1, hi=0.1),
        )
        theta, records = train_ensemble(config, target, tconf)
        assert records[-1].loss < 0.05

    def test_zero_epochs_noop(self):
        config = GeneratorConfig(n_qubits=1, reps=2)
        tconf = TrainConfig(epochs=0, seed=4, noise=NoiseSpec("uniform", lo=-0.1, hi=0.1))
        theta, records = train_ensemble(config, ring_y_ensemble(5, seed=5), tconf)
        assert records == []
        assert theta.shape == (2, 1, 3)

    def test_bitwise_deterministic(self):
        config = GeneratorConfig(n_qubits=1, reps=3)
        tconf = TrainConfig(
            epochs=20, lr=0.05, seed=6, sinkhorn=small_sinkhorn(),
            noise=NoiseSpec("uniform", lo=-0.1, hi=0.1),
        )
        data = ring_y_ensemble(10, seed=7)
        theta1, recs1 = train_ensemble(config, data, tconf)
        theta2, recs2 = train_ensemble(config, data, tconf)
        np.testing.assert_array_equal(theta1, theta2)
        assert [r.loss for r in recs1] == [r.loss for r in recs2]
        assert [r.aux_metric for r in recs1] == [r.aux_metric for r in recs2]

    def test_loss_decreases(self):
        config = GeneratorConfig(n_qubits=1, reps=8)
        tconf = TrainConfig(
            epochs=120, lr=0.05, seed=8, sinkhorn=small_sinkhorn(),
            noise=NoiseSpec("uniform", lo=-0.1, hi=0.1),
        )
        data = ring_y_ensemble(30, seed=9)
        _, records = train_ensemble(config, data, tconf)
        losses = [r.loss for r in records]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_aux_metric_recorded(self):
        config = GeneratorConfig(n_qubits=1, reps=2)
        tconf = TrainConfig(epochs=3, seed=10, sinkhorn=small_sinkhorn(),
                            noise=NoiseSpec("uniform", lo=-0.1, hi=0.1))
        _, records = train_ensemble(
            config, ring_y_ensemble(6, seed=11), tconf,
            aux_fn=lambda s: mean_squared_pauli(s, "Y").value,
        )
        assert all(0.0 <= r.aux_metric <= 1.0 for r in records)
        assert all(r.wall_ms >= 0 for r in records)

    def test_batch_size_matches_request(self):
        config = GeneratorConfig(n_qubits=1, reps=2)
        seen = []
        tconf = TrainConfig(epochs=2, seed=12, batch_generated=13, sinkhorn=small_sinkhorn(),
                            noise=NoiseSpec("uniform", lo=-0.1, hi=0.1))
        train_ensemble(config, ring_y_ensemble(5, seed=13), tconf,
                       aux_fn=lambda s: seen.append(s.shape[0]) or 0.0)
        assert seen == [13, 13]

    def test_empty_train_set_rejected(self):
        config = GeneratorConfig(n_qubits=1, reps=1)
        with pytest.raises(ValueError):
            train_ensemble(config, np.empty((0, 2)), TrainConfig(epochs=1, noise=NoiseSpec("uniform", lo=-1, hi=1)))


class TestDivergenceGuard:
    def test_trips_after_patience(self):
        guard = _DivergenceGuard()
        guard.check(0, 0.01)
        for epoch in range(1, 50):
            guard.check(epoch, 0.2)
        with pytest.raises(TrainingDiverged):
            guard.check(50, 0.2)

    def test_resets_on_recovery(self):
        guard = _DivergenceGuard()
        guard.check(0, 0.01)
        for epoch in range(1, 200):
            guard.check(epoch, 0.2 if epoch % 40 else 0.01)

    def test_non_finite_loss(self):
        guard = _DivergenceGuard()
        with pytest.raises(TrainingDiverged):
            guard.check(0, float("nan"))


class TestTrainConditional:
    def test_overlapping_intervals_rejected(self):
        config = GeneratorConfig(n_qubits=1, reps=2)
        sets = [ring_y_ensemble(4, seed=14), ring_z_ensemble(4, seed=15)]
        tconf = TrainConfig(epochs=1, noise=NoiseSpec("uniform", lo=-1, hi=1))
        with pytest.raises(ValueError):
            train_conditional(config, sets, [(-0.1, 0.0), (-0.05, 0.1)], tconf)

    def test_degenerate_same_category(self):
        # identical categories reduce to plain ensemble training
        config = GeneratorConfig(n_qubits=1, reps=4)
        data = ring_y_ensemble(12, seed=16)
        tconf = TrainConfig(epochs=60, lr=0.05, seed=17, sinkhorn=small_sinkhorn(),
                            noise=NoiseSpec("uniform", lo=-1, hi=1))
        theta, records = train_conditional(
            config, [data, data], [(-0.1, -0.05), (0.05, 0.1)], tconf
        )
        # summed two-part loss, each part comparable to the single-set run
        assert records[-1].loss < 2 * 0.35
        assert records[-1].loss < records[0].loss

    def test_deterministic(self):
        config = GeneratorConfig(n_qubits=1, reps=2)
        sets = [ring_y_ensemble(5, seed=18), ring_z_ensemble(5, seed=19)]
        tconf = TrainConfig(epochs=5, seed=20, sinkhorn=small_sinkhorn(),
                            noise=NoiseSpec("uniform", lo=-1, hi=1))
        intervals = [(-0.1, -0.05), (0.05, 0.1)]
        theta1, _ = train_conditional(config, sets, intervals, tconf)
        theta2, _ = train_conditional(config, sets, intervals, tconf)
        np.testing.assert_array_equal(theta1, theta2)


class TestTrainEntropySeries:
    def test_target_validation(self):
        config = GeneratorConfig(n_qubits=2, reps=2)
        tconf = TrainConfig(epochs=1, noise=NoiseSpec("uniform", lo=-0.1, hi=0.1))
        with pytest.raises(ValueError):
            train_entropy_series(config, [0.5, 1.2], tconf)

    def test_requires_two_qubits(self):
        config = GeneratorConfig(n_qubits=1, reps=2)
        tconf = TrainConfig(epochs=1, noise=NoiseSpec("uniform", lo=-0.1, hi=0.1))
        with pytest.raises(ValueError):
            train_entropy_series(config, [0.5], tconf)

    def test_single_target_improves(self):
        config = GeneratorConfig(n_qubits=2, reps=4)
        tconf = TrainConfig(epochs=150, lr=0.05, seed=21, batch_generated=16,
                            noise=NoiseSpec("uniform", lo=-0.1, hi=0.1))
        (result,) = train_entropy_series(config, [0.7], tconf, eval_batch=50)
        assert result.records[-1].loss < result.records[0].loss
        assert result.mean_abs_dev < 0.1
        assert result.entropies.shape == (50,)
        assert result.mean_entropy == pytest.approx(result.entropies.mean())

    def test_results_align_with_targets(self):
        config = GeneratorConfig(n_qubits=2, reps=3)
        tconf = TrainConfig(epochs=2, seed=22, batch_generated=4,
                            noise=NoiseSpec("uniform", lo=-0.1, hi=0.1))
        results = train_entropy_series(config, [0.0, 0.5], tconf, eval_batch=10)
        assert [r.s_target for r in results] == [0.0, 0.5]
        for r in results:
            assert r.entropies.shape == (10,)
            assert np.all((r.entropies >= 0.0) & (r.entropies <= 1.0))
            assert r.max_abs_dev >= r.mean_abs_dev


class TestReproducibilityContract:
    """Each trainer equals a plain loop on the documented SeedSequence spawns.

    The spawn order is angle initialization, per-epoch noise stream,
    evaluation stream; the entropy series first spawns one child sequence
    per target.  The loops below use only the public building blocks, so
    any change to the order, the streams or the update shows up here.
    """

    noise = NoiseSpec("uniform", lo=-0.1, hi=0.1)

    @staticmethod
    def _streams(seed_seq):
        return [np.random.default_rng(s) for s in seed_seq.spawn(3)]

    @staticmethod
    def _assert_same(theta, records, want_theta, want_losses, want_aux):
        np.testing.assert_array_equal(theta, want_theta)
        assert [r.epoch for r in records] == list(range(len(want_losses)))
        assert [r.loss for r in records] == want_losses
        assert [r.aux_metric for r in records] == want_aux

    def test_train_ensemble(self):
        config = GeneratorConfig(n_qubits=1, reps=3)
        data = ring_y_ensemble(9, seed=30)
        tconf = TrainConfig(epochs=6, lr=0.05, seed=31, sinkhorn=small_sinkhorn(), noise=self.noise)
        aux_fn = lambda s: mean_squared_pauli(s, "Y").value

        init_rng, noise_rng, _ = self._streams(np.random.SeedSequence(tconf.seed))
        theta = random_theta(config, init_rng)
        adam = init_adam(theta, tconf.lr)
        losses, aux = [], []
        for _ in range(tconf.epochs):
            xs = draw_noise(tconf.noise, data.shape[0], noise_rng)
            loss, grad, states = ensemble_loss_gradient(
                config, theta, xs, data, tconf.sinkhorn, return_states=True
            )
            losses.append(loss)
            aux.append(aux_fn(states))
            adam, theta = adam_step(adam, theta, grad)

        self._assert_same(*train_ensemble(config, data, tconf, aux_fn=aux_fn), theta, losses, aux)

    def test_train_conditional(self):
        config = GeneratorConfig(n_qubits=1, reps=2)
        sets = [ring_y_ensemble(6, seed=32), ring_z_ensemble(7, seed=33)]
        intervals = [(-0.1, -0.05), (0.05, 0.1)]
        tconf = TrainConfig(epochs=5, lr=0.05, seed=34, batch_generated=5,
                            sinkhorn=small_sinkhorn(), noise=self.noise)
        aux_fn = lambda parts: (
            mean_squared_pauli(parts[0], "Y").value + mean_squared_pauli(parts[1], "Z").value
        )

        init_rng, noise_rng, _ = self._streams(np.random.SeedSequence(tconf.seed))
        theta = random_theta(config, init_rng)
        adam = init_adam(theta, tconf.lr)
        losses, aux = [], []
        for _ in range(tconf.epochs):
            parts = []
            for (lo, hi), targets in zip(intervals, sets):
                xs = draw_noise(NoiseSpec("uniform", lo=lo, hi=hi), 5, noise_rng)
                parts.append(ensemble_loss_gradient(
                    config, theta, xs, targets, tconf.sinkhorn, return_states=True
                ))
            losses.append(parts[0][0] + parts[1][0])
            aux.append(aux_fn([parts[0][2], parts[1][2]]))
            adam, theta = adam_step(adam, theta, parts[0][1] + parts[1][1])

        got = train_conditional(config, sets, intervals, tconf, aux_fn=aux_fn)
        self._assert_same(*got, theta, losses, aux)

    def test_train_entropy_series(self):
        config = GeneratorConfig(n_qubits=2, reps=2)
        targets = [0.2, 0.9]
        tconf = TrainConfig(epochs=4, lr=0.05, seed=35, batch_generated=6, noise=self.noise)

        results = train_entropy_series(config, targets, tconf, eval_batch=8)
        run_seeds = np.random.SeedSequence(tconf.seed).spawn(len(targets))
        for result, s_target, run_seed in zip(results, targets, run_seeds):
            init_rng, noise_rng, eval_rng = self._streams(run_seed)
            theta = random_theta(config, init_rng)
            adam = init_adam(theta, tconf.lr)
            losses, aux = [], []
            for _ in range(tconf.epochs):
                xs = draw_noise(tconf.noise, 6, noise_rng)
                loss, grad, entropies = entropy_loss_gradient(
                    config, theta, xs, s_target, return_entropies=True
                )
                losses.append(loss)
                aux.append(float(np.mean(np.abs(entropies - s_target))))
                adam, theta = adam_step(adam, theta, grad)
            self._assert_same(result.theta, result.records, theta, losses, aux)
            achieved = entanglement_entropies(
                forward_states(config, theta, draw_noise(tconf.noise, 8, eval_rng))
            )
            np.testing.assert_array_equal(result.entropies, achieved)
