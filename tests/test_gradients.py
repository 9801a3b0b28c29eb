"""Gradient tests: parameter-shift and finite-difference oracles.

The parameter-shift oracle for the *amplitude* overlap uses shifts of pi:
f(t) = A cos(t/2) + B sin(t/2) for any single half-angle rotation
parameter, so f'(t) = [f(t + pi) - f(t - pi)] / 4 exactly.  (The familiar
[f(t + pi/2) - f(t - pi/2)] / 2 rule applies to full-angle expectation
values, not to amplitudes.)
"""

import numpy as np
import pytest

from reupgen import generator
from reupgen.generator import (
    GeneratorConfig,
    apply_gate_columns,
    encoding_gates,
    forward_columns,
    forward_states,
    generate_state,
    random_theta,
)
from reupgen.gradients import (
    adjoint_sweep,
    ensemble_loss_gradient,
    entanglement_entropies,
    entropy_loss_gradient,
    finite_difference_check,
    overlap_gradient,
)
from reupgen.statevec import entangler_diagonal, euler_gate
from reupgen.transport import SinkhornConfig, regularized_value, sinkhorn, uniform_marginals

from test_statevec import dense_1q_operator


def random_target(rng, n):
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return vec / np.linalg.norm(vec)


def shift_rule_gradient(config, theta, x, target):
    """Amplitude parameter-shift oracle, coordinate by coordinate."""
    grad = np.zeros(theta.shape, dtype=complex)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = theta.copy()
        up[idx] += np.pi
        down = theta.copy()
        down[idx] -= np.pi
        plus = np.vdot(target, generate_state(config, up, x))
        minus = np.vdot(target, generate_state(config, down, x))
        grad[idx] = (plus - minus) / 4.0
    return grad


def fd_gradient(fn, theta, h):
    grad = np.zeros(theta.shape, dtype=complex)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = theta.copy()
        up[idx] += h
        down = theta.copy()
        down[idx] -= h
        grad[idx] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def _reference_apply_gate_columns(cols, gate, qubit, n):
    """Out-of-place column kernel: returns a new array, ``cols`` untouched."""
    view = cols.reshape(2 ** (n - 1 - qubit), 2, 2**qubit, -1)
    if gate.ndim > 2:
        m00, m01, m10, m11 = gate[:, 0, 0], gate[:, 0, 1], gate[:, 1, 0], gate[:, 1, 1]
    else:
        m00, m01, m10, m11 = gate[0, 0], gate[0, 1], gate[1, 0], gate[1, 1]
    out = np.empty_like(view)
    out[:, 0] = m00 * view[:, 0] + m01 * view[:, 1]
    out[:, 1] = m10 * view[:, 0] + m11 * view[:, 1]
    return out.reshape(cols.shape)


def _reference_adjoint_sweep(config, theta, noises, bras):
    """Per-sample adjoint sweep: overlaps (batch,), grads (batch, reps, n, 3).

    Walks the circuit backwards one site at a time with separate state and
    costate arrays and reads each site's block per sample just before
    undoing its gate, so it relies on neither the stacked buffer nor the
    per-repetition block invariance.
    """
    x = np.atleast_1d(np.asarray(noises, dtype=float))
    n = config.n_qubits
    psi = forward_columns(config, theta, x)
    lam = np.ascontiguousarray(np.asarray(bras, dtype=complex).T)
    overlaps = np.einsum("db,db->b", lam.conj(), psi)

    train = euler_gate(theta[..., 0], theta[..., 1], theta[..., 2])
    undo = (train[:, :, None, :, :] @ encoding_gates(x)).conj().swapaxes(-1, -2)
    half_z = np.array([[-0.5j, 0.0], [0.0, 0.5j]])
    half_y = np.array([[0.0, -0.5], [0.5, 0.0]])
    gen_a = train @ half_z @ train.conj().swapaxes(-1, -2)
    rz_c = euler_gate(theta[..., 2], 0.0, 0.0)
    gen_b = rz_c @ half_y @ rz_c.conj().swapaxes(-1, -2)

    diag = entangler_diagonal(n)[:, None] if config.use_entangler else None
    grads = np.empty((x.size, config.reps, n, 3), dtype=complex)
    for p in reversed(range(config.reps)):
        if diag is not None:
            psi = psi * diag
            lam = lam * diag
        for q in reversed(range(n)):
            shape = (2 ** (n - 1 - q), 2, 2**q, -1)
            blocks = np.einsum("hilb,hjlb->ijb", lam.reshape(shape).conj(), psi.reshape(shape))
            grads[:, p, q, 0] = np.einsum("ij,ijb->b", gen_a[p, q], blocks)
            grads[:, p, q, 1] = np.einsum("ij,ijb->b", gen_b[p, q], blocks)
            grads[:, p, q, 2] = np.einsum("ij,ijb->b", half_z, blocks)
            psi = _reference_apply_gate_columns(psi, undo[p, q], q, n)
            lam = _reference_apply_gate_columns(lam, undo[p, q], q, n)
    return overlaps, grads


def random_gates(rng, count):
    gates = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
    return gates[0] if count == 1 else gates


class TestGateKernel:
    @pytest.mark.parametrize("per_column", [True, False])
    def test_matches_dense_kron_on_every_qubit(self, per_column):
        n, batch = 4, 5
        rng = np.random.default_rng(60 + per_column)
        for qubit in range(n):
            cols = rng.normal(size=(2**n, batch)) + 1j * rng.normal(size=(2**n, batch))
            gate = random_gates(rng, batch if per_column else 1)
            if per_column:
                want = np.stack(
                    [dense_1q_operator(gate[b], qubit, n) @ cols[:, b] for b in range(batch)],
                    axis=1,
                )
            else:
                want = dense_1q_operator(gate, qubit, n) @ cols
            out = apply_gate_columns(cols, gate, qubit, n, np.empty(cols.size, dtype=complex))
            assert out is cols
            np.testing.assert_allclose(cols, want, atol=1e-13)

    def test_stacked_buffer_equals_separate_calls(self):
        n, batch = 3, 4
        rng = np.random.default_rng(62)
        pair = rng.normal(size=(2, 2**n, batch)) + 1j * rng.normal(size=(2, 2**n, batch))
        gate = random_gates(rng, batch)
        scratch = np.empty(pair.size, dtype=complex)
        for qubit in range(n):
            want = [_reference_apply_gate_columns(pair[k], gate, qubit, n) for k in range(2)]
            apply_gate_columns(pair, gate, qubit, n, scratch)
            np.testing.assert_array_equal(pair, np.stack(want))

    def test_rejects_non_contiguous_columns(self):
        cols = np.ones((4, 6), dtype=complex)[:, ::2]
        with pytest.raises(ValueError):
            apply_gate_columns(cols, np.eye(2, dtype=complex), 0, 2, np.empty(12, dtype=complex))


class TestBatchSummedSweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("reps", [1, 3])
    @pytest.mark.parametrize("batch", [1, 7])
    def test_matches_per_sample_reference(self, n, reps, batch):
        config = GeneratorConfig(n_qubits=n, reps=reps)
        rng = np.random.default_rng(1000 * n + 10 * reps + batch)
        theta = random_theta(config, rng)
        noises = rng.uniform(-0.4, 0.4, batch)
        bras = np.stack([random_target(rng, n) for _ in range(batch)])
        want_ov, want_grads = _reference_adjoint_sweep(config, theta, noises, bras)
        states = forward_states(config, theta, noises)
        for final_states in (None, states):
            ov, grad = adjoint_sweep(config, theta, noises, bras, final_states=final_states)
            assert grad.shape == config.theta_shape
            np.testing.assert_allclose(ov, want_ov, rtol=0, atol=1e-12)
            np.testing.assert_allclose(grad, want_grads.sum(axis=0), rtol=0, atol=1e-12)

    def test_inputs_unmodified(self):
        config = GeneratorConfig(n_qubits=3, reps=2)
        rng = np.random.default_rng(63)
        theta = random_theta(config, rng)
        noises = rng.uniform(-0.4, 0.4, 4)
        states = forward_states(config, theta, noises)
        bras = np.stack([random_target(rng, 3) for _ in range(4)])
        states_before, bras_before = states.copy(), bras.copy()
        adjoint_sweep(config, theta, noises, bras, final_states=states)
        np.testing.assert_array_equal(states, states_before)
        np.testing.assert_array_equal(bras, bras_before)


class TestMemoryGuard:
    """Buffers beyond the machine's memory are refused before allocation."""

    def setup_method(self):
        self.config = GeneratorConfig(n_qubits=3, reps=1)
        self.theta = np.zeros(self.config.theta_shape)
        self.noises = np.zeros(5)
        self.unit = 2**3 * 5 * 16          # bytes of one (2**n, batch) complex array

    def test_forward_refused(self, monkeypatch):
        monkeypatch.setattr(generator, "machine_memory_bytes", lambda: 2 * self.unit - 1)
        with pytest.raises(MemoryError, match=f"{2 * self.unit} bytes.*{2 * self.unit - 1} bytes"):
            forward_columns(self.config, self.theta, self.noises)

    def test_sweep_refused_after_forward_fits(self, monkeypatch):
        monkeypatch.setattr(generator, "machine_memory_bytes", lambda: 3 * self.unit)
        forward_columns(self.config, self.theta, self.noises)
        bras = np.zeros((5, 8), dtype=complex)
        with pytest.raises(MemoryError, match=f"{4 * self.unit} bytes.*{3 * self.unit} bytes"):
            adjoint_sweep(self.config, self.theta, self.noises, bras)

    def test_unknown_memory_does_not_refuse(self, monkeypatch):
        monkeypatch.setattr(generator, "machine_memory_bytes", lambda: None)
        forward_columns(self.config, self.theta, self.noises)

    def test_largest_circuit_estimate_exceeds_a_small_machine(self, monkeypatch):
        # 20 qubits, batch 100: the sweep's buffers are 4 * 2**20 * 100 * 16 B
        # = 6.7 GB, refused on a 4 GB machine without allocating anything
        monkeypatch.setattr(generator, "machine_memory_bytes", lambda: 4 * 2**30)
        config = GeneratorConfig(n_qubits=20, reps=1)
        states = np.broadcast_to(np.zeros(1, dtype=complex), (100, 2**20))
        with pytest.raises(MemoryError, match="6710886400 bytes"):
            adjoint_sweep(config, np.zeros(config.theta_shape), np.zeros(100), states, final_states=states)

    def test_machine_memory_is_positive(self):
        total = generator.machine_memory_bytes()
        assert total is None or total > 0


class TestOverlapGradient:
    def test_stationary_ry_component(self):
        # d/dt <0|Ry(t)|0> = -sin(t/2)/2 vanishes at t = 0
        config = GeneratorConfig(n_qubits=1, reps=1)
        theta = np.zeros((1, 1, 3))
        overlap, grad = overlap_gradient(config, theta, 0.0, np.array([1, 0], complex))
        assert overlap == pytest.approx(1.0)
        assert abs(grad[0, 0, 1]) < 1e-14

    @pytest.mark.parametrize("n,reps", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_matches_parameter_shift(self, n, reps):
        config = GeneratorConfig(n_qubits=n, reps=reps)
        rng = np.random.default_rng(200 + 10 * n + reps)
        theta = random_theta(config, rng)
        x = float(rng.uniform(-0.4, 0.4))
        target = random_target(rng, n)
        _, grad = overlap_gradient(config, theta, x, target)
        oracle = shift_rule_gradient(config, theta, x, target)
        denom = np.maximum(np.abs(oracle), 1e-8)
        assert np.max(np.abs(grad - oracle) / denom) < 1e-8

    @pytest.mark.parametrize("n,reps", [(1, 3), (2, 2), (2, 3)])
    def test_matches_finite_differences(self, n, reps):
        config = GeneratorConfig(n_qubits=n, reps=reps)
        rng = np.random.default_rng(300 + 10 * n + reps)
        theta = random_theta(config, rng)
        x = float(rng.uniform(-0.4, 0.4))
        target = random_target(rng, n)
        _, grad = overlap_gradient(config, theta, x, target)
        oracle = fd_gradient(lambda th: np.vdot(target, generate_state(config, th, x)), theta, 1e-5)
        denom = np.maximum(np.maximum(np.abs(oracle), np.abs(grad)), 1e-5)
        assert np.max(np.abs(grad - oracle) / denom) < 1e-5

    def test_overlap_value_consistent(self):
        config = GeneratorConfig(n_qubits=2, reps=2)
        rng = np.random.default_rng(41)
        theta = random_theta(config, rng)
        target = random_target(rng, 2)
        overlap, _ = overlap_gradient(config, theta, 0.2, target)
        assert overlap == pytest.approx(np.vdot(target, generate_state(config, theta, 0.2)))

    def test_shape_mismatch(self):
        config = GeneratorConfig(n_qubits=1, reps=2)
        with pytest.raises(ValueError):
            overlap_gradient(config, np.zeros((1, 1, 3)), 0.0, np.array([1, 0], complex))


class TestEnsembleLossGradient:
    def setup_method(self):
        self.config = GeneratorConfig(n_qubits=1, reps=2)
        self.sconf = SinkhornConfig(epsilon=0.05, max_iterations=100_000, marginal_tolerance=1e-11)

    def regularized_loss(self, theta, noises, targets):
        states = forward_states(self.config, theta, noises)
        cost = np.clip(1.0 - np.abs(states @ targets.conj().T), 0.0, 1.0)
        plan = sinkhorn(cost, *uniform_marginals(len(noises), len(targets)), self.sconf)
        assert plan.converged
        return regularized_value(cost, plan, self.sconf.epsilon)

    def test_self_matching(self):
        rng = np.random.default_rng(42)
        theta = random_theta(self.config, rng)
        noises = rng.uniform(-0.2, 0.2, 5)
        targets = forward_states(self.config, theta, noises)
        loss, grad = ensemble_loss_gradient(self.config, theta, noises, targets, self.sconf)
        assert loss < 1e-2
        assert np.all(np.isfinite(grad))

    def test_matches_fd_of_regularized_loss(self):
        rng = np.random.default_rng(43)
        for trial in range(3):
            theta = random_theta(self.config, rng)
            noises = rng.uniform(-0.3, 0.3, 4)
            targets = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            targets /= np.linalg.norm(targets, axis=1, keepdims=True)
            _, grad = ensemble_loss_gradient(self.config, theta, noises, targets, self.sconf)
            fd = fd_gradient(lambda th: self.regularized_loss(th, noises, targets), theta, 1e-4).real
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(grad)), 1e-6)
            assert np.max(np.abs(fd - grad) / denom) < 1e-3

    def test_single_pair_reduces_to_infidelity(self):
        rng = np.random.default_rng(44)
        theta = random_theta(self.config, rng)
        x = 0.11
        target = random_target(rng, 1)
        loss, grad = ensemble_loss_gradient(self.config, theta, [x], target[None, :], self.sconf)
        overlap = np.vdot(target, generate_state(self.config, theta, x))
        assert loss == pytest.approx(1 - abs(overlap), abs=1e-9)
        # d(1 - |o|)/dtheta = -Re[conj(o) do/dtheta] / |o| via parameter shift
        shift = shift_rule_gradient(self.config, theta, x, target)
        want = -(np.conj(overlap) * shift).real / abs(overlap)
        np.testing.assert_allclose(grad, want, atol=1e-8)

    def test_envelope_consistency(self):
        # a small step changes the reconverged loss by grad . step + O(step^2)
        rng = np.random.default_rng(45)
        theta = random_theta(self.config, rng)
        noises = rng.uniform(-0.3, 0.3, 4)
        targets = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        _, grad = ensemble_loss_gradient(self.config, theta, noises, targets, self.sconf)
        step = 1e-6 * rng.normal(size=theta.shape)
        before = self.regularized_loss(theta, noises, targets)
        after = self.regularized_loss(theta + step, noises, targets)
        predicted = float(np.sum(grad * step))
        assert abs((after - before) - predicted) < 1e-9

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            ensemble_loss_gradient(self.config, np.zeros((2, 1, 3)), [], np.zeros((1, 2)), self.sconf)


class TestEntropyLossGradient:
    def test_bell_reaching_theta_gives_zero_loss(self):
        # Ry(pi/2) on both qubits then CZ yields a maximally entangled state;
        # with zero noise the batch is constant, so target 1.0 is met exactly
        config = GeneratorConfig(n_qubits=2, reps=1)
        theta = np.zeros((1, 2, 3))
        theta[0, :, 1] = np.pi / 2
        loss, grad = entropy_loss_gradient(config, theta, np.zeros(4), 1.0)
        assert loss < 1e-10
        assert np.linalg.norm(grad) < 1e-6

    def test_product_state_zero_target(self):
        config = GeneratorConfig(n_qubits=2, reps=2)
        loss, grad = entropy_loss_gradient(config, np.zeros((2, 2, 3)), np.zeros(4), 0.0)
        assert loss < 1e-10
        assert np.linalg.norm(grad) < 1e-6

    def test_matches_finite_differences(self):
        config = GeneratorConfig(n_qubits=2, reps=3)
        rng = np.random.default_rng(46)
        theta = random_theta(config, rng)
        noises = rng.uniform(-0.1, 0.1, 8)
        report = finite_difference_check(
            lambda th: entropy_loss_gradient(config, th, noises, 0.6),
            theta,
            h=1e-5,
            tolerance=1e-4,
        )
        assert report.passed, report

    def test_wrong_qubit_count(self):
        config = GeneratorConfig(n_qubits=3, reps=1)
        with pytest.raises(ValueError):
            entropy_loss_gradient(config, np.zeros((1, 3, 3)), [0.0], 0.5)

    def test_target_out_of_range(self):
        config = GeneratorConfig(n_qubits=2, reps=1)
        with pytest.raises(ValueError):
            entropy_loss_gradient(config, np.zeros((1, 2, 3)), [0.0], 1.5)

    def test_entropies_helper_matches_loss(self):
        config = GeneratorConfig(n_qubits=2, reps=2)
        rng = np.random.default_rng(47)
        theta = random_theta(config, rng)
        noises = rng.uniform(-0.1, 0.1, 6)
        loss, _, entropies = entropy_loss_gradient(config, theta, noises, 0.3, return_entropies=True)
        states = forward_states(config, theta, noises)
        np.testing.assert_allclose(entropies, entanglement_entropies(states), atol=1e-12)
        assert loss == pytest.approx(float(np.mean((entropies - 0.3) ** 2)))


class TestFiniteDifferenceCheck:
    def test_quadratic_exact(self):
        report = finite_difference_check(
            lambda th: (float(np.sum(th**2)), 2.0 * th),
            np.random.default_rng(48).normal(size=(2, 2, 3)),
            h=1e-5,
            tolerance=1e-9,
        )
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_detects_wrong_gradient(self):
        report = finite_difference_check(
            lambda th: (float(np.sum(th**2)), -2.0 * th),
            np.random.default_rng(49).normal(size=(1, 1, 3)),
            h=1e-5,
            tolerance=1e-3,
        )
        assert not report.passed
        assert len(report.failing_indices) == 3

    def test_h_out_of_range(self):
        with pytest.raises(ValueError):
            finite_difference_check(lambda th: (0.0, th), np.zeros((1, 1, 3)), h=1.0)


def test_all_gradients_finite_at_special_points():
    config = GeneratorConfig(n_qubits=2, reps=2)
    rng = np.random.default_rng(50)
    targets = forward_states(config, random_theta(config, rng), rng.uniform(-0.2, 0.2, 3))
    for trial in range(1000):
        if trial == 0:
            theta, x = np.zeros(config.theta_shape), 0.0
        elif trial == 1:
            theta, x = np.zeros(config.theta_shape), float(rng.uniform(-0.3, 0.3))
        elif trial == 2:
            theta, x = random_theta(config, rng), 0.0
        else:
            theta, x = random_theta(config, rng), float(rng.uniform(-0.3, 0.3))
        _, grad = overlap_gradient(config, theta, x, targets[trial % 3])
        assert np.all(np.isfinite(grad.view(float)))
