"""Dataset factory, noise sampler, and serialization tests."""

import json

import numpy as np
import pytest

from reupgen import statevec as sv
from reupgen.datasets import (
    NoiseSpec,
    TfimConfig,
    draw_noise,
    load_ensemble,
    load_theta,
    ring_y_ensemble,
    ring_y_state,
    ring_z_ensemble,
    ring_z_state,
    sample_noise,
    save_ensemble,
    save_theta,
    tfim_ground_states,
    tfim_hamiltonian,
)
from reupgen.generator import GeneratorConfig, generate_ensemble, random_theta


class TestNoise:
    def test_uniform_bounds(self):
        spec = NoiseSpec("uniform", lo=-0.1, hi=0.1, seed=1)
        xs = sample_noise(spec, 10_000)
        assert xs.min() >= -0.1 and xs.max() <= 0.1

    def test_degenerate_interval(self):
        spec = NoiseSpec("uniform", lo=0.5, hi=0.5 + 1e-12, seed=2)
        xs = sample_noise(spec, 100)
        np.testing.assert_allclose(xs, 0.5, atol=1e-11)

    def test_gaussian_moments(self):
        spec = NoiseSpec("gaussian", mean=0.0, std=1.0, seed=3)
        xs = sample_noise(spec, 10**5)
        assert abs(xs.mean()) < 0.02
        assert abs(xs.std() - 1.0) < 0.02

    def test_two_interval_membership(self):
        spec = NoiseSpec("two_interval", lo=-0.1, hi=-0.05, lo2=0.05, hi2=0.1, seed=4)
        xs = sample_noise(spec, 5000)
        in_first = (xs >= -0.1) & (xs <= -0.05)
        in_second = (xs >= 0.05) & (xs <= 0.1)
        assert np.all(in_first | in_second)
        # a fair coin picks each interval about half the time
        assert 0.4 < in_first.mean() < 0.6

    def test_forced_category(self):
        spec = NoiseSpec("two_interval", lo=-0.1, hi=-0.05, lo2=0.05, hi2=0.1, seed=5)
        xs = sample_noise(spec, 1000, category=2)
        assert np.all((xs >= 0.05) & (xs <= 0.1))

    def test_category_needs_two_interval(self):
        with pytest.raises(ValueError):
            NoiseSpec("uniform", lo=0, hi=1).interval(1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="uniform", lo=1.0, hi=0.0),
            dict(kind="gaussian", std=0.0),
            dict(kind="two_interval", lo=-0.1, hi=0.06, lo2=0.05, hi2=0.1),
            dict(kind="nope"),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)

    def test_seeded_determinism(self):
        spec = NoiseSpec("uniform", lo=-1, hi=1, seed=6)
        np.testing.assert_array_equal(sample_noise(spec, 50), sample_noise(spec, 50))

    def test_draw_advances_stream(self):
        spec = NoiseSpec("uniform", lo=-1, hi=1)
        rng = np.random.default_rng(7)
        first = draw_noise(spec, 10, rng)
        second = draw_noise(spec, 10, rng)
        assert not np.array_equal(first, second)


class TestRings:
    def test_ring_y_endpoints(self):
        np.testing.assert_allclose(ring_y_state(0.0), [1, 0], atol=1e-15)
        np.testing.assert_allclose(ring_y_state(np.pi), [0, 1], atol=1e-12)

    def test_ring_y_zero_y_expectation(self):
        states = ring_y_ensemble(500, seed=8)
        np.testing.assert_array_equal(sv.pauli_expectation(states, "Y"), np.zeros(500))

    def test_ring_y_count(self):
        assert ring_y_ensemble(1100, seed=9).shape == (1100, 2)

    def test_ring_y_spans_ring(self):
        states = ring_y_ensemble(1000, seed=10)
        z = sv.pauli_expectation(states, "Z")
        assert z.min() < -0.98 and z.max() > 0.98

    def test_ring_z_endpoints(self):
        s2 = 1 / np.sqrt(2)
        np.testing.assert_allclose(ring_z_state(0.0), [s2, s2], atol=1e-15)
        np.testing.assert_allclose(ring_z_state(np.pi), [s2, -s2], atol=1e-12)

    def test_ring_z_zero_z_expectation(self):
        states = ring_z_ensemble(500, seed=11)
        np.testing.assert_allclose(sv.pauli_expectation(states, "Z"), np.zeros(500), atol=1e-15)

    def test_unit_norms(self):
        for states in (ring_y_ensemble(200, seed=12), ring_z_ensemble(200, seed=13)):
            norms = np.linalg.norm(states, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_bad_count(self):
        with pytest.raises(ValueError):
            ring_y_ensemble(0, seed=1)


class TestTfim:
    def test_n2_ground_energy_closed_form(self):
        # two sites at g = 1: lowest eigenvalue is -sqrt(5)
        ham = tfim_hamiltonian(2, 1.0).toarray()
        energy = np.linalg.eigvalsh(ham)[0]
        assert energy == pytest.approx(-np.sqrt(5.0), abs=1e-10)

    def test_paramagnetic_limit(self):
        config = TfimConfig(n_sites=4, g_lo=1000.0, g_hi=1001.0, count=3, seed=14)
        states, _ = tfim_ground_states(config)
        plus = np.full(16, 0.25, dtype=complex)
        for state in states:
            assert abs(abs(np.vdot(plus, state)) - 1.0) < 1e-4
        from reupgen.metrics import magnetization

        assert np.all(np.abs(magnetization(states).details - 1.0) < 1e-4)

    def test_eigenpair_residuals_n10(self):
        config = TfimConfig(n_sites=10, count=5, seed=15)
        states, gs = tfim_ground_states(config)
        for state, g in zip(states, gs):
            ham = tfim_hamiltonian(10, float(g))
            energy = np.vdot(state, ham @ state).real
            residual = np.linalg.norm(ham @ state - energy * state)
            assert residual < 1e-8

    def test_variational_bound(self):
        config = TfimConfig(n_sites=6, count=2, seed=16)
        states, gs = tfim_ground_states(config)
        rng = np.random.default_rng(17)
        for state, g in zip(states, gs):
            ham = tfim_hamiltonian(6, float(g))
            energy = np.vdot(state, ham @ state).real
            for _ in range(100):
                trial = rng.normal(size=64) + 1j * rng.normal(size=64)
                trial /= np.linalg.norm(trial)
                assert energy <= np.vdot(trial, ham @ trial).real + 1e-10

    def test_g_values_in_range_and_deterministic(self):
        config = TfimConfig(n_sites=4, count=20, seed=18)
        states1, gs1 = tfim_ground_states(config)
        states2, gs2 = tfim_ground_states(config)
        assert np.all((gs1 >= 1.3) & (gs1 <= 1.5))
        np.testing.assert_array_equal(gs1, gs2)
        np.testing.assert_array_equal(states1, states2)

    def test_phase_convention(self):
        config = TfimConfig(n_sites=5, count=3, seed=19)
        states, _ = tfim_ground_states(config)
        for state in states:
            pivot = np.argmax(np.abs(state))
            assert state[pivot].real > 0
            assert abs(state[pivot].imag) < 1e-12

    @pytest.mark.parametrize("kwargs", [dict(n_sites=1), dict(n_sites=15), dict(g_lo=2, g_hi=1), dict(count=0)])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            TfimConfig(**kwargs)


class TestSerialization:
    def test_ensemble_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(20)
        states = rng.normal(size=(7, 8)) + 1j * rng.normal(size=(7, 8))
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        path = tmp_path / "ens.json"
        save_ensemble(path, states)
        np.testing.assert_array_equal(load_ensemble(path), states)

    def test_ensemble_schema(self, tmp_path):
        path = tmp_path / "ens.json"
        save_ensemble(path, ring_y_ensemble(3, seed=21))
        payload = json.loads(path.read_text())
        assert payload["n_qubits"] == 1
        assert payload["count"] == 3
        assert len(payload["states"]) == 3
        assert all(len(state) == 2 for state in payload["states"])
        assert all(len(pair) == 2 for state in payload["states"] for pair in state)

    def test_wrong_dimension_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_qubits": 2, "count": 1, "states": [[[1.0, 0.0], [0.0, 0.0]]]}')
        with pytest.raises(ValueError, match="parse error"):
            load_ensemble(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_qubits": 1,')
        with pytest.raises(ValueError, match="parse error"):
            load_ensemble(path)

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_qubits": 1, "count": 2, "states": [[[1.0, 0.0], [0.0, 0.0]]]}')
        with pytest.raises(ValueError, match="parse error"):
            load_ensemble(path)

    @pytest.mark.parametrize(
        "header",
        [
            '"n_qubits": -1, "count": 1',
            '"n_qubits": 0, "count": 1',
            '"n_qubits": 40, "count": 1',
            '"n_qubits": 1, "count": -1',
        ],
    )
    def test_malformed_header_rejected_before_allocating(self, tmp_path, header):
        path = tmp_path / "bad.json"
        path.write_text("{" + header + ', "states": [[[1.0, 0.0], [0.0, 0.0]]]}')
        with pytest.raises(ValueError, match="parse error"):
            load_ensemble(path)

    def test_short_rows_rejected_before_allocating(self, tmp_path):
        # 1000 states of 2**20 amplitudes would need 16 GiB; the file holds none
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_qubits": 20, "count": 1000, "states": [[]] * 1000}))
        with pytest.raises(ValueError, match="parse error"):
            load_ensemble(path)

    def test_large_single_qubit_file(self, tmp_path):
        path = tmp_path / "big.json"
        save_ensemble(path, ring_y_ensemble(1000, seed=22))
        assert load_ensemble(path).shape == (1000, 2)

    def test_theta_round_trip(self, tmp_path):
        config = GeneratorConfig(n_qubits=3, reps=4)
        theta = random_theta(config, np.random.default_rng(23))
        path = tmp_path / "theta.json"
        save_theta(path, theta, config)
        loaded, loaded_config = load_theta(path)
        np.testing.assert_array_equal(loaded, theta)
        assert loaded_config == config

    def test_theta_header_mismatch(self, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text('{"n_qubits": 1, "reps": 2, "angles": [[[0, 0, 0]]]}')
        with pytest.raises(ValueError, match="parse error"):
            load_theta(path)

    @pytest.mark.parametrize(
        "n_qubits, key, value",
        [(1, "use_entangler", True), (2, "use_entangler", False), (2, "entangler", "ring")],
    )
    def test_theta_entangler_keys_follow_the_shape(self, tmp_path, n_qubits, key, value):
        config = GeneratorConfig(n_qubits=n_qubits, reps=1)
        path = tmp_path / "theta.json"
        save_theta(path, np.zeros(config.theta_shape), config)
        payload = json.loads(path.read_text())
        assert payload["entangler"] == "cz_chain"
        assert payload["use_entangler"] is (n_qubits > 1)
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="parse error"):
            load_theta(path)

    def test_reload_regenerates_identically(self, tmp_path):
        config = GeneratorConfig(n_qubits=1, reps=5)
        theta = random_theta(config, np.random.default_rng(24))
        noises = sample_noise(NoiseSpec("uniform", lo=-0.1, hi=0.1, seed=25), 40)
        before = generate_ensemble(config, theta, noises)
        path = tmp_path / "theta.json"
        save_theta(path, theta, config)
        loaded, loaded_config = load_theta(path)
        after = generate_ensemble(loaded_config, loaded, noises)
        np.testing.assert_array_equal(before, after)
