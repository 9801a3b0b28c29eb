"""The module attributes that the benchmark's tracer and epoch clock patch.

``perfbench/`` replaces library functions with wrappers by setting module
attributes, so the library must look these names up at call time.  These
tests keep that contract under the unit suite, which perfbench itself is
not part of.
"""

import numpy as np
import pytest

from reupgen import generator, gradients, statevec, training, transport
from reupgen.datasets import NoiseSpec, ring_y_ensemble
from reupgen.generator import GeneratorConfig
from reupgen.transport import SinkhornConfig

PATCHED = [
    (training, "adam_step"),
    (training, "draw_noise"),
    (gradients, "ensemble_loss_gradient"),
    (gradients, "entropy_loss_gradient"),
    (gradients, "forward_states"),
    (gradients, "adjoint_sweep"),
    (gradients, "apply_gate_columns"),
    (gradients, "entanglement_entropies"),
    (generator, "apply_gate_columns"),
    (transport, "sinkhorn"),
    (transport, "cost_matrix"),
    (statevec, "pauli_expectation"),
]


@pytest.mark.parametrize("module, name", PATCHED, ids=[f"{m.__name__}.{n}" for m, n in PATCHED])
def test_patched_names_resolve(module, name):
    assert callable(getattr(module, name))


def count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


EPOCHS = 3
NOISE = NoiseSpec("uniform", lo=-0.1, hi=0.1)


def test_train_ensemble_calls_the_patched_names_once_per_epoch(monkeypatch):
    counts = {}
    count_calls(monkeypatch, training, "draw_noise", counts)
    count_calls(monkeypatch, training, "adam_step", counts)
    count_calls(monkeypatch, gradients, "ensemble_loss_gradient", counts)
    tconf = training.TrainConfig(
        epochs=EPOCHS, seed=1, noise=NOISE, sinkhorn=SinkhornConfig(max_iterations=2000)
    )
    training.train_ensemble(GeneratorConfig(n_qubits=1, reps=2), ring_y_ensemble(5, seed=2), tconf)
    assert counts == {"draw_noise": EPOCHS, "adam_step": EPOCHS, "ensemble_loss_gradient": EPOCHS}


def test_train_entropy_series_calls_the_patched_names_once_per_epoch(monkeypatch):
    counts = {}
    count_calls(monkeypatch, training, "draw_noise", counts)
    count_calls(monkeypatch, training, "adam_step", counts)
    count_calls(monkeypatch, gradients, "entropy_loss_gradient", counts)
    tconf = training.TrainConfig(epochs=EPOCHS, seed=3, batch_generated=4, noise=NOISE)
    (result,) = training.train_entropy_series(
        GeneratorConfig(n_qubits=2, reps=2), [0.5], tconf, eval_batch=6
    )
    # one noise draw per epoch plus the evaluation draw after training
    assert counts == {
        "draw_noise": EPOCHS + 1,
        "adam_step": EPOCHS,
        "entropy_loss_gradient": EPOCHS,
    }
    assert np.all(np.isfinite(result.entropies))
