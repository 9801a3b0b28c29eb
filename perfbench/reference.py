"""Correctness gate: library outputs on fixed inputs against stored values.

``reference.npz`` next to this file holds, per workload, the epoch-0 loss
and gradient and the generated ensemble at the initial angles, computed
on fixed inputs that do not depend on the workload seed.  The ring entry
also holds angles from a 1000-epoch training run and the loss, gradient,
ensemble and evaluation distance at those angles, where a Sinkhorn solve
needs hundreds of iterations: capping or loosening the solver shows
there.  Every value must match within ``TOLERANCE``.

The values were recorded from the library as it was when the benchmark
was added.  Re-record them only for a change that is meant to alter the
numbers:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":
    from run import pin_blas

    pin_blas()  # before numpy loads, as in the benchmark itself

import numpy as np

TOLERANCE = 1e-10
SEED = 20260517
PATH = Path(__file__).resolve().parent / "reference.npz"


def _ring(trained_theta: np.ndarray | None) -> dict:
    from reupgen import datasets, generator, gradients, metrics, training, transport

    config = generator.GeneratorConfig(n_qubits=1, reps=20)
    rng = np.random.default_rng(SEED)
    theta0 = generator.random_theta(config, rng)
    noises = rng.uniform(-0.1, 0.1, 100)
    targets = datasets.ring_y_ensemble(100, seed=SEED)
    sinkhorn = transport.SinkhornConfig()
    if trained_theta is None:
        tconf = training.TrainConfig(
            epochs=1000, lr=0.05, seed=SEED, noise=datasets.NoiseSpec("uniform", lo=-0.1, hi=0.1)
        )
        trained_theta, _ = training.train_ensemble(config, targets, tconf)

    out = {"theta_trained": trained_theta}
    for tag, theta in (("0", theta0), ("_trained", trained_theta)):
        loss, grad = gradients.ensemble_loss_gradient(config, theta, noises, targets, sinkhorn)
        out[f"loss{tag}"] = np.array(loss)
        out[f"grad{tag}"] = grad
        out[f"generated{tag}"] = generator.generate_ensemble(config, theta, noises)
    eval_noises = rng.uniform(-0.1, 0.1, 300)
    out["eval_trained"] = np.array(
        metrics.evaluate_generation(
            generator.generate_ensemble(config, trained_theta, eval_noises),
            datasets.ring_y_ensemble(300, seed=SEED + 1),
            sinkhorn,
        ).value
    )
    return out


def _tfim() -> dict:
    from reupgen import datasets, generator, gradients, metrics

    config = generator.GeneratorConfig(n_qubits=10, reps=20)
    rng = np.random.default_rng(SEED)
    theta0 = generator.random_theta(config, rng)
    noises = rng.uniform(-0.01, 0.01, 8)
    targets, _ = datasets.tfim_ground_states(datasets.TfimConfig(count=8, seed=SEED))
    loss, grad = gradients.ensemble_loss_gradient(config, theta0, noises, targets)
    generated = generator.generate_ensemble(config, theta0, noises)
    return {
        "loss0": np.array(loss),
        "grad0": grad,
        "generated0": generated,
        "magnetization0": metrics.magnetization(generated).details,
    }


def _entropy() -> dict:
    from reupgen import generator, gradients

    from workloads import ENTROPY_TARGETS

    config = generator.GeneratorConfig(n_qubits=2, reps=6)
    rng = np.random.default_rng(SEED)
    theta0 = generator.random_theta(config, rng)
    noises = rng.uniform(-0.1, 0.1, 32)
    pairs = [gradients.entropy_loss_gradient(config, theta0, noises, t) for t in ENTROPY_TARGETS]
    generated = generator.generate_ensemble(config, theta0, noises)
    return {
        "loss0": np.array([loss for loss, _ in pairs]),
        "grad0": np.stack([grad for _, grad in pairs]),
        "generated0": generated,
        "entropies0": gradients.entanglement_entropies(generated),
    }


def compute(workload: str, stored: dict | None = None) -> dict:
    """Reference quantities of one workload; ring reuses the stored trained angles."""
    if workload == "ring":
        trained = None if stored is None else stored["ring/theta_trained"]
        return _ring(trained)
    if workload == "tfim":
        return _tfim()
    return _entropy()


def check(workload: str) -> list[tuple[str, float]]:
    """(key, max |computed - stored|) for every stored value of ``workload``."""
    with np.load(PATH) as data:
        stored = {key: data[key] for key in data.files}
    computed = compute(workload, stored)
    prefix = workload + "/"
    results = []
    for key in sorted(k for k in stored if k.startswith(prefix)):
        name = key[len(prefix):]
        if name == "theta_trained":
            continue  # an input, not an output
        got = np.asarray(computed[name])
        want = stored[key]
        diff = float(np.max(np.abs(got - want))) if got.shape == want.shape else float("inf")
        results.append((key, diff))
    return results


def main() -> int:
    sys.path.insert(0, str(PATH.parent.parent / "src"))
    values = {}
    for workload in ("ring", "tfim", "entropy"):
        for key, value in compute(workload).items():
            values[f"{workload}/{key}"] = value
    np.savez(PATH, **values)
    print(f"wrote {len(values)} reference values to {PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
