"""Optimization: Adam, one training loop, and the three task trainers.

The trainers (ensemble matching, conditional two-interval, entropy series)
share one loop, ``_fit``: Adam on the gradient that the trainer's ``step``
closure returns, the divergence guard, and one ``EpochRecord`` per epoch.
A trainer only validates its inputs, spawns its streams and supplies
``step`` and its task metric.

Reproducibility contract: every trainer derives all of its randomness from
``TrainConfig.seed`` through fixed SeedSequence spawns, in this order:
angle initialization, per-epoch noise stream, evaluation stream (the
entropy series first spawns one child sequence per target and then these
three from each).  Re-running with the same config gives a
bitwise-identical angle trajectory and log.

Generation never post-selects: each epoch consumes exactly the requested
number of circuit evaluations and every one of them enters the loss, so
the success probability is identically 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import gradients, transport
from .datasets import NoiseSpec, draw_noise
from .generator import GeneratorConfig, forward_states, random_theta
from .statevec import entanglement_entropies


class TrainingDiverged(RuntimeError):
    """Raised when the loss blows up or a gradient goes non-finite."""


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps_hat: float = 1e-8


def init_adam(theta: np.ndarray, lr: float) -> AdamState:
    return AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta), t=0, lr=lr)


def adam_step(
    state: AdamState, theta: np.ndarray, grad: np.ndarray
) -> tuple[AdamState, np.ndarray]:
    """One bias-corrected Adam update; returns the new (state, theta)."""
    grad = np.asarray(grad, dtype=float)
    if grad.shape != theta.shape or state.m.shape != theta.shape:
        raise ValueError("adam_step shape mismatch")
    if not np.all(np.isfinite(grad)):
        bad = np.argwhere(~np.isfinite(grad))[0]
        raise TrainingDiverged(f"non-finite gradient entry at index {tuple(bad)}")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad**2
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_theta = theta - state.lr * m_hat / (np.sqrt(v_hat) + state.eps_hat)
    return replace(state, m=m, v=v, t=t), new_theta


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    lr: float = 0.05
    seed: int = 0
    batch_generated: int | None = None
    sinkhorn: transport.SinkhornConfig = field(default_factory=transport.SinkhornConfig)
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec("uniform", lo=-0.1, hi=0.1))

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_generated is not None and self.batch_generated < 1:
            raise ValueError("batch_generated must be >= 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    loss: float
    aux_metric: float
    wall_ms: int


class _DivergenceGuard:
    """Abort after 50 consecutive epochs above 10x the epoch-0 loss."""

    factor = 10.0
    patience = 50

    def __init__(self):
        self.baseline = None
        self.streak = 0

    def check(self, epoch: int, loss: float) -> None:
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        if self.baseline is None:
            self.baseline = loss
            return
        self.streak = self.streak + 1 if loss > self.factor * self.baseline else 0
        if self.streak >= self.patience:
            raise TrainingDiverged(
                f"loss {loss:.3g} above {self.factor}x epoch-0 value "
                f"{self.baseline:.3g} for {self.patience} consecutive epochs "
                f"(epoch {epoch})"
            )


def _spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _fit(theta: np.ndarray, train_config: TrainConfig, step, aux):
    """The one training loop: Adam on the angles, guarded and logged per epoch.

    ``step(theta) -> (loss, grad, extra)`` draws the epoch's noise and
    returns the loss and its gradient at the current angles; the divergence
    guard checks the loss before ``aux(extra)`` (0.0 when ``aux`` is None)
    gives the epoch's task metric.  Returns the final angles and the records.
    """
    adam = init_adam(theta, train_config.lr)
    guard = _DivergenceGuard()
    records: list[EpochRecord] = []
    for epoch in range(train_config.epochs):
        tic = time.perf_counter()
        loss, grad, extra = step(theta)
        guard.check(epoch, loss)
        aux_metric = float(aux(extra)) if aux is not None else 0.0
        adam, theta = adam_step(adam, theta, grad)
        wall_ms = int(round((time.perf_counter() - tic) * 1000))
        records.append(EpochRecord(epoch, loss, aux_metric, wall_ms))
    return theta, records


def train_ensemble(
    config: GeneratorConfig,
    train_set: np.ndarray,
    train_config: TrainConfig,
    aux_fn=None,
) -> tuple[np.ndarray, list[EpochRecord]]:
    """Fit the generator to a target ensemble with the transport loss.

    Each epoch draws a fresh noise batch (default size: the training-set
    size, giving a square transport problem), takes one fixed-plan gradient
    step against the full training set, and logs loss plus the optional
    task metric ``aux_fn(generated_batch)``.
    """
    train_set = np.asarray(train_set, dtype=complex)
    if train_set.ndim != 2 or train_set.shape[0] == 0:
        raise ValueError("train_set must be a nonempty 2-D ensemble")
    init_rng, noise_rng, _ = _spawn_rngs(train_config.seed, 3)
    batch = train_config.batch_generated or train_set.shape[0]

    def step(theta):
        xs = draw_noise(train_config.noise, batch, noise_rng)
        loss, grad, states = gradients.ensemble_loss_gradient(
            config, theta, xs, train_set, train_config.sinkhorn, return_states=True
        )
        assert states.shape[0] == batch  # success probability is 1, no rejection
        return loss, grad, states

    return _fit(random_theta(config, init_rng), train_config, step, aux_fn)


def train_conditional(
    config: GeneratorConfig,
    train_sets,
    intervals,
    train_config: TrainConfig,
    aux_fn=None,
) -> tuple[np.ndarray, list[EpochRecord]]:
    """Fit one shared parameter set to two categories at once.

    Category k draws its noise uniformly from ``intervals[k]`` and is
    matched against ``train_sets[k]``; the epoch loss is the sum of the two
    transport losses, and ``aux_fn`` sees the list of both generated
    batches.  After training, sampling noise from either interval selects
    the corresponding category with the same frozen angles.
    """
    if len(train_sets) != 2 or len(intervals) != 2:
        raise ValueError("train_conditional expects two train sets and two intervals")
    (lo1, hi1), (lo2, hi2) = intervals
    # the spec checks lo < hi for both intervals and that they are disjoint
    spec = NoiseSpec("two_interval", lo=lo1, hi=hi1, lo2=lo2, hi2=hi2)
    sets = [np.asarray(s, dtype=complex) for s in train_sets]
    if any(s.ndim != 2 or s.shape[0] == 0 for s in sets):
        raise ValueError("both train sets must be nonempty ensembles")

    init_rng, noise_rng, _ = _spawn_rngs(train_config.seed, 3)
    batches = [train_config.batch_generated or s.shape[0] for s in sets]

    def step(theta):
        loss = 0.0
        grad = np.zeros_like(theta)
        generated = []
        for category, batch, targets in zip((1, 2), batches, sets):
            xs = draw_noise(spec, batch, noise_rng, category=category)
            part_loss, part_grad, states = gradients.ensemble_loss_gradient(
                config, theta, xs, targets, train_config.sinkhorn, return_states=True
            )
            assert states.shape[0] == batch
            loss += part_loss
            grad += part_grad
            generated.append(states)
        return loss, grad, generated

    return _fit(random_theta(config, init_rng), train_config, step, aux_fn)


@dataclass(frozen=True)
class EntropyRunResult:
    s_target: float
    theta: np.ndarray
    records: list[EpochRecord]
    entropies: np.ndarray
    mean_entropy: float
    mean_abs_dev: float
    max_abs_dev: float


def train_entropy_series(
    config: GeneratorConfig,
    targets,
    train_config: TrainConfig,
    eval_batch: int = 200,
) -> list[EntropyRunResult]:
    """Train one independent model per entanglement-entropy target.

    Each run minimizes the mean squared entropy mismatch over a fresh
    noise batch per epoch (default batch 32), then reports achieved
    entropy statistics over an evaluation batch drawn from a separate
    stream.
    """
    if config.n_qubits != 2:
        raise ValueError("entropy training requires a 2-qubit generator")
    targets = [float(t) for t in targets]
    if not targets:
        raise ValueError("targets must be nonempty")
    for t in targets:
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"targets must lie in [0, 1], got {t}")

    batch = train_config.batch_generated or 32
    results: list[EntropyRunResult] = []
    run_seeds = np.random.SeedSequence(train_config.seed).spawn(len(targets))
    for s_target, run_seed in zip(targets, run_seeds):
        init_rng, noise_rng, eval_rng = [np.random.default_rng(s) for s in run_seed.spawn(3)]

        def step(theta):
            xs = draw_noise(train_config.noise, batch, noise_rng)
            return gradients.entropy_loss_gradient(
                config, theta, xs, s_target, return_entropies=True
            )

        theta, records = _fit(
            random_theta(config, init_rng), train_config, step,
            lambda entropies: np.mean(np.abs(entropies - s_target)),
        )
        eval_xs = draw_noise(train_config.noise, eval_batch, eval_rng)
        achieved = entanglement_entropies(forward_states(config, theta, eval_xs))
        results.append(
            EntropyRunResult(
                s_target=s_target,
                theta=theta,
                records=records,
                entropies=achieved,
                mean_entropy=float(achieved.mean()),
                mean_abs_dev=float(np.mean(np.abs(achieved - s_target))),
                max_abs_dev=float(np.max(np.abs(achieved - s_target))),
            )
        )
    return results
