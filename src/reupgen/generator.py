"""Noise-reuploading generator circuit.

One repetition applies, on every qubit, the fixed encoding gate R(x, x, x)
followed by a trainable gate R(theta[p, q]), then a CZ-chain entangler
layer (skipped entirely for single-qubit circuits).  The same noise scalar
x is re-encoded at every one of the ``reps`` repetitions, so the output
state is a deterministic, highly nonlinear function of x.

Trainable angles form a real array of shape (reps, n_qubits, 3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .statevec import MAX_QUBITS, apply_gate_columns, entangler_diagonal, euler_gate


@dataclass(frozen=True)
class GeneratorConfig:
    """Circuit shape: qubit and repetition counts; the entangler follows from them."""

    n_qubits: int
    reps: int

    def __post_init__(self):
        if not (1 <= self.n_qubits <= MAX_QUBITS):
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")

    @property
    def entangler(self) -> str:
        # the only topology: a CZ chain on neighbouring qubits
        return "cz_chain"

    @property
    def use_entangler(self) -> bool:
        # single-qubit circuits have no entangler
        return self.n_qubits > 1

    @property
    def theta_shape(self) -> tuple[int, int, int]:
        return (self.reps, self.n_qubits, 3)


def parameter_count(config: GeneratorConfig) -> int:
    """Number of trainable angles: 3 per qubit per repetition."""
    return 3 * config.reps * config.n_qubits


def random_theta(config: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """Initial angles, uniform on [-pi, pi)."""
    return rng.uniform(-np.pi, np.pi, size=config.theta_shape)


def check_theta(config: GeneratorConfig, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != config.theta_shape:
        raise ValueError(f"theta shape {theta.shape} != expected {config.theta_shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta contains non-finite entries")
    return theta


def encoding_gates(noises: np.ndarray) -> np.ndarray:
    """R(x, x, x) for each noise value; shape (batch, 2, 2).

    All three Euler angles of the encoding gate are set to the same x.
    """
    x = np.asarray(noises, dtype=float)
    return euler_gate(x, x, x)


@lru_cache(maxsize=None)
def machine_memory_bytes() -> int | None:
    """Physical memory, capped by the cgroup v2 ``memory.max`` when readable.

    None when the platform reports neither.  Read once per process.
    """
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        total = None
    try:
        with open("/sys/fs/cgroup/memory.max") as fh:
            limit = fh.read().strip()
    except OSError:
        limit = ""
    if limit.isdigit():
        total = int(limit) if total is None else min(total, int(limit))
    return total


def require_memory(nbytes: int, what: str) -> None:
    """Raise MemoryError up front if ``what`` needs more than the machine has."""
    available = machine_memory_bytes()
    if available is not None and nbytes > available:
        raise MemoryError(
            f"{what} needs {nbytes} bytes of buffers, more than the "
            f"{available} bytes of memory of this machine"
        )


def forward_columns(config: GeneratorConfig, theta: np.ndarray, noises: np.ndarray) -> np.ndarray:
    """Generated states as columns; shape (2**n, batch).

    The per-repetition, per-qubit gate is the 2x2 product
    R(theta[p, q]) @ R(x, x, x), applied qubit by qubit, then the
    entangler layer closes the repetition.  The state array and one
    scratch array of the same size are the only buffers; a batch whose
    buffers exceed the machine's memory raises MemoryError up front.
    """
    theta = check_theta(config, theta)
    x = np.atleast_1d(np.asarray(noises, dtype=float))
    if x.ndim != 1 or x.size == 0:
        raise ValueError("noises must be a nonempty 1-D array")
    if not np.all(np.isfinite(x)):
        raise ValueError("noise values must be finite")
    n = config.n_qubits
    require_memory(2 * 2**n * x.size * 16, f"the forward pass of {x.size} states on {n} qubits")

    enc = encoding_gates(x)                      # (batch, 2, 2)
    train = euler_gate(theta[..., 0], theta[..., 1], theta[..., 2])  # (reps, n, 2, 2)
    diag = entangler_diagonal(n)[:, None] if config.use_entangler else None

    cols = np.zeros((2**n, x.size), dtype=complex)
    cols[0, :] = 1.0
    scratch = np.empty(cols.size, dtype=complex)
    for p in range(config.reps):
        for q in range(n):
            apply_gate_columns(cols, train[p, q] @ enc, q, n, scratch)
        if diag is not None:
            cols *= diag
    return cols


def forward_states(config: GeneratorConfig, theta: np.ndarray, noises: np.ndarray) -> np.ndarray:
    """Generated states for a batch of noise values; shape (batch, 2**n)."""
    return np.ascontiguousarray(forward_columns(config, theta, noises).T)


def generate_state(config: GeneratorConfig, theta: np.ndarray, noise: float) -> np.ndarray:
    """Generated state for a single noise value; shape (2**n,)."""
    return forward_states(config, theta, np.array([float(noise)]))[0]


def generate_ensemble(config: GeneratorConfig, theta: np.ndarray, noises) -> np.ndarray:
    """Generated ensemble, one row per noise value, order preserved."""
    noises = np.asarray(noises, dtype=float)
    if noises.size == 0:
        raise ValueError("noise list must be nonempty")
    return forward_states(config, theta, noises)
