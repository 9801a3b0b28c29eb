"""Target-state factories, noise samplers, and file round-trips.

Ensemble files are UTF-8 JSON: a header with the qubit count and state
count, then one list of [re, im] amplitude pairs per state in amplitude
index order.  Python's shortest-roundtrip float repr keeps the round trip
bitwise lossless.  Angle files carry the generator shape next to the
angles so a trained model can be reloaded without extra context.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .generator import GeneratorConfig
from .statevec import MAX_QUBITS

if TYPE_CHECKING:
    # scipy.sparse is imported inside the TFIM helpers, which are its only
    # users, so ``import reupgen`` does not pay for it
    import scipy.sparse as sparse


@dataclass(frozen=True)
class NoiseSpec:
    """Law of the classical noise input.

    kind "uniform" uses (lo, hi); "gaussian" uses (mean, std);
    "two_interval" uses (lo, hi) and (lo2, hi2), which must be disjoint.
    The seed only matters for ``sample_noise``; training owns its own
    streams.
    """

    kind: str
    lo: float = 0.0
    hi: float = 0.0
    mean: float = 0.0
    std: float = 1.0
    lo2: float = 0.0
    hi2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind == "uniform":
            if not self.lo < self.hi:
                raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        elif self.kind == "gaussian":
            if not self.std > 0:
                raise ValueError(f"std must be positive, got {self.std}")
        elif self.kind == "two_interval":
            if not (self.lo < self.hi and self.lo2 < self.hi2):
                raise ValueError("both intervals need lo < hi")
            if not (self.hi <= self.lo2 or self.hi2 <= self.lo):
                raise ValueError("the two intervals must be disjoint")
        else:
            raise ValueError(f"unknown noise kind {self.kind!r}")

    def interval(self, category: int) -> tuple[float, float]:
        if self.kind != "two_interval":
            raise ValueError("categories only exist for two_interval noise")
        if category == 1:
            return (self.lo, self.hi)
        if category == 2:
            return (self.lo2, self.hi2)
        raise ValueError(f"category must be 1 or 2, got {category}")


def draw_noise(
    spec: NoiseSpec,
    count: int,
    rng: np.random.Generator,
    category: int | None = None,
) -> np.ndarray:
    """Draw ``count`` noise values from an explicit generator stream."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spec.kind == "uniform":
        return rng.uniform(spec.lo, spec.hi, count)
    if spec.kind == "gaussian":
        return rng.normal(spec.mean, spec.std, count)
    # two disjoint intervals: either forced by the caller or a fair coin
    if category is not None:
        lo, hi = spec.interval(category)
        return rng.uniform(lo, hi, count)
    pick = rng.integers(0, 2, count)
    u = rng.uniform(size=count)
    lows = np.where(pick == 0, spec.lo, spec.lo2)
    highs = np.where(pick == 0, spec.hi, spec.hi2)
    return lows + u * (highs - lows)


def sample_noise(spec: NoiseSpec, count: int, category: int | None = None) -> np.ndarray:
    """Reproducible i.i.d. samples seeded by the spec's own seed."""
    return draw_noise(spec, count, np.random.default_rng(spec.seed), category)


def ring_y_state(phi: float) -> np.ndarray:
    """Ry(phi)|0> = [cos(phi/2), sin(phi/2)]; real amplitudes, <Y> = 0."""
    return np.array([np.cos(phi / 2.0), np.sin(phi / 2.0)], dtype=complex)


def ring_z_state(phi: float) -> np.ndarray:
    """Equator state (|0> + e^{i phi}|1>)/sqrt(2); <Z> = 0."""
    return np.array([1.0, np.exp(1j * phi)], dtype=complex) / np.sqrt(2.0)


def ring_y_ensemble(count: int, seed: int) -> np.ndarray:
    """States Ry(phi)|0> with phi uniform on [0, 2pi)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    phis = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, count)
    return np.stack([np.cos(phis / 2.0), np.sin(phis / 2.0)], axis=1).astype(complex)


def ring_z_ensemble(count: int, seed: int) -> np.ndarray:
    """Equator states (|0> + e^{i phi}|1>)/sqrt(2), phi uniform on [0, 2pi)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    phis = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, count)
    amps = np.stack([np.ones_like(phis, dtype=complex), np.exp(1j * phis)], axis=1)
    return amps / np.sqrt(2.0)


@dataclass(frozen=True)
class TfimConfig:
    n_sites: int = 10
    g_lo: float = 1.3
    g_hi: float = 1.5
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (2 <= self.n_sites <= 14):
            raise ValueError(f"n_sites must be in [2, 14], got {self.n_sites}")
        if not self.g_lo < self.g_hi:
            raise ValueError("need g_lo < g_hi")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def _site_operator(op: np.ndarray, site: int, n: int) -> sparse.csr_matrix:
    import scipy.sparse as sparse

    return sparse.kron(
        sparse.identity(2 ** (n - 1 - site), format="csr"),
        sparse.kron(sparse.csr_matrix(op), sparse.identity(2**site, format="csr")),
        format="csr",
    )


@lru_cache(maxsize=None)
def _tfim_terms(n_sites: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """(sum of Z_n Z_{n+1} over the open chain, sum of X_n)."""
    import scipy.sparse as sparse

    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    pauli_z = np.array([[1.0, 0.0], [0.0, -1.0]])
    zz = sparse.csr_matrix((2**n_sites, 2**n_sites))
    for site in range(n_sites - 1):
        zz = zz + _site_operator(pauli_z, site, n_sites) @ _site_operator(
            pauli_z, site + 1, n_sites
        )
    xs = sparse.csr_matrix((2**n_sites, 2**n_sites))
    for site in range(n_sites):
        xs = xs + _site_operator(pauli_x, site, n_sites)
    return zz.tocsr(), xs.tocsr()


def tfim_hamiltonian(n_sites: int, g: float) -> sparse.csr_matrix:
    """Open-chain transverse-field Ising Hamiltonian -sum ZZ - g sum X."""
    zz, xs = _tfim_terms(n_sites)
    return (-zz - g * xs).tocsr()


def _ground_state(hamiltonian: sparse.csr_matrix) -> tuple[float, np.ndarray, float]:
    """Lowest eigenpair plus the gap to the next level, deterministically."""
    dim = hamiltonian.shape[0]
    if dim <= 64:
        vals, vecs = np.linalg.eigh(hamiltonian.toarray())
        energy, vec, gap = vals[0], vecs[:, 0], vals[1] - vals[0]
    else:
        from scipy.sparse.linalg import eigsh

        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        vals, vecs = eigsh(hamiltonian, k=2, which="SA", v0=v0, maxiter=5000)
        order = np.argsort(vals)
        energy, vec, gap = vals[order[0]], vecs[:, order[0]], vals[order[1]] - vals[order[0]]
    # fixed phase convention: largest-|amplitude| entry real positive
    vec = vec.astype(complex)
    pivot = int(np.argmax(np.abs(vec)))
    vec = vec * (np.conj(vec[pivot]) / abs(vec[pivot]))
    return float(energy), vec / np.linalg.norm(vec), float(gap)


def tfim_ground_states(config: TfimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ground states at ``count`` couplings g drawn uniformly from the range.

    Returns (ensemble of shape (count, 2**n_sites), g values).  Warns if a
    near-degenerate ground space (gap < 1e-10) is encountered.
    """
    gs = np.random.default_rng(config.seed).uniform(config.g_lo, config.g_hi, config.count)
    states = np.empty((config.count, 2**config.n_sites), dtype=complex)
    for i, g in enumerate(gs):
        _, vec, gap = _ground_state(tfim_hamiltonian(config.n_sites, float(g)))
        if gap < 1e-10:
            warnings.warn(f"near-degenerate ground space at g={g:.6f} (gap={gap:.2e})")
        states[i] = vec
    return states, gs


def save_ensemble(path, ensemble: np.ndarray) -> None:
    ensemble = np.asarray(ensemble, dtype=complex)
    if ensemble.ndim != 2:
        raise ValueError("ensemble must be a 2-D array of shape (count, 2**n)")
    n = ensemble.shape[1].bit_length() - 1
    if 2**n != ensemble.shape[1]:
        raise ValueError(f"state dimension {ensemble.shape[1]} is not a power of two")
    payload = {
        "n_qubits": n,
        "count": int(ensemble.shape[0]),
        "states": [
            [[float(z.real), float(z.imag)] for z in row] for row in ensemble
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_ensemble(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"parse error in {path}: {err}") from err
    try:
        n = int(payload["n_qubits"])
        count = int(payload["count"])
        states = payload["states"]
    except (KeyError, TypeError) as err:
        raise ValueError(f"parse error in {path}: missing field {err}") from err
    # the header and the row lengths are checked before the (count, 2**n)
    # buffer is allocated, so its size is bounded by the file's
    if not (1 <= n <= MAX_QUBITS):
        raise ValueError(f"parse error in {path}: n_qubits {n} outside [1, {MAX_QUBITS}]")
    if len(states) != count:
        raise ValueError(f"parse error in {path}: header count {count} != {len(states)} states")
    dim = 2**n
    for i, row in enumerate(states):
        if len(row) != dim:
            raise ValueError(
                f"parse error in {path}: state {i} has {len(row)} amplitudes, expected {dim}"
            )
    out = np.empty((count, dim), dtype=complex)
    for i, row in enumerate(states):
        arr = np.asarray(row, dtype=float)
        if arr.shape != (dim, 2):
            raise ValueError(f"parse error in {path}: state {i} entries are not [re, im] pairs")
        out[i] = arr[:, 0] + 1j * arr[:, 1]
    return out


def save_theta(path, theta: np.ndarray, config: GeneratorConfig) -> None:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != config.theta_shape:
        raise ValueError(f"theta shape {theta.shape} != {config.theta_shape}")
    payload = {
        "n_qubits": config.n_qubits,
        "reps": config.reps,
        "entangler": config.entangler,
        "use_entangler": config.use_entangler,
        "angles": theta.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_theta(path) -> tuple[np.ndarray, GeneratorConfig]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"parse error in {path}: {err}") from err
    try:
        config = GeneratorConfig(n_qubits=int(payload["n_qubits"]), reps=int(payload["reps"]))
        theta = np.asarray(payload["angles"], dtype=float)
    except (KeyError, TypeError) as err:
        raise ValueError(f"parse error in {path}: {err}") from err
    # the entangler keys are written for readers of the file; they follow
    # from the shape and must agree with it
    for key in ("entangler", "use_entangler"):
        if key in payload and payload[key] != getattr(config, key):
            raise ValueError(
                f"parse error in {path}: {key} {payload[key]!r} != "
                f"{getattr(config, key)!r} for {config.n_qubits} qubits"
            )
    if theta.shape != config.theta_shape:
        raise ValueError(
            f"parse error in {path}: angle block {theta.shape} != header shape {config.theta_shape}"
        )
    return theta, config
