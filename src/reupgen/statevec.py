"""Complex statevector kernel.

States are plain numpy arrays of 2**n complex amplitudes.  Index
convention, fixed repo-wide: qubit 0 is the least significant bit of the
amplitude index, so amplitude ``k`` belongs to the basis state whose bit
``q`` is ``(k >> q) & 1``.  At the API a state of shape ``(..., 2**n)`` is
a stack of states sharing ``n``; ensembles (ordered finite sets of pure
states) are 2-D arrays of shape ``(count, 2**n)``, one state per row.

The one gate kernel, ``apply_gate_columns``, lives here: rows at the
API, columns inside the kernel.  It works in place on states stored as
columns, ``(..., 2**n, batch)``, the layout of the forward pass and the
adjoint sweep; the row functions run it on a copy of their input.  This
module also owns the one SWAP-test sampler and the entropy helpers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_QUBITS = 20

# Pauli matrices, used for expectations and gate generators.
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def n_qubits_of(state: np.ndarray) -> int:
    """Number of qubits of a state given by its last-axis length."""
    dim = state.shape[-1]
    n = dim.bit_length() - 1
    if dim <= 0 or (1 << n) != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def zero_state(n_qubits: int) -> np.ndarray:
    """|0...0> on ``n_qubits`` qubits."""
    if not (1 <= n_qubits <= MAX_QUBITS):
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_gate_columns(
    cols: np.ndarray, gate: np.ndarray, qubit: int, n: int, scratch: np.ndarray
) -> np.ndarray:
    """Apply a 2x2 gate on ``qubit``, in place, to states stored as columns.

    ``cols`` is a C-contiguous complex array of shape (..., 2**n, batch):
    one state per column, so the batch axis is the fast axis and every
    slice below stays contiguous regardless of the qubit index.  Leading
    axes stack state arrays that take the same gates (the adjoint sweep
    keeps its state and costate in one (2, 2**n, batch) buffer).
    ``gate`` is (2, 2) or (batch, 2, 2).  ``scratch`` is a 1-D complex
    buffer of at least ``cols.size`` elements that callers allocate once
    per pass.  Returns ``cols``.
    """
    if not cols.flags.c_contiguous:
        raise ValueError("cols must be C-contiguous to be updated in place")
    view = cols.reshape(-1, 2, 2**qubit, cols.shape[-1])
    if gate.ndim > 2:
        # one matrix per state: entries broadcast along the column axis
        m00, m01, m10, m11 = gate[:, 0, 0], gate[:, 0, 1], gate[:, 1, 0], gate[:, 1, 1]
    else:
        m00, m01, m10, m11 = gate[0, 0], gate[0, 1], gate[1, 0], gate[1, 1]
    v0 = view[:, 0]
    v1 = view[:, 1]
    half = cols.size // 2
    t0 = scratch[:half].reshape(v0.shape)
    t1 = scratch[half : 2 * half].reshape(v0.shape)
    np.multiply(m01, v1, out=t0)
    np.multiply(m10, v0, out=t1)
    np.multiply(m00, v0, out=v0)
    v0 += t0
    np.multiply(m11, v1, out=v1)
    v1 += t1
    return cols


def _apply_gates_to_rows(state: np.ndarray, gates) -> np.ndarray:
    """New array: ``state`` (..., 2**n) after each (qubit, 2x2 matrix) in turn.

    The copy is explicit: a view of the caller's array as (..., 2**n, 1)
    columns is already contiguous, so the in-place kernel would otherwise
    overwrite the input.
    """
    out = np.array(state, dtype=complex)
    n = n_qubits_of(out)
    cols = out[..., None]
    scratch = np.empty(out.size, dtype=complex)
    for qubit, matrix in gates:
        apply_gate_columns(cols, matrix, qubit, n, scratch)
    return out


def apply_single_qubit(state: np.ndarray, qubit: int, matrix: np.ndarray) -> np.ndarray:
    """Apply a single-qubit unitary on ``qubit``; returns a new state.

    The matrix must be a (2, 2) unitary within 1e-8.
    """
    state = np.asarray(state, dtype=complex)
    n = n_qubits_of(state)
    if not (0 <= qubit < n):
        raise IndexError(f"qubit {qubit} out of range for {n} qubits")
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if np.max(np.abs(m @ m.conj().T - np.eye(2))) > 1e-8:
        raise ValueError("matrix is not unitary within 1e-8")
    return _apply_gates_to_rows(state, [(qubit, m)])


def euler_gate(phi1, phi2, phi3) -> np.ndarray:
    """Rz(phi3) @ Ry(phi2) @ Rz(phi1) with half-angle conventions.

    Ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]],
    Rz(t) = diag(exp(-i t/2), exp(+i t/2)).

    Scalar angles give a (2, 2) matrix; array angles of a common shape S
    give S + (2, 2).
    """
    phi1, phi2, phi3 = np.broadcast_arrays(phi1, phi2, phi3)
    c = np.cos(np.asarray(phi2, dtype=float) / 2)
    s = np.sin(np.asarray(phi2, dtype=float) / 2)
    half_sum = (np.asarray(phi1, dtype=float) + phi3) / 2
    half_diff = (np.asarray(phi1, dtype=float) - phi3) / 2
    out = np.empty(np.shape(c) + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * half_sum) * c
    out[..., 0, 1] = -np.exp(1j * half_diff) * s
    out[..., 1, 0] = np.exp(-1j * half_diff) * s
    out[..., 1, 1] = np.exp(1j * half_sum) * c
    return out


def rotation_y(angle) -> np.ndarray:
    """Ry(angle), half-angle convention."""
    return euler_gate(0.0, angle, 0.0)


def rotation_z(angle) -> np.ndarray:
    """Rz(angle), half-angle convention."""
    return euler_gate(angle, 0.0, 0.0)


@lru_cache(maxsize=None)
def entangler_diagonal(n_qubits: int) -> np.ndarray:
    """Diagonal of the CZ chain on pairs (0,1), (1,2), ..., (n-2, n-1).

    Every CZ is diagonal, so the whole layer is the sign vector
    (-1)**(number of adjacent 11 pairs in the index bits).
    """
    idx = np.arange(2**n_qubits)
    parity = np.zeros(2**n_qubits, dtype=np.int64)
    for q in range(n_qubits - 1):
        parity += ((idx >> q) & 1) & ((idx >> (q + 1)) & 1)
    return np.where(parity % 2 == 0, 1.0, -1.0)


def apply_entangler(state: np.ndarray, topology: str = "cz_chain") -> np.ndarray:
    """Apply the linear-chain CZ layer; no-op on single-qubit states."""
    if topology != "cz_chain":
        raise ValueError(f"unknown entangler topology {topology!r}")
    state = np.asarray(state, dtype=complex)
    n = n_qubits_of(state)
    if n < 2:
        return state.copy()
    return state * entangler_diagonal(n)


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b> = sum conj(a_k) b_k of two single states."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"qubit counts differ: {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def overlap_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """All pairwise overlaps <rows_i|cols_j> between two ensembles."""
    rows = np.asarray(rows, dtype=complex)
    cols = np.asarray(cols, dtype=complex)
    if rows.shape[-1] != cols.shape[-1]:
        raise ValueError(
            f"qubit counts differ: dims {rows.shape[-1]} vs {cols.shape[-1]}"
        )
    return rows.conj() @ cols.T


def swap_test_absolute(absolute, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Shot-sampled SWAP-test estimates of overlap magnitudes |<a|b>|.

    For each exact magnitude the ancilla reads 0 with probability
    (1 + |<a|b>|^2) / 2; we draw ``shots`` Bernoulli outcomes (one binomial
    draw per entry, in C order) and invert that relation, clamping at 0.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p0 = (1.0 + np.asarray(absolute) ** 2) / 2.0
    p0_hat = rng.binomial(shots, np.minimum(p0, 1.0)) / shots
    return np.sqrt(np.maximum(0.0, 2.0 * p0_hat - 1.0))


def swap_test_estimate(
    a: np.ndarray, b: np.ndarray, shots: int, rng: np.random.Generator
) -> float:
    """Shot-sampled SWAP-test estimate of |<a|b>| for two single states."""
    return float(swap_test_absolute(abs(overlap(a, b)), shots, rng))


def apply_pauli_string(state: np.ndarray, pauli: str) -> np.ndarray:
    """Apply a Pauli string; letter s[q] acts on qubit q."""
    state = np.asarray(state, dtype=complex)
    n = n_qubits_of(state)
    if len(pauli) != n or any(ch not in PAULI for ch in pauli):
        raise ValueError(
            f"Pauli string must have length {n} with letters from IXYZ, got {pauli!r}"
        )
    return _apply_gates_to_rows(state, [(q, PAULI[ch]) for q, ch in enumerate(pauli) if ch != "I"])


def pauli_expectation(state: np.ndarray, pauli: str):
    """<state|P|state> for a Pauli string (real).

    Batched input (..., 2**n) returns an array of shape (...).
    """
    state = np.asarray(state, dtype=complex)
    acted = apply_pauli_string(state, pauli)
    val = np.einsum("...k,...k->...", state.conj(), acted).real
    return float(val) if val.ndim == 0 else val


def reduced_density_qubit0(state: np.ndarray) -> np.ndarray:
    """Partial trace over qubit 1 of a two-qubit pure state.

    Batched input (..., 4) returns (..., 2, 2).
    """
    state = np.asarray(state, dtype=complex)
    if state.shape[-1] != 4:
        raise ValueError("reduced_density_qubit0 requires a 2-qubit state")
    # index = 2*b1 + b0, so reshape exposes (b1, b0) and we trace over b1
    m = state.reshape(state.shape[:-1] + (2, 2))
    return np.einsum("...ki,...kj->...ij", m, m.conj())


def density_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of 2x2 Hermitian density matrices, in closed form.

    Uses trace and determinant; avoids a general eigensolver.  Returns
    (..., 2) with the larger eigenvalue first.
    """
    rho = np.asarray(rho)
    tr = (rho[..., 0, 0] + rho[..., 1, 1]).real
    det = (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real
    disc = np.sqrt(np.maximum(tr**2 / 4.0 - det, 0.0))
    return np.stack([tr / 2.0 + disc, tr / 2.0 - disc], axis=-1)


def entanglement_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy (base 2) of a one-qubit density matrix.

    Validates Hermiticity and unit trace within 1e-10, and rejects
    eigenvalues outside [-1e-8, 1 + 1e-8] before clamping to [0, 1].
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian within 1e-10")
    if abs(rho[0, 0] + rho[1, 1] - 1.0) > 1e-10:
        raise ValueError("density matrix trace differs from 1 by more than 1e-10")
    lams = density_eigenvalues(rho)
    if np.any(lams < -1e-8) or np.any(lams > 1 + 1e-8):
        raise ArithmeticError(f"eigenvalues {lams} outside [-1e-8, 1+1e-8]")
    return float(entropy_from_eigenvalues(lams))


def entropy_from_eigenvalues(lams: np.ndarray) -> np.ndarray:
    """-sum lam * log2 lam with 0 log 0 := 0; lams clamped to [0, 1]."""
    lams = np.clip(np.asarray(lams, dtype=float), 0.0, 1.0)
    terms = np.where(lams > 0.0, -lams * np.log2(np.maximum(lams, 1e-300)), 0.0)
    return terms.sum(axis=-1)


def entanglement_entropies(states: np.ndarray) -> np.ndarray:
    """Entanglement entropy of qubit 0 for a batch of 2-qubit states."""
    return entropy_from_eigenvalues(density_eigenvalues(reduced_density_qubit0(states)))
