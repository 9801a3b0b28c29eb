"""Analytic gradients of the training losses with respect to the angles.

Everything is built on one reverse (adjoint) sweep: after a forward pass,
the circuit is walked backwards one repetition at a time, undoing each
unitary on the state while transporting a costate bra, and inserting the
generator of each trainable rotation (-i Z/2 or -i Y/2) at its site to
read off d<bra|state>/d(angle).  Encoding gates carry no trainable
parameters and are just undone.  Both training losses only need the
derivative summed over the noise batch, so the sweep returns that sum:
one sweep yields the derivative with respect to every angle at the cost
of about two forward passes, for any batch of noise values with
per-sample bra vectors.

The ensemble loss holds the Sinkhorn plan fixed while differentiating
<plan, cost(theta)>; this is the exact gradient of the converged entropic
objective (Danskin/envelope), so finite differences must be taken through
``transport.regularized_value`` when checking it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from .generator import (
    GeneratorConfig,
    check_theta,
    encoding_gates,
    forward_columns,
    forward_states,
    require_memory,
)
from .statevec import (
    apply_gate_columns,
    density_eigenvalues,
    entanglement_entropies,  # re-exported: callers import it from here too
    entangler_diagonal,
    entropy_from_eigenvalues,
    euler_gate,
    reduced_density_qubit0,
)

_LN2 = float(np.log(2.0))


def adjoint_sweep(
    config: GeneratorConfig,
    theta: np.ndarray,
    noises: np.ndarray,
    bras: np.ndarray,
    final_states: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Overlaps <bra_b|psi(theta, x_b)> and their batch-summed angle derivatives.

    ``bras`` holds one (not necessarily normalized) vector per noise value,
    shape (batch, 2**n); it and ``final_states`` are left unmodified.
    Returns (overlaps (batch,), grad (reps, n_qubits, 3) complex), where
    grad[p, q, k] = sum_b d<bra_b|psi(theta, x_b)>/d theta[p, q, k].

    The state psi and the costate lam = bra live in one stacked
    (2, 2**n, batch) buffer, so each undo gate (the combined
    encoding+trainable gate of one site, conjugate-transposed) is a single
    in-place kernel call on both.  At the trainable gate U = Rz(c) Ry(b)
    Rz(a) of site (p, q) the three angle derivatives are
    sum_b <lam_b|G_k|psi_b> with the gate-local generators

        G_a = U (-i Z / 2) U^dag,  G_b = Rz(c) (-i Y / 2) Rz(c)^dag,
        G_c = -i Z / 2,

    which do not depend on b.  So each site needs only the 2x2 block
    S_q[i, j] = sum_b <lam_b restricted to qubit value i | psi_b at value j>.
    Undoing a gate on another qubit q' applies the same unitary to both
    sides of S_q and leaves it unchanged, so all n blocks of a repetition
    are read at once, right after its entangler layer is undone, and one
    contraction gives all 3 n derivatives of that repetition.
    """
    theta = check_theta(config, theta)
    x = np.atleast_1d(np.asarray(noises, dtype=float))
    bras = np.asarray(bras, dtype=complex)
    n = config.n_qubits
    batch = x.size
    if bras.shape != (batch, 2**n):
        raise ValueError(f"bras shape {bras.shape} != {(batch, 2 ** n)}")

    if final_states is not None:
        psi0 = np.asarray(final_states, dtype=complex).T
    else:
        psi0 = forward_columns(config, theta, x)
    require_memory(4 * 2**n * batch * 16, f"the adjoint sweep of {batch} states on {n} qubits")
    pair = np.empty((2, 2**n, batch), dtype=complex)
    scratch = np.empty(pair.size, dtype=complex)
    psi, lam = pair
    psi[...] = psi0
    lam[...] = bras.T
    lam_conj = scratch[: lam.size].reshape(lam.shape)
    np.conjugate(lam, out=lam_conj)
    overlaps = np.einsum("db,db->b", lam_conj, psi)

    enc = encoding_gates(x)                                      # (batch, 2, 2)
    train = euler_gate(theta[..., 0], theta[..., 1], theta[..., 2])  # (reps, n, 2, 2)
    undo = (train[:, :, None, :, :] @ enc).conj().swapaxes(-1, -2)   # (reps, n, batch, 2, 2)

    half_z = np.array([[-0.5j, 0.0], [0.0, 0.5j]])
    half_y = np.array([[0.0, -0.5], [0.5, 0.0]])
    rz_c = euler_gate(theta[..., 2], 0.0, 0.0)
    gens = np.empty(config.theta_shape + (2, 2), dtype=complex)   # (reps, n, 3, 2, 2)
    gens[:, :, 0] = train @ half_z @ train.conj().swapaxes(-1, -2)
    gens[:, :, 1] = rz_c @ half_y @ rz_c.conj().swapaxes(-1, -2)
    gens[:, :, 2] = half_z

    diag = entangler_diagonal(n)[:, None] if config.use_entangler else None
    blocks = np.empty((n, 2, 2), dtype=complex)
    grad = np.empty(config.theta_shape, dtype=complex)
    for p in reversed(range(config.reps)):
        if diag is not None:
            pair *= diag
        np.conjugate(lam, out=lam_conj)
        for q in range(n):
            high = 2 ** (n - 1 - q)
            lam_q = lam_conj.reshape(high, 2, -1)
            psi_q = psi.reshape(high, 2, -1)
            blocks[q] = (lam_q @ psi_q.swapaxes(1, 2)).sum(axis=0)
        grad[p] = np.einsum("qkij,qij->qk", gens[p], blocks)
        if p > 0:  # nothing is read after the first repetition
            for q in reversed(range(n)):
                apply_gate_columns(pair, undo[p, q], q, n, scratch)
    return overlaps, grad


def overlap_gradient(
    config: GeneratorConfig, theta: np.ndarray, noise: float, target: np.ndarray
) -> tuple[complex, np.ndarray]:
    """<target|psi(theta, x)> and its complex derivative per angle."""
    target = np.asarray(target, dtype=complex)
    ov, grad = adjoint_sweep(config, theta, np.array([float(noise)]), target[None, :])
    return complex(ov[0]), grad


def ensemble_loss_gradient(
    config: GeneratorConfig,
    theta: np.ndarray,
    noises: np.ndarray,
    targets: np.ndarray,
    sinkhorn_config: transport.SinkhornConfig | None = None,
    *,
    return_states: bool = False,
):
    """Transport loss against a target ensemble and its fixed-plan gradient.

    Loss is <plan, cost> at the converged Sinkhorn plan for the batch of
    generated states versus ``targets`` (uniform marginals).  The gradient
    holds the plan fixed; pairs with |overlap| < 1e-12 contribute zero
    (subgradient choice at the nonsmooth point).
    """
    x = np.atleast_1d(np.asarray(noises, dtype=float))
    targets = np.asarray(targets, dtype=complex)
    if x.size == 0 or targets.size == 0:
        raise ValueError("noises and targets must be nonempty")
    cfg = sinkhorn_config or transport.SinkhornConfig()

    states = forward_states(config, theta, x)
    ov = states @ targets.conj().T          # ov[i, j] = <target_j|psi_i>
    absolute = np.abs(ov)
    cost = np.clip(1.0 - absolute, 0.0, 1.0)
    a, b = transport.uniform_marginals(cost.shape[0], cost.shape[1])
    plan = transport.sinkhorn(cost, a, b, cfg).plan
    loss = float(np.sum(plan * cost))

    safe = absolute >= 1e-12
    weights = np.where(safe, plan * ov / np.where(safe, absolute, 1.0), 0.0)
    bras = weights @ targets                # per-sample costate vectors
    grad = -adjoint_sweep(config, theta, x, bras, final_states=states)[1].real
    if return_states:
        return loss, grad, states
    return loss, grad


def _entropy_and_costate(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-state entanglement entropy and dS/d(conj psi) for 2-qubit states.

    The costate is m @ conj(A) with A = sum_a s'(lam_a) |u_a><u_a| built
    from closed-form 2x2 projectors; eigenvalues are clamped to
    [1e-12, 1 - 1e-12] before the log so the derivative stays finite.
    """
    rho = reduced_density_qubit0(states)
    lams = density_eigenvalues(rho)                      # (..., 2), descending
    entropy = entropy_from_eigenvalues(lams)

    clamped = np.clip(lams, 1e-12, 1.0 - 1e-12)
    sprime = -(np.log(clamped) + 1.0) / _LN2             # dS/dlam per eigenvalue
    gap = lams[..., 0] - lams[..., 1]
    eye = np.eye(2, dtype=complex)
    degenerate = gap < 1e-12
    safe_gap = np.where(degenerate, 1.0, gap)[..., None, None]
    proj_plus = (rho - lams[..., 1, None, None] * eye) / safe_gap
    amat = (
        sprime[..., 0, None, None] * proj_plus
        + sprime[..., 1, None, None] * (eye - proj_plus)
    )
    amat = np.where(
        degenerate[..., None, None],
        sprime.mean(axis=-1)[..., None, None] * eye,
        amat,
    )
    m = states.reshape(states.shape[:-1] + (2, 2))
    costate = (m @ amat.conj()).reshape(states.shape)
    return entropy, costate


def entropy_loss_gradient(
    config: GeneratorConfig,
    theta: np.ndarray,
    noises: np.ndarray,
    s_target: float,
    *,
    return_entropies: bool = False,
):
    """Mean squared entropy mismatch over the noise batch, with gradient.

    loss = mean_b (S(rho_0(x_b, theta)) - s_target)^2 for the two-qubit
    generator; the gradient chains the closed-form eigenvalue derivative
    through the adjoint sweep.
    """
    if config.n_qubits != 2:
        raise ValueError("entropy loss requires a 2-qubit generator")
    if not (0.0 <= s_target <= 1.0):
        raise ValueError(f"s_target must be in [0, 1], got {s_target}")
    x = np.atleast_1d(np.asarray(noises, dtype=float))

    states = forward_states(config, theta, x)
    entropy, costate = _entropy_and_costate(states)
    residual = entropy - s_target
    loss = float(np.mean(residual**2))

    # dLoss/dtheta = mean_b 2 r_b dS_b/dtheta, dS/dtheta = 2 Re <costate|dpsi>
    bras = (4.0 / x.size) * residual[:, None] * costate
    grad = adjoint_sweep(config, theta, x, bras, final_states=states)[1].real
    if return_entropies:
        return loss, grad, entropy
    return loss, grad


@dataclass(frozen=True)
class FiniteDifferenceReport:
    max_rel_error: float
    failing_indices: list[tuple[int, ...]]
    passed: bool


def finite_difference_check(
    loss_fn,
    theta: np.ndarray,
    h: float = 1e-5,
    tolerance: float = 1e-4,
    abs_floor: float = 1e-6,
) -> FiniteDifferenceReport:
    """Central-difference check of an analytic gradient.

    ``loss_fn(theta) -> (value, grad)``; the analytic gradient is compared
    coordinate by coordinate against [f(t+h) - f(t-h)] / 2h with relative
    error |fd - an| / max(|fd|, |an|, abs_floor).  The floor turns the
    comparison absolute for coordinates where both sides are near zero,
    where central differences are pure cancellation noise (e.g. angles the
    loss provably does not depend on).
    """
    if not (1e-7 <= h <= 1e-2):
        raise ValueError(f"h must be in [1e-7, 1e-2], got {h}")
    theta = np.asarray(theta, dtype=float)
    _, analytic = loss_fn(theta)
    analytic = np.asarray(analytic, dtype=float)
    if analytic.shape != theta.shape:
        raise ValueError("gradient shape does not match theta")

    fd = np.empty_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        up = theta.copy()
        up[idx] += h
        down = theta.copy()
        down[idx] -= h
        fd[idx] = (loss_fn(up)[0] - loss_fn(down)[0]) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), abs_floor)
    rel = np.abs(fd - analytic) / denom
    failing = [tuple(int(i) for i in idx) for idx in np.argwhere(rel > tolerance)]
    return FiniteDifferenceReport(
        max_rel_error=float(rel.max()),
        failing_indices=failing,
        passed=not failing,
    )
