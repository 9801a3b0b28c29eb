"""Entropic optimal transport between pure-state ensembles.

The cost of pairing two states is the infidelity 1 - |<a|b>|, so cost
matrices live in [0, 1].  The coupling is solved with log-stabilized
scaling Sinkhorn iterations: matrix-vector scaling updates on a kernel
that absorbs the current dual potentials, folded back into the potentials
with a log-domain step whenever the scalings leave a safe range, so small
regularizations neither overflow nor lose mass.  The reported value is
the unregularized objective <plan, cost> evaluated at the entropic plan.
Marginals are uniform histograms over the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevec


@dataclass(frozen=True)
class SinkhornConfig:
    epsilon: float = 0.01
    max_iterations: int = 500
    marginal_tolerance: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.marginal_tolerance <= 0:
            raise ValueError("marginal_tolerance must be positive")


@dataclass(frozen=True)
class TransportPlan:
    plan: np.ndarray
    converged: bool
    iterations: int


def uniform_marginals(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform histograms for two sample sets of sizes m and n."""
    return np.full(m, 1.0 / m), np.full(n, 1.0 / n)


def cost_matrix(
    set1: np.ndarray,
    set2: np.ndarray,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Pairwise infidelities 1 - |<set1_i|set2_j>|, clamped to [0, 1].

    With ``shots`` given, every |overlap| is replaced by a SWAP-test
    estimate from that many Bernoulli samples
    (``statevec.swap_test_absolute``, row-major draw order).
    """
    absolute = np.abs(statevec.overlap_matrix(set1, set2))
    if shots is not None:
        if rng is None:
            raise ValueError("shot-sampled overlaps need an rng")
        absolute = statevec.swap_test_absolute(absolute, shots, rng)
    return np.clip(1.0 - absolute, 0.0, 1.0)


# Scalings outside [1/bound, bound] are folded into the potentials.  A
# kernel entry that underflowed to zero could have grown by at most
# bound**2 = 1e100 (from u and v together) before the next fold, to about
# 1e-308 * 1e100 = 1e-208, so the mass lost to underflow never matters.
_SCALING_BOUND = 1e50


def _lse_rows(mat: np.ndarray) -> np.ndarray:
    peak = mat.max(axis=1)
    return peak + np.log(np.exp(mat - peak[:, None]).sum(axis=1))


def _lse_cols(mat: np.ndarray) -> np.ndarray:
    peak = mat.max(axis=0)
    return peak + np.log(np.exp(mat - peak[None, :]).sum(axis=0))


def _log_domain_step(
    cost: np.ndarray, g: np.ndarray, log_a: np.ndarray, log_b: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """One Sinkhorn iteration on the dual potentials; finite at any eps."""
    f = eps * (log_a - _lse_rows((g[None, :] - cost) / eps))
    g = eps * (log_b - _lse_cols((f[:, None] - cost) / eps))
    return f, g


def sinkhorn(cost: np.ndarray, a: np.ndarray, b: np.ndarray, config: SinkhornConfig) -> TransportPlan:
    """Log-stabilized scaling Sinkhorn solve of entropic OT with marginals (a, b).

    The plan is kept as diag(u) K diag(v) with K = exp((f + g - cost) / eps)
    for dual potentials f, g in cost units.  Each iteration is the matrix
    scaling update u = a / (K v), v = b / (K^T u): two matrix-vector
    products.  The first iteration, and any iteration whose scalings would
    leave [1/_SCALING_BOUND, _SCALING_BOUND] or turn non-finite, is instead
    taken as a log-domain step on the potentials (with the last in-range v
    folded into g), after which K is rebuilt and u = v = 1.  Both kinds of
    step are the same Sinkhorn update, so the iterates are those of a pure
    log-domain solve up to rounding.

    Iterations run until both marginal L1 errors fall below
    ``marginal_tolerance`` or the budget runs out; the plan is returned
    either way with its convergence flag.  The errors are read from the
    products already at hand (row sums u * K v, column sums v * K^T u) every
    few iterations and at the last one.
    """
    cost = np.asarray(cost, dtype=float)
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = cost.shape
    if a.shape != (m,) or b.shape != (n,):
        raise ValueError(
            f"marginal shapes {a.shape}, {b.shape} do not match cost {cost.shape}"
        )

    eps = config.epsilon
    log_a = np.log(a)
    log_b = np.log(b)
    lo, hi = 1.0 / _SCALING_BOUND, _SCALING_BOUND
    g = np.zeros(n)
    v = np.ones(n)
    kernel = None
    stable = False  # the opening iteration is a log-domain step

    check_every = 5
    converged = False
    iterations = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for iterations in range(1, config.max_iterations + 1):
            if kernel is not None:
                u_next = a / kv
                kt_u = kernel.T @ u_next
                v_next = b / kt_u
                stable = (
                    lo <= u_next.min() and u_next.max() <= hi
                    and lo <= v_next.min() and v_next.max() <= hi
                )
            if not stable:
                kernel = None  # freed before the log-domain step's temporaries
                f, g = _log_domain_step(cost, g + eps * np.log(v), log_a, log_b, eps)
                kernel = f[:, None] + g[None, :]  # one m x n buffer, updated in place
                kernel -= cost
                kernel /= eps
                np.exp(kernel, out=kernel)
                u = np.ones(m)
                v = np.ones(n)
                kt_u = kernel.sum(axis=0)
            else:
                u, v = u_next, v_next
            kv = kernel @ v
            if iterations % check_every == 0 or iterations == config.max_iterations:
                row_err = np.abs(u * kv - a).sum()
                col_err = np.abs(v * kt_u - b).sum()
                if row_err < config.marginal_tolerance and col_err < config.marginal_tolerance:
                    converged = True
                    break
    kernel *= u[:, None]
    kernel *= v[None, :]
    return TransportPlan(plan=kernel, converged=converged, iterations=iterations)


def transport_value(cost: np.ndarray, plan: TransportPlan | np.ndarray) -> float:
    """Unregularized objective <plan, cost> at the given coupling."""
    entries = plan.plan if isinstance(plan, TransportPlan) else np.asarray(plan)
    cost = np.asarray(cost)
    if entries.shape != cost.shape:
        raise ValueError(f"plan shape {entries.shape} != cost shape {cost.shape}")
    return float(np.sum(entries * cost))


def regularized_value(cost: np.ndarray, plan: TransportPlan | np.ndarray, epsilon: float) -> float:
    """Entropic objective <P, C> + eps * sum P (log P - 1) at the plan.

    This is the function the Sinkhorn plan minimizes; its gradient in the
    cost matrix is the plan itself, which is what the fixed-plan training
    gradient relies on.  Zero entries contribute zero.
    """
    entries = plan.plan if isinstance(plan, TransportPlan) else np.asarray(plan)
    pos = entries > 0
    ent = np.sum(entries[pos] * (np.log(entries[pos]) - 1.0))
    return float(np.sum(entries * np.asarray(cost)) + epsilon * ent)


def exact_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal assignment for a square cost matrix under uniform marginals.

    Returns (permutation sigma, value) with value = mean of C[i, sigma[i]],
    matching the <P, C> normalization of a permutation coupling.  The LP
    optimum is a permutation in this setting, so this is an exact oracle
    for the unregularized transport problem.
    """
    cost = np.asarray(cost, dtype=float)
    m, n = cost.shape
    if m != n:
        raise ValueError(f"exact assignment needs a square matrix, got {cost.shape}")
    if m > 256:
        raise ValueError("exact assignment limited to 256x256")
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    sigma = np.empty(n, dtype=int)
    sigma[rows] = cols
    return sigma, float(cost[rows, cols].mean())


def wasserstein_distance(
    set1: np.ndarray,
    set2: np.ndarray,
    config: SinkhornConfig | None = None,
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """End-to-end ensemble distance: cost matrix, Sinkhorn, <P, C>."""
    set1 = np.asarray(set1, dtype=complex)
    set2 = np.asarray(set2, dtype=complex)
    if set1.size == 0 or set2.size == 0:
        raise ValueError("ensembles must be nonempty")
    config = config or SinkhornConfig()
    cost = cost_matrix(set1, set2, shots=shots, rng=rng)
    a, b = uniform_marginals(cost.shape[0], cost.shape[1])
    plan = sinkhorn(cost, a, b, config)
    return transport_value(cost, plan)
