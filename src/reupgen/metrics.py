"""Evaluation metrics for generated ensembles.

Reports always keep per-sample detail arrays where they exist, so plots
can be rebuilt from saved output without rerunning any simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import statevec, transport


@dataclass(frozen=True)
class MetricReport:
    name: str
    value: float
    sample_count: int
    details: np.ndarray | None = None


def mean_squared_pauli(ensemble: np.ndarray, pauli: str) -> MetricReport:
    """Mean of squared single-qubit Pauli expectations over an ensemble.

    This is the ring-quality metric: states on the ring orthogonal to the
    chosen axis give expectation 0, so the ideal value is 0.
    """
    ensemble = np.asarray(ensemble, dtype=complex)
    if ensemble.ndim != 2 or ensemble.shape[1] != 2:
        raise ValueError("mean_squared_pauli expects a single-qubit ensemble")
    if pauli not in ("Y", "Z"):
        raise ValueError(f"pauli must be 'Y' or 'Z', got {pauli!r}")
    expectations = statevec.pauli_expectation(ensemble, pauli)
    return MetricReport(
        name=f"mean_squared_{pauli.lower()}",
        value=float(np.mean(expectations**2)),
        sample_count=ensemble.shape[0],
        details=expectations,
    )


def evaluate_generation(
    generated: np.ndarray,
    test: np.ndarray,
    sinkhorn_config: transport.SinkhornConfig | None = None,
) -> MetricReport:
    """Transport distance between generated and test ensembles (exact overlaps)."""
    generated = np.asarray(generated, dtype=complex)
    test = np.asarray(test, dtype=complex)
    if generated.size == 0 or test.size == 0:
        raise ValueError("ensembles must be nonempty")
    value = transport.wasserstein_distance(generated, test, sinkhorn_config)
    return MetricReport(
        name="wasserstein",
        value=value,
        sample_count=generated.shape[0],
    )


def magnetization(ensemble: np.ndarray) -> MetricReport:
    """Per-state transverse magnetization mean_n <X_n>, plus its ensemble mean.

    X_q only swaps the amplitude pairs that differ in bit q, so
    <X_q> = 2 Re sum conj(psi[bit q = 0]) psi[bit q = 1].
    """
    ensemble = np.asarray(ensemble, dtype=complex)
    n = statevec.n_qubits_of(ensemble)
    per_site = np.zeros(ensemble.shape[0])
    for site in range(n):
        pairs = ensemble.reshape(-1, 2 ** (n - 1 - site), 2, 2**site)
        per_site += 2.0 * np.einsum("khl,khl->k", pairs[:, :, 0].conj(), pairs[:, :, 1]).real
    values = per_site / n
    return MetricReport(
        name="magnetization",
        value=float(values.mean()),
        sample_count=ensemble.shape[0],
        details=values,
    )


def distribution_distance_1d(values_a, values_b) -> float:
    """Empirical 1-Wasserstein distance between two 1-D samples.

    Integrates |F_a^{-1} - F_b^{-1}| over the union grid of both sample
    quantiles, which is the exact LP optimum for empirical measures.
    """
    a = np.sort(np.asarray(values_a, dtype=float))
    b = np.sort(np.asarray(values_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    grid = np.union1d(np.arange(1, a.size + 1) / a.size, np.arange(1, b.size + 1) / b.size)
    seg = np.diff(np.concatenate(([0.0], grid)))
    ia = np.ceil(grid * a.size - 1e-9).astype(int) - 1
    ib = np.ceil(grid * b.size - 1e-9).astype(int) - 1
    return float(np.sum(seg * np.abs(a[ia] - b[ib])))


def entropy_series_report(results) -> list[MetricReport]:
    """One report per entropy target from ``train_entropy_series`` output.

    value is the mean achieved entropy over the evaluation batch; the
    per-sample entropies ride along as details.
    """
    if not results:
        raise ValueError("results must be nonempty")
    reports = []
    for res in results:
        reports.append(
            MetricReport(
                name=f"entropy[target={res.s_target:.2f}]",
                value=float(res.mean_entropy),
                sample_count=res.entropies.size,
                details=res.entropies,
            )
        )
    return reports
