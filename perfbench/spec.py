"""Names, units and expected effects of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root carries the same names, units
and directions (the self-test checks that the two agree).  The ``moves``
text says which end-to-end metric, on which workload, a change in the
layer metric should move; the ``why`` text says what each workload
stresses.
"""

WORKLOADS = {
    "ring": (
        "1 qubit, 4 models x 250 epochs: Sinkhorn is ~93% of an epoch, and the 1000x1000 "
        "evaluation solves sit beside the many 100x100 training solves"
    ),
    "tfim": (
        "10 qubits: gate kernel and adjoint sweep dominate, Sinkhorn takes 5 iterations; "
        "the only workload with real set-up cost (Lanczos, JSON) and memory"
    ),
    "entropy": (
        "2 qubits, 11 models x 1000 epochs on 4-amplitude states: per-call overhead "
        "dominates and there is no transport at all"
    ),
}

# name -> (unit, better, bound).  On a shared 2-core VM, three runs of the
# same code and seed spread by 17% (eval_s on ring), so every bound is the
# 0.25 maximum.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "epoch_ms_p50": ("ms", "lower", 0.25),
    "epoch_ms_p90": ("ms", "lower", 0.25),
    "generate_states_per_s": ("1/s", "higher", 0.25),
    "eval_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

# name -> (unit, better, moves).  Values are per training epoch (per
# model-epoch on entropy) unless the unit or the text says otherwise.
PER_LAYER = {
    "transport.sinkhorn_ms": ("ms", "lower", "epoch_ms_* on ring; no change on tfim, entropy"),
    "transport.sinkhorn_iters_p50": ("count", "lower", "epoch_ms_* on ring"),
    "transport.sinkhorn_iters_max": ("count", "lower", "epoch_ms_p90 on ring"),
    "transport.sinkhorn_converged_ratio": ("ratio", "higher", "none (numerics); ring"),
    "transport.sinkhorn_us_per_iter": ("us", "lower", "epoch_ms_* on ring"),
    "transport.eval_sinkhorn_s": ("s", "lower", "eval_s on ring (per evaluated model)"),
    "transport.eval_sinkhorn_iters": ("count", "lower", "eval_s on ring (per evaluated model)"),
    "transport.cost_matrix_ms": ("ms", "lower", "eval_s on ring (per evaluated model)"),
    "generator.forward_ms": ("ms", "lower", "epoch_ms_* and generate_states_per_s on tfim"),
    "generator.gate_calls": ("count", "lower", "epoch_ms_* on tfim and entropy"),
    "generator.gate_ms": ("ms", "lower", "epoch_ms_* and generate_states_per_s on tfim"),
    "generator.gate_bytes": ("B", "lower", "epoch_ms_* on tfim (computed 2*2^n*batch*16 B per call)"),
    "gradients.adjoint_ms": ("ms", "lower", "epoch_ms_* on tfim and entropy"),
    "gradients.adjoint_self_ms": ("ms", "lower", "epoch_ms_* on tfim (block-overlap einsum)"),
    "gradients.loss_self_ms": ("ms", "lower", "epoch_ms_* on tfim and entropy"),
    "training.adam_ms": ("ms", "lower", "epoch_ms_* on entropy"),
    "training.loop_self_ms": ("ms", "lower", "epoch_ms_* on entropy"),
    "training.fit_error": ("1", "lower", "none: a rise flags loosened numerics (same seed)"),
    "datasets.draw_noise_ms": ("ms", "lower", "epoch_ms_* on entropy"),
    "datasets.tfim_ground_states_s": ("s", "lower", "setup_s on tfim (per set-up)"),
    "datasets.save_ensemble_s": ("s", "lower", "setup_s on tfim (per set-up)"),
    "datasets.load_ensemble_s": ("s", "lower", "setup_s on tfim (per set-up)"),
    "metrics.aux_ms": ("ms", "lower", "epoch_ms_* on tfim"),
    "metrics.evaluate_generation_s": ("s", "lower", "eval_s on ring (per evaluated model)"),
    "statevec.pauli_expectation_calls": ("count", "lower", "epoch_ms_* on tfim"),
    "statevec.pauli_expectation_ms": ("ms", "lower", "epoch_ms_* on tfim; eval_s on tfim, ring"),
    "trace.overhead_ms": ("ms", "lower", "none: traced minus untraced mean epoch wall"),
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    return PER_LAYER[name][0]
