"""Span recording and per-layer aggregation for the traced benchmark run.

reupgen has no tracing hooks of its own.  The traced run therefore
replaces the module attributes that the library looks up at call time
with wrappers that record one span per call: name, start, end, parent
span and run id.  A module that imported a name directly is patched where
it imported it.  Spans are kept in flat arrays and written out once, when
the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import ExitStack, contextmanager
from time import perf_counter

import numpy as np

EPOCH = "training.epoch"
LOSS = "gradients.loss"
GATE = "generator.apply_gate_columns"
SINKHORN = "transport.sinkhorn"
CHECK = "bench.check"


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.value = array("d")  # bytes for gate calls, iterations for Sinkhorn
        self.flag = array("b")   # Sinkhorn convergence; 1 elsewhere
        self.stack: list[int] = []
        self.run_id = 0

    def open(self, name: str, t: float) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.start.append(t)
        self.end.append(math.nan)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.value.append(0.0)
        self.flag.append(1)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t: float) -> None:
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.end[idx] = t

    @contextmanager
    def span(self, name: str):
        idx = self.open(name, perf_counter())
        try:
            yield idx
        finally:
            self.close(idx, perf_counter())

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` with a span around every call; ``annotate(idx, args, result)`` after it."""

        def traced(*args, **kwargs):
            idx = self.open(name, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx, perf_counter())
            if annotate is not None:
                annotate(idx, args, result)
            return result

        return traced

    def save(self, path, header: dict) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            value=np.frombuffer(self.value),
            flag=np.frombuffer(self.flag, dtype=np.int8),
            header=np.array(json.dumps(header)),
        )


@contextmanager
def patched(module, attr: str, replacement):
    """Replace ``module.attr`` for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


@contextmanager
def instrumented(tracer: Tracer):
    """Record spans around the library calls named in the module list below."""
    from reupgen import generator, gradients, statevec, training, transport

    def gate_bytes(idx, args, _result):
        # columns are read once and written once: 2 * 2**n * batch * 16 B
        tracer.value[idx] = 2.0 * args[0].size * args[0].itemsize

    def sinkhorn_result(idx, _args, plan):
        tracer.value[idx] = plan.iterations
        tracer.flag[idx] = 1 if plan.converged else 0

    with ExitStack() as stack:
        for module, attr, name, annotate in (
            (gradients, "forward_states", "generator.forward_states", None),
            (gradients, "adjoint_sweep", "gradients.adjoint_sweep", None),
            (gradients, "apply_gate_columns", GATE, gate_bytes),
            (generator, "apply_gate_columns", GATE, gate_bytes),
            (transport, "sinkhorn", SINKHORN, sinkhorn_result),
            (transport, "cost_matrix", "transport.cost_matrix", None),
            (training, "adam_step", "training.adam_step", None),
            (training, "draw_noise", "datasets.draw_noise", None),
            (statevec, "pauli_expectation", "statevec.pauli_expectation", None),
        ):
            stack.enter_context(
                patched(module, attr, tracer.wrap(name, getattr(module, attr), annotate))
            )
        yield


class EpochClock:
    """Per-epoch wall time from one ``perf_counter`` stamp per loss-function call.

    An epoch sample is the time between two consecutive calls within one
    training run, less the time the benchmark spent checking the first
    call's outputs.  The last epoch of a run is followed by no call and is
    not sampled.  With a tracer, each epoch also becomes a span; sampled
    epochs are marked with value 1.
    """

    def __init__(self, epochs_per_run: int, tracer: Tracer | None = None):
        self.epochs_per_run = epochs_per_run
        self.tracer = tracer
        self.samples: list[float] = []
        self.calls = 0
        self._last: float | None = None
        self._excluded = 0.0
        self._span: int | None = None

    def tick(self) -> None:
        t = perf_counter()
        new_run = self.calls % self.epochs_per_run == 0
        self.calls += 1
        if self._last is not None and not new_run:
            self.samples.append(t - self._last - self._excluded)
            if self.tracer is not None:
                self.tracer.value[self._span] = 1.0
        self._last = t
        self._excluded = 0.0
        if self.tracer is not None:
            if self._span is not None:
                self.tracer.close(self._span, t)
            if new_run:
                self.tracer.run_id += 1
            self._span = self.tracer.open(EPOCH, t)

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    def end_runs(self) -> None:
        """Close the trailing epoch once the training call has returned."""
        if self.tracer is not None and self._span is not None:
            self.tracer.close(self._span, perf_counter())
        self._span = None
        self._last = None


def _ancestor(parent: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Index of the nearest marked ancestor-or-self of every span, or -1."""
    idx = np.arange(parent.size)
    found = np.where(mark, idx, -1)
    up = parent.copy()
    while True:
        todo = (found < 0) & (up >= 0)
        if not todo.any():
            return found
        found[todo] = np.where(mark[up[todo]], up[todo], -1)
        up[todo] = parent[up[todo]]


def layer_metrics(tracer: Tracer, untraced_epoch_s: float, models: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, plus self-time shares per module.

    Per-epoch values are totals over sampled epochs divided by their count;
    evaluation values are per evaluated model (``models`` per
    ``bench.eval`` call) and set-up values per ``bench.setup`` call.
    """
    names = np.array(tracer.names)
    name = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    value = np.frombuffer(tracer.value)
    flag = np.frombuffer(tracer.flag, dtype=np.int8)
    label = names[name]

    has_parent = parent >= 0
    child = np.zeros(dur.size)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    sampled = (label == EPOCH) & (value == 1.0)
    epoch_of = _ancestor(parent, sampled)
    in_epoch = epoch_of >= 0
    root = _ancestor(parent, ~has_parent)
    root_label = label[root]
    n_epochs = max(int(sampled.sum()), 1)
    n_eval = max(int((label == "bench.eval").sum()), 1) * models
    n_setup = max(int((label == "bench.setup").sum()), 1)

    def per_epoch(span_name, times=dur):
        return float(times[in_epoch & (label == span_name)].sum()) / n_epochs

    def per_call(span_name, root_name, count):
        return float(dur[(root_label == root_name) & (label == span_name)].sum()) / count

    # the adjoint sweep's own time excludes the gate kernel it calls
    under_adjoint = has_parent & (label[parent] == "gradients.adjoint_sweep")
    gate_under = in_epoch & (label == GATE) & under_adjoint
    solve = in_epoch & (label == SINKHORN)
    iters = value[solve]
    eval_solve = (root_label == "bench.eval") & (label == SINKHORN)
    checks = float(dur[in_epoch & (label == CHECK)].sum())
    traced_epoch_s = (float(dur[sampled].sum()) - checks) / n_epochs

    out = {
        "transport.sinkhorn_ms": 1e3 * per_epoch(SINKHORN),
        "transport.sinkhorn_iters_p50": float(np.median(iters)) if iters.size else 0.0,
        "transport.sinkhorn_iters_max": float(iters.max()) if iters.size else 0.0,
        "transport.sinkhorn_converged_ratio": float(flag[solve].mean()) if iters.size else 0.0,
        "transport.sinkhorn_us_per_iter": (
            1e6 * float(dur[solve].sum()) / float(iters.sum()) if iters.size else 0.0
        ),
        "transport.eval_sinkhorn_s": per_call(SINKHORN, "bench.eval", n_eval),
        "transport.eval_sinkhorn_iters": float(value[eval_solve].sum()) / n_eval,
        "transport.cost_matrix_ms": 1e3 * per_call("transport.cost_matrix", "bench.eval", n_eval),
        "generator.forward_ms": 1e3 * per_epoch("generator.forward_states"),
        "generator.gate_calls": float((in_epoch & (label == GATE)).sum()) / n_epochs,
        "generator.gate_ms": 1e3 * per_epoch(GATE),
        "generator.gate_bytes": float(value[in_epoch & (label == GATE)].sum()) / n_epochs,
        "gradients.adjoint_ms": 1e3 * per_epoch("gradients.adjoint_sweep"),
        "gradients.adjoint_self_ms": 1e3 * (
            per_epoch("gradients.adjoint_sweep") - float(dur[gate_under].sum()) / n_epochs
        ),
        "gradients.loss_self_ms": 1e3 * per_epoch(LOSS, self_t),
        "training.adam_ms": 1e3 * per_epoch("training.adam_step"),
        "training.loop_self_ms": 1e3 * (float(self_t[sampled].sum()) / n_epochs),
        "datasets.draw_noise_ms": 1e3 * per_epoch("datasets.draw_noise"),
        "datasets.tfim_ground_states_s": per_call("datasets.tfim_ground_states", "bench.setup", n_setup),
        "datasets.save_ensemble_s": per_call("datasets.save_ensemble", "bench.setup", n_setup),
        "datasets.load_ensemble_s": per_call("datasets.load_ensemble", "bench.setup", n_setup),
        "metrics.aux_ms": 1e3 * per_epoch("metrics.aux"),
        "metrics.evaluate_generation_s": per_call("metrics.evaluate_generation", "bench.eval", n_eval),
        "statevec.pauli_expectation_calls": float(
            (in_epoch & (label == "statevec.pauli_expectation")).sum()
        ) / n_epochs,
        "statevec.pauli_expectation_ms": 1e3 * per_epoch("statevec.pauli_expectation"),
        "trace.overhead_ms": 1e3 * (traced_epoch_s - untraced_epoch_s),
    }

    # self time by module over sampled epochs; the loop's own time is the
    # epoch span's self time, the benchmark's checks are left out
    shares = {}
    counted = in_epoch & (label != CHECK)
    modules = sorted({n.split(".")[0] for n in tracer.names})
    module_of = np.array([modules.index(n.split(".")[0]) for n in tracer.names])[name]
    for k, module in enumerate(modules):
        total = float(self_t[counted & (module_of == k)].sum()) / n_epochs
        if total > 0:
            shares[module] = total
    info = {
        "sampled_epochs": int(sampled.sum()),
        "eval_calls": int((label == "bench.eval").sum()),
        "sinkhorn_solves": int(iters.size),
        "traced_epoch_ms": 1e3 * traced_epoch_s,
        "untraced_epoch_ms": 1e3 * untraced_epoch_s,
        "self_ms_by_module": {k: 1e3 * v for k, v in shares.items()},
        "spans": int(dur.size),
    }
    return out, info
