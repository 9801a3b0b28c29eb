"""Benchmark of reupgen: training, single-pass generation and evaluation.

Run from the repository root:

    python3 perfbench/run.py --workload ring --seed 1 --seconds 30 --trace 0

Workloads are ``ring``, ``tfim`` and ``entropy`` (see ``workloads.py`` and
``spec.py``).  One process runs one workload in a closed loop: one caller,
one thread, BLAS pinned to one thread before numpy loads.  The inputs are
built from ``--seed``; the set-up is repeated ``SETUPS`` times.  Then
whole cycles (the workload's training runs, the generation batch, the
evaluation) are repeated until another cycle would end after
``--seconds``; at least one cycle runs.  Every cycle must reproduce the
first bitwise.  Afterwards the correctness gate compares library outputs
on fixed inputs with the values in ``reference.npz``.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced cycles
alternate, the per-layer metrics come from the traced ones, and the spans
are written to ``perfbench/out/``.  ``--smoke`` shrinks every workload to
a few epochs for a quick check.  Exit code 0 means every check passed, 1
that a check failed, 2 that the reupgen source is missing.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUPS = 5
# generation and evaluation calls repeat until they add up to this long
REPEAT_S = 0.25
NORM_TOLERANCE = 1e-10


def pin_blas() -> None:
    for var in BLAS_ENV:
        os.environ[var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="reupgen benchmark")
    parser.add_argument("--workload", required=True, choices=("ring", "tfim", "entropy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few epochs at small sizes")
    return parser.parse_args(argv)


class Stats:
    """Operations attempted and failed; an operation is an epoch, a
    generate call, an eval call or a reference comparison."""

    def __init__(self):
        self.attempted = {"epoch": 0, "generate": 0, "eval": 0, "reference": 0}
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def total(self) -> int:
        return sum(self.attempted.values())


def _no_span(_name):
    return nullcontext()


def _max_norm_error(batches) -> float:
    import numpy as np

    return max(float(np.max(np.abs(np.linalg.norm(b, axis=-1) - 1.0))) for b in batches)


def _same(a: list, b: list) -> bool:
    import numpy as np

    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class Runner:
    """Runs cycles of one workload and keeps their timings."""

    def __init__(self, workload, inputs, stats: Stats):
        self.workload = workload
        self.inputs = inputs
        self.stats = stats
        self.generate_s: list[float] = []
        self.eval_s: list[float] = []
        self.first_states = None
        self.first_eval = None

    def _epoch_problem(self, result):
        import numpy as np

        loss, grad, extra = result
        if not math.isfinite(loss):
            return f"non-finite loss {loss}"
        if not np.all(np.isfinite(grad)):
            return "non-finite gradient"
        if np.iscomplexobj(extra) and _max_norm_error([extra]) > NORM_TOLERANCE:
            return f"epoch state norm off by {_max_norm_error([extra]):.3g}"
        return None

    def cycle(self, clock, tracer=None) -> None:
        from reupgen import gradients

        import tracing

        span = tracer.span if tracer is not None else _no_span
        real = getattr(gradients, self.workload.loss_attr)
        inner = tracer.wrap(tracing.LOSS, real) if tracer is not None else real
        stats = self.stats

        def clocked(*args, **kwargs):
            clock.tick()
            stats.attempted["epoch"] += 1
            result = inner(*args, **kwargs)
            t = time.perf_counter()
            with span(tracing.CHECK):
                problem = self._epoch_problem(result)
            if problem:
                stats.fail(problem)
            clock.exclude(time.perf_counter() - t)
            return result

        hooks = tracing.instrumented(tracer) if tracer is not None else nullcontext()
        with tracing.patched(gradients, self.workload.loss_attr, clocked), hooks:
            with span("bench.train"):
                try:
                    model = self.workload.train(self.inputs, span)
                except Exception:
                    stats.fail("training raised")
                    raise
                finally:
                    clock.end_runs()
            states = self._repeat(
                "generate",
                lambda: self.workload.generate(self.inputs, model),
                self._states_problem,
                self.generate_s,
                span,
            )
            self._repeat(
                "eval",
                lambda: self.workload.evaluate(self.inputs, states, span),
                self._eval_problem,
                self.eval_s,
                span,
            )

    def _repeat(self, op: str, call, problem_of, times: list, span):
        """Call until the calls add up to ``REPEAT_S``; return the first output."""
        first = None
        spent = 0.0
        while first is None or spent < REPEAT_S:
            self.stats.attempted[op] += 1
            t = time.perf_counter()
            with span(f"bench.{op}"):
                out = call()
            dt = time.perf_counter() - t
            spent += dt
            times.append(dt)
            problem = problem_of(out)
            if problem:
                self.stats.fail(problem)
            if first is None:
                first = out
        return first

    def _states_problem(self, states):
        if self.first_states is None:
            self.first_states = states
        elif not _same(states, self.first_states):
            return "generated states differ from the first call"
        err = _max_norm_error(states)
        if err > NORM_TOLERANCE:
            return f"generated state norm off by {err:.3g}"
        return None

    def _eval_problem(self, result):
        if self.first_eval is None:
            self.first_eval = result
        elif result != self.first_eval:
            return f"evaluation {result} differs from the first call {self.first_eval}"
        if not math.isfinite(result["fit_error"]):
            return "non-finite fit error"
        return None


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
    }


def _metric(name: str, value: float) -> dict:
    return {"value": float(value), "unit": spec.unit_of(name)}


def _p90(samples):
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def run(args, stats: Stats, import_s: float) -> dict:
    import reference
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    seeds = workloads.derive_seeds(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    span = tracer.span if tracer is not None else _no_span

    OUT.mkdir(exist_ok=True)
    setup_times = []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        for _ in range(SETUPS):
            t = time.perf_counter()
            with span("bench.setup"):
                inputs = workload.setup(seeds, workdir, span)
            setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    runner = Runner(workload, inputs, stats)
    plain = tracing.EpochClock(workload.epochs)
    traced = tracing.EpochClock(workload.epochs, tracer)
    start = time.perf_counter()
    cycles = 0
    while True:
        t = time.perf_counter()
        runner.cycle(plain)
        if tracer is not None:
            runner.cycle(traced, tracer)
        cycles += 1
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > args.seconds:
            break
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for key, diff in reference.check(args.workload):
        stats.attempted["reference"] += 1
        if not diff <= reference.TOLERANCE:
            stats.fail(f"reference {key} off by {diff:.3g}")

    samples = plain.samples
    states_per_call = sum(len(batch) for batch in runner.first_states)
    e2e = {
        "setup_s": setup_s,
        "epoch_ms_p50": 1e3 * statistics.median(samples),
        "epoch_ms_p90": 1e3 * _p90(samples),
        "generate_states_per_s": states_per_call / statistics.median(runner.generate_s),
        "eval_s": statistics.median(runner.eval_s) / workload.models,
        "peak_rss_mb": peak_rss_mb,
    }
    fit = runner.first_eval
    print(
        f"workload {args.workload} seed {args.seed}: {cycles} cycle(s) of {workload.models} "
        f"model(s) x {workload.epochs} epochs in {measured_s:.1f} s"
        f"{', untraced and traced' if tracer is not None else ''}"
    )
    counts = {
        "setup_s": f"import {import_s:.4f} s + median of {SETUPS} set-ups",
        "epoch_ms_p50": f"n={len(samples)} epochs",
        "epoch_ms_p90": f"n={len(samples)} epochs",
        "generate_states_per_s": f"{states_per_call} states per call, n={len(runner.generate_s)} calls",
        "eval_s": f"per model, n={len(runner.eval_s)} calls of {workload.models} model(s)",
        "peak_rss_mb": "ru_maxrss",
    }
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {spec.unit_of(name)} ({counts[name]})")
    details = json.dumps({k: v for k, v in fit.items() if k != "fit_error"})
    print(f"  fit_error = {fit['fit_error']:.6g} {details}")
    print(f"  failed_ratio = {stats.failed}/{stats.total} operations {json.dumps(stats.attempted)}")

    if tracer is None:
        return {name: _metric(name, value) for name, value in e2e.items()}

    layers, info = tracing.layer_metrics(tracer, statistics.fmean(samples), workload.models)
    layers["training.fit_error"] = fit["fit_error"]
    wall = info["traced_epoch_ms"]
    shares = ", ".join(
        f"{module} {ms:.4f} ms ({100 * ms / wall:.1f}%)"
        for module, ms in sorted(info["self_ms_by_module"].items(), key=lambda kv: -kv[1])
    )
    print(
        f"  traced epoch {wall:.4f} ms vs untraced {info['untraced_epoch_ms']:.4f} ms "
        f"(overhead {layers['trace.overhead_ms']:.4f} ms) over {info['sampled_epochs']} epochs, "
        f"{info['spans']} spans"
    )
    print(f"  self time per epoch: {shares}")
    path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
    tracer.save(path, {"env": environment(args), "info": info})
    print(f"  spans written to {path.relative_to(ROOT)}")
    return {name: _metric(name, value) for name, value in layers.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "reupgen" / "__init__.py").is_file():
        print(f"error: reupgen source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import reupgen

    if Path(reupgen.__file__).resolve().parent != ROOT / "src" / "reupgen":
        print(f"error: imported reupgen from {reupgen.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    print("env " + json.dumps(environment(args)))

    stats = Stats()
    try:
        metrics = run(args, stats, import_s)
    except Exception:
        traceback.print_exc()
        if stats.failed == 0:
            stats.fail("benchmark raised")
        metrics = {}
    for problem in stats.problems:
        print(f"  check failed: {problem}")
    print(
        json.dumps(
            {
                "correct": stats.failed == 0,
                "attempted": max(stats.total, 1),
                "failed": stats.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if stats.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
