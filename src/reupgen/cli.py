"""Command-line entry point.

Subcommands: gen-data, train, generate, eval, sweep-p, gradcheck.  Every
run is driven by a JSON config file plus a handful of overrides; every
hyperparameter has a config key, and the defaults reproduce the published
experiment settings.  Outputs are JSON and CSV only.

Exit codes: 0 success, 2 usage or validation error, 3 training divergence,
4 I/O failure.

Config keys (defaults depend on ``task``):

    task              ring_y | ring_conditional | tfim | entropy_series | sweep_p
    n_qubits, reps    generator shape
    noise             {"kind": "uniform"|"gaussian"|"two_interval", ...bounds}
    epochs, lr, seed, batch_generated
    sinkhorn          {"epsilon", "max_iterations", "marginal_tolerance"}
    data_seed         seed for dataset factories (gen-data)
    count_train, count_test
    tfim              {"n_sites", "g_lo", "g_hi", "count"}  (tfim task)
    entropy_targets   list of targets in [0, 1]              (entropy task)
    eval_batch        evaluation noise batch size            (entropy task)
    p_list, sweep_seeds                                      (sweep task)
    train_data, test_data, out_dir                           file locations

CSV schemas: per-epoch logs are ``epoch,loss,aux_metric,wall_ms`` (loss is
the transport objective or the entropy objective; aux_metric is the task
metric; wall_ms is wall time and is the one non-reproducible column), and
the sweep summary is ``P,wasserstein,success_probability``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys

TASKS = ("ring_y", "ring_conditional", "tfim", "entropy_series", "sweep_p")

_COMMON_DEFAULTS = {
    "epochs": 1000,
    "lr": 0.05,
    "seed": 7,
    "data_seed": 1,
    "batch_generated": None,
    "sinkhorn": {"epsilon": 0.01, "max_iterations": 500, "marginal_tolerance": 1e-6},
    "out_dir": ".",
    "train_data": "train.json",
    "test_data": "test.json",
}

_TASK_DEFAULTS = {
    "ring_y": {
        "n_qubits": 1,
        "reps": 20,
        "noise": {"kind": "uniform", "lo": -0.1, "hi": 0.1},
        "count_train": 100,
        "count_test": 1000,
    },
    "ring_conditional": {
        "n_qubits": 1,
        "reps": 60,
        "noise": {
            "kind": "two_interval",
            "lo": -0.1,
            "hi": -0.05,
            "lo2": 0.05,
            "hi2": 0.1,
        },
        "count_train": 100,
        "count_test": 1000,
    },
    "tfim": {
        "n_qubits": 10,
        "reps": 20,
        "noise": {"kind": "uniform", "lo": -0.01, "hi": 0.01},
        "tfim": {"n_sites": 10, "g_lo": 1.3, "g_hi": 1.5, "count": 100},
        "count_test": 100,
    },
    "entropy_series": {
        "n_qubits": 2,
        "reps": 6,
        "noise": {"kind": "uniform", "lo": -0.1, "hi": 0.1},
        "entropy_targets": [round(0.1 * k, 1) for k in range(11)],
        "batch_generated": 32,
        "eval_batch": 200,
    },
    "sweep_p": {
        "n_qubits": 1,
        "reps": 20,
        "noise": {"kind": "uniform", "lo": -0.1, "hi": 0.1},
        "count_train": 100,
        "count_test": 1000,
        "p_list": [4 * t for t in range(1, 21)],
        "sweep_seeds": [7, 8, 9],
    },
}


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        user = json.load(fh)
    task = user.get("task")
    if task not in TASKS:
        raise ValueError(f"config task must be one of {TASKS}, got {task!r}")
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_TASK_DEFAULTS[task])
    merged.update(user)
    # sinkhorn settings merge key-by-key (common, then task, then user);
    # noise and tfim blocks are replaced wholesale since their fields
    # belong together
    sink = dict(_COMMON_DEFAULTS["sinkhorn"])
    sink.update(_TASK_DEFAULTS[task].get("sinkhorn", {}))
    sink.update(user.get("sinkhorn", {}))
    merged["sinkhorn"] = sink
    return merged


def _noise_spec(conf: dict, seed: int = 0):
    from .datasets import NoiseSpec

    noise = conf["noise"]
    return NoiseSpec(seed=seed, **noise)


def _sinkhorn_config(conf: dict):
    from .transport import SinkhornConfig

    return SinkhornConfig(**conf["sinkhorn"])


def _generator_config(conf: dict, reps: int | None = None):
    from .generator import GeneratorConfig

    return GeneratorConfig(n_qubits=conf["n_qubits"], reps=reps or conf["reps"])


def _train_config(conf: dict):
    from .training import TrainConfig

    return TrainConfig(
        epochs=conf["epochs"],
        lr=conf["lr"],
        seed=conf["seed"],
        batch_generated=conf["batch_generated"],
        sinkhorn=_sinkhorn_config(conf),
        noise=_noise_spec(conf),
    )


def _write_epoch_csv(path, records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "aux_metric", "wall_ms"])
        for rec in records:
            writer.writerow([rec.epoch, repr(rec.loss), repr(rec.aux_metric), rec.wall_ms])


def _out_path(conf: dict, out_dir: str | None, name: str) -> str:
    directory = out_dir or conf["out_dir"]
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def cmd_gen_data(conf: dict, out_dir: str | None) -> int:
    from . import datasets

    task = conf["task"]
    seed = conf["data_seed"]
    if task in ("ring_y", "sweep_p"):
        train = datasets.ring_y_ensemble(conf["count_train"], seed=seed)
        test = datasets.ring_y_ensemble(conf["count_test"], seed=seed + 1)
        datasets.save_ensemble(_out_path(conf, out_dir, "train.json"), train)
        datasets.save_ensemble(_out_path(conf, out_dir, "test.json"), test)
        print(f"wrote {conf['count_train']} train / {conf['count_test']} test ring states (seed {seed})")
    elif task == "ring_conditional":
        for label, factory in (("cat1", datasets.ring_y_ensemble), ("cat2", datasets.ring_z_ensemble)):
            offset = 0 if label == "cat1" else 2
            train = factory(conf["count_train"], seed=seed + offset)
            test = factory(conf["count_test"], seed=seed + offset + 1)
            datasets.save_ensemble(_out_path(conf, out_dir, f"train_{label}.json"), train)
            datasets.save_ensemble(_out_path(conf, out_dir, f"test_{label}.json"), test)
        print(f"wrote two categories x {conf['count_train']} train / {conf['count_test']} test (seed {seed})")
    elif task == "tfim":
        tfim = conf["tfim"]
        train, g_train = datasets.tfim_ground_states(
            datasets.TfimConfig(seed=seed, **tfim)
        )
        test, g_test = datasets.tfim_ground_states(
            datasets.TfimConfig(seed=seed + 1, **{**tfim, "count": conf["count_test"]})
        )
        datasets.save_ensemble(_out_path(conf, out_dir, "train.json"), train)
        datasets.save_ensemble(_out_path(conf, out_dir, "test.json"), test)
        with open(_out_path(conf, out_dir, "g_values.json"), "w", encoding="utf-8") as fh:
            json.dump({"train": list(g_train), "test": list(g_test)}, fh)
            fh.write("\n")
        print(f"wrote {tfim['count']} train / {conf['count_test']} test TFIM ground states (seed {seed})")
    else:
        raise ValueError(f"task {task!r} has no dataset to generate")
    return 0


def _task_aux_fn(conf: dict):
    from .metrics import mean_squared_pauli

    task = conf["task"]
    if task in ("ring_y", "sweep_p"):
        return lambda states: mean_squared_pauli(states, "Y").value
    if task == "ring_conditional":
        return lambda parts: 0.5 * (
            mean_squared_pauli(parts[0], "Y").value + mean_squared_pauli(parts[1], "Z").value
        )
    return None  # tfim sets its aux metric up against the train set in cmd_train


def cmd_train(conf: dict, out_dir: str | None) -> int:
    from . import datasets, training
    from .metrics import distribution_distance_1d, magnetization

    task = conf["task"]
    generator = _generator_config(conf)
    tconf = _train_config(conf)

    if task in ("ring_y", "tfim", "sweep_p"):
        train_set = datasets.load_ensemble(conf["train_data"])
        aux_fn = _task_aux_fn(conf)
        if task == "tfim":
            train_mag = magnetization(train_set).details
            aux_fn = lambda states: distribution_distance_1d(
                magnetization(states).details, train_mag
            )
        theta, records = training.train_ensemble(generator, train_set, tconf, aux_fn=aux_fn)
        datasets.save_theta(_out_path(conf, out_dir, "theta.json"), theta, generator)
        _write_epoch_csv(_out_path(conf, out_dir, "epochs.csv"), records)
        print(f"trained {task}: {len(records)} epochs, final loss {records[-1].loss:.6f}")
    elif task == "ring_conditional":
        sets = [
            datasets.load_ensemble(conf.get("train_data_cat1", "train_cat1.json")),
            datasets.load_ensemble(conf.get("train_data_cat2", "train_cat2.json")),
        ]
        spec = _noise_spec(conf)
        intervals = [spec.interval(1), spec.interval(2)]
        theta, records = training.train_conditional(
            generator, sets, intervals, tconf, aux_fn=_task_aux_fn(conf)
        )
        datasets.save_theta(_out_path(conf, out_dir, "theta.json"), theta, generator)
        _write_epoch_csv(_out_path(conf, out_dir, "epochs.csv"), records)
        print(f"trained conditional: {len(records)} epochs, final loss {records[-1].loss:.6f}")
    elif task == "entropy_series":
        results = training.train_entropy_series(
            generator, conf["entropy_targets"], tconf, eval_batch=conf["eval_batch"]
        )
        summary = []
        for res in results:
            tag = f"{res.s_target:.1f}"
            datasets.save_theta(
                _out_path(conf, out_dir, f"theta_target_{tag}.json"), res.theta, generator
            )
            _write_epoch_csv(_out_path(conf, out_dir, f"epochs_target_{tag}.csv"), res.records)
            summary.append(
                {
                    "s_target": res.s_target,
                    "mean_entropy": res.mean_entropy,
                    "mean_abs_dev": res.mean_abs_dev,
                    "max_abs_dev": res.max_abs_dev,
                }
            )
        with open(_out_path(conf, out_dir, "entropy_series.json"), "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
        worst = max(s["mean_abs_dev"] for s in summary)
        print(f"trained {len(summary)} entropy targets, worst mean |S - target| = {worst:.4f}")
    else:
        raise ValueError(f"unknown training task {task!r}")
    return 0


def cmd_generate(conf: dict, out_dir: str | None, theta_path: str, count: int, category: int | None, out_file: str | None) -> int:
    from . import datasets
    from .generator import generate_ensemble

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    theta, generator = datasets.load_theta(theta_path)
    spec = _noise_spec(conf, seed=conf["seed"])
    if category is not None and spec.kind != "two_interval":
        raise ValueError("--category needs a two_interval noise spec")
    noises = datasets.sample_noise(spec, count, category=category)
    states = generate_ensemble(generator, theta, noises)
    assert states.shape[0] == count  # one circuit execution per request, no rejection
    path = out_file or _out_path(conf, out_dir, "generated.json")
    datasets.save_ensemble(path, states)
    print(f"generated {count} states -> {path}")
    return 0


def cmd_eval(conf: dict, out_dir: str | None, generated_path: str, test_path: str) -> int:
    from . import datasets
    from .metrics import (
        distribution_distance_1d,
        evaluate_generation,
        magnetization,
        mean_squared_pauli,
    )
    from .statevec import n_qubits_of

    generated = datasets.load_ensemble(generated_path)
    test = datasets.load_ensemble(test_path)
    if generated.shape[1] != test.shape[1]:
        raise ValueError("generated and test ensembles have different qubit counts")

    single = n_qubits_of(generated) == 1
    wanted = conf.get("metrics") or (
        ["wasserstein", "y2", "z2"] if single else ["wasserstein", "magnetization_distance"]
    )
    rows = []
    for name in wanted:
        if name == "wasserstein":
            rep = evaluate_generation(generated, test, _sinkhorn_config(conf))
            rows.append((rep.name, rep.value, rep.sample_count))
        elif name in ("y2", "z2"):
            rep = mean_squared_pauli(generated, name[0].upper())
            rows.append((rep.name, rep.value, rep.sample_count))
        elif name == "magnetization_distance":
            dist = distribution_distance_1d(
                magnetization(generated).details, magnetization(test).details
            )
            rows.append(("magnetization_distance", dist, generated.shape[0]))
        else:
            raise ValueError(f"unknown metric {name!r}")

    # basenames keep the report byte-reproducible across output locations
    report = {
        "generated": os.path.basename(generated_path),
        "test": os.path.basename(test_path),
        "generated_count": int(generated.shape[0]),
        "test_count": int(test.shape[0]),
        "metrics": {name: value for name, value, _ in rows},
    }
    json_path = _out_path(conf, out_dir, "eval_report.json")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    with open(_out_path(conf, out_dir, "eval_report.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "value", "sample_count"])
        for name, value, count in rows:
            writer.writerow([name, repr(value), count])
    for name, value, _ in rows:
        print(f"{name} = {value:.6f}")
    return 0


def cmd_sweep_p(conf: dict, out_dir: str | None) -> int:
    import numpy as np

    from . import datasets, training
    from .generator import generate_ensemble
    from .metrics import evaluate_generation

    train_set = datasets.load_ensemble(conf["train_data"])
    test_set = datasets.load_ensemble(conf["test_data"])
    p_list = conf["p_list"]
    if not p_list:
        raise ValueError("p_list must be nonempty")
    seeds = conf["sweep_seeds"]
    aux_fn = _task_aux_fn(conf)
    base = _train_config(conf)

    rows = []
    for reps in p_list:
        generator = _generator_config(conf, reps=reps)
        values = []
        for seed in seeds:
            tconf = dataclasses.replace(base, seed=seed)
            theta, _ = training.train_ensemble(generator, train_set, tconf, aux_fn=aux_fn)
            noises = datasets.sample_noise(
                _noise_spec(conf, seed=seed + 10_000), test_set.shape[0]
            )
            generated = generate_ensemble(generator, theta, noises)
            values.append(evaluate_generation(generated, test_set, base.sinkhorn).value)
        rows.append((reps, float(np.mean(values)), 1.0))
        print(f"P={reps}: W={rows[-1][1]:.5f} over {len(seeds)} seeds (success probability 1.0)")

    with open(_out_path(conf, out_dir, "sweep.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["P", "wasserstein", "success_probability"])
        for reps, value, prob in rows:
            writer.writerow([reps, repr(value), repr(prob)])
    return 0


def cmd_gradcheck(tolerance: float | None, flip_sign: bool) -> int:
    import numpy as np

    from .generator import GeneratorConfig, random_theta
    from .gradients import (
        ensemble_loss_gradient,
        entropy_loss_gradient,
        finite_difference_check,
    )
    from .transport import SinkhornConfig

    rng = np.random.default_rng(2024)
    checks = []

    def wrap(fn):
        if not flip_sign:
            return fn
        return lambda th: (fn(th)[0], -fn(th)[1])  # test hook: corrupt the gradient

    quad = wrap(lambda th: (float(np.sum(th**2)), 2.0 * th))
    checks.append(("quadratic", finite_difference_check(quad, rng.normal(size=(2, 1, 3)), h=1e-5, tolerance=tolerance if tolerance is not None else 1e-9)))

    config = GeneratorConfig(n_qubits=1, reps=2)
    targets = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    noises = rng.uniform(-0.3, 0.3, 4)
    sconf = SinkhornConfig(epsilon=0.05, max_iterations=50_000, marginal_tolerance=1e-9)

    def ensemble_reg_loss(th):
        from .generator import forward_states
        from .transport import cost_matrix, regularized_value, sinkhorn, uniform_marginals

        loss, grad = ensemble_loss_gradient(config, th, noises, targets, sconf)
        cost = cost_matrix(forward_states(config, th, noises), targets)
        plan = sinkhorn(cost, *uniform_marginals(4, 4), sconf)
        return regularized_value(cost, plan, sconf.epsilon), grad

    checks.append(
        (
            "ensemble transport loss",
            finite_difference_check(
                wrap(ensemble_reg_loss),
                random_theta(config, rng),
                h=1e-4,
                tolerance=tolerance if tolerance is not None else 1e-3,
            ),
        )
    )

    config2 = GeneratorConfig(n_qubits=2, reps=3)
    noises2 = rng.uniform(-0.1, 0.1, 8)
    entropy_loss = wrap(lambda th: entropy_loss_gradient(config2, th, noises2, 0.6))
    checks.append(
        (
            "entropy loss",
            finite_difference_check(
                entropy_loss,
                random_theta(config2, rng),
                h=1e-5,
                tolerance=tolerance if tolerance is not None else 1e-4,
            ),
        )
    )

    ok = True
    for name, report in checks:
        status = "pass" if report.passed else "FAIL"
        print(f"{status}  {name}: max rel error {report.max_rel_error:.3e}")
        ok = ok and report.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reupgen",
        description="Train and evaluate the noise-reuploading quantum state generator.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="BLAS thread cap (default 1); needs the optional threadpoolctl package, "
        "without it the flag is ignored with a warning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")

    add_common(sub.add_parser("gen-data", help="write dataset files"))
    add_common(sub.add_parser("train", help="train a model, write theta + epoch CSV"))

    p_gen = sub.add_parser("generate", help="sample noise and write generated states")
    add_common(p_gen)
    p_gen.add_argument("--theta", required=True, help="trained angle file")
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--category", type=int, default=None, choices=(1, 2))
    p_gen.add_argument("--out-file", default=None, help="output ensemble path")

    p_eval = sub.add_parser("eval", help="compare a generated file against a test file")
    add_common(p_eval)
    p_eval.add_argument("--generated", required=True)
    p_eval.add_argument("--test", required=True)

    add_common(sub.add_parser("sweep-p", help="train one model per repetition count"))

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_grad.add_argument("--tolerance", type=float, default=None)
    p_grad.add_argument("--test-hook-flip-gradient-sign", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        threadpool_limits = None
        if args.threads is not None:
            print(
                "warning: --threads ignored: threadpoolctl is not installed, "
                "so the BLAS thread count cannot be capped",
                file=sys.stderr,
            )

    def thread_cap():
        if threadpool_limits is None:
            return contextlib.nullcontext()
        return threadpool_limits(limits=1 if args.threads is None else args.threads)

    try:
        if args.command == "gradcheck":
            with thread_cap():
                return cmd_gradcheck(args.tolerance, args.test_hook_flip_gradient_sign)

        conf = load_config(args.config)
        if args.seed is not None:
            conf["seed"] = args.seed

        def run():
            if args.command == "gen-data":
                return cmd_gen_data(conf, args.out)
            if args.command == "train":
                return cmd_train(conf, args.out)
            if args.command == "generate":
                return cmd_generate(conf, args.out, args.theta, args.count, args.category, args.out_file)
            if args.command == "eval":
                return cmd_eval(conf, args.out, args.generated, args.test)
            if args.command == "sweep-p":
                return cmd_sweep_p(conf, args.out)
            raise ValueError(f"unknown command {args.command!r}")

        with thread_cap():
            return run()
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 4
    except Exception as err:
        from .training import TrainingDiverged

        if isinstance(err, TrainingDiverged):
            print(f"training diverged: {err}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":
    sys.exit(main())
