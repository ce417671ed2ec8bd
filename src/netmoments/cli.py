"""Command-line front end: dataset generation, experiment execution, parameter
sweeps, spreading-time studies, and exact-oracle queries.

Each setting is declared once, in `_SETTINGS`: its type (which coerces flags,
config-file values and sweep values alike), default, help and choices.  Its
flag is `--key` with `-` for `_`, except `--trunc-L`.  `_COMMANDS` gives each
subcommand its handler and the keys it reads and echoes; `build_parser` makes
the flags from these two tables.  A `--config` file may set any key.

Every subcommand echoes its fully resolved configuration, the seed included;
re-running from that echo reproduces outputs byte for byte.  run, sweep and
spreading-time also write the echo as effective.cfg into their --out
directory.
Exit codes: 0 success, 2 configuration error, 3 infeasible budget,
4 non-convergence beyond tolerance.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import protocols, simulator
from .estimators import exact_fk, Histogram, oracle_record
from .protocols import SpreadConfig, empirical_quantile, measure_spreading
from .simulator import (
    CapacityError,
    DataModel,
    ExperimentConfig,
    default_num_buckets,
    read_dataset_file,
    run_experiment,
    solve_budget,
    write_dataset_file,
)
from .sketch_core import QuantConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NONCONVERGED = 4


class _Setting(NamedTuple):
    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None


_SETTINGS = {
    "nodes": _Setting(str, None, "node count N (comma list for spreading-time)"),
    "alphabet": _Setting(int, None, "alphabet size M (must satisfy M < N)"),
    "k": _Setting(int, 2, "moment order (>= 2)"),
    "epsilon": _Setting(float, 0.1, "target absolute error on F_k / N^k"),
    "delta": _Setting(float, 0.1, "target failure probability"),
    "r1": _Setting(int, None, "outer map count (overrides the solver)"),
    "r2": _Setting(int, None, "replica count (overrides the solver)"),
    "quant_bits": _Setting(int, None, "quantizer bits"),
    "trunc_l": _Setting(float, None, "truncation length L"),
    "network": _Setting(str, "complete", "complete | graph:PATH | rgg-connected | "
                        "rgg-percolating (its giant component)"),
    "radius_c": _Setting(float, None, "radius-rule constant"),
    "protocol": _Setting(str, protocols.GOSSIP, None, protocols.PROTOCOLS),
    "p_n": _Setting(float, None, "Aloha transmit probability"),
    "data": _Setting(str, "zipf:1.2", "pointmass | uniform | zipf:THETA | file:PATH"),
    "buckets": _Setting(str, "auto", "bucket count B, or 'auto'"),
    "s1": _Setting(int, simulator.DEFAULT_S1, "bucket map count"),
    "trials": _Setting(int, 1),
    "seed": _Setting(int, None, "master seed; random (and printed) if omitted"),
    "jobs": _Setting(int, 1, "parallel trial workers"),
    "format": _Setting(str, "both", None, ("json", "csv", "both")),
    "beta": _Setting(float, 0.1, "spreading failure target"),
    "max_steps": _Setting(int, None, "spreading step cap"),
    "exchange_mode": _Setting(str, protocols.EXCHANGE, None, (protocols.EXCHANGE, protocols.PUSH)),
    "out": _Setting(str, None, "output directory (file for gen-data)"),
    "param": _Setting(str, None, "setting to sweep, e.g. nodes"),
    "values": _Setting(str, None, "comma-separated values"),
    "file": _Setting(str, None, "dataset file"),
    "json_out": _Setting(str, None, "also write a JSON record"),
}


def _flag(key: str) -> str:
    return "--trunc-L" if key == "trunc_l" else "--" + key.replace("_", "-")


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _SETTINGS[key].type(raw.strip())
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    settings = {key: setting.default for key, setting in _SETTINGS.items()}
    if args.config:
        settings.update(_parse_config_file(args.config))
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if settings.get("seed") is None:
        settings["seed"] = secrets.randbits(32)
    return settings


def _echo_config(settings: dict, keys, out_dir: Path | None = None) -> None:
    """Print the settings named by keys; with out_dir, make it and write them to effective.cfg."""
    lines = [f"{key} = {settings[key]}" for key in keys if settings.get(key) is not None]
    print("# effective-config")
    for line in lines:
        print(line)
    print("# end-config")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "effective.cfg").write_text("\n".join(lines) + "\n")


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *(",".join(str(x) for x in row) for row in rows)]) + "\n")


def _spread_config(settings: dict) -> SpreadConfig:
    return SpreadConfig(
        beta=settings["beta"],
        max_steps=settings.get("max_steps"),
        exchange_mode=settings["exchange_mode"],
    )


def _experiment_config(settings: dict) -> ExperimentConfig:
    n = int(settings["nodes"])
    m = settings.get("alphabet")
    if m is None:
        raise ValueError("--alphabet is required")
    if settings["jobs"] < 1:
        raise ValueError(f"--jobs must be >= 1, got {settings['jobs']}")
    k = settings["k"]
    epsilon, delta = settings["epsilon"], settings["delta"]
    budget, quant = solve_budget(epsilon, delta, n, r1=settings.get("r1"), r2=settings.get("r2"))
    trunc_l, quant_bits = settings.get("trunc_l"), settings.get("quant_bits")
    quant = QuantConfig(
        truncation_L=quant.truncation_L if trunc_l is None else trunc_l,
        quant_bits=quant.quant_bits if quant_bits is None else quant_bits,
        target_mu=quant.target_mu,
    )
    buckets = settings["buckets"]
    num_buckets = (
        default_num_buckets(m, k) if buckets == "auto" else int(buckets)
    )
    return ExperimentConfig(
        n_nodes=n,
        alphabet_size=m,
        k=k,
        data=DataModel.parse(settings["data"]),
        budget=budget,
        quant=quant,
        network=settings["network"],
        protocol=settings["protocol"],
        num_buckets=num_buckets,
        # k = 2 runs one phase, so s1 is 1 there, but a value below 1 still fails
        s1=settings["s1"] if k >= 3 else min(settings["s1"], 1),
        trials=settings["trials"],
        master_seed=settings["seed"],
        epsilon=epsilon,
        delta=delta,
        radius_c=settings.get("radius_c"),
        p_n=settings.get("p_n"),
        spread=_spread_config(settings),
    )


def _write_report(report, out_dir: Path, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        (out_dir / "report.json").write_text(report.to_json() + "\n")
    if fmt in ("csv", "both"):
        (out_dir / "trials.csv").write_text(report.csv_text())


def cmd_gen_data(settings: dict, keys) -> int:
    n = int(settings["nodes"])
    m = settings.get("alphabet")
    if m is None or settings.get("out") is None:
        raise ValueError("gen-data needs --alphabet and --out")
    if m >= n:
        raise ValueError(f"alphabet M={m} must be smaller than N={n}")
    model = DataModel.parse(settings["data"])
    _echo_config(settings, keys)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(settings["seed"], 0)))
    dataset = model.generate(n, m, rng)
    write_dataset_file(dataset, settings["out"])
    print(f"wrote {settings['out']} (N={n}, M={m}, model={model.spec_string()})")
    return EXIT_OK


def _summarize(report, cfg: ExperimentConfig) -> None:
    agg = report.aggregates()
    print(
        f"trials: {agg['trials_measured']} measured, "
        f"{agg['trials_rejected']} rejected, {agg['non_converged']} non-converged"
    )
    print(f"phases: {cfg.phases}")
    print(f"message bits per transmission: {cfg.message_bits}")
    print(f"median steps: {agg['median_steps']:.0f}  total bits: {agg['total_bits']}")
    if report.results:
        est = np.mean([r.estimate_scaled for r in report.results])
        exact = np.mean([r.exact_scaled for r in report.results])
        print(f"mean estimate_scaled: {est:.6g}  mean exact_scaled: {exact:.6g}")
        print(f"mean |error|: {agg['mean_abs_error']:.6g}  max |error|: {agg['max_abs_error']:.6g}")
    print(
        f"success rate: {report.empirical_success_rate:.3f} "
        f"(target >= {1 - cfg.delta:.3f} at epsilon = {cfg.epsilon})"
    )


def cmd_run(settings: dict, keys) -> int:
    if settings.get("nodes") is None:
        raise ValueError("run needs --nodes")
    cfg = _experiment_config(settings)
    settings["r1"], settings["r2"] = cfg.budget.r1, cfg.budget.r2
    settings["quant_bits"] = cfg.quant.quant_bits
    settings["trunc_l"] = cfg.quant.truncation_L
    settings["radius_c"] = cfg.radius_c
    settings["p_n"] = cfg.p_n
    settings["buckets"] = cfg.num_buckets
    out_dir = Path(settings["out"]) if settings.get("out") else None
    _echo_config(settings, keys, out_dir)
    report = run_experiment(cfg, jobs=settings["jobs"])
    if out_dir is not None:
        _write_report(report, out_dir, settings["format"])
    _summarize(report, cfg)
    measured = max(1, len(report.results))
    if report.non_converged / measured > cfg.spread.beta:
        print("non-convergence beyond tolerance", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_sweep(settings: dict, keys) -> int:
    param = settings.get("param")
    values = settings.get("values")
    if not param or not values:
        raise ValueError("sweep needs --param and --values")
    # a flag's spelling names its key: trunc-L is trunc_l
    param = settings["param"] = {_flag(key)[2:]: key for key in _RUN_KEYS}.get(param, param)
    if param not in _RUN_KEYS:
        raise ValueError(f"unknown sweep parameter {param!r}: not a run setting")
    out_root = Path(settings.get("out") or "sweep-out")
    points = []
    for raw in values.split(","):
        point = dict(settings)
        point[param] = _SETTINGS[param].type(raw.strip())
        points.append((raw.strip(), _experiment_config(point)))
    _echo_config(settings, keys, out_root)
    rows = []
    for raw, cfg in points:
        report = run_experiment(cfg, jobs=settings["jobs"])
        _write_report(report, out_root / f"{param}={raw}", settings["format"])
        agg = report.aggregates()
        rows.append(
            (
                raw,
                report.empirical_success_rate,
                agg["mean_abs_error"],
                agg["median_steps"],
                agg["total_bits"],
            )
        )
        print(f"{param}={raw}: success {report.empirical_success_rate:.3f}")
    _write_csv(out_root / "summary.csv",
               f"{param},success_rate,mean_abs_error,median_steps,total_bits", rows)
    print(f"wrote {out_root / 'summary.csv'}")
    return EXIT_OK


def cmd_spreading_time(settings: dict, keys) -> int:
    if settings.get("nodes") is None:
        raise ValueError("spreading-time needs --nodes (comma list allowed)")
    sizes = [int(x) for x in str(settings["nodes"]).split(",")]
    trials = settings["trials"]
    kind, graph_path = simulator.parse_network(settings["network"])
    simulator.check_network_protocol(kind, settings["protocol"])
    if settings.get("radius_c") is None:
        settings["radius_c"] = simulator.default_radius_c(kind)
    given_p_n = settings.get("p_n")
    p_ns = [
        protocols.default_p_n(n, percolating=kind == "rgg-percolating")
        if given_p_n is None
        else given_p_n
        for n in sizes
    ]
    if len(set(p_ns)) == 1:
        settings["p_n"] = p_ns[0]  # one value for every size, so the echo can pin it
    cfg = _spread_config(settings)
    out_dir = Path(settings["out"]) if settings.get("out") else None
    _echo_config(settings, keys, out_dir)
    rows = []
    for idx, (n, p_n) in enumerate(zip(sizes, p_ns)):
        # one generator per size draws the graph, then every trial on it
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(settings["seed"], idx)))
        try:
            topo, ids, _ = simulator.build_topology(kind, n, settings["radius_c"], graph_path, rng)
        except simulator.TrialRejected as exc:
            raise ValueError(f"N={n}: {exc}, under half") from None
        try:
            m = measure_spreading(topo, settings["protocol"], cfg, trials, rng, p_n=p_n)
        except RuntimeError as exc:  # no trial finished within the step cap
            print(f"N={n}: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGED
        median = empirical_quantile(m.steps, 0.5)
        mean = float(np.mean(m.steps))
        rows.append((n, m.quantile_steps, median, mean, m.completed_trials))
        giant = f" giant={len(ids)}" if len(ids) != n else ""
        print(
            f"N={n}:{giant} quantile(1-beta)={m.quantile_steps} median={median} "
            f"mean={mean:.1f} completed={m.completed_trials}/{trials}"
        )
    if out_dir is not None:
        _write_csv(out_dir / "spreading_time.csv",
                   "n_nodes,quantile_steps,median_steps,mean_steps,completed_trials", rows)
        print(f"wrote {out_dir / 'spreading_time.csv'}")
    return EXIT_OK


def cmd_oracle(settings: dict, keys) -> int:
    path = settings.get("file")
    if not path:
        raise ValueError("oracle needs --file DATASET")
    dataset = read_dataset_file(path)
    k = settings["k"]
    _echo_config(settings, keys)
    exact = exact_fk(dataset, k)
    n = dataset.n_nodes
    scaled = exact / float(n) ** k if n else 0.0
    print(f"N = {n}  M = {dataset.alphabet_size}")
    print(f"F_{k} = {exact}")
    print(f"F_{k} / N^{k} = {scaled:.9g}")
    counts = Histogram.from_dataset(dataset).counts
    order = np.argsort(counts)[::-1][:5]
    tops = ", ".join(f"{int(v) + 1}:{int(counts[v])}" for v in order if counts[v] > 0)
    print(f"top frequencies: {tops}")
    if settings.get("json_out"):
        import json

        Path(settings["json_out"]).write_text(
            json.dumps(oracle_record(dataset, k), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {settings['json_out']}")
    return EXIT_OK


class _Command(NamedTuple):
    handler: Callable[[dict, tuple], int]  # called with the resolved settings and keys
    help: str
    keys: tuple  # settings read and echoed, in echo order
    unechoed: tuple = ("out",)  # settings read but not echoed


_RUN_KEYS = (
    "nodes alphabet k epsilon delta r1 r2 quant_bits trunc_l network radius_c "
    "protocol p_n data buckets s1 trials seed jobs format beta max_steps exchange_mode"
).split()

_COMMANDS = {
    "gen-data": _Command(
        cmd_gen_data, "write a dataset file", ("nodes", "alphabet", "data", "seed", "out"), ()
    ),
    "run": _Command(cmd_run, "run a moment-estimation experiment", _RUN_KEYS),
    "sweep": _Command(
        cmd_sweep, "run an experiment per value of one parameter", (*_RUN_KEYS, "param", "values")
    ),
    "spreading-time": _Command(
        cmd_spreading_time,
        "measure empirical spreading time vs N",
        "nodes network protocol p_n radius_c trials beta max_steps exchange_mode seed".split(),
    ),
    "oracle": _Command(cmd_oracle, "exact moments of a dataset file", ("file", "k", "json_out"), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmoments",
        description="Estimate scaled frequency moments of data distributed "
        "over gossip and slotted-Aloha networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="key = value config file; flags override it")
        for key in (*command.keys, *command.unechoed):
            setting = _SETTINGS[key]
            p.add_argument(
                _flag(key), dest=key, type=setting.type, help=setting.help, choices=setting.choices
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        return command.handler(_resolve(args), command.keys)
    except CapacityError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
