"""Command-line front end: dataset generation, experiment execution, parameter
sweeps, spreading-time studies, and exact-oracle queries.

Each setting is declared once, in `_SETTINGS`: its type and choices (which
check flags, config-file values and sweep values alike), default and help.
Its flag is `--key` with `-` for `_`, except `--trunc-L`.  `_COMMANDS` gives
each subcommand its handler and the keys it reads and echoes; `build_parser`
makes the flags from these two tables.  A `--config` file may set any key
its subcommand reads, named as the key or as its flag is spelled.

Every subcommand echoes its configuration, the seed included, before any
other output; re-running from that echo reproduces outputs byte for byte.
Before the echo, run and each sweep point build trial 0's dataset and
network (every trial's, when read from a file: each file is read once a
run), and gen-data its dataset, so an input they cannot use fails first.
An output path fails first too: each command makes its --out directory, or
writes its output file (gen-data's --out, oracle's --json-out), before the
echo.
A setting resolved per run (the budget, quantizer, radius_c, p_n, buckets
and s1) is echoed at its resolved value when all the command's runs share
it, and as given otherwise; r1 and r2 count as one setting, the budget.
Where it decides nothing (radius_c off the RGG kinds, p_n under gossip) a
setting resolves to None and is neither echoed nor in report.json.  Gossip
has no setting of its own: it is always the exchange.  beta is read only
by run and spreading-time, never by a run itself.
run, sweep and spreading-time also write the echo as effective.cfg into
their --out directory.
Exit codes: 0 success, 2 configuration error, 3 infeasible budget,
4 non-convergence beyond tolerance, or a run or sweep point that measured
no trial (a sweep still runs every point and writes summary.csv).
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import protocols, simulator
from .estimators import oracle_record
from .protocols import default_max_steps, run_spreading
from .simulator import (
    CapacityError,
    ExperimentConfig,
    read_dataset_file,
    run_experiment,
    solve_budget,
    write_dataset_file,
)

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
    "out": _Setting(str, None, "output directory (file for gen-data)"),
    "param": _Setting(str, None, "setting to sweep, e.g. nodes"),
    "values": _Setting(str, None, "comma-separated values"),
    "file": _Setting(str, None, "dataset file"),
    "json_out": _Setting(str, None, "also write a JSON record"),
}


def _flag(key: str) -> str:
    return "--trunc-L" if key == "trunc_l" else "--" + key.replace("_", "-")


# a config-file key or sweep --param may be a setting's key or its flag's spelling
_KEYS = {**{_flag(key)[2:]: key for key in _SETTINGS}, **{key: key for key in _SETTINGS}}


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    return seed


def _coerce(key: str, raw: str):
    """raw as a value of setting key, checked against its choices as the flag
    is, and a seed checked as _resolve checks the flag's."""
    setting = _SETTINGS[key]
    value = setting.type(raw)
    if setting.choices is not None and value not in setting.choices:
        raise ValueError(f"{key} must be one of {', '.join(setting.choices)}, got {raw!r}")
    return _check_seed(value) if key == "seed" else value


def _parse_config_file(path: str, command: str) -> dict:
    """The settings a config file gives, each a key that command reads."""
    reads = (*_COMMANDS[command].keys, *_COMMANDS[command].unechoed)
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            name, _, raw = stripped.partition("=")
            name = name.strip()
            key = _KEYS.get(name)
            if key is None:
                raise ValueError(f"{path}:{lineno}: unknown config key {name!r}")
            if key not in reads:
                raise ValueError(f"{path}:{lineno}: {command} does not read config key {name!r}")
            values[key] = _coerce(key, raw.strip())
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    settings = {key: setting.default for key, setting in _SETTINGS.items()}
    if args.config:
        settings.update(_parse_config_file(args.config, args.command))
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if settings.get("seed") is None:
        settings["seed"] = secrets.randbits(32)
    _check_seed(settings["seed"])
    return settings


def _echo_config(settings: dict, keys, points=(), out_dir: Path | None = None) -> None:
    """Print the settings named by keys; with out_dir, first make it and write
    them to effective.cfg, so an unusable directory fails before any output.
    points are the resolved settings of the command's runs:
    a value they all share is echoed in place of the given one.  A tuple of
    keys is one entry, echoed as a unit: its values all, or none."""
    echoed = dict(settings)
    for key in {key for point in points for key in point}:
        shared = {point[key] for point in points}
        if len(shared) == 1:
            value = shared.pop()
            echoed.update(zip(key, value) if isinstance(key, tuple) else [(key, value)])
    lines = [f"{key} = {echoed[key]}" for key in keys if echoed.get(key) is not None]
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "effective.cfg").write_text("\n".join(lines) + "\n")
    print("# effective-config")
    for line in lines:
        print(line)
    print("# end-config")


def _write_csv(path: Path, header: str, rows) -> None:
    path.write_text("\n".join([header, *(",".join(str(x) for x in row) for row in rows)]) + "\n")


def _beta(settings: dict) -> float:
    """The spreading failure target of run and spreading-time, checked."""
    beta = settings["beta"]
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    return beta


def _experiment_config(settings: dict) -> ExperimentConfig:
    for key in ("nodes", "alphabet"):
        if settings.get(key) is None:
            raise ValueError(f"--{key} is required")
    n, m = int(settings["nodes"]), settings["alphabet"]
    if settings["jobs"] < 1:
        raise ValueError(f"--jobs must be >= 1, got {settings['jobs']}")
    epsilon, delta = settings["epsilon"], settings["delta"]
    budget, quant = solve_budget(
        epsilon, delta, n, settings.get("r1"), settings.get("r2"),
        settings.get("quant_bits"), settings.get("trunc_l"), settings["k"],
    )
    buckets = settings["buckets"]
    return ExperimentConfig(
        n_nodes=n,
        alphabet_size=m,
        k=settings["k"],
        data=settings["data"],
        budget=budget,
        quant=quant,
        network=settings["network"],
        protocol=settings["protocol"],
        num_buckets=None if buckets == "auto" else int(buckets),
        s1=settings["s1"],
        trials=settings["trials"],
        master_seed=settings["seed"],
        epsilon=epsilon,
        delta=delta,
        radius_c=settings.get("radius_c"),
        p_n=settings.get("p_n"),
        max_steps=settings.get("max_steps"),
    )


def _resolved(cfg: ExperimentConfig) -> dict:
    """The settings an experiment resolves, by their keys; r1 and r2 are one
    entry, as solve_budget takes them only together."""
    budget, quant = cfg.budget, cfg.quant
    return {("r1", "r2"): (budget.r1, budget.r2), "quant_bits": quant.quant_bits,
            "trunc_l": quant.truncation_L, "radius_c": cfg.radius_c, "p_n": cfg.p_n,
            "buckets": cfg.num_buckets, "s1": cfg.s1}


_TRIAL_COLUMNS = ("seed", "exact_scaled", "estimate_scaled", "abs_error", "steps", "bits",
                  "phases", "alpha")


def _write_report(report: dict, out_dir: Path, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if fmt in ("csv", "both"):
        rows = (
            [f"{t[c]:.12g}" if isinstance(t[c], float) else t[c] for c in _TRIAL_COLUMNS]
            for t in report["trials"]
        )
        _write_csv(out_dir / "trials.csv", ",".join(_TRIAL_COLUMNS), rows)


def cmd_gen_data(settings: dict, keys) -> int:
    if any(settings.get(key) is None for key in ("nodes", "alphabet", "out")):
        raise ValueError("gen-data needs --nodes, --alphabet and --out")
    n, m = int(settings["nodes"]), settings["alphabet"]
    if not (1 <= m < n):
        raise ValueError("alphabet size must satisfy 1 <= M < N")
    spec = settings["data"]
    simulator.check_data(spec)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(settings["seed"], 0)))
    dataset = simulator.generate_data(spec, n, m, rng)
    write_dataset_file(dataset, settings["out"])
    _echo_config(settings, keys)
    print(f"wrote {settings['out']} (N={n}, M={m}, model={spec})")
    return EXIT_OK


def _summarize(report: dict, cfg: ExperimentConfig) -> None:
    agg, trials = report["aggregates"], report["trials"]
    print(
        f"trials: {agg['trials_measured']} measured, "
        f"{agg['trials_rejected']} rejected, {agg['non_converged']} non-converged"
    )
    print(f"phases: {cfg.phases}")
    print(f"message bits per transmission: {cfg.message_bits}")
    print(f"median steps: {agg['median_steps']:.0f}  total bits: {agg['total_bits']}")
    if trials:
        est = np.mean([t["estimate_scaled"] for t in trials])
        exact = np.mean([t["exact_scaled"] for t in trials])
        print(f"mean estimate_scaled: {est:.6g}  mean exact_scaled: {exact:.6g}")
        print(f"mean |error|: {agg['mean_abs_error']:.6g}  max |error|: {agg['max_abs_error']:.6g}")
    print(
        f"success rate: {report['empirical_success_rate']:.3f} "
        f"(target >= {1 - cfg.delta:.3f} at epsilon = {cfg.epsilon})"
    )


def cmd_run(settings: dict, keys) -> int:
    beta = _beta(settings)
    cfg = _experiment_config(settings)
    first = simulator.trial_inputs(cfg, 0)
    out_dir = Path(settings["out"]) if settings.get("out") else None
    _echo_config(settings, keys, [_resolved(cfg)], out_dir)
    report = run_experiment(cfg, jobs=settings["jobs"], first=first)
    if out_dir is not None:
        _write_report(report, out_dir, settings["format"])
    _summarize(report, cfg)
    agg, measured = report["aggregates"], len(report["trials"])
    if not measured:
        print(f"no trial measured: all {agg['trials_rejected']} rejected", file=sys.stderr)
        return EXIT_NONCONVERGED
    if agg["non_converged"] / measured > beta:
        print("non-convergence beyond tolerance", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_sweep(settings: dict, keys) -> int:
    param = settings.get("param")
    values = settings.get("values")
    if not param or not values:
        raise ValueError("sweep needs --param and --values")
    param = settings["param"] = _KEYS.get(param, param)
    if param not in _EXPERIMENT_KEYS or param in ("jobs", "format"):
        raise ValueError(f"unknown sweep parameter {param!r}: not an experiment setting")
    out_root = Path(settings.get("out") or "sweep-out")
    points = []
    for raw in values.split(","):
        point = dict(settings)
        point[param] = _coerce(param, raw.strip())
        points.append((raw.strip(), _experiment_config(point)))
    firsts = [simulator.trial_inputs(cfg, 0) for _, cfg in points]
    _echo_config(settings, keys, [_resolved(cfg) for _, cfg in points], out_root)
    rows, unmeasured = [], []
    for (raw, cfg), first in zip(points, firsts):
        report = run_experiment(cfg, jobs=settings["jobs"], first=first)
        _write_report(report, out_root / f"{param}={raw}", settings["format"])
        agg, success = report["aggregates"], report["empirical_success_rate"]
        rows.append((raw, success, agg["mean_abs_error"], agg["median_steps"], agg["total_bits"]))
        print(f"{param}={raw}: success {success:.3f}")
        if not report["trials"]:
            unmeasured.append(f"{param}={raw}")
    _write_csv(out_root / "summary.csv",
               f"{param},success_rate,mean_abs_error,median_steps,total_bits", rows)
    print(f"wrote {out_root / 'summary.csv'}")
    if unmeasured:
        print(f"no trial measured at {', '.join(unmeasured)}: all rejected", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_spreading_time(settings: dict, keys) -> int:
    if settings.get("nodes") is None:
        raise ValueError("spreading-time needs --nodes (comma list allowed)")
    sizes = [int(x) for x in str(settings["nodes"]).split(",")]
    if min(sizes) < 1:
        raise ValueError(f"--nodes must be >= 1, got {min(sizes)}")
    trials, protocol = settings["trials"], settings["protocol"]
    spec, max_steps = settings["network"], settings.get("max_steps")
    networks = [
        simulator.resolve_network(spec, protocol, n, settings.get("radius_c"), settings.get("p_n"),
                                  max_steps)
        for n in sizes
    ]
    if trials < 1:
        raise ValueError("trials must be >= 1")
    beta = _beta(settings)
    # each size's seed draws its graph and spawns one seed per trial; every
    # graph is drawn before the echo, so one that cannot be drawn fails first
    graphs = []
    for idx, (n, (radius_c, _)) in enumerate(zip(sizes, networks)):
        size_ss = np.random.SeedSequence(entropy=(settings["seed"], idx))
        try:
            topo, ids = simulator.build_topology(spec, n, radius_c, np.random.default_rng(size_ss))
        except simulator.TrialRejected as exc:
            raise ValueError(f"N={n}: {exc}, under half") from None
        graphs.append((topo, ids, size_ss.spawn(trials)))
    out_dir = Path(settings["out"]) if settings.get("out") else None
    points = [dict(zip(("radius_c", "p_n"), network)) for network in networks]
    _echo_config(settings, keys, points, out_dir)
    rows = []
    for n, (_, p_n), (topo, ids, trial_seeds) in zip(sizes, networks, graphs):
        steps = []  # of the spreads that completed; one cut by the cap is left out
        for trial_ss in trial_seeds:
            rng = np.random.default_rng(trial_ss)
            report, _ = run_spreading(topo, protocol, rng, p_n, max_steps)
            if report.completed:
                steps.append(report.steps_to_full)
        if not steps:
            cap = max_steps or default_max_steps(protocol, len(ids))
            print(f"N={n}: no trial completed within the step cap ({cap})", file=sys.stderr)
            return EXIT_NONCONVERGED
        # the smallest count with at least a q-fraction of the trials at or below it
        quantile, median = np.quantile(steps, [1.0 - beta, 0.5], method="inverted_cdf")
        mean = float(np.mean(steps))
        rows.append((len(ids), quantile, median, mean, len(steps)))
        giant = f" giant={len(ids)}" if len(ids) != n else ""
        print(
            f"N={n}:{giant} quantile(1-beta)={quantile} median={median} "
            f"mean={mean:.1f} completed={len(steps)}/{trials}"
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
    record = oracle_record(dataset, k)  # a k it cannot scale by fails before the echo
    if settings.get("json_out"):
        Path(settings["json_out"]).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    _echo_config(settings, keys)
    print(f"N = {dataset.n_nodes}  M = {dataset.alphabet_size}")
    print(f"F_{k} = {record['exact']}")
    print(f"F_{k} / N^{k} = {record['exact_scaled']:.9g}")
    counts = dataset.counts
    order = np.argsort(counts)[::-1][:5]
    tops = ", ".join(f"{int(v) + 1}:{int(counts[v])}" for v in order if counts[v] > 0)
    print(f"top frequencies: {tops}")
    if settings.get("json_out"):
        print(f"wrote {settings['json_out']}")
    return EXIT_OK


class _Command(NamedTuple):
    handler: Callable[[dict, tuple], int]  # called with the resolved settings and keys
    help: str
    keys: tuple  # settings read and echoed, in echo order
    unechoed: tuple = ("out",)  # settings read but not echoed


# the settings of an ExperimentConfig, which sweep may vary, and jobs and
# format, which say how a run runs and writes, in echo order
_EXPERIMENT_KEYS = (
    "nodes alphabet k epsilon delta r1 r2 quant_bits trunc_l network radius_c "
    "protocol p_n data buckets s1 trials seed jobs format max_steps"
).split()

_COMMANDS = {
    "gen-data": _Command(
        cmd_gen_data, "write a dataset file", ("nodes", "alphabet", "data", "seed", "out"), ()
    ),
    "run": _Command(cmd_run, "run a moment-estimation experiment", (*_EXPERIMENT_KEYS, "beta")),
    "sweep": _Command(
        cmd_sweep, "run an experiment per value of one parameter",
        (*_EXPERIMENT_KEYS, "param", "values"),
    ),
    "spreading-time": _Command(
        cmd_spreading_time,
        "measure empirical spreading time vs N",
        "nodes network protocol p_n radius_c trials beta max_steps seed".split(),
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
