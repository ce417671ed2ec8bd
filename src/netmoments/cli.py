"""Command-line front end: dataset generation, experiment execution, parameter
sweeps, spreading-time studies, and exact-oracle queries.

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

# key -> coercion used for both flags and config-file values
_SCHEMA = {
    "nodes": str,  # single int or comma list (spreading-time)
    "alphabet": int,
    "k": int,
    "epsilon": float,
    "delta": float,
    "r1": int,
    "r2": int,
    "quant_bits": int,
    "trunc_l": float,
    "network": str,
    "radius_c": float,
    "protocol": str,
    "p_n": float,
    "data": str,
    "buckets": str,
    "s1": int,
    "trials": int,
    "seed": int,
    "jobs": int,
    "out": str,
    "format": str,
    "beta": float,
    "max_steps": int,
    "exchange_mode": str,
    "param": str,
    "values": str,
    "file": str,
    "json_out": str,
}

_DEFAULTS = {
    "k": 2,
    "epsilon": 0.1,
    "delta": 0.1,
    "network": "complete",
    "protocol": "gossip",
    "data": "zipf:1.2",
    "buckets": "auto",
    "s1": simulator.DEFAULT_S1,
    "trials": 1,
    "jobs": 1,
    "format": "both",
    "beta": 0.1,
    "exchange_mode": "exchange",
}


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
            if key not in _SCHEMA:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _SCHEMA[key](raw.strip())
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        settings.update(_parse_config_file(args.config))
    for key in _SCHEMA:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = val
    if settings.get("seed") is None:
        settings["seed"] = secrets.randbits(32)
    return settings


def _echo_config(settings: dict, keys, out_dir: Path | None = None) -> None:
    lines = [f"{key} = {settings[key]}" for key in keys if settings.get(key) is not None]
    print("# effective-config")
    for line in lines:
        print(line)
    print("# end-config")
    if out_dir is not None:
        (out_dir / "effective.cfg").write_text("\n".join(lines) + "\n")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--nodes", type=str, help="node count N (comma list for spreading-time)")
    p.add_argument("--alphabet", type=int, help="alphabet size M (must satisfy M < N)")
    p.add_argument("--seed", type=int, help="master seed; random (and printed) if omitted")
    p.add_argument("--out", type=str, help="output directory (file for gen-data)")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, help="moment order (>= 2)")
    p.add_argument("--epsilon", type=float, help="target absolute error on F_k / N^k")
    p.add_argument("--delta", type=float, help="target failure probability")
    p.add_argument("--r1", type=int, help="outer map count (overrides the solver)")
    p.add_argument("--r2", type=int, help="replica count (overrides the solver)")
    p.add_argument("--quant-bits", dest="quant_bits", type=int, help="quantizer bits")
    p.add_argument("--trunc-L", dest="trunc_l", type=float, help="truncation length L")
    p.add_argument(
        "--network",
        type=str,
        help="complete | graph:PATH | rgg-connected | rgg-percolating",
    )
    p.add_argument("--radius-c", dest="radius_c", type=float, help="radius-rule constant")
    p.add_argument("--protocol", type=str, choices=protocols.PROTOCOLS)
    p.add_argument("--p-n", dest="p_n", type=float, help="Aloha transmit probability")
    p.add_argument("--data", type=str, help="pointmass | uniform | zipf:THETA | file:PATH")
    p.add_argument("--buckets", type=str, help="bucket count B, or 'auto'")
    p.add_argument("--s1", type=int, help="bucket map count")
    p.add_argument("--trials", type=int)
    p.add_argument("--jobs", type=int, help="parallel trial workers")
    p.add_argument("--format", type=str, choices=("json", "csv", "both"))
    p.add_argument("--beta", type=float, help="spreading failure target")
    p.add_argument("--max-steps", dest="max_steps", type=int, help="spreading step cap")
    p.add_argument(
        "--exchange-mode",
        dest="exchange_mode",
        type=str,
        choices=(protocols.EXCHANGE, protocols.PUSH),
    )


_RUN_KEYS = (
    "nodes alphabet k epsilon delta r1 r2 quant_bits trunc_l network radius_c "
    "protocol p_n data buckets s1 trials seed jobs format beta max_steps exchange_mode"
).split()

_SPREADING_KEYS = (
    "nodes network protocol p_n radius_c trials beta max_steps exchange_mode seed"
).split()


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
    spread = SpreadConfig(
        beta=settings["beta"],
        max_steps=settings.get("max_steps"),
        exchange_mode=settings["exchange_mode"],
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
        s1=settings["s1"] if k >= 3 else 1,
        trials=settings["trials"],
        master_seed=settings["seed"],
        epsilon=epsilon,
        delta=delta,
        radius_c=settings.get("radius_c"),
        p_n=settings.get("p_n"),
        spread=spread,
    )


def _write_report(report, out_dir: Path, fmt: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt in ("json", "both"):
        (out_dir / "report.json").write_text(report.to_json() + "\n")
    if fmt in ("csv", "both"):
        (out_dir / "trials.csv").write_text(report.csv_text())


def cmd_gen_data(args) -> int:
    settings = _resolve(args)
    n = int(settings["nodes"])
    m = settings.get("alphabet")
    if m is None or settings.get("out") is None:
        raise ValueError("gen-data needs --alphabet and --out")
    if m >= n:
        raise ValueError(f"alphabet M={m} must be smaller than N={n}")
    model = DataModel.parse(settings["data"])
    _echo_config(settings, ("nodes", "alphabet", "data", "seed", "out"))
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


def cmd_run(args) -> int:
    settings = _resolve(args)
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
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(settings, _RUN_KEYS, out_dir)
    report = run_experiment(cfg, jobs=settings["jobs"])
    if out_dir is not None:
        _write_report(report, out_dir, settings["format"])
    _summarize(report, cfg)
    measured = max(1, len(report.results))
    if report.non_converged / measured > cfg.spread.beta:
        print("non-convergence beyond tolerance", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    settings = _resolve(args)
    param = settings.get("param")
    values = settings.get("values")
    if not param or not values:
        raise ValueError("sweep needs --param and --values")
    param = settings["param"] = param.replace("-", "_")
    if param not in _SCHEMA:
        raise ValueError(f"unknown sweep parameter {param!r}")
    out_root = Path(settings.get("out") or "sweep-out")
    points = []
    for raw in values.split(","):
        point = dict(settings)
        point[param] = _SCHEMA[param](raw.strip())
        points.append((raw.strip(), _experiment_config(point)))
    out_root.mkdir(parents=True, exist_ok=True)
    _echo_config(settings, (*_RUN_KEYS, "param", "values"), out_root)
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
    with open(out_root / "summary.csv", "w") as fh:
        fh.write(f"{param},success_rate,mean_abs_error,median_steps,total_bits\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"wrote {out_root / 'summary.csv'}")
    return EXIT_OK


def cmd_spreading_time(args) -> int:
    settings = _resolve(args)
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
    cfg = SpreadConfig(
        beta=settings["beta"],
        max_steps=settings.get("max_steps"),
        exchange_mode=settings["exchange_mode"],
    )
    out_dir = Path(settings["out"]) if settings.get("out") else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(settings, _SPREADING_KEYS, out_dir)
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
    header = "n_nodes,quantile_steps,median_steps,mean_steps,completed_trials"
    if out_dir is not None:
        with open(out_dir / "spreading_time.csv", "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(str(x) for x in row) + "\n")
        print(f"wrote {out_dir / 'spreading_time.csv'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    settings = _resolve(args)
    path = settings.get("file")
    if not path:
        raise ValueError("oracle needs --file DATASET")
    dataset = read_dataset_file(path)
    k = settings["k"]
    _echo_config(settings, ("file", "k", "json_out"))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmoments",
        description="Estimate scaled frequency moments of data distributed "
        "over gossip and slotted-Aloha networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a dataset file")
    _add_common_flags(p)
    p.add_argument("--data", type=str, help="pointmass | uniform | zipf:THETA")
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("run", help="run a moment-estimation experiment")
    _add_common_flags(p)
    _add_run_flags(p)
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sweep", help="run an experiment per value of one parameter")
    _add_common_flags(p)
    _add_run_flags(p)
    p.add_argument("--param", type=str, help="setting to sweep, e.g. nodes")
    p.add_argument("--values", type=str, help="comma-separated values")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("spreading-time", help="measure empirical spreading time vs N")
    _add_common_flags(p)
    p.add_argument(
        "--network",
        type=str,
        help="complete | graph:PATH | rgg-connected | rgg-percolating (its giant component)",
    )
    p.add_argument("--protocol", type=str, choices=protocols.PROTOCOLS)
    p.add_argument("--p-n", dest="p_n", type=float)
    p.add_argument("--radius-c", dest="radius_c", type=float)
    p.add_argument("--trials", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument(
        "--exchange-mode",
        dest="exchange_mode",
        type=str,
        choices=(protocols.EXCHANGE, protocols.PUSH),
    )
    p.set_defaults(handler=cmd_spreading_time)

    p = sub.add_parser("oracle", help="exact moments of a dataset file")
    _add_common_flags(p)
    p.add_argument("--file", type=str, help="dataset file")
    p.add_argument("--k", type=int)
    p.add_argument("--json-out", dest="json_out", type=str, help="also write a JSON record")
    p.set_defaults(handler=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CapacityError as exc:
        print(f"infeasible budget: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
