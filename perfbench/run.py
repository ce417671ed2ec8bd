"""Benchmark of the `netmoments run` command on three paper-regime workloads.

    python3 perfbench/run.py --workload f2-rgg-aloha --seed 1 --seconds 40 --trace 0

The workload seed makes the dataset file the program reads through
`--data file:PATH`; the program itself always gets the fixed `--seed`
PROGRAM_SEED.  For `--seconds` seconds the benchmark starts fresh processes
one after another (`child.py`), each calling `netmoments.cli.main(["run",
...])` once, and checks every trial of every report against figures it
computes itself.  An operation is one trial.  With `--trace 0` it prints the
end-to-end metrics, means over the processes of the run; with `--trace 1`
it alternates untraced and traced processes and prints the per-layer metrics
of the traced ones, with the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROGRAM_SEED = 1210
EPSILON = 0.1  # the program's default, which every workload keeps
HEAVY_SHARE = (0.8, 0.85)  # F2/N^2 >= 0.64 and F3/N^3 >= 0.512, both >= 2 epsilon
ZIPF_THETA = 1.2
TRIALS = 1  # per process; a run repeats processes, not trials
MIN_PROCESSES = 3  # per run, whatever --seconds says
CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170  # no new process starts after this, so a run ends within 180 s

# Every BLAS/OpenMP pool is pinned to one thread: the reference box has 2 cores.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    network: str
    protocol: str
    nodes: int
    alphabet: int

    def argv(self, data_path: Path, out_dir: Path) -> list[str]:
        return [
            "run",
            "--nodes", str(self.nodes),
            "--alphabet", str(self.alphabet),
            "--k", str(self.k),
            "--network", self.network,
            "--protocol", self.protocol,
            "--data", f"file:{data_path}",
            "--trials", str(TRIALS),
            "--seed", str(PROGRAM_SEED),
            "--jobs", "1",
            "--out", str(out_dir),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("f2-complete-gossip", 2, "complete", "gossip", 5000, 70),
        Workload("f2-rgg-aloha", 2, "rgg-connected", "aloha", 800, 40),
        Workload("f3-rgg-gossip", 3, "rgg-connected", "gossip", 150, 25),
    )
}

# Untimed invariance check: a completed spread leaves every node with the min
# over all initial sketches, so the estimate may not depend on the network or
# the protocol.
INVARIANCE_NODES, INVARIANCE_ALPHABET = 80, 8
INVARIANCE_BUDGET = ("--r1", "8", "--r2", "16")
INVARIANCE_SETUPS = (
    ("complete", "gossip"),
    ("rgg-connected", "gossip"),
    ("rgg-connected", "aloha"),
)

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def make_values(seed: int, nodes: int, alphabet: int) -> np.ndarray:
    """One value per node: value 1 held by a seeded share in HEAVY_SHARE of
    the nodes, the rest drawn Zipf(ZIPF_THETA) over a seeded ranking of
    values 2..M, in seeded node order.  The heavy value is the same for every
    seed, so its map entries, which set most of the sketch-drawing work, do
    not vary with it."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, nodes, alphabet]))
    heavy = round(rng.uniform(*HEAVY_SHARE) * nodes)
    support = rng.permutation(np.arange(2, alphabet + 1))
    p = np.arange(1.0, alphabet) ** -ZIPF_THETA
    rest = rng.choice(support, size=nodes - heavy, p=p / p.sum())
    values = np.concatenate([np.ones(heavy, dtype=np.int64), rest])
    rng.shuffle(values)
    return values


def write_dataset(values: np.ndarray, alphabet: int, path: Path) -> None:
    lines = [f"{values.size} {alphabet}"] + [str(int(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")


def exact_scaled(values: np.ndarray, k: int) -> float:
    """F_k / N^k with Python integers over np.bincount."""
    fk = sum(int(c) ** k for c in np.bincount(values))
    return fk / float(values.size) ** k


def read_effective_cfg(path: Path) -> dict:
    cfg = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        cfg[key] = value
    return cfg


def check_report(report: dict, cfg: dict, values: np.ndarray, w: Workload) -> list[str]:
    """One problem string per trial of a report that fails a check, given
    the echoed config; empty when all pass."""
    channels = 1 if w.k == 2 else 3
    message_bits = channels * int(cfg["r1"]) * int(cfg["r2"]) * (int(cfg["quant_bits"]) + 1)
    exact = exact_scaled(values, w.k)
    problems = []
    trials = report["trials"]
    if len(trials) != TRIALS:
        problems += [f"report holds {len(trials)} trials"] * (TRIALS - len(trials))
    for t in trials:
        bits, steps = t["bits"], t["steps"]
        if w.protocol == "gossip":
            bits_ok = bits == 2 * steps * message_bits
        else:
            bits_ok = bits > 0 and bits % message_bits == 0 and bits // message_bits >= w.nodes
        checks = {
            "exact_scaled": t["exact_scaled"] == exact,
            "completed": t["completed"] is True,
            "abs_error": abs(t["estimate_scaled"] - exact) <= EPSILON,
            "bits": bits_ok and t["message_bits"] == message_bits,
        }
        failed = [name for name, ok in checks.items() if not ok]
        if failed:
            problems.append(f"trial {t['seed']}: {', '.join(failed)} {t}")
    return problems


def run_child(runs: list[list[str]], trace_out: Path | None, timeout: float):
    """Start one fresh process; returns (spawn time, parsed result or None,
    reason it gave none: the stderr tail or the exit status)."""
    spec = {"src": str(SRC), "runs": runs, "trace_out": str(trace_out) if trace_out else None}
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return t_spawn, None, f"timed out after {timeout:.0f} s"
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("PERFBENCH "):
            return t_spawn, json.loads(line[len("PERFBENCH "):]), ""
    return t_spawn, None, proc.stderr[-2000:] or f"no result, exit status {proc.returncode}"


def invariance_check(seed: int, work: Path) -> list[str]:
    """Same dataset, seed and small budget on every network and protocol, for
    k = 2 and 3: every estimate_scaled must be identical."""
    values = make_values(seed, INVARIANCE_NODES, INVARIANCE_ALPHABET)
    data = work / "invariance.dat"
    write_dataset(values, INVARIANCE_ALPHABET, data)
    runs, dirs = [], []
    for k in (2, 3):
        for net, proto in INVARIANCE_SETUPS:
            d = work / f"invariance-k{k}-{net}-{proto}"
            dirs.append((k, d))
            runs.append([
                "run", "--nodes", str(INVARIANCE_NODES), "--alphabet", str(INVARIANCE_ALPHABET),
                "--k", str(k), "--network", net, "--protocol", proto,
                "--data", f"file:{data}", "--seed", str(PROGRAM_SEED), "--out", str(d),
                "--format", "json", *INVARIANCE_BUDGET,
            ])
    _, result, err = run_child(runs, None, CHILD_TIMEOUT_S)
    if result is None:
        return [f"invariance process failed: {err}"]
    problems = [f"invariance run exited {r['exit']}" for r in result["runs"] if r["exit"] != 0]
    if problems:
        return problems
    for k in (2, 3):
        estimates = {
            json.loads((d / "report.json").read_text())["trials"][0]["estimate_scaled"]
            for kk, d in dirs if kk == k
        }
        if len(estimates) != 1:
            problems.append(f"k={k}: estimates differ across networks: {sorted(estimates)}")
    return problems


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    try:
        return _run_workload(w, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    started = time.perf_counter()
    invariance = invariance_check(seed, work)
    problems = list(invariance)
    values = make_values(seed, w.nodes, w.alphabet)
    if exact_scaled(values, w.k) < 2 * EPSILON:
        raise SystemExit(f"dataset of seed {seed} has F_k/N^k below 2 epsilon")
    data = work / "data.txt"
    write_dataset(values, w.alphabet, data)

    order = []  # (kind, sample) of every process that ran to its end
    attempted = failed = 0
    durations = []
    t0 = time.perf_counter()
    for count in itertools.count():
        elapsed = time.perf_counter() - t0
        kind = "traced" if trace and count % 2 == 1 else "plain"
        enough = count >= (2 * MIN_PROCESSES if trace else MIN_PROCESSES)
        if enough and elapsed + mean(durations) > seconds:
            break
        if time.perf_counter() - started > RUN_LIMIT_S - max(durations, default=0):
            break
        out_dir = work / f"p{count}"
        trace_out = OUT / f"trace-{w.name}.json" if kind == "traced" else None
        t_spawn, result, err = run_child([w.argv(data, out_dir)], trace_out, CHILD_TIMEOUT_S)
        durations.append(time.perf_counter() - t_spawn)
        attempted += TRIALS
        run = result["runs"][0] if result else None
        if run is None or run["exit"] != 0:
            failed += TRIALS
            problems.append(f"process {count}: {err or 'exit ' + str(run['exit'])}")
            continue
        report = json.loads((out_dir / "report.json").read_text())
        trial_problems = check_report(
            report, read_effective_cfg(out_dir / "effective.cfg"), values, w
        )
        failed += len(trial_problems)
        problems += trial_problems
        steps = sum(t["steps"] for t in report["trials"])
        order.append((kind, {
            "setup_s": run["entry"] - t_spawn,
            "wall_s": run["wall_s"],
            "cpu_s": run["cpu_s"],
            "steps_per_s": steps / run["wall_s"],
            "peak_rss_mb": result["maxrss_mb"],
            "import_s": result["import_s"],
            "trace": result.get("trace"),
        }))
        shutil.rmtree(out_dir, ignore_errors=True)

    plain = [sample for kind, sample in order if kind == "plain"]
    traced = [sample for kind, sample in order if kind == "traced"]
    if trace:
        layer = {}
        for name in PER_LAYER:
            if name == "cli.import_s":
                layer[name] = mean([s["import_s"] for s in traced])
            elif name == "trace.overhead_s":
                layer[name] = mean([s["wall_s"] for s in traced]) - mean(
                    [s["wall_s"] for s in plain]
                )
            else:
                layer[name] = mean([s["trace"]["metrics"].get(name, 0.0) for s in traced])
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
        absent = traced[-1]["trace"]["absent"] if traced else list(tracer.METRICS)
    else:
        metrics = {
            name: {"value": mean([s[name] for s in plain]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
        absent = []
    return {
        "workload": w.name,
        "processes": {"plain": len(plain), "traced": len(traced)},
        "samples": order,
        "problems": problems,
        "absent": absent,
        "result": {
            "correct": not invariance,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "netmoments" / "__init__.py").is_file():
        print(f"no netmoments package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        out = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result = out["result"]
        print(f"# {name}: seed {args.seed}, processes {out['processes']}")
        for kind, sample in out["samples"]:
            print(f"{kind}: " + " ".join(f"{m}={sample[m]:.4g}" for m in END_TO_END))
        for problem in out["problems"]:
            print(f"problem: {problem}")
        for metric, m in result["metrics"].items():
            print(f"{metric} {m['value']:.6g} {m['unit']}")
        if out["absent"]:
            print(f"absent: {' '.join(out['absent'])}")
        print(f"attempted {result['attempted']} failed {result['failed']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}" if len(names) > 1 else metric] = m
        if len(names) > 1:
            print(json.dumps(result))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
