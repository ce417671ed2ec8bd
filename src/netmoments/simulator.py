"""Experiment orchestration: one trial pipeline for every k and every
network, and (epsilon, delta) accounting across trials.

A trial assigns data, derives the shared maps and builds the network once;
on a percolating network the trial runs on the giant component, or is
rejected when the giant holds under half the nodes.  Then it runs its phases
in sequence: one for k = 2, one per (bucket map, bucket) for k >= 3.  Each
phase spreads from scratch and reads node 0's sketch off its heard-set, one
closed-form draw per value present.  The per-phase harmonic estimates give
F_2 / N^2 from the sign sums, or F_k / N^k from the bucket phases, scaled by
the participant count."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it on first use; load it with the package

from . import estimators, network, protocols, sketch_core
from .estimators import Dataset, ErrorBudget, exact_fk
from .protocols import SpreadConfig, heard_ids, run_spreading
from .sketch_core import (
    QuantConfig,
    SharedRandomness,
    harmonic_estimate,
    min_truncated_exp_levels,
)

NETWORK_KINDS = ("complete", "rgg-connected", "rgg-percolating")
DATA_KINDS = ("pointmass", "uniform", "zipf", "file")

DEFAULT_S1 = 5
_GIANT_MIN_FRACTION = 0.5

# Budget-solver calibration.  The worst-case theory constants (Chebyshev 2
# for the map term, Chernoff 12 for the replica term) demand r1*r2 in the
# billions at desk-scale (eps, delta); these Monte-Carlo-calibrated constants
# keep the same 1/eps^2 and log(1/delta) shapes while matching observed
# estimator concentration.  The calibration runs are not yet reproduced in
# this repository (ROADMAP item 3).
CAL_MAP_TERM = 2.0 / 256.0
CAL_EXP_TERM = 12.0 / 2.0**14


class CapacityError(RuntimeError):
    """The requested accuracy needs more sketch cells than the desk-scale cap."""

    def __init__(self, required_cells: int, max_cells: int):
        super().__init__(
            f"budget needs r1*r2 = {required_cells} sketch cells "
            f"(cap {max_cells}); relax epsilon or delta"
        )
        self.required_cells = required_cells
        self.max_cells = max_cells


@dataclass(frozen=True)
class DataModel:
    """How node values are assigned: pointmass | uniform | zipf(theta) | file."""

    kind: str
    theta: float | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in DATA_KINDS:
            raise ValueError(f"unknown data model {self.kind!r}")
        if self.kind == "zipf" and (self.theta is None or self.theta <= 0):
            raise ValueError("zipf model needs a positive theta")
        if self.kind == "file" and not self.path:
            raise ValueError("file model needs a path")

    @classmethod
    def parse(cls, spec: str) -> "DataModel":
        if spec in ("pointmass", "uniform"):
            return cls(spec)
        if spec.startswith("zipf:"):
            return cls("zipf", theta=float(spec.split(":", 1)[1]))
        if spec.startswith("file:"):
            return cls("file", path=spec.split(":", 1)[1])
        raise ValueError(f"unknown data model {spec!r}")

    def spec_string(self) -> str:
        if self.kind == "zipf":
            # short form where it is exact; repr keeps every other theta exact
            short = f"{self.theta:g}"
            return f"zipf:{short if float(short) == self.theta else repr(self.theta)}"
        if self.kind == "file":
            return f"file:{self.path}"
        return self.kind

    def generate(self, n_nodes: int, alphabet_size: int, rng: np.random.Generator) -> Dataset:
        if self.kind == "pointmass":
            v = int(rng.integers(1, alphabet_size + 1))
            values = np.full(n_nodes, v, dtype=np.int64)
        elif self.kind == "uniform":
            values = rng.integers(1, alphabet_size + 1, size=n_nodes)
        elif self.kind == "zipf":
            support = np.arange(1, alphabet_size + 1)
            p = support.astype(float) ** -self.theta
            p /= p.sum()
            values = rng.choice(support, size=n_nodes, p=p)
        else:
            d = read_dataset_file(self.path)
            if d.n_nodes != n_nodes or d.alphabet_size != alphabet_size:
                raise ValueError(
                    f"dataset file holds N={d.n_nodes} M={d.alphabet_size}, "
                    f"config wants N={n_nodes} M={alphabet_size}"
                )
            return d
        return Dataset(values, alphabet_size)


def write_dataset_file(d: Dataset, path) -> None:
    """Header "N M" then one value per line."""
    with open(path, "w") as fh:
        fh.write(f"{d.n_nodes} {d.alphabet_size}\n")
        for v in d.values:
            fh.write(f"{int(v)}\n")


def read_dataset_file(path) -> Dataset:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: malformed header, want 'N M'")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}:1: malformed header, want 'N M'") from None
        values = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer value") from None
    if len(values) != n:
        raise ValueError(f"{path}: header says N={n} but found {len(values)} values")
    return Dataset(np.array(values, dtype=np.int64), m)


def default_num_buckets(alphabet_size: int, k: int) -> int:
    """Bucket count honoring B * s1 = O(M^(1 - 1/(k-1)))."""
    if k < 3:
        return 1
    return max(1, math.ceil(alphabet_size ** (1.0 - 1.0 / (k - 1))))


def _next_pow2(x: float) -> int:
    n = max(1, math.ceil(x))
    return 1 << (n - 1).bit_length()


def solve_budget(
    eps: float,
    delta: float,
    n_nodes: int,
    target_mu: float | None = None,
    max_cells: int = 1 << 23,
    r1: int | None = None,
    r2: int | None = None,
) -> tuple[ErrorBudget, QuantConfig]:
    """Pick (r1, r2) powers of two meeting the calibrated failure split, plus
    the matching truncation/quantization config.

    eps is split as eps1 = eps/2 for the map term and eps2 = eps/32 for the
    replica term; each term gets half of delta.  Given r1 and r2 are taken
    as they are; solved budgets beyond max_cells sketch cells raise
    CapacityError instead of returning something unrunnable.
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")
    if (r1 is None) != (r2 is None):
        raise ValueError("give both r1 and r2, or neither")
    eps1 = eps / 2.0
    eps2 = eps / 32.0
    mu = eps2 if target_mu is None else target_mu
    delta_half = delta / 2.0
    if r1 is None:
        r1 = _next_pow2(CAL_MAP_TERM / (delta_half * eps1**2))
        r2 = _next_pow2(CAL_EXP_TERM * math.log(2.0 / delta_half) / eps2**2)
        if r1 * r2 > max_cells:
            raise CapacityError(r1 * r2, max_cells)
    budget = ErrorBudget(
        eps1=eps1, eps2=eps2, mu=mu, r1=r1, r2=r2, beta=min(0.05, delta / 2.0)
    )
    quant = QuantConfig.for_population(n_nodes, mu)
    return budget, quant


def check_network_protocol(network_kind: str, protocol: str) -> None:
    """Reject Aloha on the complete graph: a slot delivers only when exactly
    one of all N nodes transmits, about (N/ln N) e^(-N/ln N) of the slots at
    the default p_n, so the spread cannot finish."""
    if network_kind == "complete" and protocol == protocols.ALOHA:
        raise ValueError("aloha needs a spatial network; the complete graph supports gossip only")


def parse_network(spec: str, graph_path: str | None = None) -> tuple[str, str | None]:
    """(kind, graph path) of complete | rgg-connected | rgg-percolating |
    graph:PATH; the kind "graph" may also come with its path given apart."""
    if spec.startswith("graph:"):
        spec, graph_path = "graph", spec.split(":", 1)[1]
    if spec not in NETWORK_KINDS + ("graph",):
        raise ValueError(f"unknown network kind {spec!r}")
    if spec == "graph" and not graph_path:
        raise ValueError("graph network needs a path")
    return spec, graph_path


def default_radius_c(network_kind: str) -> float:
    """The radius-rule constant of the network kind's regime."""
    if network_kind == "rgg-percolating":
        return network.DEFAULT_PERCOLATION_C
    return network.DEFAULT_CONNECTIVITY_C


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment needs; master_seed plus a trial
    index determines every random choice in that trial.

    Every k >= 2 runs on every network kind.  k = 2 is one phase on the sign
    maps, and num_buckets and s1 do not enter it; k >= 3 runs num_buckets * s1
    bucket phases.  On rgg-percolating the trials run on the giant component.
    radius_c and p_n default to the values of the network's regime.
    """

    n_nodes: int
    alphabet_size: int
    k: int
    data: DataModel
    budget: ErrorBudget
    quant: QuantConfig
    network: str = "complete"
    protocol: str = protocols.GOSSIP
    num_buckets: int = 1
    s1: int = 1
    trials: int = 1
    master_seed: int = 0
    epsilon: float = 0.1
    delta: float = 0.1
    radius_c: float | None = None
    p_n: float | None = None
    spread: SpreadConfig = field(default_factory=SpreadConfig)
    graph_path: str | None = None

    def __post_init__(self):
        if self.alphabet_size >= self.n_nodes:
            raise ValueError("alphabet size must satisfy M < N")
        if self.k < 2:
            raise ValueError("moment order k must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.network, self.graph_path = parse_network(self.network, self.graph_path)
        if self.protocol not in protocols.PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        check_network_protocol(self.network, self.protocol)
        if self.num_buckets < 1 or self.s1 < 1:
            raise ValueError("num_buckets and s1 must be >= 1")
        if self.radius_c is None:
            self.radius_c = default_radius_c(self.network)
        if self.p_n is None:
            self.p_n = protocols.default_p_n(
                self.n_nodes, percolating=self.network == "rgg-percolating"
            )

    @property
    def phases(self) -> int:
        return 1 if self.k == 2 else self.num_buckets * self.s1

    @property
    def channels(self) -> int:
        return 1 if self.k == 2 else 3

    @property
    def message_bits(self) -> int:
        """Bits per message: channels * r1 * r2 entries of quant_bits + 1 bits."""
        return self.channels * self.budget.r1 * self.budget.r2 * self.quant.bits_per_entry

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "alphabet_size": self.alphabet_size,
            "k": self.k,
            "data": self.data.spec_string(),
            "network": self.network if self.network != "graph" else f"graph:{self.graph_path}",
            "protocol": self.protocol,
            "budget": {
                "eps1": self.budget.eps1,
                "eps2": self.budget.eps2,
                "mu": self.budget.mu,
                "r1": self.budget.r1,
                "r2": self.budget.r2,
                "beta": self.budget.beta,
            },
            "quant": {
                "truncation_L": self.quant.truncation_L,
                "quant_bits": self.quant.quant_bits,
                "target_mu": self.quant.target_mu,
            },
            "num_buckets": self.num_buckets,
            "s1": self.s1,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "radius_c": self.radius_c,
            "p_n": self.p_n,
            "spread": {
                "beta": self.spread.beta,
                "max_steps": self.spread.max_steps,
                "exchange_mode": self.spread.exchange_mode,
            },
        }


@dataclass
class TrialResult:
    """One trial's outcome; abs_error compares scaled estimate and oracle."""

    trial_index: int
    exact_scaled: float
    estimate_scaled: float
    abs_error: float
    steps: int
    bits: int
    message_bits: int
    phases: int
    completed: bool
    success: bool
    alpha: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "seed": self.trial_index,
            "exact_scaled": self.exact_scaled,
            "estimate_scaled": self.estimate_scaled,
            "abs_error": self.abs_error,
            "steps": self.steps,
            "bits": self.bits,
            "message_bits": self.message_bits,
            "phases": self.phases,
            "completed": self.completed,
            "success": self.success,
            "alpha": self.alpha,
        }
        d.update(self.extras)
        return d


CSV_COLUMNS = (
    "seed",
    "exact_scaled",
    "estimate_scaled",
    "abs_error",
    "steps",
    "bits",
    "phases",
    "alpha",
)


@dataclass
class ExperimentReport:
    """All trials of one experiment plus the success-rate bookkeeping."""

    config: dict
    kind: str
    results: list[TrialResult]
    rejected_trials: list[int] = field(default_factory=list)

    @property
    def empirical_success_rate(self) -> float:
        measured = [r for r in self.results if r.completed]
        if not measured:
            return 0.0
        return sum(r.success for r in measured) / len(measured)

    @property
    def non_converged(self) -> int:
        return sum(not r.completed for r in self.results)

    def aggregates(self) -> dict:
        steps = [r.steps for r in self.results]
        errors = [r.abs_error for r in self.results if r.completed]
        return {
            "trials_measured": len(self.results),
            "trials_rejected": len(self.rejected_trials),
            "non_converged": self.non_converged,
            "total_bits": int(sum(r.bits for r in self.results)),
            "median_steps": estimators.median(steps) if steps else 0.0,
            "mean_steps": float(np.mean(steps)) if steps else 0.0,
            "mean_abs_error": float(np.mean(errors)) if errors else 0.0,
            "max_abs_error": float(np.max(errors)) if errors else 0.0,
        }

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "kind": self.kind,
            "empirical_success_rate": self.empirical_success_rate,
            "aggregates": self.aggregates(),
            "rejected_trials": self.rejected_trials,
            "trials": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in sorted(self.results, key=lambda r: r.trial_index):
            row = r.to_dict()
            lines.append(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _trial_seeds(cfg: ExperimentConfig, trial_index: int) -> list[np.random.SeedSequence]:
    root = np.random.SeedSequence(entropy=(cfg.master_seed, trial_index))
    # data, maps, topology, then for k = 2 scheduling and sketch draws; for
    # k >= 3 the fifth is the root of the phases' seeds and the fourth is unused
    return root.spawn(5)


class TrialRejected(RuntimeError):
    """Percolation trial whose giant component is too small to measure."""


def build_topology(
    kind: str, n: int, radius_c: float, graph_path: str | None, rng: np.random.Generator
):
    """Returns (topology-to-run-on, original node ids of participants, alpha).
    The complete graph is never built: it is run on as its node count N.  A
    percolating network is run on its giant component, and a giant below
    half of the N nodes raises TrialRejected."""
    if kind == "complete":
        return n, np.arange(n), 0.0
    if kind == "graph":
        topo = network.read_edge_list(graph_path)
        if topo.n_nodes != n:
            raise ValueError(
                f"graph file has {topo.n_nodes} nodes, config wants {n}"
            )
        if len(network.giant_component(topo).giant) != n:
            raise ValueError("graph file is not connected")
        return topo, np.arange(n), 0.0
    if kind == "rgg-connected":
        radius = network.connectivity_radius(n, radius_c)
        return network.build_connected_rgg(n, radius, rng), np.arange(n), 0.0
    # rgg-percolating
    radius = network.percolation_radius(n, radius_c)
    topo = network.build_rgg(n, radius, rng)
    report = network.giant_component(topo)
    if len(report.giant) < _GIANT_MIN_FRACTION * n:
        raise TrialRejected(
            f"giant component holds {len(report.giant)}/{n} nodes"
        )
    sub, orig_ids = network.induced_subgraph(topo, report.giant)
    return sub, orig_ids, report.alpha


def _heard_sketch(
    rates_by_value: np.ndarray,
    values: np.ndarray,
    r2: int,
    quant: QuantConfig,
    value_seeds,
    members: np.ndarray,
) -> np.ndarray:
    """The sketch a node holds once it has heard from `members`: the min over
    their initial grids, where a node holding value v draws one row of r2
    levels per entry of rates_by_value[v - 1].  That min depends only on how
    many members hold each value, so it is drawn once per value present,
    from value_seeds[v - 1], as the closed-form min of that many draws.
    `members` is read as a set: a node listed twice is counted once."""
    acc = np.full((rates_by_value.shape[1], r2), quant.infinity_level, dtype=quant.level_dtype)
    heard = np.zeros(values.size, dtype=bool)
    heard[members] = True
    counts = np.bincount(values[heard] - 1, minlength=len(rates_by_value))
    for v in np.flatnonzero(counts):
        rng = np.random.default_rng(value_seeds[v])
        levels = min_truncated_exp_levels(rates_by_value[v], counts[v], r2, quant, rng)
        np.minimum(acc, levels, out=acc)
    return acc


def run_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult | None:
    """One end-to-end trial of any k; None means a rejected percolation trial.

    The set-up runs once: data, maps and the network, which on a percolating
    network is its giant component.  Then the phases run in sequence, each a
    spread from scratch and a sketch read off node 0's heard-set:
    - k = 2 is one phase over every participant, on the sign maps;
    - k >= 3 is s1 * num_buckets bucket phases, phase (t, b) over the
      participants that bucket map t sends to bucket b, on three channels of
      the roots-of-unity maps: real at rate Re(root) + 1, imaginary at
      Im(root) + 1 and population at rate 1.

    The estimate is computed by, and scaled for, the participants; the exact
    oracle always uses all N nodes.
    """
    data_ss, maps_ss, topo_ss, sched_ss, draws_ss = _trial_seeds(cfg, trial_index)
    m, r1, r2 = cfg.alphabet_size, cfg.budget.r1, cfg.budget.r2
    dataset = cfg.data.generate(cfg.n_nodes, m, np.random.default_rng(data_ss))
    try:
        topo, part_ids, alpha = build_topology(
            cfg.network, cfg.n_nodes, cfg.radius_c, cfg.graph_path, np.random.default_rng(topo_ss)
        )
    except TrialRejected:
        return None
    part_values = dataset.values[part_ids]
    n_part = part_values.size

    rand = SharedRandomness(
        _seed_int(maps_ss), r1=r1, r2=r2, k=cfg.k, num_buckets=cfg.num_buckets, s1=cfg.s1
    )
    if cfg.k == 2:
        rates_by_value = (sketch_core.sign_table(rand, m).T > 0).astype(float)
        plan = [(1, 1, [sched_ss, *draws_ss.spawn(m)])]
    else:
        roots = sketch_core.root_table(rand, m).T
        rates_by_value = np.concatenate(
            [np.real(roots) + 1.0, np.imag(roots) + 1.0, np.ones(roots.shape)], axis=1
        )
        buckets = sketch_core.bucket_table(rand, m)
        phase_ids = itertools.product(range(1, cfg.s1 + 1), range(1, cfg.num_buckets + 1))
        plan = (  # each phase: a scheduling seed, then one seed per value
            (t, b, phase_ss.spawn(m + 1))
            for (t, b), phase_ss in zip(phase_ids, draws_ss.spawn(cfg.phases))
        )

    reports, estimates = [], []
    for t, b, seeds in plan:
        report, heard = run_spreading(
            topo,
            cfg.protocol,
            cfg.spread,
            np.random.default_rng(seeds[0]),
            message_bits=cfg.message_bits,
            p_n=cfg.p_n,
        )
        members = heard_ids(heard[0], n_part)
        del heard  # neither the heard-sets nor the sketch outlive their phase
        if cfg.k > 2:
            members = members[buckets[t - 1, part_values[members] - 1] == b]
        sketch = _heard_sketch(rates_by_value, part_values, r2, cfg.quant, seeds[1:], members)
        estimates.append(harmonic_estimate(sketch.reshape(cfg.channels, r1, r2), cfg.quant))
        reports.append(report)
        del sketch
    completed = all(report.completed for report in reports)

    if cfg.k == 2:
        estimate = estimators.f2_from_nplus(estimates[0][0], n_part)
    else:
        phases = np.array(estimates).reshape(cfg.s1, cfg.num_buckets, 3, r1)
        estimate = estimators.estimate_fk(phases, n_part, cfg.k)
    exact = exact_fk(dataset, cfg.k)
    exact_scaled = exact / float(cfg.n_nodes) ** cfg.k
    abs_error = abs(estimate - exact_scaled)
    success = completed and abs_error <= cfg.epsilon

    extras: dict = {}
    if cfg.network == "rgg-percolating":
        # eq. (4): the estimate against the giant's own scaled moment
        part_scaled = exact_fk(Dataset(part_values, m), cfg.k) / float(n_part) ** cfg.k
        eq4_error = abs(estimate - part_scaled)
        extras = {
            f"f{cfg.k}_alpha_scaled": part_scaled,
            "eq4_error": eq4_error,
            "eq4_ok": eq4_error <= cfg.epsilon,
            "n_participants": n_part,
        }
        if cfg.k == 2:  # the corollary on the whole network's F_2 is stated for k = 2 only
            corollary_stat = abs(estimate * n_part**2 - exact)
            corollary_threshold = cfg.n_nodes**2 * alpha**2 * (1.0 - cfg.epsilon)
            extras["corollary_stat"] = corollary_stat
            extras["corollary_threshold"] = corollary_threshold
            extras["corollary_ok"] = corollary_stat < corollary_threshold
        success = completed and extras["eq4_ok"]

    return TrialResult(
        trial_index=trial_index,
        exact_scaled=exact_scaled,
        estimate_scaled=estimate,
        abs_error=abs_error,
        steps=sum(report.steps_to_full for report in reports),
        bits=sum(report.bits_sent for report in reports),
        message_bits=cfg.message_bits,
        phases=cfg.phases,
        completed=completed,
        success=success,
        alpha=alpha,
        extras=extras,
    )


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run all trials (optionally across processes; trials are independent and
    aggregation is order-free) and assemble the report."""
    kind = "percolation" if cfg.network == "rgg-percolating" else ("f2" if cfg.k == 2 else "fk")
    args = ([cfg] * cfg.trials, range(cfg.trials))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_trial, *args))  # in trial order
    else:
        outcomes = list(map(run_trial, *args))
    results = [result for result in outcomes if result is not None]
    rejected = [t for t, result in enumerate(outcomes) if result is None]
    return ExperimentReport(
        config=cfg.to_dict(), kind=kind, results=results, rejected_trials=rejected
    )
