"""Experiment orchestration: data assignment, spreading to full
dissemination, sketches read off node 0's heard-set, sequential bucket phases
for higher moments, percolation trials, and (epsilon, delta) accounting
across trials."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import estimators, network, protocols, sketch_core
from .estimators import Dataset, ErrorBudget, exact_fk
from .network import Topology
from .protocols import SpreadConfig, heard_ids, run_spreading
from .sketch_core import QuantConfig, SharedRandomness, min_truncated_exp_levels

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


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment needs; master_seed plus a trial
    index determines every random choice in that trial."""

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
        if self.network.startswith("graph:"):
            self.graph_path = self.network.split(":", 1)[1]
            self.network = "graph"
        if self.network not in NETWORK_KINDS + ("graph",):
            raise ValueError(f"unknown network kind {self.network!r}")
        if self.network == "graph" and not self.graph_path:
            raise ValueError("graph network needs a path")
        if self.protocol not in protocols.PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        check_network_protocol(self.network, self.protocol)
        if self.k >= 3:
            if self.num_buckets < 1 or self.s1 < 1:
                raise ValueError("k >= 3 needs num_buckets and s1")
            if self.network == "rgg-percolating":
                raise ValueError("percolating networks support k = 2 only")
        if self.radius_c is None:
            self.radius_c = (
                network.DEFAULT_PERCOLATION_C
                if self.network == "rgg-percolating"
                else network.DEFAULT_CONNECTIVITY_C
            )
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

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(
            n_nodes=d["n_nodes"],
            alphabet_size=d["alphabet_size"],
            k=d["k"],
            data=DataModel.parse(d["data"]),
            budget=ErrorBudget(**d["budget"]),
            quant=QuantConfig(**d["quant"]),
            network=d["network"],
            protocol=d["protocol"],
            num_buckets=d["num_buckets"],
            s1=d["s1"],
            trials=d["trials"],
            master_seed=d["master_seed"],
            epsilon=d["epsilon"],
            delta=d["delta"],
            radius_c=d["radius_c"],
            p_n=d["p_n"],
            spread=SpreadConfig(**d["spread"]),
        )


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
            "median_steps": float(np.median(steps)) if steps else 0.0,
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
    return root.spawn(5)  # data, maps, topology, scheduling, sketch draws


class TrialRejected(RuntimeError):
    """Percolation trial whose giant component is too small to measure."""


def _build_topology(cfg: ExperimentConfig, rng: np.random.Generator):
    """Returns (topology-to-run-on, original node ids of participants, alpha).
    The complete graph is never built: it is run on as its node count N."""
    n = cfg.n_nodes
    if cfg.network == "complete":
        return n, np.arange(n), 0.0
    if cfg.network == "graph":
        topo = network.read_edge_list(cfg.graph_path)
        if topo.n_nodes != n:
            raise ValueError(
                f"graph file has {topo.n_nodes} nodes, config wants {n}"
            )
        if len(network.giant_component(topo).giant) != n:
            raise ValueError("graph file is not connected")
        return topo, np.arange(n), 0.0
    if cfg.network == "rgg-connected":
        radius = network.connectivity_radius(n, cfg.radius_c)
        return network.build_connected_rgg(n, radius, rng), np.arange(n), 0.0
    # rgg-percolating
    radius = network.percolation_radius(n, cfg.radius_c)
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


def _sign_sketch(
    values: np.ndarray,
    alphabet_size: int,
    rand: SharedRandomness,
    quant: QuantConfig,
    value_seeds,
    members: np.ndarray,
) -> np.ndarray:
    """The (r1, r2) sign-population sketch over `members`: unit-rate draws
    where the sign map says +1 and the infinity sentinel where it says -1."""
    rates_by_value = (sketch_core.sign_table(rand, alphabet_size).T > 0).astype(float)
    return _heard_sketch(rates_by_value, values, rand.r2, quant, value_seeds, members)


def _root_sketch(
    values: np.ndarray,
    alphabet_size: int,
    rand: SharedRandomness,
    quant: QuantConfig,
    value_seeds,
    members: np.ndarray,
) -> np.ndarray:
    """The (3, r1, r2) sketch of one bucket phase over the participating
    `members`: real channel at rate Re(root)+1, imaginary at Im(root)+1,
    population at rate 1; nodes outside the bucket are all-infinite and are
    left out of `members`."""
    roots = sketch_core.root_table(rand, alphabet_size).T
    rates_by_value = np.concatenate(
        [np.real(roots) + 1.0, np.imag(roots) + 1.0, np.ones(roots.shape)], axis=1
    )
    acc = _heard_sketch(rates_by_value, values, rand.r2, quant, value_seeds, members)
    return acc.reshape(3, rand.r1, rand.r2)


def run_f2_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult:
    """One end-to-end second-moment trial.

    The exact oracle always uses all N nodes; on a percolating network the
    estimate is computed by (and scaled for) the giant component only.
    """
    if cfg.k != 2:
        raise ValueError("run_f2_trial requires k = 2")
    data_ss, maps_ss, topo_ss, sched_ss, draws_ss = _trial_seeds(cfg, trial_index)
    dataset = cfg.data.generate(cfg.n_nodes, cfg.alphabet_size, np.random.default_rng(data_ss))
    rand = SharedRandomness(
        _seed_int(maps_ss), r1=cfg.budget.r1, r2=cfg.budget.r2, k=2
    )
    topo, orig_ids, alpha = _build_topology(cfg, np.random.default_rng(topo_ss))
    part_values = dataset.values[orig_ids]
    n_part = part_values.size

    report, heard = run_spreading(
        topo,
        cfg.protocol,
        cfg.spread,
        np.random.default_rng(sched_ss),
        message_bits=cfg.message_bits,
        p_n=cfg.p_n,
    )
    # node 0's sketch: over every participant once the spread has completed
    levels = _sign_sketch(
        part_values,
        cfg.alphabet_size,
        rand,
        cfg.quant,
        draws_ss.spawn(cfg.alphabet_size),
        heard_ids(heard[0], n_part),
    )
    estimate = estimators.estimate_f2(levels, cfg.quant, n_part)
    exact_scaled = exact_fk(dataset, 2) / float(cfg.n_nodes) ** 2
    abs_error = abs(estimate - exact_scaled)

    extras: dict = {}
    success = report.completed and abs_error <= cfg.epsilon
    if cfg.network == "rgg-percolating":
        giant_data = Dataset(part_values, cfg.alphabet_size)
        f2_alpha = exact_fk(giant_data, 2)
        f2_all = exact_fk(dataset, 2)
        eq4_error = abs(estimate - f2_alpha / float(n_part) ** 2)
        corollary_stat = abs(estimate * n_part**2 - f2_all)
        corollary_threshold = (
            cfg.n_nodes**2 * alpha**2 * (1.0 - cfg.epsilon)
        )
        extras = {
            "f2_alpha_scaled": f2_alpha / float(n_part) ** 2,
            "eq4_error": eq4_error,
            "eq4_ok": eq4_error <= cfg.epsilon,
            "corollary_stat": corollary_stat,
            "corollary_threshold": corollary_threshold,
            "corollary_ok": corollary_stat < corollary_threshold,
            "n_participants": n_part,
        }
        success = report.completed and extras["eq4_ok"]

    return TrialResult(
        trial_index=trial_index,
        exact_scaled=exact_scaled,
        estimate_scaled=estimate,
        abs_error=abs_error,
        steps=report.steps_to_full,
        bits=report.bits_sent,
        message_bits=cfg.message_bits,
        phases=1,
        completed=report.completed,
        success=success,
        alpha=alpha,
        extras=extras,
    )


def run_bucket_phase(
    cfg: ExperimentConfig,
    dataset: Dataset,
    rand: SharedRandomness,
    topo: Topology | int,
    bucket_map_index: int,
    bucket: int,
    phase_ss: np.random.SeedSequence,
):
    """One sequential phase of the higher-moment pipeline: the nodes the
    bucket map assigns to this bucket seed three channels, everyone spreads,
    and the per-map harmonic estimates are read off node 0's sketch.

    Returns ((3, r1) harmonic estimates of the real, imaginary and
    population channels, SpreadReport).
    """
    n = dataset.n_nodes
    children = phase_ss.spawn(cfg.alphabet_size + 1)  # scheduling, then one per value
    tbl = sketch_core.bucket_table(rand, cfg.alphabet_size)
    participants = tbl[bucket_map_index - 1, dataset.values - 1] == bucket
    report, heard = run_spreading(
        topo,
        cfg.protocol,
        cfg.spread,
        np.random.default_rng(children[0]),
        message_bits=cfg.message_bits,
        p_n=cfg.p_n,
    )
    members = heard_ids(heard[0], n)
    final = _root_sketch(
        dataset.values,
        cfg.alphabet_size,
        rand,
        cfg.quant,
        children[1:],
        members[participants[members]],
    )
    return sketch_core.harmonic_estimate(final, cfg.quant), report


def run_fk_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult:
    """One end-to-end k-th moment trial (k >= 3): num_buckets * s1 bucket
    phases run in sequence with fresh sketch state per phase."""
    if cfg.k < 3:
        raise ValueError("run_fk_trial requires k >= 3")
    data_ss, maps_ss, topo_ss, _, phase_root = _trial_seeds(cfg, trial_index)
    dataset = cfg.data.generate(cfg.n_nodes, cfg.alphabet_size, np.random.default_rng(data_ss))
    rand = SharedRandomness(
        _seed_int(maps_ss),
        r1=cfg.budget.r1,
        r2=cfg.budget.r2,
        k=cfg.k,
        num_buckets=cfg.num_buckets,
        s1=cfg.s1,
    )
    topo, _, _ = _build_topology(cfg, np.random.default_rng(topo_ss))

    phase_ids = itertools.product(range(1, cfg.s1 + 1), range(1, cfg.num_buckets + 1))
    results = [
        run_bucket_phase(cfg, dataset, rand, topo, t, b, phase_ss)
        for (t, b), phase_ss in zip(phase_ids, phase_root.spawn(cfg.phases))
    ]
    phases = np.array([est for est, _ in results]).reshape(cfg.s1, cfg.num_buckets, 3, rand.r1)
    reports = [report for _, report in results]
    all_completed = all(report.completed for report in reports)

    estimate = estimators.estimate_fk(phases, cfg.n_nodes, cfg.k)
    exact_scaled = exact_fk(dataset, cfg.k) / float(cfg.n_nodes) ** cfg.k
    abs_error = abs(estimate - exact_scaled)
    return TrialResult(
        trial_index=trial_index,
        exact_scaled=exact_scaled,
        estimate_scaled=estimate,
        abs_error=abs_error,
        steps=sum(report.steps_to_full for report in reports),
        bits=sum(report.bits_sent for report in reports),
        message_bits=cfg.message_bits,
        phases=cfg.phases,
        completed=all_completed,
        success=all_completed and abs_error <= cfg.epsilon,
    )


def run_single_trial(cfg: ExperimentConfig, trial_index: int) -> TrialResult | None:
    """Dispatch one trial; None means a rejected percolation trial."""
    try:
        if cfg.k == 2:
            return run_f2_trial(cfg, trial_index)
        return run_fk_trial(cfg, trial_index)
    except TrialRejected:
        return None


def _trial_worker(args) -> tuple[int, dict | None]:
    cfg_dict, trial_index = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    result = run_single_trial(cfg, trial_index)
    return trial_index, None if result is None else result.__dict__


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run all trials (optionally across processes; trials are independent and
    aggregation is order-free) and assemble the report."""
    kind = "percolation" if cfg.network == "rgg-percolating" else ("f2" if cfg.k == 2 else "fk")
    results: list[TrialResult] = []
    rejected: list[int] = []
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        payload = [(cfg.to_dict(), t) for t in range(cfg.trials)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for trial_index, rd in pool.map(_trial_worker, payload):
                if rd is None:
                    rejected.append(trial_index)
                else:
                    results.append(TrialResult(**rd))
    else:
        for t in range(cfg.trials):
            result = run_single_trial(cfg, t)
            if result is None:
                rejected.append(t)
            else:
                results.append(result)
    results.sort(key=lambda r: r.trial_index)
    return ExperimentReport(
        config=cfg.to_dict(), kind=kind, results=results, rejected_trials=rejected
    )
