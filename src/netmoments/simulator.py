"""Experiment orchestration: one trial pipeline for every k and every
network, and (epsilon, delta) accounting across trials.

A trial assigns data, derives the shared maps and builds the network once;
on a percolating network the trial runs on the giant component, or is
rejected when the giant holds under half the nodes.  Then it runs its phases
in sequence: one for k = 2, one per (bucket map, bucket) for k >= 3.  Each
phase spreads from scratch and reads node 0's sketch off its heard-set with
one closed-form draw per distinct rate its members hold, all from the
phase's one draw generator.  The per-phase harmonic estimates give F_2 / N^2
from the sign sums, or F_k / N^k from the bucket phases, scaled by the
participant count.

Reports are plain dicts: a trial's record and the experiment's report are
the dicts report.json serialises, so each key is written in one place."""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import numpy.random  # numpy loads it on first use; load it with the package

from . import estimators, network, protocols, sketch_core
from .estimators import Dataset, ErrorBudget, exact_fk
from .protocols import SpreadConfig, heard_mask, run_spreading
from .sketch_core import QuantConfig, harmonic_estimate, min_truncated_exp_levels

NETWORK_KINDS = ("complete", "rgg-connected", "rgg-percolating")

DEFAULT_S1 = 5
_GIANT_MIN_FRACTION = 0.5
_MAX_CELLS = 1 << 23  # the desk-scale cap on a solved budget's r1 * r2

# Budget-solver calibration.  The worst-case theory constants (Chebyshev 2
# for the map term, Chernoff 12 for the replica term) demand r1*r2 in the
# billions at desk-scale (eps, delta); these Monte-Carlo-calibrated constants
# scale them down.  With pow2 rounding up to a power of two, solve_budget sizes
#   r1 = pow2(CAL_MAP_TERM / ((delta/2) (eps/2)^2)), which grows as 1/(delta eps^2),
#   r2 = pow2(CAL_EXP_TERM ln(4/delta) / (eps/32)^2).
# The map term thus grows as 1/delta, not log(1/delta) (ROADMAP item 10), and
# its constant undersizes r1 on two equal values (ROADMAP item 3); the
# calibration runs are not yet reproduced in this repository.
CAL_MAP_TERM = 2.0 / 256.0
CAL_EXP_TERM = 12.0 / 2.0**14


class CapacityError(RuntimeError):
    """The requested accuracy needs more sketch cells than the desk-scale cap."""


def check_data(spec: str) -> None:
    """Raises ValueError unless spec names a data model: pointmass | uniform |
    zipf:THETA with THETA finite and > 0 | file:PATH with PATH a file."""
    if spec in ("pointmass", "uniform"):
        return
    if spec.startswith("zipf:"):
        theta = float(spec[len("zipf:"):])
        if not theta > 0:  # nan included
            raise ValueError("zipf model needs a positive theta")
        if math.isinf(theta):
            raise ValueError("zipf model needs a finite theta")
    elif spec.startswith("file:"):
        path = spec[len("file:"):]
        if not path:
            raise ValueError("file model needs a path")
        if not os.path.isfile(path):
            raise ValueError(f"data file {path!r} is not a file")
    else:
        raise ValueError(f"unknown data model {spec!r}")


def generate_data(spec: str, n_nodes: int, alphabet_size: int, rng: np.random.Generator) -> Dataset:
    """The node values a checked data spec assigns to n_nodes nodes over the
    alphabet 1..alphabet_size."""
    if spec == "pointmass":
        v = int(rng.integers(1, alphabet_size + 1))
        values = np.full(n_nodes, v, dtype=np.int64)
    elif spec == "uniform":
        values = rng.integers(1, alphabet_size + 1, size=n_nodes)
    elif spec.startswith("zipf:"):
        support = np.arange(1, alphabet_size + 1)
        p = support.astype(float) ** -float(spec[len("zipf:"):])
        p /= p.sum()
        values = rng.choice(support, size=n_nodes, p=p)
    else:
        d = read_dataset_file(spec[len("file:"):])
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
    """Bucket count honoring B * s1 = O(M^(1 - 1/(k-1))) for M >= 1."""
    return math.ceil(alphabet_size ** (1.0 - 1.0 / (k - 1)))


def _next_pow2(x: float) -> int:
    n = max(1, math.ceil(x))
    return 1 << (n - 1).bit_length()


def solve_budget(
    eps: float,
    delta: float,
    n_nodes: int,
    r1: int | None = None,
    r2: int | None = None,
    quant_bits: int | None = None,
    trunc_l: float | None = None,
) -> tuple[ErrorBudget, QuantConfig]:
    """Pick (r1, r2) powers of two meeting the calibrated failure split, plus
    the matching truncation/quantization config.

    eps is split as eps1 = eps/2 for the map term and eps2 = eps/32 for the
    replica term; each term gets half of delta:
    - r1 = pow2(CAL_MAP_TERM / ((delta/2) eps1^2)), which grows as
      1/(delta eps^2) (ROADMAP items 3 and 10);
    - r2 = pow2(CAL_EXP_TERM ln(4/delta) / eps2^2).
    The quantizer follows QuantConfig.for_population at target eps2.  A given
    r1 and r2, quant_bits or trunc_l is taken as it is; solved budgets beyond
    _MAX_CELLS sketch cells raise CapacityError instead of returning
    something unrunnable.
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")
    if (r1 is None) != (r2 is None):
        raise ValueError("give both r1 and r2, or neither")
    eps1 = eps / 2.0
    eps2 = eps / 32.0
    delta_half = delta / 2.0
    if r1 is None:
        r1 = _next_pow2(CAL_MAP_TERM / (delta_half * eps1**2))
        r2 = _next_pow2(CAL_EXP_TERM * math.log(2.0 / delta_half) / eps2**2)
        if r1 * r2 > _MAX_CELLS:
            raise CapacityError(
                f"budget needs r1*r2 = {r1 * r2} sketch cells "
                f"(cap {_MAX_CELLS}); relax epsilon or delta"
            )
    budget = ErrorBudget(r1=r1, r2=r2)
    quant = QuantConfig.for_population(n_nodes, eps2)
    quant = QuantConfig(
        truncation_L=quant.truncation_L if trunc_l is None else trunc_l,
        quant_bits=quant.quant_bits if quant_bits is None else quant_bits,
    )
    return budget, quant


def resolve_network(
    spec: str, protocol: str, n_nodes: int, radius_c: float | None = None,
    p_n: float | None = None,
) -> tuple[float, float]:
    """(radius_c, p_n) of a network spec (complete | rgg-connected |
    rgg-percolating | graph:PATH with PATH a file) run by protocol on n_nodes
    nodes; a radius_c or p_n not given takes its regime's value.

    Aloha is rejected on the complete graph: a slot delivers only when exactly
    one of all N nodes transmits, about (N/ln N) e^(-N/ln N) of the slots at
    the default p_n, so the spread cannot finish.
    """
    kind = "graph" if spec.startswith("graph:") else spec
    if kind not in NETWORK_KINDS + ("graph",):
        raise ValueError(f"unknown network kind {spec!r}")
    if kind == "graph":
        path = spec[len("graph:"):]
        if not path:
            raise ValueError("graph network needs a path")
        if not os.path.isfile(path):
            raise ValueError(f"graph file {path!r} is not a file")
    if protocol not in protocols.PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    if kind == "complete" and protocol == protocols.ALOHA:
        raise ValueError("aloha needs a spatial network; the complete graph supports gossip only")
    percolating = kind == "rgg-percolating"
    if radius_c is None:
        radius_c = network.DEFAULT_PERCOLATION_C if percolating else network.DEFAULT_CONNECTIVITY_C
    if radius_c <= 0:
        raise ValueError("need radius_c > 0")
    if p_n is None:
        p_n = protocols.default_p_n(n_nodes, percolating=percolating)
    protocols.check_p_n(p_n)
    return radius_c, p_n


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment needs; master_seed plus a trial
    index determines every random choice in that trial.

    Every k >= 2 runs on every network kind.  k = 2 is one phase on the sign
    maps, so num_buckets and s1 resolve to 1 there; k >= 3 runs
    num_buckets * s1 bucket phases, with num_buckets None meaning
    default_num_buckets.  On rgg-percolating the trials run on the giant
    component.  radius_c and p_n default to the values of the network's regime.
    """

    n_nodes: int
    alphabet_size: int
    k: int
    data: str
    budget: ErrorBudget
    quant: QuantConfig
    network: str = "complete"
    protocol: str = protocols.GOSSIP
    num_buckets: int | None = None
    s1: int = 1
    trials: int = 1
    master_seed: int = 0
    epsilon: float = 0.1
    delta: float = 0.1
    radius_c: float | None = None
    p_n: float | None = None
    spread: SpreadConfig = field(default_factory=SpreadConfig)

    def __post_init__(self):
        check_data(self.data)
        if not (1 <= self.alphabet_size < self.n_nodes):
            raise ValueError("alphabet size must satisfy 1 <= M < N")
        if self.k < 2:
            raise ValueError("moment order k must be >= 2")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.radius_c, self.p_n = resolve_network(
            self.network, self.protocol, self.n_nodes, self.radius_c, self.p_n
        )
        if self.num_buckets is None:
            self.num_buckets = default_num_buckets(self.alphabet_size, self.k)
        if self.num_buckets < 1 or self.s1 < 1:
            raise ValueError("num_buckets and s1 must be >= 1")
        if self.k == 2:
            self.num_buckets = self.s1 = 1

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


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _trial_seeds(cfg: ExperimentConfig, trial_index: int) -> list[np.random.SeedSequence]:
    root = np.random.SeedSequence(entropy=(cfg.master_seed, trial_index))
    # data, maps, topology, then for k = 2 scheduling and sketch draws; for
    # k >= 3 the fifth is the root of the phases' seeds, each phase spawning
    # (scheduling, draws), and the fourth is unused
    return root.spawn(5)


class TrialRejected(RuntimeError):
    """Percolation trial whose giant component is too small to measure."""


def build_topology(spec: str, n: int, radius_c: float, rng: np.random.Generator):
    """Returns (topology-to-run-on, original node ids of participants, alpha)
    for a resolved network spec.  The complete graph is never built: it is
    run on as its node count N.  A percolating network is run on its giant
    component, and a giant below half of the N nodes raises TrialRejected."""
    if spec == "complete":
        return n, np.arange(n), 0.0
    if spec.startswith("graph:"):
        topo = network.read_edge_list(spec[len("graph:"):])
        if topo.n_nodes != n:
            raise ValueError(
                f"graph file has {topo.n_nodes} nodes, config wants {n}"
            )
        if len(network.giant_component(topo).giant) != n:
            raise ValueError("graph file is not connected")
        return topo, np.arange(n), 0.0
    if spec == "rgg-connected":
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
    rng: np.random.Generator,
    heard: np.ndarray,
) -> np.ndarray:
    """The sketch a node holds once it has heard from the nodes the boolean
    mask `heard` marks: the min over their initial grids, where a node
    holding value v draws one row of r2 levels per entry of
    rates_by_value[v - 1].  A cell's min depends only on how many members
    draw it at each rate, so each distinct positive rate, in the row-major
    order of its first entry among the members' rows, takes one draw from
    rng: the closed-form min of that many draws in every cell where some
    member has that rate."""
    acc = np.full((rates_by_value.shape[1], r2), quant.infinity_level, dtype=quant.level_dtype)
    counts = np.bincount(values[heard] - 1, minlength=len(rates_by_value))
    present = np.flatnonzero(counts)
    table, counts = rates_by_value[present], counts[present]
    todo = table > 0  # the entries whose rate has not been drawn yet
    while todo.any():
        rate = table.flat[np.argmax(todo)]
        in_group = table == rate
        todo &= ~in_group
        group = counts @ in_group
        cells = np.flatnonzero(group)
        levels = min_truncated_exp_levels(np.full(cells.size, rate), group[cells], r2, quant, rng)
        acc[cells] = np.minimum(acc[cells], levels, out=levels)
    return acc


def run_trial(cfg: ExperimentConfig, trial_index: int) -> dict | None:
    """One end-to-end trial of any k, as its record in report.json; None
    means a rejected percolation trial.

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
    dataset = generate_data(cfg.data, cfg.n_nodes, m, np.random.default_rng(data_ss))
    try:
        topo, part_ids, alpha = build_topology(
            cfg.network, cfg.n_nodes, cfg.radius_c, np.random.default_rng(topo_ss)
        )
    except TrialRejected:
        return None
    part_values = dataset.values[part_ids]
    n_part = part_values.size

    maps_seed = _seed_int(maps_ss)
    if cfg.k == 2:
        rates_by_value = (sketch_core.sign_table(maps_seed, r1, m).T > 0).astype(float)
        plan = [(1, 1, (sched_ss, draws_ss))]
    else:
        roots = sketch_core.root_table(maps_seed, r1, cfg.k, m).T
        rates_by_value = np.concatenate(
            [np.real(roots) + 1.0, np.imag(roots) + 1.0, np.ones(roots.shape)], axis=1
        )
        buckets = sketch_core.bucket_table(maps_seed, cfg.s1, cfg.num_buckets, m)
        phase_ids = itertools.product(range(1, cfg.s1 + 1), range(1, cfg.num_buckets + 1))
        plan = (  # each phase: a scheduling seed, then a draws seed
            (t, b, phase_ss.spawn(2))
            for (t, b), phase_ss in zip(phase_ids, draws_ss.spawn(cfg.phases))
        )

    reports, estimates = [], []
    for t, b, (phase_sched_ss, phase_draws_ss) in plan:
        report, heard = run_spreading(
            topo, cfg.protocol, cfg.spread, np.random.default_rng(phase_sched_ss), p_n=cfg.p_n
        )
        members = heard_mask(heard[0], n_part)
        del heard  # neither the heard-sets nor the sketch outlive their phase
        if cfg.k > 2:
            members &= buckets[t - 1, part_values - 1] == b
        draws = np.random.default_rng(phase_draws_ss)
        sketch = _heard_sketch(rates_by_value, part_values, r2, cfg.quant, draws, members)
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
    trial = {
        "seed": trial_index,
        "exact_scaled": exact_scaled,
        "estimate_scaled": estimate,
        "abs_error": abs_error,
        "steps": sum(report.steps_to_full for report in reports),
        "bits": sum(report.messages_sent for report in reports) * cfg.message_bits,
        "message_bits": cfg.message_bits,
        "phases": cfg.phases,
        "completed": completed,
        "success": completed and abs_error <= cfg.epsilon,
        "alpha": alpha,
    }
    if cfg.network == "rgg-percolating":
        # eq. (4): the estimate against the giant's own scaled moment
        part_scaled = exact_fk(Dataset(part_values, m), cfg.k) / float(n_part) ** cfg.k
        eq4_error = abs(estimate - part_scaled)
        trial[f"f{cfg.k}_alpha_scaled"] = part_scaled
        trial["eq4_error"] = eq4_error
        trial["eq4_ok"] = eq4_error <= cfg.epsilon
        trial["n_participants"] = n_part
        trial["success"] = completed and trial["eq4_ok"]
        if cfg.k == 2:  # the corollary on the whole network's F_2 is stated for k = 2 only
            corollary_stat = abs(estimate * n_part**2 - exact)
            corollary_threshold = cfg.n_nodes**2 * alpha**2 * (1.0 - cfg.epsilon)
            trial["corollary_stat"] = corollary_stat
            trial["corollary_threshold"] = corollary_threshold
            trial["corollary_ok"] = corollary_stat < corollary_threshold
    return trial


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> dict:
    """Run all trials (optionally across processes; trials are independent and
    aggregation is order-free) and assemble the report that report.json holds:
    the trials in trial order, the rejected trial indices, and the success
    rate and aggregates, which count only completed trials' errors."""
    kind = "percolation" if cfg.network == "rgg-percolating" else ("f2" if cfg.k == 2 else "fk")
    args = ([cfg] * cfg.trials, range(cfg.trials))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_trial, *args))  # in trial order
    else:
        outcomes = list(map(run_trial, *args))
    trials = [trial for trial in outcomes if trial is not None]
    rejected = [t for t, trial in enumerate(outcomes) if trial is None]
    completed = [trial for trial in trials if trial["completed"]]
    steps = [trial["steps"] for trial in trials]
    errors = [trial["abs_error"] for trial in completed]
    return {
        "config": asdict(cfg),
        "kind": kind,
        "empirical_success_rate": (
            sum(trial["success"] for trial in completed) / len(completed) if completed else 0.0
        ),
        "aggregates": {
            "trials_measured": len(trials),
            "trials_rejected": len(rejected),
            "non_converged": len(trials) - len(completed),
            "total_bits": int(sum(trial["bits"] for trial in trials)),
            "median_steps": estimators.median(steps) if steps else 0.0,
            "mean_steps": float(np.mean(steps)) if steps else 0.0,
            "mean_abs_error": float(np.mean(errors)) if errors else 0.0,
            "max_abs_error": float(np.max(errors)) if errors else 0.0,
        },
        "rejected_trials": rejected,
        "trials": trials,
    }
