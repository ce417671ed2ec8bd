"""Experiment orchestration: one trial pipeline for every k and every
network, and (epsilon, delta) accounting across trials.

A trial assigns data, derives the shared maps and builds the network once;
on a percolating network the trial runs on the giant component, or is
rejected when the giant holds under half the nodes.  Then it runs its
s1 * B bucket phases in sequence, one per (bucket map, bucket); k = 2 has
one bucket map and one bucket, B = M^(1 - 1/(k - 1)) = 1, so one phase.
Each phase spreads from scratch, by gossip's exchange or by slotted Aloha,
and reads node 0's sketch off the heard-set members in its bucket: one
matvec gives each cell's total rate over them, and one call to the phase's
draw generator gives every cell's clamped exponential at that rate.
estimators.estimate_fk turns the per-phase harmonic estimates into
F_k / N^k, scaled by the participant count.

Reports are plain dicts: a trial's record and the experiment's report are
the dicts report.json serialises, so each key is written in one place."""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
import numpy.random  # numpy loads it on first use; load it with the package

from . import estimators, network, protocols, sketch_core
from .estimators import Dataset, ErrorBudget, exact_fk, moment_scale
from .protocols import run_spreading
from .sketch_core import QuantConfig, harmonic_estimate, min_truncated_exp_levels

NETWORK_KINDS = ("complete", "rgg-connected", "rgg-percolating")

DEFAULT_S1 = 5
_GIANT_MIN_FRACTION = 0.5
_MAX_CELLS = 1 << 23  # the desk-scale cap on a sketch's channels * r1 * r2 cells

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
    """The dataset of a file that write_dataset_file wrote: a header "N M",
    then one value per line; blank lines are skipped."""
    (n, m), rows = network.read_int_rows(path, (int, int), "'N M'", 1, "not an integer value")
    if len(rows) != n:
        raise ValueError(f"{path}: header says N={n} but found {len(rows)} values")
    try:
        return Dataset(rows.ravel(), m)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def default_num_buckets(alphabet_size: int, k: int) -> int:
    """Bucket count honoring B * s1 = O(M^(1 - 1/(k-1))) for M >= 1."""
    return math.ceil(alphabet_size ** (1.0 - 1.0 / (k - 1)))


def _next_pow2(x: float) -> int:
    n = max(1, math.ceil(x))
    return 1 << (n - 1).bit_length()


def sketch_channels(k: int) -> int:
    """Level rows per map in a sketch: the signs' one at k = 2; at k >= 3 the
    roots' real and imaginary channels and the population channel."""
    return 1 if k == 2 else 3


def solve_budget(
    eps: float,
    delta: float,
    n_nodes: int,
    r1: int | None = None,
    r2: int | None = None,
    quant_bits: int | None = None,
    trunc_l: float | None = None,
    k: int = 2,
) -> tuple[ErrorBudget, QuantConfig]:
    """Pick (r1, r2) powers of two meeting the calibrated failure split, plus
    the matching truncation/quantization config.

    eps is split as eps1 = eps/2 for the map term and eps2 = eps/32 for the
    replica term; each term gets half of delta:
    - r1 = pow2(CAL_MAP_TERM / ((delta/2) eps1^2)), which grows as
      1/(delta eps^2) (ROADMAP items 3 and 10);
    - r2 = pow2(CAL_EXP_TERM ln(4/delta) / eps2^2).
    The quantizer follows QuantConfig.for_population at target eps2 in the
    parts not given.  A given r1 and r2, quant_bits or trunc_l is taken as
    it is, within range: a given L must clamp a rate-1 draw with probability
    e^(-L) <= eps, and the cell width L/2^quant_bits must resolve the min
    over N nodes, of order 1/N, so it is at most 1/N.  The rule's cell
    width is at most eps2/N, and its L = max(2 ln N, ln(1/eps2)) clamps a
    draw with probability at most eps2.  A value out of range raises
    ValueError.  A budget whose sketch at moment order k holds more than
    _MAX_CELLS cells, sketch_channels(k) * r1 * r2, raises CapacityError,
    solved or given, instead of returning something unrunnable; so does an
    eps or delta so small that a solved term, or a part of the quantizer
    the rule gives, leaves range.
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")
    if (r1 is None) != (r2 is None):
        raise ValueError("give both r1 and r2, or neither")
    eps1 = eps / 2.0
    eps2 = eps / 32.0
    delta_half = delta / 2.0
    if r1 is None:
        try:
            r1 = _next_pow2(CAL_MAP_TERM / (delta_half * eps1**2))
            r2 = _next_pow2(CAL_EXP_TERM * math.log(2.0 / delta_half) / eps2**2)
        except (ZeroDivisionError, OverflowError):  # a divisor underflowed to 0, or a term to inf
            raise CapacityError(
                f"epsilon = {eps} and delta = {delta} need a budget past float range "
                f"(cap {_MAX_CELLS} sketch cells); relax epsilon or delta"
            ) from None
    budget = ErrorBudget(r1=r1, r2=r2)
    channels = sketch_channels(k)
    if channels * r1 * r2 > _MAX_CELLS:
        factor = "" if channels == 1 else f"{channels}*"
        raise CapacityError(
            f"budget needs {factor}r1*r2 = {channels * r1 * r2} sketch cells "
            f"(cap {_MAX_CELLS}); relax epsilon or delta, or give smaller r1 and r2"
        )
    try:
        quant = QuantConfig.for_population(n_nodes, eps2, trunc_l, quant_bits)
    except OverflowError as exc:
        raise CapacityError(
            f"epsilon = {eps} needs a quantizer past range ({exc}); relax epsilon, "
            f"or give both the truncation L and the quantizer bits"
        ) from None
    if trunc_l is not None and math.exp(-trunc_l) > eps:
        raise ValueError(f"truncation L = {trunc_l} must be at least ln(1/epsilon) = "
                         f"{math.log(1.0 / eps):.6g}, so that e^(-L) <= epsilon")
    if quant.cell_width > 1.0 / n_nodes:
        raise ValueError(f"cell width L/2^quant_bits = {quant.cell_width:.6g} must be at most "
                         f"1/N = {1.0 / n_nodes:.6g}")
    return budget, quant


def resolve_network(
    spec: str, protocol: str, n_nodes: int, radius_c: float | None = None,
    p_n: float | None = None, max_steps: int | None = None,
) -> tuple[float | None, float | None]:
    """(radius_c, p_n) of a network spec (complete | rgg-connected |
    rgg-percolating | graph:PATH with PATH a file) run by protocol on
    n_nodes nodes.  Each is None where it decides nothing, and elsewhere as
    given or else its regime's value: radius_c on the RGG kinds, p_n under
    Aloha.  A radius_c, p_n or max_steps (the step cap, which every run
    reads) given is checked wherever it is given.

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
    if radius_c is not None and not 0.0 < radius_c < math.inf:
        raise ValueError(f"need radius_c > 0 and finite, got {radius_c}")
    if p_n is not None and not (0.0 < p_n < 1.0):
        raise ValueError(f"p_n must lie in (0, 1), got {p_n}")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    percolating = kind == "rgg-percolating"
    if not kind.startswith("rgg-"):
        radius_c = None
    elif radius_c is None:
        radius_c = network.DEFAULT_PERCOLATION_C if percolating else network.DEFAULT_CONNECTIVITY_C
    if protocol == protocols.GOSSIP:
        return radius_c, None
    if p_n is None:
        p_n = protocols.default_p_n(n_nodes, percolating=percolating)
    return radius_c, p_n


@dataclass
class ExperimentConfig:
    """Everything a reproducible experiment needs; master_seed plus a trial
    index determines every random choice in that trial.

    Every k >= 2 runs on every network kind, in num_buckets * s1 bucket
    phases, with num_buckets None meaning default_num_buckets.  k = 2 is
    the one-bucket case, so num_buckets and s1 resolve to 1 there.  On
    rgg-percolating the trials run on the giant component.  radius_c and
    p_n resolve by resolve_network, to None where they decide nothing, so
    report.json's config block holds only what decides a run; max_steps
    None means default_max_steps.
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
    max_steps: int | None = None

    def __post_init__(self):
        check_data(self.data)
        if not (1 <= self.alphabet_size < self.n_nodes):
            raise ValueError("alphabet size must satisfy 1 <= M < N")
        if self.k < 2:
            raise ValueError("moment order k must be >= 2")
        moment_scale(self.n_nodes, self.k)  # every trial scales by N^k
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        self.radius_c, self.p_n = resolve_network(
            self.network, self.protocol, self.n_nodes, self.radius_c, self.p_n, self.max_steps
        )
        if self.num_buckets is None:
            self.num_buckets = default_num_buckets(self.alphabet_size, self.k)
        if self.num_buckets < 1 or self.s1 < 1:
            raise ValueError("num_buckets and s1 must be >= 1")
        if self.k == 2:
            self.num_buckets = self.s1 = 1

    @property
    def phases(self) -> int:
        return self.num_buckets * self.s1

    @property
    def channels(self) -> int:
        return sketch_channels(self.k)

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
    """Returns (topology-to-run-on, original node ids of participants) for a
    resolved network spec.  A percolating network is run on its giant
    component, and a giant below half of the N nodes raises TrialRejected."""
    if spec == "complete":
        return network.complete_topology(n), np.arange(n)
    if spec.startswith("graph:"):
        topo = network.read_edge_list(spec[len("graph:"):])
        if topo.n_nodes != n:
            raise ValueError(
                f"graph file has {topo.n_nodes} nodes, config wants {n}"
            )
        if len(network.giant_component(topo)) != n:
            raise ValueError("graph file is not connected")
        return topo, np.arange(n)
    if spec == "rgg-connected":
        radius = network.connectivity_radius(n, radius_c)
        return network.build_connected_rgg(n, radius, rng), np.arange(n)
    # rgg-percolating
    radius = network.percolation_radius(n, radius_c)
    topo = network.build_rgg(n, radius, rng)
    giant = network.giant_component(topo)
    if len(giant) < _GIANT_MIN_FRACTION * n:
        raise TrialRejected(f"giant component holds {len(giant)}/{n} nodes")
    return network.induced_subgraph(topo, giant)


def trial_inputs(cfg: ExperimentConfig, trial_index: int, first=None):
    """A trial's (dataset, network): network is (topology to run on, original
    node ids of participants), or None for a percolation trial rejected for
    its small giant.  first is trial_inputs(cfg, 0): trial 0 runs on it, and
    every trial takes from it what no seed decides, a data file's dataset
    and a graph file's network.  The rest comes from the trial's own seeds.

    An input no trial can use (a malformed or mismatched file, a
    disconnected graph file, no connected RGG) raises its ValueError, so
    the CLI builds first before its first output."""
    data_ss, _, topo_ss, _, _ = _trial_seeds(cfg, trial_index)
    if first is not None and (trial_index == 0 or cfg.data.startswith("file:")):
        dataset = first[0]
    else:
        dataset = generate_data(cfg.data, cfg.n_nodes, cfg.alphabet_size,
                                np.random.default_rng(data_ss))
    if first is not None and (trial_index == 0 or cfg.network.startswith("graph:")):
        return dataset, first[1]
    try:
        net = build_topology(cfg.network, cfg.n_nodes, cfg.radius_c, np.random.default_rng(topo_ss))
    except TrialRejected:
        net = None
    return dataset, net


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
    rates_by_value[v - 1].  A cell's min depends only on its total rate,
    the members' counts per value times their rates, so each cell of
    positive total rate takes one clamped draw per replica from rng, in
    cell order, and a cell of rate 0, which no member draws, keeps the
    sentinel."""
    acc = np.full((rates_by_value.shape[1], r2), quant.infinity_level, dtype=quant.level_dtype)
    total = np.bincount(values[heard] - 1, minlength=len(rates_by_value)) @ rates_by_value
    cells = np.flatnonzero(total)
    acc[cells] = min_truncated_exp_levels(total[cells], r2, quant, rng)
    return acc


def run_trial(cfg: ExperimentConfig, trial_index: int, first) -> dict | None:
    """One end-to-end trial of any k, as its record in report.json; None
    means a rejected percolation trial.

    The set-up runs once: data and the network, as trial_inputs(cfg,
    trial_index, first) gives them (on a percolating network, its giant
    component), and the maps.  Then the s1 * num_buckets bucket phases run
    in sequence, phase (t, b) a spread from scratch and a sketch read off
    node 0's heard-set, over the participants that bucket map t sends to
    bucket b.  The maps and rates are k's:
    - k = 2 has one bucket map and one bucket, so its one phase holds every
      participant, on one channel of the sign maps, at rate 1 where the sign
      is +1 and 0 elsewhere;
    - k >= 3 reads three channels of the roots-of-unity maps: real at rate
      Re(root) + 1, imaginary at Im(root) + 1 and population at rate 1.

    The estimate is computed by, and scaled for, the participants; the exact
    oracle always uses all N nodes.
    """
    _, maps_ss, _, sched_ss, draws_ss = _trial_seeds(cfg, trial_index)
    m, r1, r2 = cfg.alphabet_size, cfg.budget.r1, cfg.budget.r2
    dataset, net = trial_inputs(cfg, trial_index, first)
    if net is None:
        return None
    topo, part_ids = net
    part_values = dataset.values[part_ids]
    n_part = part_values.size
    alpha = 1.0 - n_part / cfg.n_nodes

    maps_seed = _seed_int(maps_ss)
    if cfg.k == 2:
        rates_by_value = (sketch_core.sign_table(maps_seed, r1, m).T > 0).astype(float)
        phase_seeds = [(sched_ss, draws_ss)]
    else:
        roots = sketch_core.root_table(maps_seed, r1, cfg.k, m).T
        rates_by_value = np.concatenate(
            [np.real(roots) + 1.0, np.imag(roots) + 1.0, np.ones(roots.shape)], axis=1
        )
        phase_seeds = (phase_ss.spawn(2) for phase_ss in draws_ss.spawn(cfg.phases))
    buckets = sketch_core.bucket_table(maps_seed, cfg.s1, cfg.num_buckets, m)
    phase_ids = itertools.product(range(1, cfg.s1 + 1), range(1, cfg.num_buckets + 1))

    reports, estimates = [], []
    for (t, b), (sched, draws) in zip(phase_ids, phase_seeds):
        report, members = run_spreading(topo, cfg.protocol, np.random.default_rng(sched),
                                        cfg.p_n, cfg.max_steps)
        members &= buckets[t - 1, part_values - 1] == b
        sketch = _heard_sketch(rates_by_value, part_values, r2, cfg.quant,
                               np.random.default_rng(draws), members)
        estimates.append(harmonic_estimate(sketch.reshape(cfg.channels, r1, r2), cfg.quant))
        reports.append(report)
        del sketch  # a sketch does not outlive its phase
    completed = all(report.completed for report in reports)

    phases = np.array(estimates).reshape(cfg.s1, cfg.num_buckets, cfg.channels, r1)
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


def run_experiment(cfg: ExperimentConfig, jobs: int, first) -> dict:
    """Run all trials and assemble the report that report.json holds: the
    trials in trial order, the rejected trial indices, and the success rate
    and aggregates, which count only completed trials' errors.

    first is trial 0's inputs, as trial_inputs(cfg, 0) builds them.  Each
    trial runs as run_trial(cfg, t, first), in this process or, with
    jobs > 1, across jobs worker processes; trials are independent, so the
    report is the same either way."""
    kind = "percolation" if cfg.network == "rgg-percolating" else ("f2" if cfg.k == 2 else "fk")
    tasks = ([cfg] * cfg.trials, range(cfg.trials), [first] * cfg.trials)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_trial, *tasks))  # in order
    else:
        outcomes = list(map(run_trial, *tasks))
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
