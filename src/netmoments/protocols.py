"""Information-spreading protocols: gossip with a discrete rate-N clock and
slotted Aloha with a single-transmitter collision rule, run over per-node
heard-sets, and spreading-time measurement.

A network is a Topology, or the complete graph K_N given as its node count N,
an int.  K_N is never stored: row u of its adjacency is 0..u-1, u+1..N-1, so
the gossip picker finds a neighbour by arithmetic, and Aloha, which would
need the whole adjacency, rejects it.

Spreading carries no sketch state.  A node's min-sketch is the elementwise
min of the initial sketches in its heard-set, so callers read sketches off
the heard-sets that run_spreading returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .network import Topology

GOSSIP = "gossip"
ALOHA = "aloha"
PROTOCOLS = (GOSSIP, ALOHA)

EXCHANGE = "exchange"  # both endpoints hear each other, per the bidirectional gossip model
PUSH = "push"  # sensitivity variant: only the contacted neighbor hears


@dataclass(frozen=True)
class SpreadConfig:
    beta: float = 0.1
    max_steps: int | None = None
    exchange_mode: str = EXCHANGE

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if self.exchange_mode not in (EXCHANGE, PUSH):
            raise ValueError(f"exchange_mode must be one of {EXCHANGE!r}, {PUSH!r}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def default_max_steps(protocol: str, n_nodes: int) -> int:
    """Safety caps on the spreading loop.

    For gossip, 50 N ln N is a bare cap, not a scaling law: on the complete
    graph gossip completes in about 1.6 N ln N ticks, but on rgg-connected
    graphs steps / (N ln N) was 3.7, 5.1 and 7.1 at N = 10^4, 3*10^4 and
    10^5 and still rising, so the cap will bind once N is large enough.
    For Aloha with the default p_n = 1/ln N the constant-50 version of the
    cap is below observed completion times, so the constant here is 500.
    """
    n = max(n_nodes, 2)
    log_n = math.log(n)
    if protocol == GOSSIP:
        return math.ceil(50.0 * n * log_n)
    if protocol == ALOHA:
        return math.ceil(500.0 * (math.sqrt(n / log_n) + log_n) * log_n)
    raise ValueError(f"unknown protocol {protocol!r}")


def default_p_n(n_nodes: int, percolating: bool = False) -> float:
    """1/ln N in the connectivity regime; a constant in the percolation
    regime, where node degrees are constant."""
    if percolating:
        return 0.1
    return 1.0 / math.log(max(n_nodes, 3))


def _n_nodes(topo: Topology | int) -> int:
    return topo if isinstance(topo, int) else topo.n_nodes


class _GossipPicker:
    """Buffered (node, neighbor) picks for the spreading driver's hot loop:
    a uniform node and a uniform neighbor of it, drawn in blocks."""

    _BLOCK = 4096

    def __init__(self, topo: Topology | int, rng: np.random.Generator):
        self.topo = topo
        self.rng = rng
        self.pos = self._BLOCK

    def _refill(self) -> None:
        n = _n_nodes(self.topo)
        nodes = self.rng.integers(n, size=self._BLOCK)
        fracs = self.rng.random(self._BLOCK)
        nbrs = np.full(self._BLOCK, -1, dtype=np.int64)
        if isinstance(self.topo, int):
            # entry j = floor(frac (N - 1)) of row u of K_N is j + (j >= u)
            if n > 1:
                j = (fracs * (n - 1)).astype(np.int64)
                nbrs = j + (j >= nodes)
        else:
            indptr, indices = self.topo.indptr, self.topo.indices
            start = indptr[nodes]
            deg = indptr[nodes + 1] - start
            has = deg > 0
            nbrs[has] = indices[start[has] + (fracs[has] * deg[has]).astype(np.int64)]
        self.nodes, self.nbrs = nodes.tolist(), nbrs.tolist()
        self.pos = 0

    def pick(self) -> tuple[int, int]:
        """Returns (node, neighbor); neighbor is -1 for an isolated node."""
        if self.pos >= self._BLOCK:
            self._refill()
        pos = self.pos
        self.pos += 1
        return self.nodes[pos], self.nbrs[pos]


def _aloha_events(adj: csr_matrix, tx: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """One Aloha slot under the transmit mask tx, over the uint64 adjacency
    matrix adj (Topology.as_csr): (sender ids, deliveries).

    A node receives a broadcast iff it is silent and has exactly one
    transmitting neighbor; everything else collides.  A delivery is a
    (sender, receiver) pair, and each receiver appears at most once.
    """
    tx = np.asarray(tx, dtype=bool)
    senders = np.flatnonzero(tx)
    if senders.size == 0:
        return senders, []
    # one matvec against (id + 1) << 32 | 1 per transmitter: the low 32 bits
    # count a node's transmitting neighbors and, when that count is 1, the
    # high bits hold that neighbor's id + 1 (uint64 wraparound only ever
    # touches the high bits)
    tags = np.zeros(adj.shape[0], dtype=np.uint64)
    tags[senders] = ((senders.astype(np.uint64) + 1) << 32) | 1
    packed = adj.dot(tags)
    receivers = np.flatnonzero(~tx & ((packed & 0xFFFFFFFF) == 1))
    heard_from = (packed[receivers] >> 32) - 1
    return senders, list(zip(heard_from.tolist(), receivers.tolist()))


@dataclass
class SpreadReport:
    """Outcome of one spreading run."""

    steps_to_full: int
    messages_sent: int
    bits_sent: int
    completed: bool


def run_spreading(
    topo: Topology | int,
    protocol: str,
    cfg: SpreadConfig,
    rng: np.random.Generator,
    message_bits: int = 0,
    p_n: float | None = None,
) -> tuple[SpreadReport, list[int]]:
    """Run a protocol until every node has heard every other node (or the step
    cap).  Heard-sets S_u are tracked as bitmasks: bit w of S_u is set once
    node u has heard, directly or by relay, from node w.

    topo is a Topology, or the node count N of the complete graph, which
    only gossip accepts.

    Returns (SpreadReport, heard_sets).  A node's min-sketch is the min over
    the initial sketches of its heard-set, so the heard-sets are all a caller
    needs to read any node's sketch, complete or cut short by the cap.
    """
    n = _n_nodes(topo)
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    max_steps = cfg.max_steps if cfg.max_steps is not None else default_max_steps(protocol, n)
    gossip = protocol == GOSSIP
    exchange = cfg.exchange_mode == EXCHANGE
    if gossip:
        picker = _GossipPicker(topo, rng)
    else:
        p_n = default_p_n(n) if p_n is None else p_n
        if not (0.0 < p_n < 1.0):
            raise ValueError("p_n must lie in (0, 1)")
        if isinstance(topo, int):
            raise ValueError("aloha needs a Topology, not the complete graph's node count")
        adj = topo.as_csr()

    heard = [1 << u for u in range(n)]
    full = (1 << n) - 1
    n_full = 1 if n == 1 else 0
    steps = 0
    messages = 0
    completed = n == 1

    while not completed and steps < max_steps:
        steps += 1
        if gossip:
            u, v = picker.pick()
            if v < 0:
                deliveries = ()
            elif exchange:
                deliveries = ((u, v), (v, u))
            else:
                deliveries = ((u, v),)
            messages += len(deliveries)  # one message per sender
        else:
            senders, deliveries = _aloha_events(adj, rng.random(n) < p_n)
            messages += senders.size
        # a step's receivers are distinct and never send in the same step
        # (Aloha), or merge the same union (gossip exchange), so applying the
        # deliveries in order is exact
        for src, dst in deliveries:
            merged = heard[dst] | heard[src]
            if merged != heard[dst]:
                heard[dst] = merged
                if merged == full:
                    n_full += 1
        completed = n_full == n

    report = SpreadReport(
        steps_to_full=steps,
        messages_sent=messages,
        bits_sent=messages * message_bits,
        completed=completed,
    )
    return report, heard


def heard_ids(heard_set: int, n_nodes: int) -> np.ndarray:
    """Node ids in a heard-set bitmask, ascending."""
    raw = np.frombuffer(heard_set.to_bytes((n_nodes + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")[:n_nodes])


def empirical_quantile(values, q: float) -> float:
    """Smallest value t with at least a q-fraction of the samples <= t."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx]


@dataclass
class SpreadingMeasurement:
    """Empirical spreading-time estimate across independent trials."""

    quantile_steps: float
    beta: float
    steps: list[int]
    completed_trials: int
    trials: int


def measure_spreading(
    topo: Topology | int,
    protocol: str,
    cfg: SpreadConfig,
    trials: int,
    rng: np.random.Generator,
    p_n: float | None = None,
) -> SpreadingMeasurement:
    """Empirical (1 - beta)-quantile of steps to full dissemination.

    Trials that hit the step cap are excluded from the quantile and counted
    only in trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    steps: list[int] = []
    completed = 0
    for _ in range(trials):
        report, _ = run_spreading(topo, protocol, cfg, rng, p_n=p_n)
        if report.completed:
            completed += 1
            steps.append(report.steps_to_full)
    if not steps:
        cap = cfg.max_steps or default_max_steps(protocol, _n_nodes(topo))
        raise RuntimeError(f"no trial completed within the step cap ({cap})")
    return SpreadingMeasurement(
        quantile_steps=empirical_quantile(steps, 1.0 - cfg.beta),
        beta=cfg.beta,
        steps=steps,
        completed_trials=completed,
        trials=trials,
    )
