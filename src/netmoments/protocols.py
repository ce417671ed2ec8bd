"""Information-spreading protocols: gossip with a discrete rate-N clock and
slotted Aloha with a single-transmitter collision rule, run over per-node
heard-sets, and spreading-time measurement.

A network is a Topology, or the complete graph K_N given as its node count N,
an int.  K_N is never stored: row u of its adjacency is 0..u-1, u+1..N-1, so
the gossip picker finds a neighbour by arithmetic, and Aloha, which would
need the whole adjacency, rejects it.

Aloha runs in blocks of up to 32 slots: one draw gives a block's transmit
masks, packed into one uint32 word per node with bit s for slot s.  Bitwise
ORs and ANDs over each node's neighbour words give the slots in which
exactly one neighbour transmits, and a scan of the receiver's row names that
neighbour.  Deliveries into nodes already full are dropped, since they
change nothing.  The spread, and where it leaves the generator, are those
of one mask per slot.

Spreading carries no sketch state.  A node's min-sketch is the elementwise
min of the initial sketches in its heard-set, so callers read sketches off
the heard-sets that run_spreading returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


_ALOHA_BLOCK = 32  # Aloha slots per mask draw: one bit of a node's uint32 word each


def _degree_classes(topo: Topology) -> list[tuple[np.ndarray, np.ndarray]]:
    """The nodes with neighbours, grouped by degree rounded up to a power of
    two w: per class, its nodes ascending and a (w, nodes) table whose column
    j lists the neighbours of the class's node j, padded with the id n of a
    sentinel that never transmits."""
    n = topo.n_nodes
    deg = np.diff(topo.indptr)
    # class c holds the degrees in (2^(c - 1), 2^c]; isolated nodes have none
    has = deg > 0
    cls = np.full(n, -1, dtype=np.int64)
    cls[has] = np.ceil(np.log2(deg[has]))
    classes = []
    for c in np.flatnonzero(np.bincount(cls[has])).tolist():
        rows = np.flatnonzero(cls == c)
        w = 1 << c
        d = deg[rows]
        col = np.repeat(np.arange(len(rows)), d)
        at = np.arange(d.sum()) - np.repeat(np.cumsum(d) - d, d)
        table = np.full((w, len(rows)), n, dtype=np.intp)
        table[at, col] = topo.indices[np.repeat(topo.indptr[rows], d) + at]
        classes.append((rows, table))
    return classes


def _aloha_block(
    topo: Topology,
    classes: list[tuple[np.ndarray, np.ndarray]],
    tx: np.ndarray,
    skip: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deliveries of the Aloha slots whose transmit masks are the rows of the
    (b, n) boolean array tx, b <= 32, over topo and its _degree_classes, as
    arrays (slot, sender, receiver): in slot order, receivers ascending
    within a slot, and none into a node marked in skip.

    A node receives a broadcast iff it is silent and has exactly one
    transmitting neighbor; everything else collides.
    """
    n = topo.n_nodes
    # bit s of words[u] says whether u transmits in slot s; words[n] = 0
    packed = np.zeros((n + 1, 4), dtype=np.uint8)
    packed[:n, : (len(tx) + 7) // 8] = np.packbits(
        np.ascontiguousarray(tx.T), axis=1, bitorder="little"
    )
    words = packed.view("<u4").ravel()
    # bit s of single[v]: exactly one neighbour of v transmits in slot s.
    # Per class, a pairwise tree over the neighbour words keeps the bits set
    # at least once and at least twice.
    single = np.zeros(n, dtype=np.uint32)
    for rows, table in classes:
        once, twice = words.take(table), None
        while len(once) > 1:
            half = len(once) // 2
            lo, hi = once[:half], once[half:]
            both = lo & hi
            if twice is not None:
                both |= twice[:half]
                both |= twice[half:]
            lo |= hi
            once, twice = lo, both
        single[rows] = once[0] if twice is None else once[0] & ~twice[0]
    single &= ~words[:n]
    single[skip] = 0
    # the set bits in slot-major order: transposed, row s of bits is slot s
    hit_rows = np.flatnonzero(single)
    bits = np.unpackbits(single[hit_rows].astype("<u4").view(np.uint8), bitorder="little")
    slot, at = np.divmod(np.flatnonzero(bits.reshape(-1, 32).T), len(hit_rows))
    receiver = hit_rows[at]
    # each receiver's sender: the one neighbour whose word has the slot's bit,
    # found by one scan over the receivers' rows
    start = topo.indptr[receiver]
    deg = topo.indptr[receiver + 1] - start
    entry = np.arange(deg.sum()) + np.repeat(start - (np.cumsum(deg) - deg), deg)
    nbrs = topo.indices.take(entry)
    slot_bit = np.repeat(np.left_shift(np.uint32(1), slot.astype(np.uint32)), deg)
    sender = nbrs[(words.take(nbrs) & slot_bit) != 0]
    return slot, sender, receiver


@dataclass
class SpreadReport:
    """Outcome of one spreading run."""

    steps_to_full: int
    messages_sent: int
    bits_sent: int
    completed: bool


def _spread_gossip(
    topo: Topology | int,
    exchange: bool,
    rng: np.random.Generator,
    max_steps: int,
    heard: list[int],
) -> tuple[int, int, bool]:
    """Gossip ticks until every heard-set is full or max_steps ticks have run,
    updating heard in place: (steps, messages, completed)."""
    n = len(heard)
    picker = _GossipPicker(topo, rng)
    full = (1 << n) - 1
    n_full = 1 if n == 1 else 0
    steps = 0
    messages = 0
    completed = n == 1

    while not completed and steps < max_steps:
        steps += 1
        u, v = picker.pick()
        if v < 0:
            deliveries = ()
        elif exchange:
            deliveries = ((u, v), (v, u))
        else:
            deliveries = ((u, v),)
        messages += len(deliveries)  # one message per sender
        # an exchange's two deliveries merge the same union, so applying them
        # in order is exact
        for src, dst in deliveries:
            merged = heard[dst] | heard[src]
            if merged != heard[dst]:
                heard[dst] = merged
                if merged == full:
                    n_full += 1
        completed = n_full == n
    return steps, messages, completed


def _spread_aloha(
    topo: Topology, p_n: float, rng: np.random.Generator, max_steps: int, heard: list[int]
) -> tuple[int, int, bool]:
    """Aloha slots until every heard-set is full or max_steps slots have run,
    updating heard in place: (steps, messages, completed).

    Slots run in blocks of up to _ALOHA_BLOCK.  A block's masks come from one
    draw, which reads the stream that one rng.random(n) per slot reads; a
    spread that completes inside a block rewinds the generator and redraws
    only the slots it used, so the generator ends where a slot-by-slot loop
    would leave it.
    """
    n = len(heard)
    classes = _degree_classes(topo)
    full = (1 << n) - 1
    is_full = np.zeros(n, dtype=bool)
    n_full = 0
    steps = 0
    messages = 0
    completed = n <= 1

    while not completed and steps < max_steps:
        b = min(_ALOHA_BLOCK, max_steps - steps)
        state = rng.bit_generator.state
        tx = rng.random((b, n)) < p_n
        slots, senders, receivers = _aloha_block(topo, classes, tx, is_full)
        used = b
        # a slot's receivers are distinct and never send in that slot, and a
        # delivery into a node that is full changes nothing, so applying the
        # deliveries in slot order is exact
        for slot, src, dst in zip(slots.tolist(), senders.tolist(), receivers.tolist()):
            merged = heard[dst] | heard[src]
            if merged != heard[dst]:
                heard[dst] = merged
                if merged == full:
                    is_full[dst] = True
                    n_full += 1
                    if n_full == n:
                        completed = True
                        used = slot + 1
                        break
        steps += used
        messages += int(np.count_nonzero(tx[:used]))
        if used < b:
            rng.bit_generator.state = state
            rng.random((used, n))
    return steps, messages, completed


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
    if protocol == ALOHA:
        p_n = default_p_n(n) if p_n is None else p_n
        if not (0.0 < p_n < 1.0):
            raise ValueError("p_n must lie in (0, 1)")
        if isinstance(topo, int):
            raise ValueError("aloha needs a Topology, not the complete graph's node count")
    heard = [1 << u for u in range(n)]
    if protocol == GOSSIP:
        exchange = cfg.exchange_mode == EXCHANGE
        steps, messages, completed = _spread_gossip(topo, exchange, rng, max_steps, heard)
    else:
        steps, messages, completed = _spread_aloha(topo, p_n, rng, max_steps, heard)

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
