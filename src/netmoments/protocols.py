"""Information-spreading protocols: gossip with a discrete rate-N clock and
slotted Aloha with a single-transmitter collision rule, run over per-node
heard-sets.

A network is a Topology.  K_N's rows are implicit, 0..u-1, u+1..N-1 for
node u, so gossip finds a neighbour there by arithmetic.  Aloha reads whole
rows, and cannot finish on K_N anyway; the experiment configuration rejects
it there, so it only ever runs on explicit rows.

Who contacts whom never depends on what anyone has heard, so each protocol
is a source of contact blocks: a plain generator whose blocks are its
contacts in order as arrays (tick, sender, receiver), and a boolean array
whose row t marks the messages of tick t.  A gossip tick is one exchange,
one contact that goes both ways, as in the bidirectional gossip model of
Mosk-Aoyama and Shah; an Aloha slot is one contact per receiver.
Gossip draws 4096 ticks a block, Aloha the transmit masks of 64 slots,
packed into one uint64 word per node with bit s for slot s: bitwise ORs and
ANDs over the neighbour words of each receiver not yet full give the slots
in which exactly one neighbour transmits, and one scan of a hit receiver's
row names its senders.  One loop, _deliver, applies either source's blocks
until every heard-set is full or the step cap binds.  It forms one union
per contact, heard[sender] | heard[receiver], and stores it into the
receiver, and under gossip into the sender too.
Full heard-sets are marked in a mask that both sources read when they draw
a block: they leave out every contact whose receiving ends are all full,
since it changes nothing.

Spreading carries no sketch state.  A node's min-sketch is the elementwise
min of the initial sketches in its heard-set, and the algorithm reads node
0's, so run_spreading returns node 0's heard-set alone, as a boolean mask;
the N heard-sets never leave this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import Topology

GOSSIP = "gossip"
ALOHA = "aloha"
PROTOCOLS = (GOSSIP, ALOHA)


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


_GOSSIP_BLOCK = 4096  # gossip ticks per draw


def _gossip_blocks(topo: Topology, rng: np.random.Generator, skip: np.ndarray):
    """Gossip contact blocks of _GOSSIP_BLOCK ticks, for _deliver.  Tick t
    picks a uniform node u and a uniform neighbour v of it: one contact
    u -> v that goes both ways, and row t of sent marks its two messages.
    A node without neighbours makes no contact.  A contact whose ends were
    both marked in skip when its block was drawn is left out."""
    while True:
        nodes = rng.integers(topo.n_nodes, size=_GOSSIP_BLOCK)
        fracs = rng.random(_GOSSIP_BLOCK)
        start = topo.indptr[nodes]
        deg = topo.indptr[nodes + 1] - start
        tick = np.flatnonzero(deg)
        u = nodes[tick]
        j = (fracs[tick] * deg[tick]).astype(np.int64)
        # entry j of u's row; in K_N's implicit row 0..u-1, u+1..N-1 it is j + (j >= u)
        v = j + (j >= u) if topo.indices is None else topo.indices[start[tick] + j]
        live = ~skip[u] | ~skip[v]
        sent = np.repeat(deg[:, None] > 0, 2, axis=1)
        yield tick[live], u[live], v[live], sent


_ALOHA_BLOCK = 64  # Aloha slots per mask draw: one bit of a node's uint64 word each
_PIECE = 2048  # receivers per degree-class table, which bounds the intp copy a gather makes


def _degree_classes(topo: Topology, live: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The receivers that still need a table, the nodes marked in the boolean
    array live that have neighbours, grouped by degree rounded up to a power
    of two w, in pieces of up to _PIECE nodes: per piece, its nodes ascending
    and an int32 (w, nodes) table whose column j lists the neighbours of the
    piece's node j, padded with the id n of a sentinel that never transmits.
    A column lists every neighbour, live or not, since a full node still
    transmits and collides."""
    n = topo.n_nodes
    deg = np.diff(topo.indptr)
    # class c holds the degrees in (2^(c - 1), 2^c]; isolated nodes have none
    has = live & (deg > 0)
    cls = np.full(n, -1, dtype=np.int64)
    cls[has] = np.ceil(np.log2(deg[has]))
    classes = []
    for c in np.flatnonzero(np.bincount(cls[has])).tolist():
        rows = np.flatnonzero(cls == c)
        w = 1 << c
        d = deg[rows]
        col = np.repeat(np.arange(len(rows)), d)
        at = np.arange(d.sum()) - np.repeat(np.cumsum(d) - d, d)
        table = np.full((w, len(rows)), n, dtype=np.int32)
        table[at, col] = topo.indices[np.repeat(topo.indptr[rows], d) + at]
        classes += [(rows[lo : lo + _PIECE], table[:, lo : lo + _PIECE])
                    for lo in range(0, len(rows), _PIECE)]
    return classes


def _aloha_block(
    topo: Topology,
    classes: list[tuple[np.ndarray, np.ndarray]],
    tx: np.ndarray,
    skip: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deliveries of the Aloha slots whose transmit masks are the rows of the
    (b, n) boolean array tx, b <= 64, over topo and its _degree_classes, as
    arrays (slot, sender, receiver): in slot order, receivers ascending
    within a slot, and none into a node marked in skip.  A node without a
    column in the classes receives nothing, so these are the deliveries of
    tables over every node as long as every node left out is in skip.

    A node receives a broadcast iff it is silent and has exactly one
    transmitting neighbor; everything else collides.
    """
    n = topo.n_nodes
    # bit s of words[u] says whether u transmits in slot s; words[n] = 0
    packed = np.zeros((n + 1, 8), dtype=np.uint8)
    packed[:n, : (len(tx) + 7) // 8] = np.packbits(
        np.ascontiguousarray(tx.T), axis=1, bitorder="little"
    )
    words = packed.view("<u8").ravel()
    # bit s of single[v]: exactly one neighbour of v transmits in slot s.
    # Per class, a pairwise tree over the neighbour words keeps the bits set
    # at least once and at least twice.
    single = np.zeros(n, dtype=np.uint64)
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
    # one scan over each hit receiver's row: words[nbr] & single[receiver]
    # marks exactly the slots in which nbr is the receiver's one sender
    hit = np.flatnonzero(single)
    start = topo.indptr[hit]
    deg = topo.indptr[hit + 1] - start
    entry = np.arange(deg.sum()) + np.repeat(start - (np.cumsum(deg) - deg), deg)
    nbrs = topo.indices.take(entry)
    marks = words.take(nbrs) & np.repeat(single[hit], deg)
    got = np.flatnonzero(marks)
    # the set bits in slot-major order: transposed, row s of bits is slot s,
    # and within it the entries, so the receivers, ascend
    bits = np.unpackbits(marks[got].astype("<u8", copy=False).view(np.uint8), bitorder="little")
    slot, at = np.divmod(np.flatnonzero(bits.view(bool).reshape(-1, 64).T), len(got))
    at = got[at]
    return slot, nbrs[at], np.repeat(hit, deg)[at]


def _aloha_blocks(topo: Topology, p_n: float, rng: np.random.Generator, skip: np.ndarray):
    """Aloha contact blocks of _ALOHA_BLOCK slots, for _deliver: a node
    transmits in a slot with probability p_n, so the masks mark the messages,
    and no delivery goes into a node marked in skip.  The degree-class
    tables cover the live receivers, those not marked in skip, and are
    rebuilt once the live count has halved since the last build, so all
    builds together cost at most two over every node."""
    n = topo.n_nodes
    built = 2 * n  # live nodes at the last build; this makes the first block build
    while True:
        live = ~skip
        n_live = np.count_nonzero(live)
        if 2 * n_live <= built:
            classes, built = _degree_classes(topo, live), n_live
        tx = rng.random((_ALOHA_BLOCK, n)) < p_n
        yield (*_aloha_block(topo, classes, tx, skip), tx)


@dataclass
class SpreadReport:
    """Outcome of one spreading run."""

    steps_to_full: int
    messages_sent: int
    completed: bool


def _deliver(blocks, heard: list[int], is_full: bytearray, max_steps: int, exchange: bool):
    """Applies a source's contact blocks to heard in place until every
    heard-set is full or max_steps ticks have run: (steps, messages,
    completed).  A contact (tick, u, v) forms the union heard[u] | heard[v]
    once and stores it into v, and under exchange into u too, so the two
    ends share one int.  That is exact: both deliveries of an exchange leave
    the same union, and an Aloha slot's receivers are distinct and never
    send in it.  is_full[w] is set once heard[w] is full; sources read it
    as their skip mask and leave out contacts that cannot change anything.
    """
    n = len(heard)
    full = (1 << n) - 1
    n_full = 0
    steps = messages = 0
    completed = n <= 1
    while not completed and steps < max_steps:
        tick, sender, receiver, sent = next(blocks)
        used = min(len(sent), max_steps - steps)
        cut = np.searchsorted(tick, used)  # the contacts of the first `used` ticks
        for t, u, v in zip(*(a[:cut].tolist() for a in (tick, sender, receiver))):
            merged = heard[u] | heard[v]
            heard[v] = merged
            if exchange:
                heard[u] = merged
            if merged == full:
                if not is_full[v]:
                    is_full[v] = 1
                    n_full += 1
                if exchange and not is_full[u]:
                    is_full[u] = 1
                    n_full += 1
                if n_full == n:
                    completed = True
                    used = t + 1
                    break
        steps += used
        messages += int(np.count_nonzero(sent[:used]))
    return steps, messages, completed


def run_spreading(
    topo: Topology,
    protocol: str,
    rng: np.random.Generator,
    p_n: float | None = None,
    max_steps: int | None = None,
) -> tuple[SpreadReport, np.ndarray]:
    """Run a protocol until every node has heard every other node (or the step
    cap).  Heard-sets S_u are tracked as bitmasks: bit w of S_u is set once
    node u has heard, directly or by relay, from node w.

    Gossip exchanges: both ends of a contact hear each other.  Only gossip
    takes the complete graph.  The settings come resolved and checked, as
    simulator.resolve_network leaves them: p_n is Aloha's transmit
    probability, required for Aloha and ignored by gossip; max_steps is the
    step cap, default_max_steps when None.

    Returns (SpreadReport, mask), mask node 0's heard-set as a boolean array
    over the N nodes: the members whose initial sketches node 0's min-sketch
    is the min of, complete or cut short by the cap.
    """
    n = topo.n_nodes
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    max_steps = default_max_steps(protocol, n) if max_steps is None else max_steps
    heard = [1 << u for u in range(n)]
    is_full = bytearray(n)
    # the sources read is_full through this view as their skip mask
    skip = np.frombuffer(is_full, dtype=bool)
    if protocol == GOSSIP:
        blocks = _gossip_blocks(topo, rng, skip)
    else:
        blocks = _aloha_blocks(topo, p_n, rng, skip)
    steps, messages, completed = _deliver(blocks, heard, is_full, max_steps, protocol == GOSSIP)
    node0 = (heard[0] if n else 0).to_bytes((n + 7) // 8, "little")
    mask = np.unpackbits(np.frombuffer(node0, dtype=np.uint8), count=n, bitorder="little")
    return SpreadReport(steps, messages, completed), mask.view(bool)
