"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's estimator code paths: expectations are
computed by exhaustive enumeration or direct simulation so that the
probabilistic implementations have something honest to be checked against.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from netmoments.network import Topology, from_edges
from netmoments.protocols import SpreadReport


MAPS_PRIME = 2**31 - 1


def map_draw(seed: int, family: int, degree: int, index: int, value: int) -> int:
    """A shared-map value by its definition, in Python integers: map index
    of a family at a degree is the polynomial sum_j a_j x^j mod 2^31 - 1
    whose coefficients a_0..a_degree are row index of the (index,
    degree + 1) integers on [0, 2^31 - 1) drawn from the generator keyed by
    (seed, family, degree); the draw is its value at x = value."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, family, degree)))
    row = rng.integers(0, MAPS_PRIME, size=(index, degree + 1), dtype=np.uint64)[index - 1]
    return sum(int(a) * value**j for j, a in enumerate(row)) % MAPS_PRIME


def exhaustive_sign_expectation(counts) -> tuple[float, float]:
    """Mean and variance of (2 N_+ - N)^2 over all 2^M sign assignments."""
    counts = [int(c) for c in counts]
    n = sum(counts)
    values = []
    for signs in itertools.product((1, -1), repeat=len(counts)):
        nplus = sum(c for c, s in zip(counts, signs) if s == 1)
        values.append(float(2 * nplus - n) ** 2)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var


def exhaustive_root_expectation(counts, k: int) -> float:
    """Mean of Re{(sum_m N_m w^{h_m})^k} over all k^M root assignments."""
    counts = [int(c) for c in counts]
    roots = [complex(math.cos(2 * math.pi * l / k), math.sin(2 * math.pi * l / k)) for l in range(k)]
    total = 0.0
    num = 0
    for assign in itertools.product(range(k), repeat=len(counts)):
        s = sum(c * roots[h] for c, h in zip(counts, assign))
        total += (s**k).real
        num += 1
    return total / num


def neighbor_lists(n: int, edges) -> list[list[int]]:
    """Ascending neighbour lists of an undirected edge list, built with one
    Python set per node: either orientation, duplicates collapse."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        sets[int(u)].add(int(v))
        sets[int(v)].add(int(u))
    return [sorted(s) for s in sets]


def neighbors(topo: Topology, u: int) -> np.ndarray:
    """Row u of the CSR: the neighbours of node u, ascending."""
    return topo.indices[topo.indptr[u] : topo.indptr[u + 1]]


def degree(topo: Topology, u: int) -> int:
    return int(topo.indptr[u + 1] - topo.indptr[u])


def validate_topology(topo: Topology, positions=None, radius=None) -> None:
    """Exhaustive structural check: well-formed ascending rows, no
    self-loops, symmetric adjacency, and (when positions are given) edge iff
    distance <= radius, checked over all N^2 pairs.  An RGG drawn by
    build_rgg(n, radius, np.random.default_rng(s)) has the positions
    np.random.default_rng(s).random((n, 2)), its generator's first draw."""
    n = topo.n_nodes
    rows = np.repeat(np.arange(n), np.diff(topo.indptr))
    cols = topo.indices.astype(np.int64)
    if topo.indptr[0] != 0 or len(rows) != len(cols):
        raise ValueError("indptr does not delimit indices")
    if np.any((cols < 0) | (cols >= n)):
        raise ValueError("neighbour id out of range")
    keys = rows * n + cols
    if np.any(np.diff(keys) <= 0):
        raise ValueError("rows are not strictly ascending")
    if np.any(rows == cols):
        raise ValueError(f"self-loop at node {rows[rows == cols][0]}")
    if not np.array_equal(keys, np.sort(cols * n + rows)):
        raise ValueError("asymmetric adjacency")
    if positions is not None:
        if radius is None:
            raise ValueError("positions given without a radius")
        diff = positions[:, None, :] - positions[None, :, :]
        want = np.sqrt((diff**2).sum(axis=2)) <= radius
        np.fill_diagonal(want, False)
        have = np.zeros((n, n), dtype=bool)
        have[rows, cols] = True
        if not np.array_equal(want, have):
            raise ValueError("adjacency disagrees with the distance rule")


def write_edge_list(t: Topology, path, radius: float | None = None) -> None:
    """The edge-list file that network.read_edge_list reads: header
    "N radius" (radius '-' when None), then one "u v" line per edge."""
    with open(path, "w") as fh:
        header = "-" if radius is None else f"{radius:.9g}"
        fh.write(f"{t.n_nodes} {header}\n")
        fh.writelines(f"{u} {v}\n" for u, v in t.edges().tolist())


def cycle_topology(n_nodes: int) -> Topology:
    return from_edges(n_nodes, [(u, (u + 1) % n_nodes) for u in range(n_nodes)])


def explicit_complete_topology(n_nodes: int) -> Topology:
    """K_N as an explicit CSR, row u holding 0..u-1, u+1..N-1: the oracle for
    the implicit rows of network.complete_topology."""
    ids = np.arange(n_nodes, dtype=np.int32)
    indices = np.empty(n_nodes * (n_nodes - 1), dtype=np.int32)
    for u, row in enumerate(indices.reshape(n_nodes, n_nodes - 1)):
        row[:u] = ids[:u]
        row[u:] = ids[u + 1 :]
    return Topology(np.arange(n_nodes + 1, dtype=np.int64) * (n_nodes - 1), indices)


def kdtree_pairs(positions: np.ndarray, radius: float) -> np.ndarray:
    """(E, 2) array of the pairs u < v at distance <= radius, in row-major
    order, from scipy's k-d tree pair query: the oracle for the cell grid
    of network.build_rgg."""
    pairs = cKDTree(positions).query_pairs(radius, output_type="ndarray")
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def bfs_components(n: int, adjacency) -> np.ndarray:
    """Component labels by plain BFS with an explicit queue."""
    labels = np.full(n, -1, dtype=np.int64)
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                v = int(v)
                if labels[v] < 0:
                    labels[v] = start
                    queue.append(v)
    return labels


def bfs_giant(n: int, adjacency) -> np.ndarray:
    """The ascending ids of the largest component of bfs_components, the
    one with the smallest member among those of equal size."""
    labels = bfs_components(n, adjacency)
    sizes = Counter(labels.tolist())
    largest = min(sizes, key=lambda label: (-sizes[label], label))
    return np.flatnonzero(labels == largest)


def min_exponential_samples(rates, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Direct simulation of min_i Exp(rate_i), untruncated."""
    rates = np.asarray(rates, dtype=float)
    draws = rng.exponential(1.0, size=(n_samples, rates.size)) / rates
    return draws.min(axis=1)


def clamped_min_levels(rates, r2: int, quant, rngs) -> np.ndarray:
    """Elementwise min over the generators in rngs of r2 quantized draws
    min(Exp(rate), L) per positive rate: each generator draws its block of
    standard exponentials, divides each by its rate and clamps it at L, one
    member's draws.  Zero-rate rows, and every row when rngs is empty, hold
    the infinity sentinel.  The oracle for the one-draw min of
    sketch_core.min_truncated_exp_levels at the members' total rate."""
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    pos = rates > 0
    out = np.full((rates.size, r2), quant.infinity_level, dtype=quant.level_dtype)
    for rng in rngs:
        z = rng.standard_exponential(size=(int(pos.sum()), r2)) / rates[pos][:, None]
        out[pos] = np.minimum(out[pos], quant.quantize(np.minimum(z, quant.truncation_L)))
    return out


def heard_sketch(rates_by_value, values, r2: int, quant, node_seeds, members) -> np.ndarray:
    """The sketch over `members` drawn node by node: member u draws its own
    clamped grid for rates_by_value[values[u] - 1] from node_seeds[u], one
    clamped exponential per cell, and the sketch is the min over the
    members' grids.  The oracle, in law, for simulator._heard_sketch, which
    draws one exponential per cell at the cell's total rate."""
    rows = np.shape(rates_by_value)[1]
    acc = np.full((rows, r2), quant.infinity_level, dtype=quant.level_dtype)
    for u in members:
        rng = np.random.default_rng(node_seeds[u])
        grid = clamped_min_levels(rates_by_value[values[u] - 1], r2, quant, [rng])
        acc = np.minimum(acc, grid)
    return acc


def harmonic_estimate(row) -> float:
    """Population estimate r2 / sum(row) from one replica row of dequantized
    values, one Python float at a time: 0 when the row holds an infinity,
    infinity when it sums to 0."""
    arr = np.asarray(row, dtype=float)
    total = float(arr.sum())
    if not math.isfinite(total):
        return 0.0
    if total <= 0.0:
        return math.inf
    return arr.size / total


def harmonic_violation_rate(
    n_plus: int, r2: int, eps2: float, trials: int, rng: np.random.Generator
) -> float:
    """Empirical rate of |1/Z - N_+| > eps2 N_+ where Z is the mean of r2
    minima, each the min of n_plus unit exponentials (simulated directly)."""
    violations = 0
    for _ in range(trials):
        mins = rng.exponential(1.0, size=(r2, n_plus)).min(axis=1)
        inv_z = 1.0 / mins.mean()
        if abs(inv_z - n_plus) > eps2 * n_plus:
            violations += 1
    return violations / trials


def aloha_deliveries(adjacency, transmitting) -> set[tuple[int, int]]:
    """(sender, receiver) pairs of one Aloha slot by the receive rule read
    literally: a node receives iff it is silent and exactly one of its
    neighbours transmits."""
    out = set()
    for v, nbrs in enumerate(adjacency):
        if transmitting[v]:
            continue
        heard = [int(u) for u in nbrs if transmitting[int(u)]]
        if len(heard) == 1:
            out.add((heard[0], v))
    return out


def uint64_adjacency(topo: Topology) -> csr_matrix:
    """The adjacency of topo as a scipy matrix of uint64 ones."""
    data = np.ones(len(topo.indices), dtype=np.uint64)
    return csr_matrix((data, topo.indices, topo.indptr), shape=(topo.n_nodes,) * 2)


def aloha_slot_events(adj: csr_matrix, tx: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """One Aloha slot under the transmit mask tx, over a uint64 adjacency
    matrix: (sender ids, deliveries), each receiver at most once."""
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


def aloha_spread(
    topo: Topology, p_n: float, max_steps: int, rng: np.random.Generator
) -> tuple[SpreadReport, list[int]]:
    """Slotted Aloha one slot at a time: one rng.random(n) mask and one packed
    uint64 matvec per slot, every delivery applied; the report and all N
    heard-sets.  The oracle for the block-of-slots loop of run_spreading,
    which draws the masks of 64 slots at a time from the same stream."""
    n = topo.n_nodes
    adj = uint64_adjacency(topo)
    heard = [1 << u for u in range(n)]
    full = (1 << n) - 1
    steps = messages = 0
    completed = n == 1
    while not completed and steps < max_steps:
        steps += 1
        senders, deliveries = aloha_slot_events(adj, rng.random(n) < p_n)
        messages += senders.size
        for src, dst in deliveries:
            heard[dst] |= heard[src]
        completed = all(h == full for h in heard)
    report = SpreadReport(steps, messages, completed)
    return report, heard


def gossip_picks(topo: Topology | int, rng: np.random.Generator):
    """(node, neighbour) gossip picks one tick at a time: a uniform node and a
    uniform neighbour of it, -1 for a node without one.  The picks are drawn
    4096 at a time, rng.integers(n, size=4096) and then rng.random(4096),
    and the neighbour is entry floor(frac deg) of the node's row; topo is a
    Topology or the node count of K_N, whose row u is 0..u-1, u+1..N-1."""
    n = topo if isinstance(topo, int) else topo.n_nodes
    while True:
        nodes = rng.integers(n, size=4096)
        fracs = rng.random(4096)
        for u, frac in zip(nodes.tolist(), fracs.tolist()):
            if isinstance(topo, int):
                j = int(frac * (n - 1))
                yield u, (j + (j >= u) if n > 1 else -1)
            else:
                row = neighbors(topo, u)
                yield u, (int(row[int(frac * len(row))]) if len(row) else -1)


def gossip_spread(
    topo: Topology | int,
    max_steps: int,
    rng: np.random.Generator,
) -> tuple[SpreadReport, list[int]]:
    """Gossip one tick at a time: one pick of gossip_picks per tick, its
    exchange's deliveries u -> v, then v -> u, each a message and each
    applied; the report and all N heard-sets.  The oracle for the contact
    blocks and the delivery loop of run_spreading."""
    n = topo if isinstance(topo, int) else topo.n_nodes
    picks = gossip_picks(topo, rng)
    heard = [1 << u for u in range(n)]
    full = (1 << n) - 1
    n_full = 0
    steps = messages = 0
    completed = n == 1
    while not completed and steps < max_steps:
        steps += 1
        u, v = next(picks)
        deliveries = ((u, v), (v, u)) if v >= 0 else ()
        messages += len(deliveries)
        for src, dst in deliveries:
            merged = heard[dst] | heard[src]
            if merged != heard[dst]:
                heard[dst] = merged
                n_full += merged == full
        completed = n_full == n
    report = SpreadReport(steps, messages, completed)
    return report, heard


def empirical_quantile(values, q: float):
    """Smallest sample t with at least a q-fraction of the samples <= t, read
    off the sorted samples: the quantile column of `spreading-time`."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
