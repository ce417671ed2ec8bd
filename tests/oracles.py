"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's estimator code paths: expectations are
computed by exhaustive enumeration or direct simulation so that the
probabilistic implementations have something honest to be checked against.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np
from scipy.sparse import csr_matrix

from netmoments.network import Topology
from netmoments.protocols import SpreadReport


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


def complete_topology(n_nodes: int) -> Topology:
    """K_N as an explicit CSR, row u holding 0..u-1, u+1..N-1: the oracle for
    the protocols' arithmetic neighbour of the complete graph given as N."""
    ids = np.arange(n_nodes, dtype=np.int32)
    indices = np.empty(n_nodes * (n_nodes - 1), dtype=np.int32)
    for u, row in enumerate(indices.reshape(n_nodes, n_nodes - 1)):
        row[:u] = ids[:u]
        row[u:] = ids[u + 1 :]
    return Topology(np.arange(n_nodes + 1, dtype=np.int64) * (n_nodes - 1), indices)


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


def min_exponential_samples(rates, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Direct simulation of min_i Exp(rate_i), untruncated."""
    rates = np.asarray(rates, dtype=float)
    draws = rng.exponential(1.0, size=(n_samples, rates.size)) / rates
    return draws.min(axis=1)


def resampled_min_levels(rates, r2: int, quant, rngs) -> np.ndarray:
    """Elementwise min over the generators in rngs of r2 quantized Exp(rate)
    draws per positive rate, each generator drawing its block and then
    redrawing, in row-major order, only the entries still above L (the
    truncation by resampling, done literally).  Zero-rate rows, and every
    row when rngs is empty, hold the infinity sentinel.  The oracle for the
    closed-form min of sketch_core.min_truncated_exp_levels."""
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    pos = rates > 0
    scales = 1.0 / rates[pos]
    acc = None
    for rng in rngs:
        z = rng.standard_exponential(size=(scales.size, r2))
        z *= scales[:, None]
        over = np.flatnonzero(z > quant.truncation_L)
        while over.size:
            redraw = rng.standard_exponential(size=over.size)
            redraw *= scales[over // r2]
            np.put(z, over, redraw)
            over = over[redraw > quant.truncation_L]
        acc = z if acc is None else np.minimum(acc, z)
    out = np.full((rates.size, r2), quant.infinity_level, dtype=quant.level_dtype)
    if acc is not None:
        out[pos] = quant.quantize(acc)
    return out


def heard_sketch(rates_by_value, values, r2: int, quant, node_seeds, members) -> np.ndarray:
    """The sketch over `members` drawn node by node: member u draws its own
    resampled grid for rates_by_value[values[u] - 1] from node_seeds[u], and
    the sketch is the min over the members' grids."""
    rows = np.shape(rates_by_value)[1]
    acc = np.full((rows, r2), quant.infinity_level, dtype=quant.level_dtype)
    for u in members:
        rng = np.random.default_rng(node_seeds[u])
        grid = resampled_min_levels(rates_by_value[values[u] - 1], r2, quant, [rng])
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
    topo: Topology, p_n: float, max_steps: int, rng: np.random.Generator, message_bits: int = 0
) -> tuple[SpreadReport, list[int]]:
    """Slotted Aloha one slot at a time: one rng.random(n) mask and one packed
    uint64 matvec per slot, every delivery applied.  The oracle for the
    block-of-slots loop of run_spreading."""
    n = topo.n_nodes
    data = np.ones(len(topo.indices), dtype=np.uint64)
    adj = csr_matrix((data, topo.indices, topo.indptr), shape=(n, n))
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
    report = SpreadReport(steps, messages, messages * message_bits, completed)
    return report, heard
