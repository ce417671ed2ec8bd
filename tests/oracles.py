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
