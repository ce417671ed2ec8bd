"""Topology construction and analysis: complete graphs, edge lists, and random
geometric graphs in the connectivity and percolation regimes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

# Radius-rule constants.  The scaling laws fix only the shape; these constants
# were calibrated by Monte Carlo runs not yet reproduced in this repository
# (ROADMAP item 1), which found that c = 2 makes N = 1000 instances connected
# in >= 95% of seeds and c = 1.35 keeps the giant component above 0.8 N at
# N = 2000 in >= 90% of seeds.
DEFAULT_CONNECTIVITY_C = 2.0
DEFAULT_PERCOLATION_C = 1.35
_RGG_CONNECT_ATTEMPTS = 100


class DisconnectedGraphError(ValueError):
    """No connected graph could be drawn: a configuration error (the radius
    is too small for the node count), not a crash."""


@dataclass
class Topology:
    """Undirected graph as sorted neighbor arrays, optionally with node
    positions in the unit square and the transmission radius that induced the
    edges."""

    adjacency: list[np.ndarray]
    positions: np.ndarray | None = None
    radius: float | None = None
    _csr: csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def edges(self):
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield u, int(v)

    def validate(self) -> None:
        """Exhaustive structural check: no self-loops, symmetric adjacency,
        and (when positions are present) edge iff distance <= radius."""
        n = self.n_nodes
        neighbor_sets = [set(map(int, a)) for a in self.adjacency]
        for u, s in enumerate(neighbor_sets):
            if u in s:
                raise ValueError(f"self-loop at node {u}")
            for v in s:
                if u not in neighbor_sets[v]:
                    raise ValueError(f"asymmetric edge ({u}, {v})")
        if self.positions is not None:
            if self.radius is None:
                raise ValueError("positions given without a radius")
            diff = self.positions[:, None, :] - self.positions[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            want = dist <= self.radius
            np.fill_diagonal(want, False)
            have = np.zeros((n, n), dtype=bool)
            for u, s in enumerate(neighbor_sets):
                have[u, list(s)] = True
            if not np.array_equal(want, have):
                raise ValueError("adjacency disagrees with the distance rule")

    def as_csr(self) -> csr_matrix:
        if self._csr is None:
            rows, cols = [], []
            for u, nbrs in enumerate(self.adjacency):
                rows.extend([u] * len(nbrs))
                cols.extend(map(int, nbrs))
            # uint64, the type of the packed Aloha tags, so no product upcasts
            data = np.ones(len(rows), dtype=np.uint64)
            self._csr = csr_matrix(
                (data, (rows, cols)), shape=(self.n_nodes, self.n_nodes)
            )
        return self._csr


def from_edges(
    n_nodes: int,
    edges,
    positions: np.ndarray | None = None,
    radius: float | None = None,
) -> Topology:
    neighbor_sets: list[set[int]] = [set() for _ in range(n_nodes)]
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise ValueError(f"edge ({u}, {v}) out of range")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = [np.array(sorted(s), dtype=np.int64) for s in neighbor_sets]
    return Topology(adjacency, positions=positions, radius=radius)


def complete_topology(n_nodes: int) -> Topology:
    all_ids = np.arange(n_nodes, dtype=np.int64)
    adjacency = [np.delete(all_ids, u) for u in range(n_nodes)]
    return Topology(adjacency)


def cycle_topology(n_nodes: int) -> Topology:
    return from_edges(n_nodes, [(u, (u + 1) % n_nodes) for u in range(n_nodes)])


def connectivity_radius(n_nodes: int, c: float = DEFAULT_CONNECTIVITY_C) -> float:
    """sqrt(c ln N / N): the connectivity-regime transmission range."""
    if n_nodes < 2 or c <= 0:
        raise ValueError("need n_nodes >= 2 and c > 0")
    return math.sqrt(c * math.log(n_nodes) / n_nodes)


def percolation_radius(n_nodes: int, c: float = DEFAULT_PERCOLATION_C) -> float:
    """c / sqrt(N): the percolation-regime transmission range."""
    if n_nodes < 2 or c <= 0:
        raise ValueError("need n_nodes >= 2 and c > 0")
    return c / math.sqrt(n_nodes)


def build_rgg(n_nodes: int, radius: float, rng: np.random.Generator) -> Topology:
    """Uniform i.i.d. positions in the unit square, edges between all pairs at
    distance <= radius."""
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if not (0.0 < radius <= math.sqrt(2.0)):
        raise ValueError("radius must lie in (0, sqrt(2)]")
    positions = rng.random((n_nodes, 2))
    pairs = cKDTree(positions).query_pairs(radius, output_type="ndarray")
    return from_edges(n_nodes, pairs, positions=positions, radius=radius)


@dataclass
class ComponentReport:
    """Connected-component labeling with the giant component singled out."""

    component_ids: np.ndarray
    giant_set: frozenset[int]
    alpha: float


def giant_component(t: Topology) -> ComponentReport:
    """Union-find labeling; each node is labeled by the smallest id in its
    component, and the giant is the largest component (smallest-id tiebreak,
    which the smallest-member labels give for free)."""
    n = t.n_nodes
    parent = np.arange(n)

    def find(a: int) -> int:
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    for u, v in t.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = np.array([find(u) for u in range(n)])
    labels = np.empty(n, dtype=np.int64)
    smallest: dict[int, int] = {}
    for u in range(n):
        smallest.setdefault(int(roots[u]), u)
    for u in range(n):
        labels[u] = smallest[int(roots[u])]
    sizes: dict[int, int] = {}
    for lab in labels:
        sizes[int(lab)] = sizes.get(int(lab), 0) + 1
    giant_label = max(sizes, key=lambda lab: (sizes[lab], -lab))
    giant = frozenset(int(u) for u in np.flatnonzero(labels == giant_label))
    return ComponentReport(labels, giant, 1.0 - len(giant) / n)


def build_connected_rgg(n_nodes: int, radius: float, rng: np.random.Generator) -> Topology:
    """Redraw RGGs until one is connected, giving up after a fixed number of
    draws with DisconnectedGraphError instead of looping forever."""
    for _ in range(_RGG_CONNECT_ATTEMPTS):
        topo = build_rgg(n_nodes, radius, rng)
        if len(giant_component(topo).giant_set) == n_nodes:
            return topo
    raise DisconnectedGraphError(
        f"no connected RGG in {_RGG_CONNECT_ATTEMPTS} attempts at N={n_nodes} "
        f"(radius {radius:.4g}); raise the radius constant"
    )


def induced_subgraph(t: Topology, nodes) -> tuple[Topology, np.ndarray]:
    """Subgraph on the given node set, relabeled 0..len-1; returns the new
    topology and the original ids in new-id order."""
    keep = np.array(sorted(int(u) for u in nodes), dtype=np.int64)
    index = {int(old): new for new, old in enumerate(keep)}
    edges = [
        (index[u], index[int(v)])
        for u in keep
        for v in t.adjacency[u]
        if int(v) in index and u < int(v)
    ]
    positions = t.positions[keep] if t.positions is not None else None
    return from_edges(len(keep), edges, positions=positions, radius=t.radius), keep


_EXHAUSTIVE_CUT_LIMIT = 20


def conductance_small(t: Topology) -> float:
    """Conductance of the natural random walk by exhaustive cut enumeration.

    Phi = min over nonempty proper subsets S of
    (edges across the cut) / min(vol(S), vol(complement)).  Exponential in N,
    so restricted to N <= 20; measure spreading time instead beyond that.
    """
    n = t.n_nodes
    if n > _EXHAUSTIVE_CUT_LIMIT:
        raise ValueError(
            f"exhaustive conductance is limited to N <= {_EXHAUSTIVE_CUT_LIMIT}"
        )
    if n < 2:
        raise ValueError("conductance needs at least 2 nodes")
    masks = [int(sum(1 << int(v) for v in nbrs)) for nbrs in t.adjacency]
    degs = [t.degree(u) for u in range(n)]
    total_vol = sum(degs)
    if total_vol == 0:
        return 0.0
    best = math.inf
    full = (1 << n) - 1
    # Fixing node 0 inside S halves the enumeration (Phi is complement-symmetric).
    for subset in range(0, 1 << (n - 1)):
        s = (subset << 1) | 1
        if s == full:
            continue
        comp = full & ~s
        cut = 0
        vol_s = 0
        rest = s
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            cut += (masks[u] & comp).bit_count()
            vol_s += degs[u]
        denom = min(vol_s, total_vol - vol_s)
        if denom == 0:
            if cut == 0:
                return 0.0
            continue
        best = min(best, cut / denom)
        if best == 0.0:
            return 0.0
    return best


def write_edge_list(t: Topology, path) -> None:
    """Header "N radius" (radius '-' when absent), then one "u v" line per edge."""
    with open(path, "w") as fh:
        radius = "-" if t.radius is None else f"{t.radius:.9g}"
        fh.write(f"{t.n_nodes} {radius}\n")
        for u, v in t.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Topology:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header, want 'N radius'")
        n = int(header[0])
        radius = None if header[1] == "-" else float(header[1])
        edges = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: malformed edge line")
            edges.append((int(parts[0]), int(parts[1])))
    return from_edges(n, edges, radius=radius)


def write_positions(t: Topology, path) -> None:
    if t.positions is None:
        raise ValueError("topology has no positions")
    with open(path, "w") as fh:
        for u, (x, y) in enumerate(t.positions):
            fh.write(f"{u} {x:.9g} {y:.9g}\n")
