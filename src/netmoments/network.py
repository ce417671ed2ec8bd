"""Topology construction and analysis: complete graphs, edge lists, and random
geometric graphs in the connectivity and percolation regimes."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

# Radius-rule constants.  The scaling laws fix only the shape; these constants
# are Monte Carlo calibrated: c = 2 makes N = 1000 instances connected in
# >= 95% of seeds and c = 1.35 keeps the giant component above 0.8 N at
# N = 2000 in >= 90% of seeds (reproduced by tests/test_network.py::TestRadii).
DEFAULT_CONNECTIVITY_C = 2.0
DEFAULT_PERCOLATION_C = 1.35
_RGG_CONNECT_ATTEMPTS = 100


class DisconnectedGraphError(ValueError):
    """No connected graph could be drawn: a configuration error (the radius
    is too small for the node count), not a crash."""


@dataclass
class Topology:
    """Undirected graph in CSR form, optionally with node positions in the
    unit square and the transmission radius that induced the edges.

    The neighbours of node u are indices[indptr[u]:indptr[u + 1]], ascending,
    and every edge is stored in the rows of both endpoints.  Everything else
    (degrees, the edge list, scipy matrices) is derived from these arrays.
    """

    indptr: np.ndarray  # int64, n_nodes + 1 offsets
    indices: np.ndarray  # int32, each row ascending
    positions: np.ndarray | None = None
    radius: float | None = None

    @property
    def n_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def _rows(self) -> np.ndarray:
        """The owning node of each entry of indices."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    def edges(self) -> np.ndarray:
        """(E, 2) array of the pairs u < v, in row-major order."""
        rows = self._rows()
        upper = rows < self.indices
        return np.column_stack((rows[upper], self.indices[upper]))

    def validate(self) -> None:
        """Exhaustive structural check: well-formed ascending rows, no
        self-loops, symmetric adjacency, and (when positions are present)
        edge iff distance <= radius."""
        n = self.n_nodes
        rows, cols = self._rows(), self.indices.astype(np.int64)
        if self.indptr[0] != 0 or len(rows) != len(cols):
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
        if self.positions is not None:
            if self.radius is None:
                raise ValueError("positions given without a radius")
            diff = self.positions[:, None, :] - self.positions[None, :, :]
            dist = np.sqrt((diff**2).sum(axis=2))
            want = dist <= self.radius
            np.fill_diagonal(want, False)
            have = np.zeros((n, n), dtype=bool)
            have[rows, cols] = True
            if not np.array_equal(want, have):
                raise ValueError("adjacency disagrees with the distance rule")

    def as_csr(self) -> csr_matrix:
        """A fresh scipy matrix of ones over the adjacency, built on each call.
        Its data is uint64, the type of the packed Aloha tags, so no product
        upcasts."""
        data = np.ones(len(self.indices), dtype=np.uint64)
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n_nodes,) * 2)


def _from_sorted_rows(n_nodes: int, rows, cols, positions=None, radius=None) -> Topology:
    """Topology from entries already in row-major order, each row ascending."""
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    return Topology(indptr, np.asarray(cols, dtype=np.int32), positions, radius)


def from_edges(
    n_nodes: int,
    edges,
    positions: np.ndarray | None = None,
    radius: float | None = None,
) -> Topology:
    """Topology from (u, v) pairs in any orientation; duplicates collapse."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    bad = (u == v) | (u < 0) | (u >= n_nodes) | (v < 0) | (v >= n_nodes)
    if bad.any():
        u0, v0 = pairs[np.argmax(bad)].tolist()
        raise ValueError(
            f"self-loop at node {u0}" if u0 == v0 else f"edge ({u0}, {v0}) out of range"
        )
    # both orientations as row-major keys; sorting orders rows and their
    # entries at once, and equal neighbours are duplicates
    keys = np.sort(np.concatenate((u * n_nodes + v, v * n_nodes + u)))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return _from_sorted_rows(n_nodes, keys // n_nodes, keys % n_nodes, positions, radius)


def complete_topology(n_nodes: int) -> Topology:
    ids = np.arange(n_nodes, dtype=np.int32)
    indices = np.empty(n_nodes * (n_nodes - 1), dtype=np.int32)
    for u, row in enumerate(indices.reshape(n_nodes, n_nodes - 1)):
        row[:u] = ids[:u]
        row[u:] = ids[u + 1 :]
    return Topology(np.arange(n_nodes + 1, dtype=np.int64) * (n_nodes - 1), indices)


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
    giant: np.ndarray  # ascending node ids
    alpha: float


def giant_component(t: Topology) -> ComponentReport:
    """Min-label propagation with pointer jumping: each node is labeled by the
    smallest id in its component, and the giant is the largest component
    (smallest-id tiebreak, which the smallest-member labels give for free).

    Labels only decrease and stay inside their component.  Each round hooks
    the label of every edge end onto the smaller label across the edge, then
    jumps every label to its own label's label until that changes nothing;
    the loop stops once both ends of every edge share a label.
    """
    u, v = t.edges().T
    labels = np.arange(t.n_nodes)
    while not np.array_equal(lu := labels[u], lv := labels[v]):
        np.minimum.at(labels, lu, lv)
        np.minimum.at(labels, lv, lu)
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    giant = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    return ComponentReport(labels, giant, 1.0 - len(giant) / t.n_nodes)


def build_connected_rgg(n_nodes: int, radius: float, rng: np.random.Generator) -> Topology:
    """Redraw RGGs until one is connected, giving up after a fixed number of
    draws with DisconnectedGraphError instead of looping forever."""
    for _ in range(_RGG_CONNECT_ATTEMPTS):
        topo = build_rgg(n_nodes, radius, rng)
        if len(giant_component(topo).giant) == n_nodes:
            return topo
    raise DisconnectedGraphError(
        f"no connected RGG in {_RGG_CONNECT_ATTEMPTS} attempts at N={n_nodes} "
        f"(radius {radius:.4g}); raise the radius constant"
    )


def induced_subgraph(t: Topology, nodes) -> tuple[Topology, np.ndarray]:
    """Subgraph on the given node ids (any order, no repeats), relabeled
    0..len-1; returns the new topology and the original ids in new-id order."""
    keep = np.sort(np.asarray(nodes, dtype=np.int64))
    new_id = np.full(t.n_nodes, -1, dtype=np.int64)
    new_id[keep] = np.arange(len(keep))
    # relabeling is increasing on the kept ids, so rows stay ascending
    rows, cols = new_id[t._rows()], new_id[t.indices]
    inside = (rows >= 0) & (cols >= 0)
    positions = t.positions[keep] if t.positions is not None else None
    sub = _from_sorted_rows(len(keep), rows[inside], cols[inside], positions, t.radius)
    return sub, keep


def write_edge_list(t: Topology, path) -> None:
    """Header "N radius" (radius '-' when absent), then one "u v" line per edge."""
    with open(path, "w") as fh:
        radius = "-" if t.radius is None else f"{t.radius:.9g}"
        fh.write(f"{t.n_nodes} {radius}\n")
        # one str() per column, not a Python list per edge row
        us, vs = (map(str, col.tolist()) for col in t.edges().T)
        fh.writelines(f"{u} {v}\n" for u, v in zip(us, vs))


def read_edge_list(path) -> Topology:
    """Inverse of write_edge_list; blank lines are skipped.  The edge lines
    are parsed in one vectorised pass, and only a malformed file is rescanned
    line by line, to name its first bad line."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header, want 'N radius'")
        n = int(header[0])
        radius = None if header[1] == "-" else float(header[1])
        body_start = fh.tell()
        try:
            edges = _load_id_pairs(fh)
        except ValueError:
            edges = None
        if edges is None or (edges.size and edges.shape[1] != 2):
            fh.seek(body_start)
            raise _first_malformed_line(path, fh)
    return from_edges(n, edges, radius=radius)


def _load_id_pairs(lines) -> np.ndarray:
    """np.loadtxt of whitespace-separated int64 ids, one row per line.  The
    numpy releases before 2 only warn (DeprecationWarning) when they parse a
    float token such as '2.7' as an integer and cast it; the error filter makes
    them raise ValueError on it, as later numpy does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        # a file with no edge lines is an edgeless graph
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)


def _first_malformed_line(path, lines) -> ValueError:
    """The error naming the first edge line that _load_id_pairs, line by line,
    cannot read as two int64 ids."""
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        try:
            ok = _load_id_pairs([line]).shape == (1, 2)
        except ValueError:
            ok = False
        if not ok:
            return ValueError(f"{path}:{lineno}: malformed edge line, want 'u v'")
    return ValueError(f"{path}: malformed edge list")
