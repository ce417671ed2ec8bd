"""Topology construction and analysis: the complete graph, edge lists and
random geometric graphs in the connectivity and percolation regimes.

The complete graph's rows are implicit, since its N (N - 1) adjacency
entries would need 40 GB at N = 10^5.

An RGG's pairs come from a cell grid over the unit square: cells of side at
least the radius, so a pair within range lies in one cell or two adjacent
ones, and at most about N cells, so a tiny radius costs no more than N
empty cells.  A pair is an edge iff dx*dx + dy*dy <= r*r, the test a k-d
tree's pair query makes, so the graph does not depend on how pairs are
found."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Radius-rule constants.  The scaling laws fix only the shape; these constants
# are Monte Carlo calibrated: c = 2 makes N = 1000 instances connected in
# >= 95% of seeds and c = 1.35 keeps the giant component above 0.8 N at
# N = 2000 in >= 90% of seeds (reproduced by tests/test_network.py::TestRadii).
DEFAULT_CONNECTIVITY_C = 2.0
DEFAULT_PERCOLATION_C = 1.35
_RGG_CONNECT_ATTEMPTS = 100


@dataclass
class Topology:
    """Undirected graph as its CSR arrays alone: a run reads only the
    adjacency, so an RGG keeps neither its node positions nor its radius.

    The neighbours of node u are indices[indptr[u]:indptr[u + 1]], ascending,
    and every edge is stored in the rows of both endpoints.  Everything else
    (degrees, the edge list) is derived from these arrays.  The complete
    graph's indices are None: its row u, 0..u-1, u+1..N-1, is never stored.
    What reads rows (_rows, edges, induced_subgraph, giant_component and the
    Aloha kernel) takes explicit graphs only.
    """

    indptr: np.ndarray  # int64, n_nodes + 1 offsets
    indices: np.ndarray | None  # int32, each row ascending; None for K_N

    @property
    def n_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1]) // 2

    def _rows(self) -> np.ndarray:
        """The owning node of each entry of indices."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    def edges(self) -> np.ndarray:
        """(E, 2) array of the pairs u < v, in row-major order."""
        rows = self._rows()
        upper = rows < self.indices
        return np.column_stack((rows[upper], self.indices[upper]))


def complete_topology(n_nodes: int) -> Topology:
    """K_N with implicit rows: every degree is N - 1."""
    return Topology(np.arange(n_nodes + 1, dtype=np.int64) * (n_nodes - 1), None)


def _from_sorted_rows(n_nodes: int, rows, cols) -> Topology:
    """Topology from entries already in row-major order, each row ascending."""
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    return Topology(indptr, np.asarray(cols, dtype=np.int32))


def from_edges(n_nodes: int, edges) -> Topology:
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
    return _from_sorted_rows(n_nodes, keys // n_nodes, keys % n_nodes)


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
    return from_edges(n_nodes, _grid_pairs(rng.random((n_nodes, 2)), radius))


# a cell's half stencil: itself and the four neighbours that follow it, so
# each pair of adjacent cells is compared once
_HALF_STENCIL = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


def _grid_pairs(positions: np.ndarray, radius: float) -> np.ndarray:
    """(E, 2) array of the pairs at distance <= radius among points in the
    unit square, each pair once, in no particular order."""
    n = len(positions)
    # g cells a side: side 1/g exceeds the radius by a margin that float
    # rounding of x*g cannot eat, and g*g stays near n
    g = max(1, min(int(1.0 / (radius * (1.0 + 1e-9))), math.isqrt(n) + 1))
    cx, cy = (np.minimum((positions * g).astype(np.int64), g - 1)).T
    order = np.argsort(cx * g + cy, kind="stable")
    cx, cy, xs, ys = cx[order], cy[order], positions[order, 0], positions[order, 1]
    counts = np.bincount(cx * g + cy, minlength=g * g)
    starts = np.cumsum(counts) - counts
    r2 = radius * radius
    ids = np.arange(n)
    found = []
    for ox, oy in _HALF_STENCIL:
        nx, ny = cx + ox, cy + oy
        inside = (nx < g) & (ny >= 0) & (ny < g)
        cell = np.where(inside, nx * g + ny, 0)
        lo = starts[cell]
        hi = np.where(inside, lo + counts[cell], lo)
        if ox == oy == 0:
            lo = ids + 1  # the points after this one in its own cell
        # point i meets the points j in lo[i]..hi[i] - 1, one row per pair
        reps = np.maximum(hi - lo, 0)
        j = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps - lo, reps)
        dx = np.repeat(xs, reps)
        dx -= xs[j]
        dx *= dx
        dy = np.repeat(ys, reps)
        dy -= ys[j]
        dy *= dy
        dx += dy
        near = dx <= r2
        found.append(np.column_stack((order[np.repeat(ids, reps)[near]], order[j[near]])))
    return np.concatenate(found)


def giant_component(t: Topology) -> np.ndarray:
    """The ascending node ids of the largest connected component, the one
    holding the smallest id among those of equal size.

    Min-label propagation with pointer jumping labels each node by the
    smallest id in its component, so the tiebreak comes for free.

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
    return np.flatnonzero(labels == np.argmax(np.bincount(labels)))


def build_connected_rgg(n_nodes: int, radius: float, rng: np.random.Generator) -> Topology:
    """Redraw RGGs until one is connected, giving up after a fixed number of
    draws with a ValueError, a configuration error (the radius is too small
    for the node count), instead of looping forever."""
    for _ in range(_RGG_CONNECT_ATTEMPTS):
        topo = build_rgg(n_nodes, radius, rng)
        if len(giant_component(topo)) == n_nodes:
            return topo
    raise ValueError(
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
    return _from_sorted_rows(len(keep), rows[inside], cols[inside]), keep


def read_edge_list(path) -> Topology:
    """The topology of an edge-list file: a header "N radius" (radius '-'
    when absent), then one "u v" line per undirected edge, in either
    orientation, on node ids 0..N-1; blank lines are skipped.  The radius
    token is checked, '-' or a finite radius > 0, then dropped: no run
    reads it."""
    (n, _), edges = read_int_rows(
        path, (int, _check_radius), "'N radius'", 2, "malformed edge line, want 'u v'",
    )
    return from_edges(n, edges)


def _check_radius(token: str) -> None:
    """Raises ValueError unless an edge-list header's radius token is '-' or
    a finite radius > 0."""
    if token != "-" and not 0.0 < float(token) < math.inf:  # nan included
        raise ValueError


def read_int_rows(path, header, header_want: str, columns: int, bad_line: str):
    """(header values, rows) of a file of integer rows: a first line of
    len(header) tokens, token i parsed by header[i], then `columns` int64
    values a line, as an int64 (lines, columns) array; blank lines are
    skipped.  The rows are parsed in one vectorised pass, and only a
    malformed file is rescanned line by line, to name its first bad line.
    Errors read "PATH:1: malformed header, want HEADER_WANT" and
    "PATH:LINE: BAD_LINE"."""
    with open(path) as fh:
        tokens = fh.readline().split()
        try:
            if len(tokens) != len(header):
                raise ValueError
            head = [parse(token) for parse, token in zip(header, tokens)]
        except ValueError:
            raise ValueError(f"{path}:1: malformed header, want {header_want}") from None
        body_start = fh.tell()
        rows = _int_rows(fh, columns)
        if rows is None:
            fh.seek(body_start)
            for lineno, line in enumerate(fh, start=2):
                if line.strip() and _int_rows([line], columns) is None:
                    raise ValueError(f"{path}:{lineno}: {bad_line}")
            raise ValueError(f"{path}: {bad_line}")
    return head, rows


def _int_rows(lines, columns: int) -> np.ndarray | None:
    """np.loadtxt of lines as an int64 (lines, columns) array, or None if a
    line does not hold `columns` int64 values.  The numpy releases before 2
    only warn (DeprecationWarning) when they parse a float token such as
    '2.7' as an integer and cast it; the error filter makes them raise
    ValueError on it, as later numpy does."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        # a file with no rows, such as an edgeless graph, is not an error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            rows = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
        except ValueError:
            return None
    return rows.reshape(-1, columns) if not rows.size or rows.shape[1] == columns else None
