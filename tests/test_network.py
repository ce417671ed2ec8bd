import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmoments.network import (
    DEFAULT_CONNECTIVITY_C,
    _grid_pairs,
    build_rgg,
    complete_topology,
    connectivity_radius,
    from_edges,
    giant_component,
    induced_subgraph,
    percolation_radius,
    read_edge_list,
)

from oracles import (
    bfs_giant,
    cycle_topology,
    degree,
    explicit_complete_topology,
    kdtree_pairs,
    neighbor_lists,
    neighbors,
    validate_topology,
    write_edge_list,
)


def _row_major(pairs):
    """Pairs as u < v rows in row-major order, duplicates kept."""
    pairs = np.sort(np.asarray(pairs).reshape(-1, 2), axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# (N, radius rule, seeds): the large radii put every pair in one or a few
# cells, so at N = 5000 they would make 10^7 pairs; they run at N <= 800
_GRID_CASES = [
    (n, rule, seeds)
    for n, seeds in ((2, 30), (80, 30), (150, 20), (800, 6), (5000, 3))
    for rule in ("connectivity", "percolation", 0.9, 1.2)
    if n <= 800 or isinstance(rule, str)
]


class TestRadii:
    def test_connectivity_formula(self):
        n, c = 500, 3.0
        assert connectivity_radius(n, c) == pytest.approx(math.sqrt(c * math.log(n) / n))

    def test_doubling_c_scales_by_sqrt2(self):
        assert connectivity_radius(100, 4.0) == pytest.approx(
            math.sqrt(2) * connectivity_radius(100, 2.0)
        )

    def test_percolation_formula(self):
        assert percolation_radius(100, 1.0) == pytest.approx(0.1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            connectivity_radius(1, 1.0)
        with pytest.raises(ValueError):
            percolation_radius(10, 0.0)

    def test_default_connectivity_calibration(self):
        # the calibrated default keeps N = 1000 instances connected in at
        # least 95 of 100 seeds
        n = 1000
        radius = connectivity_radius(n, DEFAULT_CONNECTIVITY_C)
        connected = 0
        for seed in range(100):
            topo = build_rgg(n, radius, np.random.default_rng(seed))
            if len(giant_component(topo)) == n:
                connected += 1
        assert connected >= 95

    def test_default_percolation_calibration(self):
        # giant component holds at least 0.8 N at N = 2000 in >= 90% of seeds
        n = 2000
        radius = percolation_radius(n)
        hits = 0
        for seed in range(40):
            topo = build_rgg(n, radius, np.random.default_rng(seed))
            if len(giant_component(topo)) >= 0.8 * n:
                hits += 1
        assert hits >= 36


class TestRgg:
    def test_full_radius_is_complete(self):
        topo = build_rgg(12, math.sqrt(2.0), np.random.default_rng(0))
        assert all(degree(topo, u) == 11 for u in range(12))

    def test_tiny_radius_is_empty(self):
        topo = build_rgg(12, 1e-9, np.random.default_rng(0))
        assert topo.num_edges == 0

    def test_deterministic_given_seed(self):
        a = build_rgg(50, 0.2, np.random.default_rng(5))
        b = build_rgg(50, 0.2, np.random.default_rng(5))
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.edges(), b.edges())

    def test_positions_are_the_generators_first_draw(self):
        # the oracles rebuild an RGG's positions as its generator's first
        # draw: build_rgg draws them, and nothing else
        rng = np.random.default_rng(7)
        topo = build_rgg(50, 0.2, rng)
        again = np.random.default_rng(7)
        positions = again.random((50, 2))
        assert rng.bit_generator.state == again.bit_generator.state
        validate_topology(topo, positions, 0.2)
        with pytest.raises(ValueError, match="distance rule"):
            validate_topology(topo, np.random.default_rng(8).random((50, 2)), 0.2)

    def test_structure_validates(self):
        for seed in range(10):
            topo = build_rgg(40, 0.25, np.random.default_rng(seed))
            validate_topology(topo, np.random.default_rng(seed).random((40, 2)), 0.25)

    def test_radius_bounds(self):
        with pytest.raises(ValueError):
            build_rgg(10, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_rgg(10, 2.0, np.random.default_rng(0))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_radius_monotonicity(self, seed):
        # growing the radius over fixed positions never removes an edge
        rng = np.random.default_rng(seed)
        positions = rng.random((25, 2))
        previous: set = set()
        for radius in (0.05, 0.1, 0.2, 0.4, 0.8):
            pairs = {
                (u, v)
                for u in range(25)
                for v in range(u + 1, 25)
                if math.dist(positions[u], positions[v]) <= radius
            }
            assert previous <= pairs
            previous = pairs


class TestGridPairs:
    @pytest.mark.parametrize("n, rule, seeds", _GRID_CASES)
    def test_matches_kdtree(self, n, rule, seeds):
        radius = {"connectivity": connectivity_radius, "percolation": percolation_radius}.get(
            rule, lambda _: rule
        )(n)
        for seed in range(seeds):
            topo = build_rgg(n, radius, np.random.default_rng(seed))
            positions = np.random.default_rng(seed).random((n, 2))
            want = kdtree_pairs(positions, radius)
            assert np.array_equal(_row_major(_grid_pairs(positions, radius)), want)
            assert np.array_equal(topo.edges(), want)

    @pytest.mark.parametrize("k", [3, 7, 10, 31])
    def test_lattice_ties_match_kdtree(self, k):
        # points on a k x k lattice sit on cell borders and at distances equal
        # to the radius up to rounding, so the <= test decides every tie
        ticks = np.arange(k) / k
        positions = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
        for radius in (1 / k, 2 / k, math.sqrt(2) / k, math.sqrt(5) / k, 0.5):
            got = _row_major(_grid_pairs(positions, radius))
            assert np.array_equal(got, kdtree_pairs(positions, radius))

    def test_tiny_radius_grid_is_capped(self):
        # 1/r cells a side would be 10^18 cells; the cap keeps about N
        positions = np.random.default_rng(1).random((10_000, 2))
        assert _grid_pairs(positions, 1e-9).shape == (0, 2)


class TestTopology:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 0)])

    def test_complete_graph(self):
        topo = explicit_complete_topology(5)
        validate_topology(topo)
        assert topo.num_edges == 10

    @pytest.mark.parametrize("n", [1, 2, 5, 300])
    def test_complete_graph_rows_are_implicit(self, n):
        # the explicit CSR's offsets and edge count, with no stored rows
        topo = complete_topology(n)
        want = explicit_complete_topology(n)
        assert topo.indices is None and topo.n_nodes == n
        assert topo.indptr.dtype == np.int64
        np.testing.assert_array_equal(topo.indptr, want.indptr)
        assert topo.num_edges == want.num_edges == n * (n - 1) // 2

    def test_cycle(self):
        topo = cycle_topology(6)
        assert all(degree(topo, u) == 2 for u in range(6))

    def test_induced_subgraph(self):
        topo = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sub, orig = induced_subgraph(topo, [1, 2, 3])
        assert list(orig) == [1, 2, 3]
        assert sub.edges().tolist() == [[0, 1], [1, 2]]


@st.composite
def edge_lists(draw):
    """A node count and an edge list with duplicates and both orientations."""
    n = draw(st.integers(2, 30))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=80))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=20)) if edges else []
    edges += [(v, u) if draw(st.booleans()) else (u, v) for u, v in repeats]
    return n, draw(st.permutations(edges))


class TestCsrAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=edge_lists(), data=st.data())
    def test_from_edges_matches_neighbor_lists(self, case, data):
        n, edges = case
        want = neighbor_lists(n, edges)
        topo = from_edges(n, edges)
        assert topo.indptr.dtype == np.int64 and topo.indices.dtype == np.int32
        assert [neighbors(topo, u).tolist() for u in range(n)] == want
        assert [degree(topo, u) for u in range(n)] == [len(row) for row in want]
        validate_topology(topo)  # ascending rows, no self-loops, symmetric
        # edges() lists each pair once, u < v, in row-major order
        pairs = topo.edges()
        assert pairs.shape == (topo.num_edges, 2)
        assert pairs.tolist() == [[u, v] for u in range(n) for v in want[u] if u < v]
        again = from_edges(n, pairs)
        assert np.array_equal(again.indptr, topo.indptr)
        assert np.array_equal(again.indices, topo.indices)
        # the giant from the raw edge list, not from the topology under test
        assert np.array_equal(giant_component(topo), bfs_giant(n, want))
        # induced subgraph on a random node subset given in random order
        nodes = data.draw(st.lists(st.integers(0, n - 1), unique=True))
        sub, keep = induced_subgraph(topo, nodes)
        assert keep.tolist() == sorted(nodes)
        index = {old: new for new, old in enumerate(keep.tolist())}
        inside = [(index[u], index[v]) for u, v in edges if u in index and v in index]
        assert sub.n_nodes == len(keep)
        assert [neighbors(sub, u).tolist() for u in range(sub.n_nodes)] == neighbor_lists(
            len(keep), inside
        )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complete_topology_matches_oracle(self, n):
        topo = explicit_complete_topology(n)
        validate_topology(topo)
        want = neighbor_lists(n, itertools.combinations(range(n), 2))
        assert [neighbors(topo, u).tolist() for u in range(n)] == want
        assert topo.num_edges == n * (n - 1) // 2
        assert topo.indices.dtype == np.int32


class TestGiantComponent:
    def test_two_components(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]
        assert giant_component(from_edges(8, edges)).tolist() == [0, 1, 2, 3, 4]

    def test_connected_graph_is_its_own_giant(self):
        assert giant_component(cycle_topology(9)).tolist() == list(range(9))

    def test_tie_broken_by_smallest_id(self):
        assert giant_component(from_edges(4, [(0, 1), (2, 3)])).tolist() == [0, 1]
        assert giant_component(from_edges(5, [(1, 4), (2, 3)])).tolist() == [1, 4]

    def test_giant_is_one_whole_component(self):
        topo = build_rgg(60, 0.12, np.random.default_rng(8))
        giant = giant_component(topo)
        # no edge leaves the giant, and it is the BFS oracle's largest class
        inside = np.isin(topo.edges(), giant)
        assert np.array_equal(inside[:, 0], inside[:, 1])
        assert np.array_equal(giant, bfs_giant(60, [neighbors(topo, u) for u in range(60)]))

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 300))
            p = rng.random() * 0.05
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            topo = from_edges(n, edges)
            # the largest class, smallest member first on ties
            assert np.array_equal(giant_component(topo), bfs_giant(n, neighbor_lists(n, edges)))

    def test_shuffled_path_needs_many_rounds(self):
        # two long paths over shuffled ids: labels must travel hundreds of
        # hops between ids that are far apart in value
        n = 2000
        perm = np.random.default_rng(12).permutation(n)
        edges = [(perm[i], perm[i + 1]) for i in range(n - 1) if i != 1299]
        giant = giant_component(from_edges(n, edges))
        assert np.array_equal(giant, bfs_giant(n, neighbor_lists(n, edges)))
        assert giant.tolist() == sorted(perm[:1300].tolist())


class TestSerialization:
    def test_edge_list_round_trip(self, tmp_path):
        topo = build_rgg(30, 0.3, np.random.default_rng(4))
        path = tmp_path / "edges.txt"
        write_edge_list(topo, path, 0.3)
        assert path.read_text().splitlines()[0] == "30 0.3"
        loaded = read_edge_list(path)
        assert loaded.n_nodes == 30
        assert loaded.edges().tolist() == topo.edges().tolist()

    def test_edge_list_no_radius(self, tmp_path):
        topo = explicit_complete_topology(4)
        path = tmp_path / "edges.txt"
        write_edge_list(topo, path)
        assert path.read_text().splitlines()[0] == "4 -"
        assert read_edge_list(path).edges().tolist() == topo.edges().tolist()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    def test_edgeless_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("3 -\n\n")
        topo = read_edge_list(path)
        assert topo.n_nodes == 3 and topo.num_edges == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("4 -\n0 1\n\n  \n2 3\n1 2\n")
        assert read_edge_list(path).edges().tolist() == [[0, 1], [1, 2], [2, 3]]

    @pytest.mark.parametrize(
        "bad_line",
        ["1 2 3", "1", "1 x", "1 2.0", "1 2.7", "1 1e3", "99999999999999999999 1", "1_0 2"],
        ids=["three-tokens", "one-token", "word", "float", "fraction", "exponent",
             "beyond-int64", "underscore"],
    )
    # the warning filters of a plain run, not the suite-wide error filter
    @pytest.mark.filterwarnings("default")
    def test_malformed_edge_line_names_its_line(self, tmp_path, bad_line):
        path = tmp_path / "edges.txt"
        path.write_text(f"4 -\n0 1\n\n{bad_line}\n2 3\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: malformed edge line"):
            read_edge_list(path)

    @pytest.mark.filterwarnings("default")
    def test_float_token_refused_where_numpy_only_warns(self, tmp_path, monkeypatch):
        """numpy before 2 parses '2.7' as the int 2 and only emits a
        DeprecationWarning, which it turns into ValueError under an error
        filter; read_edge_list must refuse the line there too."""
        real_loadtxt = np.loadtxt

        def warning_loadtxt(lines, **kwargs):
            lines = list(lines)
            if any("." in line for line in lines):
                try:
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                                  DeprecationWarning)
                except DeprecationWarning as exc:
                    raise ValueError("could not convert string to int64") from exc
                lines = [line.replace(".7", "") for line in lines]
            return real_loadtxt(lines, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "edges.txt"
        path.write_text("4 -\n0 1\n1 2.7\n2 3\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: malformed edge line"):
            read_edge_list(path)

    def test_only_one_token_lines(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("4 -\n0\n1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: malformed edge line"):
            read_edge_list(path)
