import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netmoments import protocols
from netmoments.network import (
    build_connected_rgg,
    build_rgg,
    complete_topology,
    connectivity_radius,
    from_edges,
)
from netmoments.protocols import (
    _ALOHA_BLOCK,
    _GOSSIP_BLOCK,
    _PIECE,
    ALOHA,
    EXCHANGE,
    GOSSIP,
    PUSH,
    SpreadReport,
    _aloha_block,
    _aloha_blocks,
    _degree_classes,
    _deliver,
    _gossip_blocks,
    default_max_steps,
    default_p_n,
    run_spreading,
)

from oracles import (
    aloha_deliveries,
    aloha_slot_events,
    aloha_spread,
    cycle_topology,
    degree,
    explicit_complete_topology,
    gossip_spread,
    neighbors,
    uint64_adjacency,
)


def _graphs():
    rng = np.random.default_rng(5)
    random8 = [(u, v) for u, v in itertools.combinations(range(8), 2) if rng.random() < 0.4]
    return {
        "complete5": explicit_complete_topology(5),
        "cycle6": cycle_topology(6),
        "star7": from_edges(7, [(0, v) for v in range(1, 7)]),
        "path8": from_edges(8, [(u, u + 1) for u in range(7)]),
        "isolated7": from_edges(7, [(0, 1), (1, 2), (4, 5)]),
        "random8": from_edges(8, random8),
    }


def _neighbors(topo):
    return [neighbors(topo, u) for u in range(topo.n_nodes)]


def _all_classes(topo):
    """The degree-class tables over every node, as at the first block."""
    return _degree_classes(topo, np.ones(topo.n_nodes, dtype=bool))


def _block_rows(topo, masks, skip=None):
    """The deliveries of _aloha_block over blocks of _ALOHA_BLOCK masks, one
    list per mask, after checking the slot-major, receiver-ascending order."""
    n = topo.n_nodes
    skip = np.zeros(n, dtype=bool) if skip is None else skip
    classes = _all_classes(topo)
    rows = []
    for at in range(0, len(masks), _ALOHA_BLOCK):
        tx = np.array(masks[at : at + _ALOHA_BLOCK], dtype=bool).reshape(-1, n)
        slot, sender, receiver = _aloha_block(topo, classes, tx, skip)
        keys = slot * n + receiver
        assert np.all(np.diff(keys) > 0)
        block = [[] for _ in tx]
        for s, u, v in zip(slot.tolist(), sender.tolist(), receiver.tolist()):
            block[s].append((u, v))
        rows.extend(block)
    return rows


class TestAlohaRule:
    @pytest.mark.parametrize("name", sorted(_graphs()))
    def test_every_transmit_mask_matches_brute_force(self, name):
        topo = _graphs()[name]
        n = topo.n_nodes
        masks = [[(mask >> u) & 1 for u in range(n)] for mask in range(1 << n)]
        for tx, row in zip(masks, _block_rows(topo, masks)):
            assert set(row) == aloha_deliveries(_neighbors(topo), tx)

    def test_star_with_40_leaves_matches_brute_force(self):
        # 2^41 masks are too many: every mask of at most two transmitters,
        # everyone transmitting, and 2000 seeded masks of mixed density
        n = 41
        topo = from_edges(n, [(0, v) for v in range(1, n)])
        masks = []
        for pair in itertools.chain([()], itertools.combinations_with_replacement(range(n), 2)):
            tx = np.zeros(n, dtype=bool)
            tx[list(pair)] = True
            masks.append(tx)
        masks.append(np.ones(n, dtype=bool))
        rng = np.random.default_rng(41)
        masks.extend(rng.random(n) < rng.random() for _ in range(2000))
        for tx, row in zip(masks, _block_rows(topo, masks)):
            assert set(row) == aloha_deliveries(_neighbors(topo), tx)

    @pytest.mark.parametrize("n_masks", [1, 5, 31, 32, 33, _ALOHA_BLOCK - 1, _ALOHA_BLOCK,
                                         _ALOHA_BLOCK + 1, 103, 3 * _ALOHA_BLOCK + 7])
    def test_mixed_degree_classes_match_brute_force(self, n_masks):
        # a 40-leaf star (degree 40, class 64, and 40 leaves of degree 1), an
        # 8-node path (degrees 1 and 2) and an isolated node; n_masks not a
        # multiple of _ALOHA_BLOCK leaves a last block of b < _ALOHA_BLOCK slots
        edges = [(0, v) for v in range(1, 41)] + [(u, u + 1) for u in range(41, 48)]
        topo = from_edges(50, edges)
        classes = _all_classes(topo)
        assert sorted(table.shape[0] for _, table in classes) == [1, 2, 64]
        assert all(table.dtype == np.int32 for _, table in classes)
        rng = np.random.default_rng(n_masks)
        masks = [rng.random(50) < rng.random() for _ in range(n_masks)]
        is_full = rng.random(50) < 0.2
        for tx, row in zip(masks, _block_rows(topo, masks, is_full)):
            want = {(u, v) for u, v in aloha_deliveries(_neighbors(topo), tx) if not is_full[v]}
            assert set(row) == want

    @pytest.mark.parametrize("n, p", [(300, None), (800, None), (800, 0.3), (5000, None)])
    def test_rgg_blocks_match_slot_oracle(self, n, p):
        # connectivity-regime RGGs span several degree classes, and at 5000
        # nodes a class splits into pieces; the oracle is one uint64 sparse
        # matvec per slot
        topo = build_connected_rgg(n, 0.12, np.random.default_rng(n))
        widths = [table.shape[0] for _, table in _all_classes(topo)]
        assert (len(widths) > len(set(widths))) == (n > _PIECE)
        adj = uint64_adjacency(topo)
        rng = np.random.default_rng(7)
        masks = [rng.random(n) < (default_p_n(n) if p is None else p) for _ in range(70)]
        for tx, row in zip(masks, _block_rows(topo, masks)):
            assert row == aloha_slot_events(adj, tx)[1]

    @pytest.mark.parametrize("name", sorted(_graphs()))
    def test_no_delivery_into_node_marked_full(self, name):
        topo = _graphs()[name]
        n = topo.n_nodes
        rng = np.random.default_rng(len(name))
        masks = [rng.random(n) < 0.4 for _ in range(3 * _ALOHA_BLOCK)]
        is_full = rng.random(n) < 0.5
        for tx, row in zip(masks, _block_rows(topo, masks, is_full)):
            want = {(u, v) for u, v in aloha_deliveries(_neighbors(topo), tx) if not is_full[v]}
            assert set(row) == want


class TestLiveTables:
    """Tables over the live receivers alone, with the rows filled since
    their build marked in skip, give the deliveries of tables over every
    node."""

    @pytest.mark.parametrize("name", sorted(_graphs()))
    def test_tables_hold_live_rows_with_neighbours(self, name):
        # full rows and isolated nodes get no column; a live row's column is
        # its whole neighbour row, full neighbours included
        topo = _graphs()[name]
        n = topo.n_nodes
        deg = np.diff(topo.indptr)
        for seed in range(6):
            live = np.random.default_rng(seed).random(n) < 0.5
            columns = {}
            for rows, table in _degree_classes(topo, live):
                for j, v in enumerate(rows.tolist()):
                    columns[v] = sorted(u for u in table[:, j].tolist() if u != n)
            assert sorted(columns) == np.flatnonzero(live & (deg > 0)).tolist()
            assert all(columns[v] == neighbors(topo, v).tolist() for v in columns)

    @pytest.mark.parametrize("name", sorted(_graphs()) + ["rgg5000"])
    def test_live_tables_match_all_node_tables(self, name):
        # at 5000 nodes the classes split into _PIECE pieces; each block's
        # slots run from sparse to dense masks so that every graph has
        # deliveries
        if name == "rgg5000":
            topo = build_connected_rgg(5000, 0.12, np.random.default_rng(5000))
        else:
            topo = _graphs()[name]
        n = topo.n_nodes
        rng = np.random.default_rng(len(name))
        every = _all_classes(topo)
        density = np.geomspace(1e-3, 0.6, _ALOHA_BLOCK)[:, None]
        delivered = 0
        for share in (0.0, 0.3, 0.7, 1.0):
            live = rng.random(n) < share
            classes = _degree_classes(topo, live)
            if name == "rgg5000" and share == 1.0:
                widths = [table.shape[0] for _, table in classes]
                assert len(widths) > len(set(widths))
            for _ in range(3):
                skip = ~live | (rng.random(n) < 0.2)  # some live rows filled since
                tx = rng.random((_ALOHA_BLOCK, n)) < density
                got = _aloha_block(topo, classes, tx, skip)
                want = _aloha_block(topo, every, tx, skip)
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g, w)
                delivered += len(want[0])
        assert delivered > 0

    def test_full_neighbours_still_transmit_and_collide(self):
        # path a - b - c with a and c full: only b has a table, listing both
        topo = from_edges(3, [(0, 1), (1, 2)])
        skip = np.array([True, False, True])
        classes = _degree_classes(topo, ~skip)
        assert [rows.tolist() for rows, _ in classes] == [[1]]
        tx = np.array([[1, 0, 1], [1, 0, 0], [0, 0, 0], [0, 0, 1]], dtype=bool)
        slot, sender, receiver = _aloha_block(topo, classes, tx, skip)
        assert list(zip(slot.tolist(), sender.tolist(), receiver.tolist())) == [
            (1, 0, 1), (3, 2, 1)
        ]


def _gossip_contacts(topo, exchange, seed, n_ticks, skip=None):
    """(tick, sender, receiver) of the first n_ticks ticks of _gossip_blocks,
    ticks counted across blocks, after checking one contact per tick and
    1 + exchange messages per tick with a neighbour to contact."""
    skip = np.zeros(topo.n_nodes, dtype=bool) if skip is None else skip
    blocks = _gossip_blocks(topo, exchange, np.random.default_rng(seed), skip)
    contacts = []
    for at in range(0, n_ticks, _GOSSIP_BLOCK):
        tick, sender, receiver, sent = next(blocks)
        assert np.all(np.diff(tick) > 0)
        assert set(sent.sum(axis=1).tolist()) <= {0, 1 + exchange}
        assert sent[tick].all()
        keep = tick < n_ticks - at
        contacts += zip((tick[keep] + at).tolist(), sender[keep].tolist(), receiver[keep].tolist())
    return contacts


def _pick_pvalue(topo, pairs, expected, draws=40_000):
    """Chi-square p-value of the (node, neighbor) counts of push contacts,
    a tick without one counting as (node, -1) for the graph's one isolated
    node, 6."""
    contacts = _gossip_contacts(topo, False, 2012, draws)
    tally = dict.fromkeys(pairs, 0)
    for _, u, v in contacts:
        tally[u, v] += 1
    if (6, -1) in tally:
        tally[6, -1] = draws - len(contacts)
    observed = np.array([tally[p] for p in pairs])
    assert observed.sum() == draws
    return stats.chisquare(observed, np.asarray(expected) * draws).pvalue


class TestGossipPicker:
    def test_pairs_uniform_chi_square(self):
        # irregular degrees 3, 1, 2, 3, 2, 1 and one isolated node (no contact):
        # a pair (u, v) has probability 1 / (N deg u)
        edges = [(0, 1), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]
        topo = from_edges(7, edges)
        pairs = [(u, int(v)) for u in range(7) for v in neighbors(topo, u)] + [(6, -1)]
        expected = [1.0 / (7 * max(degree(topo, u), 1)) for u, _ in pairs]
        assert _pick_pvalue(topo, pairs, expected) > 1e-3
        # K_7 with implicit rows: every ordered pair u != v has 1 / (N (N - 1))
        pairs = list(itertools.permutations(range(7), 2))
        assert _pick_pvalue(complete_topology(7), pairs, [1.0 / 42] * 42) > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 300])
    def test_implicit_rows_match_explicit_csr(self, n):
        # contact for contact, across three blocks and part of a fourth: one
        # contact per tick, which stands for both deliveries of an exchange
        ticks = 3 * _GOSSIP_BLOCK + 100
        implicit = _gossip_contacts(complete_topology(n), True, n, ticks)
        assert implicit == _gossip_contacts(explicit_complete_topology(n), True, n, ticks)
        assert len(implicit) == (ticks if n > 1 else 0)

    @pytest.mark.parametrize("exchange", [True, False])
    @pytest.mark.parametrize("name", sorted(_graphs()) + ["complete7"])
    def test_no_contact_into_nodes_marked_full(self, name, exchange):
        # the contacts are the unmasked ones with those whose receiving ends,
        # v and under exchange u too, are all marked in skip left out
        topo = complete_topology(7) if name == "complete7" else _graphs()[name]
        ticks = 2 * _GOSSIP_BLOCK + 50
        skip = np.random.default_rng(len(name)).random(topo.n_nodes) < 0.5
        want = [
            (t, u, v) for t, u, v in _gossip_contacts(topo, exchange, 3, ticks)
            if not (skip[v] and (skip[u] or not exchange))
        ]
        assert _gossip_contacts(topo, exchange, 3, ticks, skip) == want


def _spread(topo, protocol, seed, p_n=None, mode=None, max_steps=None):
    """The report and all N heard-sets of the spread run_spreading makes on a
    generator seeded with seed: the protocol's source driven by _deliver,
    set up as run_spreading sets them up."""
    n = topo.n_nodes
    cap = default_max_steps(protocol, n) if max_steps is None else max_steps
    heard = [1 << u for u in range(n)]
    is_full = bytearray(n)
    skip = np.frombuffer(is_full, dtype=bool)
    rng = np.random.default_rng(seed)
    exchange = protocol == GOSSIP and mode != PUSH
    if protocol == GOSSIP:
        blocks = _gossip_blocks(topo, exchange, rng, skip)
    else:
        blocks = _aloha_blocks(topo, p_n, rng, skip)
    return SpreadReport(*_deliver(blocks, heard, is_full, cap, exchange)), heard


def _assert_returns(got, want):
    """run_spreading's return got is (report, mask) of the spread whose
    report and N heard-sets are want: the report, and node 0's heard-set as
    a boolean array, bit u of it at index u."""
    want_report, heard = want
    report, mask = got
    assert report == want_report
    assert mask.dtype == bool
    assert mask.tolist() == [bool(heard[0] >> u & 1) for u in range(len(heard))]


class TestRunSpreading:
    @pytest.mark.parametrize(
        "protocol, mode", [(GOSSIP, EXCHANGE), (GOSSIP, PUSH), (ALOHA, EXCHANGE)]
    )
    def test_completed_heard_sets_are_full(self, protocol, mode):
        topo = explicit_complete_topology(30) if protocol == GOSSIP else cycle_topology(12)
        p_n = default_p_n(topo.n_nodes)
        report, heard = spread = _spread(topo, protocol, 1, p_n, mode)
        assert report.completed
        assert heard == [(1 << topo.n_nodes) - 1] * topo.n_nodes
        _assert_returns(run_spreading(topo, protocol, np.random.default_rng(1), p_n, mode), spread)

    def test_gossip_messages_per_tick(self):
        topo = explicit_complete_topology(20)
        for mode, per_tick in ((EXCHANGE, 2), (PUSH, 1)):
            report, _ = run_spreading(topo, GOSSIP, np.random.default_rng(2), exchange_mode=mode)
            assert report.messages_sent == per_tick * report.steps_to_full

    def test_cut_short_heard_sets_grow_monotonically(self):
        topo = build_rgg(60, 0.3, np.random.default_rng(3))
        short, heard_short = _spread(topo, GOSSIP, 4, max_steps=40)
        _, heard_long = _spread(topo, GOSSIP, 4, max_steps=80)
        assert not short.completed and short.steps_to_full == 40
        for a, b in zip(heard_short, heard_long):
            assert a & b == a
        assert all((h >> u) & 1 for u, h in enumerate(heard_short))

    @pytest.mark.parametrize(
        "mode, max_steps", [(EXCHANGE, None), (PUSH, None), (EXCHANGE, 5000)]
    )
    def test_implicit_rows_match_explicit_csr(self, mode, max_steps):
        # N = 1000 takes about 11 000 ticks: several picker refills
        settings = dict(mode=mode, max_steps=max_steps)
        got = _spread(complete_topology(1000), GOSSIP, 6, **settings)
        want = _spread(explicit_complete_topology(1000), GOSSIP, 6, **settings)
        assert got[0] == want[0] and got[0].completed == (max_steps is None)
        assert got[1] == want[1]
        _assert_returns(run_spreading(complete_topology(1000), GOSSIP, np.random.default_rng(6),
                                      None, mode, max_steps), want)

    @pytest.mark.parametrize("max_steps", [1, 31, 32, 33, _ALOHA_BLOCK - 1, _ALOHA_BLOCK,
                                           _ALOHA_BLOCK + 1, 100, None])
    @pytest.mark.parametrize("name", ["cycle12", "star9", "rgg60"])
    def test_aloha_matches_slot_by_slot_oracle(self, name, max_steps):
        topo = {
            "cycle12": cycle_topology(12),
            "star9": from_edges(9, [(0, v) for v in range(1, 9)]),
            "rgg60": build_connected_rgg(60, 0.25, np.random.default_rng(60)),
        }[name]
        n = topo.n_nodes
        cap = default_max_steps(ALOHA, n) if max_steps is None else max_steps
        for seed in (8, 9):
            want = aloha_spread(topo, default_p_n(n), cap, np.random.default_rng(seed))
            assert _spread(topo, ALOHA, seed, default_p_n(n), max_steps=max_steps) == want
            got = run_spreading(topo, ALOHA, np.random.default_rng(seed), default_p_n(n),
                                max_steps=max_steps)
            _assert_returns(got, want)

    def test_aloha_table_rebuilds_match_slot_by_slot_oracle(self, monkeypatch):
        # a 300-node connectivity-regime spread: the live set halves several
        # times, and each halving rebuilds the tables.  The spread runs to
        # completion, and again cut one slot into a block that rebuilt.
        n = 300
        topo = build_connected_rgg(n, connectivity_radius(n), np.random.default_rng(n))
        p_n = default_p_n(n)
        builds, blocks = [], [0]
        build, block = protocols._degree_classes, protocols._aloha_block

        def counted_build(topo, live):
            builds.append((blocks[0], int(np.count_nonzero(live))))
            return build(topo, live)

        def counted_block(*args):
            blocks[0] += 1
            return block(*args)

        def spread(max_steps):
            """(block, live count) of each build, after checking the spread."""
            builds.clear()
            blocks[0] = 0
            cap = default_max_steps(ALOHA, n) if max_steps is None else max_steps
            want = aloha_spread(topo, p_n, cap, np.random.default_rng(9))
            assert _spread(topo, ALOHA, 9, p_n, max_steps=max_steps) == want
            counted = list(builds)
            _assert_returns(run_spreading(topo, ALOHA, np.random.default_rng(9), p_n,
                                          max_steps=max_steps), want)
            assert want[0].completed == (max_steps is None)
            assert counted[0] == (0, n)
            assert all(2 * b <= a for (_, a), (_, b) in zip(counted, counted[1:]))
            return counted

        monkeypatch.setattr(protocols, "_degree_classes", counted_build)
        monkeypatch.setattr(protocols, "_aloha_block", counted_block)
        whole = spread(None)
        assert spread(whole[3][0] * _ALOHA_BLOCK + 1) == whole[:4]

    def test_aloha_with_isolated_node_runs_to_cap(self):
        # a 60-node RGG and a 61st node without neighbours: the others fill,
        # the tables shrink to none, and the spread runs to the default cap
        rgg = build_connected_rgg(60, 0.25, np.random.default_rng(60))
        edges = np.column_stack([np.repeat(np.arange(60), np.diff(rgg.indptr)), rgg.indices])
        topo = from_edges(61, edges)
        p_n = default_p_n(61)
        cap = default_max_steps(ALOHA, 61)
        got = _spread(topo, ALOHA, 10, p_n)
        assert got == aloha_spread(topo, p_n, cap, np.random.default_rng(10))
        _assert_returns(run_spreading(topo, ALOHA, np.random.default_rng(10), p_n), got)
        report, heard = got
        assert not report.completed and report.steps_to_full == cap
        assert heard[60] == 1 << 60
        assert all(h == (1 << 60) - 1 for h in heard[:60])

    @pytest.mark.parametrize("max_steps", [1, _GOSSIP_BLOCK - 1, _GOSSIP_BLOCK,
                                           _GOSSIP_BLOCK + 1, None])
    @pytest.mark.parametrize("name", ["complete1000", "rgg300", "isolated40"])
    @pytest.mark.parametrize("mode", [EXCHANGE, PUSH])
    def test_gossip_matches_tick_by_tick_oracle(self, mode, name, max_steps):
        # each spread runs past a block edge: K_1000 and the RGG take 5 000
        # to 25 000 ticks, and a 39-cycle plus an isolated node never completes
        topo = {
            "complete1000": complete_topology(1000),
            "rgg300": build_connected_rgg(300, 0.12, np.random.default_rng(300)),
            "isolated40": from_edges(40, [(u, (u + 1) % 39) for u in range(39)]),
        }[name]
        for seed in (9, 10):
            _assert_gossip_matches_oracle(topo, mode, max_steps, seed)

    @pytest.mark.parametrize("max_steps", [1, 2, 3, None])
    @pytest.mark.parametrize("name", ["complete2", "csr2", "complete3", "star5"])
    @pytest.mark.parametrize("mode", [EXCHANGE, PUSH])
    def test_contact_that_fills_both_ends(self, mode, name, max_steps):
        # on K_2 the first exchange fills both ends at once; on K_3 and a star
        # the last contact often fills one end and finds the other full
        topo = {
            "complete2": complete_topology(2),
            "csr2": explicit_complete_topology(2),
            "complete3": complete_topology(3),
            "star5": from_edges(5, [(0, v) for v in range(1, 5)]),
        }[name]
        for seed in range(20):
            _assert_gossip_matches_oracle(topo, mode, max_steps, seed)
        if name in ("complete2", "csr2") and mode == EXCHANGE:
            report, heard = _spread(topo, GOSSIP, 0)
            assert (report.steps_to_full, report.messages_sent) == (1, 2)
            assert heard == [3, 3]
            assert run_spreading(topo, GOSSIP, np.random.default_rng(0))[1].tolist() == [True] * 2

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 130])
    def test_mask_at_byte_boundaries(self, n):
        # N on either side of a byte edge, and node 0's heard-set cut short
        # at caps from one tick to past completion, so masks of many sizes
        partial = 0
        for seed, max_steps in itertools.product(range(4), [1, n // 2 + 1, n, 2 * n, None]):
            cap = default_max_steps(GOSSIP, n) if max_steps is None else max_steps
            want = gossip_spread(n, True, cap, np.random.default_rng(seed))
            got = run_spreading(complete_topology(n), GOSSIP, np.random.default_rng(seed),
                                max_steps=max_steps)
            _assert_returns(got, want)
            partial += 1 < np.count_nonzero(got[1]) < n
        assert partial > 0 or n == 1

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 9),
        data=st.data(),
        max_steps=st.one_of(st.none(), st.integers(1, 300)),
        mode=st.sampled_from([EXCHANGE, PUSH]),
        seed=st.integers(0, 10**6),
    )
    def test_small_graphs_match_tick_by_tick_oracle(self, n, data, max_steps, mode, seed):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        topo = complete_topology(n) if data.draw(st.booleans()) else from_edges(n, edges)
        _assert_gossip_matches_oracle(topo, mode, max_steps, seed)


def _assert_gossip_matches_oracle(topo, mode, max_steps, seed):
    """The gossip spread on a generator seeded with seed equals
    gossip_spread's in its report and all N heard-sets, and run_spreading
    returns that report and node 0's heard-set.  The oracle takes K_N's
    implicit rows as its node count N."""
    n = topo.n_nodes
    cap = default_max_steps(GOSSIP, n) if max_steps is None else max_steps
    net = n if topo.indices is None else topo
    want = gossip_spread(net, mode == EXCHANGE, cap, np.random.default_rng(seed))
    assert _spread(topo, GOSSIP, seed, mode=mode, max_steps=max_steps) == want
    got = run_spreading(topo, GOSSIP, np.random.default_rng(seed), exchange_mode=mode,
                        max_steps=max_steps)
    _assert_returns(got, want)
