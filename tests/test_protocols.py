import itertools

import numpy as np
import pytest
from scipy import stats

from netmoments.network import build_rgg, complete_topology, cycle_topology, from_edges
from netmoments.protocols import (
    ALOHA,
    EXCHANGE,
    GOSSIP,
    PUSH,
    SpreadConfig,
    _aloha_events,
    _GossipPicker,
    heard_ids,
    run_spreading,
)

from oracles import aloha_deliveries


def _graphs():
    rng = np.random.default_rng(5)
    random8 = [(u, v) for u, v in itertools.combinations(range(8), 2) if rng.random() < 0.4]
    return {
        "complete5": complete_topology(5),
        "cycle6": cycle_topology(6),
        "star7": from_edges(7, [(0, v) for v in range(1, 7)]),
        "path8": from_edges(8, [(u, u + 1) for u in range(7)]),
        "isolated7": from_edges(7, [(0, 1), (1, 2), (4, 5)]),
        "random8": from_edges(8, random8),
    }


def _neighbors(topo):
    return [topo.neighbors(u) for u in range(topo.n_nodes)]


class TestAlohaRule:
    @pytest.mark.parametrize("name", sorted(_graphs()))
    def test_every_transmit_mask_matches_brute_force(self, name):
        topo = _graphs()[name]
        n = topo.n_nodes
        for mask in range(1 << n):
            tx = np.array([(mask >> u) & 1 for u in range(n)], dtype=bool)
            senders, deliveries = _aloha_events(topo.as_csr(), tx)
            assert senders.tolist() == np.flatnonzero(tx).tolist()
            assert len(set(d for _, d in deliveries)) == len(deliveries)
            assert set(deliveries) == aloha_deliveries(_neighbors(topo), tx)

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
        for tx in masks:
            senders, deliveries = _aloha_events(topo.as_csr(), tx)
            assert senders.tolist() == np.flatnonzero(tx).tolist()
            assert len(set(d for _, d in deliveries)) == len(deliveries)
            assert set(deliveries) == aloha_deliveries(_neighbors(topo), tx)


class TestGossipPicker:
    def test_pairs_uniform_chi_square(self):
        # irregular degrees 3, 1, 2, 3, 2, 1 and one isolated node (pick -1):
        # a pair (u, v) has probability 1 / (N deg u)
        edges = [(0, 1), (0, 2), (0, 3), (2, 3), (3, 4), (4, 5)]
        topo = from_edges(7, edges)
        pairs = [(u, int(v)) for u in range(7) for v in topo.neighbors(u)] + [(6, -1)]
        expected = np.array([1.0 / (7 * max(topo.degree(u), 1)) for u, _ in pairs])
        picker = _GossipPicker(topo, np.random.default_rng(2012))
        draws = 40_000
        tally = dict.fromkeys(pairs, 0)
        for _ in range(draws):
            tally[picker.pick()] += 1
        observed = np.array([tally[p] for p in pairs])
        assert observed.sum() == draws
        assert stats.chisquare(observed, expected * draws).pvalue > 1e-3


class TestRunSpreading:
    @pytest.mark.parametrize(
        "protocol, mode", [(GOSSIP, EXCHANGE), (GOSSIP, PUSH), (ALOHA, EXCHANGE)]
    )
    def test_completed_heard_sets_are_full(self, protocol, mode):
        topo = complete_topology(30) if protocol == GOSSIP else cycle_topology(12)
        report, heard = run_spreading(
            topo, protocol, SpreadConfig(exchange_mode=mode), np.random.default_rng(1),
            message_bits=7,
        )
        assert report.completed
        assert heard == [(1 << topo.n_nodes) - 1] * topo.n_nodes
        assert report.bits_sent == 7 * report.messages_sent

    def test_gossip_messages_per_tick(self):
        topo = complete_topology(20)
        for mode, per_tick in ((EXCHANGE, 2), (PUSH, 1)):
            report, _ = run_spreading(
                topo, GOSSIP, SpreadConfig(exchange_mode=mode), np.random.default_rng(2)
            )
            assert report.messages_sent == per_tick * report.steps_to_full

    def test_cut_short_heard_sets_grow_monotonically(self):
        topo = build_rgg(60, 0.3, np.random.default_rng(3))
        cfg_short = SpreadConfig(max_steps=40)
        cfg_long = SpreadConfig(max_steps=80)
        short, heard_short = run_spreading(topo, GOSSIP, cfg_short, np.random.default_rng(4))
        _, heard_long = run_spreading(topo, GOSSIP, cfg_long, np.random.default_rng(4))
        assert not short.completed and short.steps_to_full == 40
        for a, b in zip(heard_short, heard_long):
            assert a & b == a
        assert all((h >> u) & 1 for u, h in enumerate(heard_short))

    def test_invalid_p_n_rejected(self):
        with pytest.raises(ValueError):
            run_spreading(cycle_topology(5), ALOHA, SpreadConfig(), np.random.default_rng(0), p_n=1.0)


class TestHeardIds:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 130])
    def test_matches_bit_tests(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            want = np.flatnonzero(rng.integers(0, 2, size=n)).tolist()
            assert heard_ids(sum(1 << u for u in want), n).tolist() == want
