"""End-to-end tests of the `netmoments run` pipeline through `cli.main`.

The golden digests pin `report.json` byte for byte.  Each config has two:
- the sha256 of the whole report, re-recorded once when sketches began to
  be drawn per value as the closed-form min of its members' draws, which
  changed the random stream the estimates come from;
- the sha256 of the report without its estimate-derived keys, recorded
  before that change.  It still matches, so the change moved only the
  estimates.  That stripped content goes back further, to the release that
  kept an N-row sketch array and merged rows on every delivery, including
  runs cut short by --max-steps.
The percolating Aloha config at k = 2 was recorded on the release before the
k = 2 and k >= 3 trial paths were merged into one.  The percolating configs
at k = 3 record both digests at once, on the first release that ran them.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import pickle
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netmoments
from netmoments import cli
from netmoments.estimators import Dataset, ErrorBudget
from netmoments.network import (
    DEFAULT_PERCOLATION_C,
    build_rgg,
    giant_component,
    induced_subgraph,
    percolation_radius,
    read_edge_list,
    write_edge_list,
)
from netmoments.protocols import (
    ALOHA,
    EXCHANGE,
    PUSH,
    SpreadConfig,
    default_max_steps,
    default_p_n,
    empirical_quantile,
    measure_spreading,
)
from netmoments.simulator import (
    CapacityError,
    DataModel,
    ExperimentConfig,
    solve_budget,
    write_dataset_file,
)
from netmoments.sketch_core import QuantConfig


# report keys that the sketch draws feed: every other key must survive a
# change of the draw stream unchanged
_TRIAL_ESTIMATE_KEYS = ("estimate_scaled", "abs_error", "success", "eq4_error", "eq4_ok",
                        "corollary_stat", "corollary_ok")
_AGGREGATE_ESTIMATE_KEYS = ("mean_abs_error", "max_abs_error")


def _stripped_digest(body: bytes) -> str:
    """sha256 of report.json with every estimate-derived key removed,
    re-serialised the way the report itself is."""
    report = json.loads(body)
    del report["empirical_success_rate"]
    for key in _AGGREGATE_ESTIMATE_KEYS:
        del report["aggregates"][key]
    for trial in report["trials"]:
        for key in _TRIAL_ESTIMATE_KEYS:
            trial.pop(key, None)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def _run(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.main(["run", *argv, "--out", str(out), "--format", "json"])
    return code, out


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging (main thread, POSIX)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_BUDGET = ["--r1", "8", "--r2", "64"]
_K3 = ["--k", "3", "--s1", "2", "--nodes", "150", "--alphabet", "9", "--r1", "4", "--r2", "32"]
_K3_PERCOLATING = ["--k", "3", "--s1", "2", "--nodes", "300", "--alphabet", "9", "--r1", "4",
                   "--r2", "32", "--network", "rgg-percolating", "--data", "zipf:1.2",
                   "--trials", "2", "--seed", "23"]

# name -> (argv, exit code, sha256 of report.json, sha256 of report.json
# without its estimate-derived keys)
GOLDEN = {
    "complete-gossip-k2": (
        ["--nodes", "300", "--alphabet", "20", "--network", "complete", "--protocol", "gossip",
         "--data", "zipf:1.2", *_BUDGET, "--trials", "2", "--seed", "11"],
        0,
        "59e0f580a39cf554a3edf622cee760e3ffd3b86a7e3c97e753d65b611dfedfe8",
        "43201f9721ac9a1bc53d6b83a0247fe1636459236b017d60a07ab1f5e796baac",
    ),
    "complete-gossip-push-k2": (
        ["--nodes", "200", "--alphabet", "12", "--network", "complete", "--protocol", "gossip",
         "--exchange-mode", "push", "--data", "uniform", "--r1", "8", "--r2", "32",
         "--trials", "2", "--seed", "12"],
        0,
        "0c7e61bb6dbf8986eac40371c419173df8e794c1924dfa7038c9b68d696f0925",
        "7a4a15d87889fc2401e52ae630c9f3bfc1f605ee9119948ce08ce994b0d25cd7",
    ),
    "rgg-connected-aloha-k2": (
        ["--nodes", "300", "--alphabet", "20", "--network", "rgg-connected", "--protocol", "aloha",
         "--data", "zipf:1.2", *_BUDGET, "--trials", "2", "--seed", "13"],
        0,
        "6a22d4b5a1303368633eb1729688721ee40406b6c4b24fc9c16b2fe365caa795",
        "78204327b25824f541c6f9d11fdc1bfdeeb38d5c217ae89a9bbbeb13a7996075",
    ),
    "rgg-percolating-gossip-k2": (
        ["--nodes", "600", "--alphabet", "30", "--network", "rgg-percolating", "--protocol", "gossip",
         "--data", "zipf:1.5", *_BUDGET, "--trials", "3", "--seed", "14"],
        0,
        "80ec33f3c504e578a8dc09d56f09e3b5863b455f30ce2faa1aa50848d2d54b4a",
        "ebf9c40ecf67562f3ac4a841a2d2a4ac310781262cc45e870628eb7761369eaa",
    ),
    "rgg-percolating-aloha-k2": (
        ["--nodes", "600", "--alphabet", "30", "--network", "rgg-percolating", "--protocol", "aloha",
         "--data", "zipf:1.5", *_BUDGET, "--trials", "3", "--seed", "22"],
        0,
        "13b5cf8a4dff28763ec1f4dc04e1e76e8117e516b6a2b6d6224031ae4a7852f2",
        "623feff45ea9493a79081fa5a0ee647d8c2aeab9cc06297798b94381c1a875ca",
    ),
    "rgg-percolating-gossip-k3": (
        [*_K3_PERCOLATING, "--protocol", "gossip"],
        0,
        "d54566a0495de2bd393510e32c641dd9c87c037fdad40faef14553760886d321",
        "1d156a60823ad22c9b1f1a021b94ccc5b6ecf11e52e98a774339f1e85fb5e4ad",
    ),
    "rgg-percolating-aloha-k3": (
        [*_K3_PERCOLATING, "--protocol", "aloha"],
        0,
        "803a0f2b0ca602eebb540fe00dd7eea11d5ffd965205bd2fff58e10ca675dec8",
        "e9d2a45f6a00deb985510dd27cae6871d6f3dc209e91bfd6ce679f2affa856a8",
    ),
    "rgg-connected-gossip-k3": (
        [*_K3, "--network", "rgg-connected", "--protocol", "gossip", "--data", "zipf:1.2",
         "--seed", "15"],
        0,
        "08a3b4f7e0ae38e7dc9d888edc28f97228581ba4236ef6c7d536f5c5e984b271",
        "ee4f332a09638c4c224b01c60dcff400337a5297abca560b5e5167e34ee29e8f",
    ),
    "rgg-connected-aloha-k4": (
        ["--nodes", "100", "--alphabet", "8", "--k", "4", "--s1", "1", "--buckets", "2",
         "--network", "rgg-connected", "--protocol", "aloha", "--data", "pointmass",
         "--r1", "4", "--r2", "16", "--seed", "16"],
        0,
        "ffaf329cf35da159e0b5d3a6b354ecb118ea753e33101d7473b82414f28a79bd",
        "3d557ab4554fe1ffa0db8aebc4a608ef982e89baf0060d8f83f1cee7119bf0fb",
    ),
    "rgg-connected-gossip-k3-cut": (
        [*_K3, "--network", "rgg-connected", "--protocol", "gossip", "--data", "zipf:1.2",
         "--max-steps", "300", "--seed", "19"],
        4,
        "ea82e69bca95bf29b6ed0dbc6a864f797c33aa0b6e62263b352fab4c494b772d",
        "8deb0eed78c01746b1a000029d2e5e3e144127502ad8a7042b5bb23dd72f2693",
    ),
    "complete-gossip-cut": (
        ["--nodes", "300", "--alphabet", "20", "--network", "complete", "--protocol", "gossip",
         "--data", "zipf:1.2", *_BUDGET, "--max-steps", "600", "--seed", "17"],
        4,
        "aff5a05b96f210081290a262f4a91b9350a0cf685645b198c0d347d0d60cc18f",
        "7c9e243d1d9ca5e468d8b744d0930d5774d3dcddcad8cc02191d6a50aaeda7f4",
    ),
    "rgg-connected-aloha-cut": (
        ["--nodes", "300", "--alphabet", "20", "--network", "rgg-connected", "--protocol", "aloha",
         "--data", "zipf:1.2", *_BUDGET, "--max-steps", "20", "--seed", "18"],
        4,
        "a82d8d51aa4811fd36cfdfc147e029f1eb19f67d1a53cebb6a363b1ac72ede8f",
        "9fac8a6cc65ecee1ddfaad46a5b620a03a841bcaf8587cad2d3d0016dad5bddd",
    ),
}


# name -> (argv, sha256 of report.json, sha256 without estimate-derived keys)
# on the 150-node graph of _write_graph,
# given by a relative path so that the path inside report.json is fixed
GRAPH_GOLDEN = {
    "graph-gossip-k2": (
        ["--nodes", "150", "--alphabet", "12", "--protocol", "gossip", "--data", "zipf:1.2",
         *_BUDGET, "--trials", "2", "--seed", "20"],
        "8fc8dd0be971bc4e130190910a9bc02def87c11885093063aa9bc2356692f8f0",
        "ce3e1d443908f9cfa1a7597ce6e522fbf2e523bdbd2d1eb3e6cb321174767fa8",
    ),
    "graph-aloha-k3": (
        [*_K3, "--protocol", "aloha", "--data", "zipf:1.2", "--seed", "21"],
        "a0109ebf50970943251d480d535e5a98cc60f8f6a9bc44dbf4e15d245141b2e7",
        "cfb6c2659bcfd8ab6e6ddb43dcc7a436b06f94fd65c0f1f25fb43bdad93cae10",
    ),
}


def _write_graph(path, n=150):
    """A connected irregular graph: a cycle plus the chords u -- 7u + 3 (mod n)."""
    edges = {tuple(sorted((u, (u + 1) % n))) for u in range(n)}
    edges |= {tuple(sorted((u, (7 * u + 3) % n))) for u in range(n) if (7 * u + 3) % n != u}
    lines = [f"{n} -", *(f"{u} {v}" for u, v in sorted(edges))]
    path.write_text("\n".join(lines) + "\n")


class TestGoldenReports:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_report_digest(self, tmp_path, capsys, name):
        argv, want_code, want_digest, want_stripped = GOLDEN[name]
        code, out = _run(tmp_path, name, argv)
        assert code == want_code
        body = (out / "report.json").read_bytes()
        assert _stripped_digest(body) == want_stripped
        assert hashlib.sha256(body).hexdigest() == want_digest

    @pytest.mark.parametrize("name", sorted(GRAPH_GOLDEN))
    def test_graph_report_digest(self, tmp_path, monkeypatch, capsys, name):
        argv, want_digest, want_stripped = GRAPH_GOLDEN[name]
        monkeypatch.chdir(tmp_path)
        _write_graph(tmp_path / "edges.txt")
        code, out = _run(tmp_path, name, [*argv, "--network", "graph:edges.txt"])
        assert code == 0
        body = (out / "report.json").read_bytes()
        assert _stripped_digest(body) == want_stripped
        assert hashlib.sha256(body).hexdigest() == want_digest


# network -> sha256 of spreading_time.csv for --nodes 20,300 --trials 3 --seed 1,
# recorded from the release that stored the complete graph as a CSR
SPREADING_CSV = {
    "complete": "442e047cf26fbfb16b46c48ea165de03f8fc9d6eb2c651f231d54ba42605766c",
    "rgg-connected": "a0f5e44615f609237bf62a499a93bc31a5891fd820b6f940605e8cd438e61c44",
}


class TestSpreadingTime:
    @pytest.mark.parametrize("net", sorted(SPREADING_CSV))
    def test_csv_digest(self, tmp_path, capsys, net):
        out = tmp_path / net
        code = cli.main(["spreading-time", "--nodes", "20,300", "--network", net,
                         "--trials", "3", "--seed", "1", "--out", str(out)])
        assert code == cli.EXIT_OK
        body = (out / "spreading_time.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == SPREADING_CSV[net]

    def test_aloha_csv_digest(self, tmp_path, capsys):
        # recorded from the release that drew one Aloha mask per slot; the
        # three trials share one generator, so a block of slots drawn past a
        # trial's end must be given back
        out = tmp_path / "aloha"
        code = cli.main(["spreading-time", "--nodes", "20,300", "--network", "rgg-connected",
                         "--protocol", "aloha", "--trials", "3", "--seed", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        body = (out / "spreading_time.csv").read_bytes()
        want = "832617742e1224cf6aa22f4a5ce1cd05b32e2519da218f6e76769deb44f1d036"
        assert hashlib.sha256(body).hexdigest() == want


    @pytest.mark.parametrize(
        "net, protocol",
        [("rgg-percolating", "gossip"), ("rgg-percolating", "aloha"), ("graph", "aloha")],
    )
    def test_runs_on_the_network_run_uses(self, tmp_path, monkeypatch, capsys, net, protocol):
        # a percolating graph spreads on its giant component at the regime's
        # p_n, as `run` does; the generator of the size draws the graph first
        monkeypatch.chdir(tmp_path)
        _write_graph(tmp_path / "edges.txt")
        n = 150 if net == "graph" else 400
        spec = "graph:edges.txt" if net == "graph" else net
        code = cli.main(["spreading-time", "--nodes", str(n), "--network", spec,
                         "--protocol", protocol, "--trials", "3", "--seed", "4", "--out", "st"])
        assert code == cli.EXIT_OK
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(4, 0)))
        if net == "graph":
            topo, p_n = read_edge_list("edges.txt"), default_p_n(n)
        else:
            whole = build_rgg(n, percolation_radius(n, DEFAULT_PERCOLATION_C), rng)
            topo, _ = induced_subgraph(whole, giant_component(whole).giant)
            p_n = default_p_n(n, percolating=True)
            assert n / 2 <= topo.n_nodes < n
        m = measure_spreading(topo, protocol, SpreadConfig(), 3, rng, p_n=p_n)
        want = (n, m.quantile_steps, empirical_quantile(m.steps, 0.5), float(np.mean(m.steps)),
                m.completed_trials)
        row = (tmp_path / "st" / "spreading_time.csv").read_text().splitlines()[1]
        assert row == ",".join(str(x) for x in want)

    def test_small_giant_is_config_error(self, capsys):
        argv = ["spreading-time", "--nodes", "300", "--network", "rgg-percolating",
                "--radius-c", "0.6", "--seed", "3"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert re.search(r"giant component holds \d+/300 nodes", capsys.readouterr().err)

    def test_rerun_from_effective_cfg(self, tmp_path, capsys):
        # push with a cap that binds: the echo must carry both, or the
        # re-run spreads by exchange without the cap
        argv = ["spreading-time", "--nodes", "20,60", "--exchange-mode", "push",
                "--max-steps", "800", "--trials", "3", "--seed", "8"]
        assert cli.main([*argv, "--out", str(tmp_path / "first")]) == cli.EXIT_OK
        cfg = (tmp_path / "first" / "effective.cfg").read_text()
        for line in ("exchange_mode = push", "max_steps = 800", "radius_c = 2.0"):
            assert line in cfg.splitlines()
        assert "p_n = " not in cfg  # 1/ln N differs per size
        again = ["spreading-time", "--config", str(tmp_path / "first" / "effective.cfg"),
                 "--out", str(tmp_path / "again")]
        assert cli.main(again) == cli.EXIT_OK
        first = (tmp_path / "first" / "spreading_time.csv").read_bytes()
        assert (tmp_path / "again" / "spreading_time.csv").read_bytes() == first
        assert b",2\n" in first  # the cap cut one trial short

    def test_echo_pins_a_p_n_shared_by_every_size(self, tmp_path, capsys):
        out = tmp_path / "one"
        argv = ["spreading-time", "--nodes", "300", "--network", "rgg-connected",
                "--protocol", "aloha", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert f"p_n = {default_p_n(300)}" in (out / "effective.cfg").read_text().splitlines()


class TestMemory:
    def test_complete_gossip_keeps_no_adjacency(self, tmp_path, capsys):
        # an explicit K_2000 CSR alone takes 16 MB
        argv = ["--nodes", "2000", "--alphabet", "20", "--network", "complete",
                "--protocol", "gossip", "--r1", "2", "--r2", "8", "--seed", "5"]
        tracemalloc.start()
        try:
            code, _ = _run(tmp_path, "k2000", argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        assert peak < 4 * 2**20


class TestInvariance:
    """A completed spread leaves node 0 with the min over every initial
    sketch, so the estimate cannot depend on the network or the protocol."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_estimate_same_on_every_network(self, tmp_path, capsys, k):
        estimates = set()
        for net, proto in (
            ("complete", "gossip"),
            ("rgg-connected", "gossip"),
            ("rgg-connected", "aloha"),
        ):
            argv = ["--nodes", "80", "--alphabet", "8", "--k", str(k), "--network", net,
                    "--protocol", proto, "--r1", "8", "--r2", "16", "--seed", "1210"]
            code, out = _run(tmp_path, f"{net}-{proto}", argv)
            assert code == 0
            (trial,) = json.loads((out / "report.json").read_text())["trials"]
            assert trial["completed"]
            estimates.add(trial["estimate_scaled"])
        assert len(estimates) == 1


class TestGiantInvariance:
    """A percolating trial runs on its giant component, so its estimate
    equals that of the same pipeline run on the giant written out as a
    graph file, with the giant's values as the data file.  The solved
    quantizer depends on N, so it is pinned along with the budget."""

    @pytest.mark.parametrize("k, protocol", [(2, "gossip"), (3, "gossip"), (3, "aloha")])
    def test_estimate_equals_run_on_giant(self, tmp_path, capsys, k, protocol):
        n, m, seed = 300, 9, 23
        pinned = ["--alphabet", str(m), "--k", str(k), "--s1", "2", "--r1", "4", "--r2", "32",
                  "--trunc-L", "11", "--quant-bits", "20", "--protocol", protocol,
                  "--seed", str(seed)]
        code, out = _run(tmp_path, "percolating", [
            "--nodes", str(n), "--network", "rgg-percolating", "--data", "zipf:1.2", *pinned,
        ])
        assert code == 0
        (trial,) = json.loads((out / "report.json").read_text())["trials"]
        # trial 0's generators: data first, then maps, then the topology
        data_ss, _, topo_ss, _, _ = np.random.SeedSequence(entropy=(seed, 0)).spawn(5)
        values = DataModel("zipf", theta=1.2).generate(n, m, np.random.default_rng(data_ss)).values
        whole = build_rgg(n, percolation_radius(n, DEFAULT_PERCOLATION_C),
                          np.random.default_rng(topo_ss))
        giant, ids = induced_subgraph(whole, giant_component(whole).giant)
        write_edge_list(giant, tmp_path / "giant.txt")
        write_dataset_file(Dataset(values[ids], m), tmp_path / "giant.dat")
        code, out = _run(tmp_path, "giant", [
            "--nodes", str(len(ids)), "--network", f"graph:{tmp_path / 'giant.txt'}",
            "--data", f"file:{tmp_path / 'giant.dat'}", *pinned,
        ])
        assert code == 0
        (on_giant,) = json.loads((out / "report.json").read_text())["trials"]
        assert trial["completed"] and on_giant["completed"]
        assert trial["n_participants"] == len(ids) < n
        assert on_giant["estimate_scaled"] == trial["estimate_scaled"]
        assert on_giant["exact_scaled"] == trial[f"f{k}_alpha_scaled"]
        assert on_giant["abs_error"] == trial["eq4_error"]


_SMALL = ["--nodes", "120", "--alphabet", "10", "--r1", "4", "--r2", "16", "--trials", "3",
          "--seed", "7"]


class TestReproducibility:
    def test_jobs_do_not_change_report(self, tmp_path, capsys):
        _, one = _run(tmp_path, "jobs1", [*_SMALL, "--jobs", "1"])
        _, two = _run(tmp_path, "jobs2", [*_SMALL, "--jobs", "2"])
        assert (one / "report.json").read_bytes() == (two / "report.json").read_bytes()

    def test_rerun_from_effective_cfg(self, tmp_path, capsys):
        _, first = _run(tmp_path, "first", [*_SMALL, "--network", "rgg-connected"])
        _, again = _run(tmp_path, "again", ["--config", str(first / "effective.cfg")])
        assert (first / "report.json").read_bytes() == (again / "report.json").read_bytes()


class TestSweep:
    def test_rerun_seedless_sweep_from_effective_cfg(self, tmp_path, capsys):
        argv = ["sweep", "--param", "nodes", "--values", "60,80", "--alphabet", "5",
                "--r1", "2", "--r2", "4", "--format", "json"]
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli.main([*argv, "--out", str(first)]) == cli.EXIT_OK
        cfg = (first / "effective.cfg").read_text()
        (seed,) = re.findall(r"^seed = (\d+)$", cfg, re.M)
        assert f"seed = {seed}" in capsys.readouterr().out.splitlines()
        rerun = ["sweep", "--config", str(first / "effective.cfg"), "--out", str(again)]
        assert cli.main(rerun) == cli.EXIT_OK
        for point in ("nodes=60", "nodes=80"):
            body = (first / point / "report.json").read_bytes()
            assert (again / point / "report.json").read_bytes() == body
            assert json.loads(body)["config"]["master_seed"] == int(seed)

    @pytest.mark.parametrize("param, values", [("trunc-L", "5,6"), ("out", "x,y")])
    def test_param_is_a_run_setting_by_its_flag_spelling(self, tmp_path, capsys, param, values):
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", param, "--values", values, "--nodes", "60", "--alphabet",
                "5", "--r1", "2", "--r2", "4", "--seed", "1", "--format", "json", "--out", str(out)]
        code = cli.main(argv)
        if param == "out":
            assert code == cli.EXIT_CONFIG
            assert "unknown sweep parameter 'out'" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == cli.EXIT_OK
            assert "param = trunc_l" in (out / "effective.cfg").read_text().splitlines()
            for value in values.split(","):
                report = json.loads((out / f"trunc_l={value}" / "report.json").read_text())
                assert report["config"]["quant"]["truncation_L"] == float(value)

    def test_bad_point_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", "nodes", "--values", "60,4", "--alphabet", "5",
                "--r1", "2", "--r2", "4", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()


class TestExitCodes:
    def test_tiny_run_exits_zero(self, tmp_path, capsys):
        code, out = _run(tmp_path, "tiny", ["--nodes", "40", "--alphabet", "5",
                                            "--r1", "2", "--r2", "8", "--seed", "2"])
        assert code == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())

    def test_spreading_time_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "spread"
        code = cli.main(["spreading-time", "--nodes", "20,30", "--trials", "3", "--seed", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = (out / "spreading_time.csv").read_text().splitlines()
        assert lines[0] == "n_nodes,quantile_steps,median_steps,mean_steps,completed_trials"
        assert [line.split(",")[0] for line in lines[1:]] == ["20", "30"]
        assert all(line.endswith(",3") for line in lines[1:])

    def test_spreading_time_without_finished_trial_is_nonconverged(self, capsys):
        argv = ["spreading-time", "--nodes", "60", "--max-steps", "5", "--trials", "3",
                "--seed", "1"]
        code = cli.main(argv)
        assert code == cli.EXIT_NONCONVERGED
        assert "no trial completed" in capsys.readouterr().err

    def test_nonconverged_message_names_default_cap(self, capsys):
        argv = ["spreading-time", "--nodes", "40", "--network", "rgg-connected",
                "--protocol", "aloha", "--p-n", "0.98", "--trials", "1", "--seed", "1"]
        assert cli.main(argv) == cli.EXIT_NONCONVERGED
        cap = default_max_steps(ALOHA, 40)
        assert f"no trial completed within the step cap ({cap})" in capsys.readouterr().err

    def test_run_without_alphabet_is_config_error(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "no-alphabet", ["--nodes", "40", "--seed", "2"])
        assert code == cli.EXIT_CONFIG
        assert "--alphabet" in capsys.readouterr().err

    def test_gen_data_without_alphabet_is_config_error(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--nodes", "40", "--out", str(tmp_path / "data.txt")])
        assert code == cli.EXIT_CONFIG
        assert "--alphabet" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--r1", "0", "--r2", "0"], ["--r1", "0", "--r2", "8"], ["--r1", "8"],
         ["--quant-bits", "0"], ["--trunc-L", "0"]],
    )
    def test_zero_override_is_config_error(self, tmp_path, capsys, flags):
        # a zero must reach the validators, not fall back to the solver's value
        code, _ = _run(tmp_path, "zero", ["--nodes", "60", "--alphabet", "5", "--seed", "1",
                                          *flags])
        assert code == cli.EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_spreading_time_zero_radius_is_config_error(self, capsys):
        argv = ["spreading-time", "--nodes", "60", "--network", "rgg-connected",
                "--radius-c", "0", "--seed", "1"]
        with _deadline(60):
            code = cli.main(argv)
        assert code == cli.EXIT_CONFIG
        assert "c > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_config_error(self, tmp_path, capsys, jobs):
        code, out = _run(tmp_path, "jobs", [*_SMALL, "--jobs", jobs])
        assert code == cli.EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not (out / "effective.cfg").exists()

    @pytest.mark.parametrize("k", ["2", "3"])
    def test_zero_buckets_is_config_error(self, tmp_path, capsys, k):
        # k = 2 runs one phase with s1 = 1, yet a zero given for either still fails
        for flag in ("--buckets", "--s1"):
            code, out = _run(tmp_path, flag[2:], [*_SMALL, "--k", k, flag, "0"])
            assert code == cli.EXIT_CONFIG
            assert "num_buckets and s1 must be >= 1" in capsys.readouterr().err
            assert not out.exists()

    def test_infeasible_budget(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "big", ["--nodes", "100", "--alphabet", "5",
                                         "--epsilon", "0.001", "--delta", "0.001"])
        assert code == cli.EXIT_INFEASIBLE

    def test_run_without_connected_rgg_is_config_error(self, tmp_path, capsys):
        argv = ["--nodes", "200", "--alphabet", "10", "--network", "rgg-connected",
                "--radius-c", "0.05", "--r1", "2", "--r2", "4", "--seed", "3"]
        with _deadline(60):
            code, _ = _run(tmp_path, "sparse", argv)
        assert code == cli.EXIT_CONFIG
        assert "connected" in capsys.readouterr().err

    def test_spreading_time_without_connected_rgg_is_config_error(self, capsys):
        argv = ["spreading-time", "--nodes", "500", "--network", "rgg-connected",
                "--radius-c", "0.05", "--seed", "3"]
        with _deadline(60):
            code = cli.main(argv)
        assert code == cli.EXIT_CONFIG

    def test_run_aloha_on_complete_is_config_error(self, tmp_path, capsys):
        argv = ["--nodes", "120", "--alphabet", "8", "--k", "4", "--s1", "1", "--buckets", "2",
                "--network", "complete", "--protocol", "aloha", "--data", "pointmass",
                "--r1", "4", "--r2", "16", "--seed", "16"]
        with _deadline(60):
            code, _ = _run(tmp_path, "complete-aloha", argv)
        assert code == cli.EXIT_CONFIG
        assert "aloha" in capsys.readouterr().err

    def test_spreading_time_aloha_on_complete_is_config_error(self, capsys):
        argv = ["spreading-time", "--nodes", "120", "--network", "complete", "--protocol", "aloha",
                "--seed", "16"]
        with _deadline(60):
            code = cli.main(argv)
        assert code == cli.EXIT_CONFIG
        assert "aloha" in capsys.readouterr().err


# Every flag as the parser declares it: option string -> (dest, type, choices).
# Recorded on the release that declared flags per subcommand by hand; since
# then only oracle's --nodes/--alphabet/--seed/--out and spreading-time's
# --alphabet, which those subcommands never read, are gone.
_FLAGS = {
    "--config": ("config", None, None),
    "--nodes": ("nodes", str, None),
    "--alphabet": ("alphabet", int, None),
    "--seed": ("seed", int, None),
    "--out": ("out", str, None),
    "--k": ("k", int, None),
    "--epsilon": ("epsilon", float, None),
    "--delta": ("delta", float, None),
    "--r1": ("r1", int, None),
    "--r2": ("r2", int, None),
    "--quant-bits": ("quant_bits", int, None),
    "--trunc-L": ("trunc_l", float, None),
    "--network": ("network", str, None),
    "--radius-c": ("radius_c", float, None),
    "--protocol": ("protocol", str, ("gossip", "aloha")),
    "--p-n": ("p_n", float, None),
    "--data": ("data", str, None),
    "--buckets": ("buckets", str, None),
    "--s1": ("s1", int, None),
    "--trials": ("trials", int, None),
    "--jobs": ("jobs", int, None),
    "--format": ("format", str, ("json", "csv", "both")),
    "--beta": ("beta", float, None),
    "--max-steps": ("max_steps", int, None),
    "--exchange-mode": ("exchange_mode", str, ("exchange", "push")),
    "--param": ("param", str, None),
    "--values": ("values", str, None),
    "--file": ("file", str, None),
    "--json-out": ("json_out", str, None),
}
_RUN_FLAGS = ("--config --nodes --alphabet --seed --out --k --epsilon --delta --r1 --r2 "
              "--quant-bits --trunc-L --network --radius-c --protocol --p-n --data --buckets "
              "--s1 --trials --jobs --format --beta --max-steps --exchange-mode").split()
_SUBCOMMAND_FLAGS = {
    "gen-data": "--config --nodes --alphabet --seed --out --data".split(),
    "run": _RUN_FLAGS,
    "sweep": [*_RUN_FLAGS, "--param", "--values"],
    "spreading-time": ("--config --nodes --seed --out --network --protocol --p-n --radius-c "
                       "--trials --beta --max-steps --exchange-mode").split(),
    "oracle": "--config --file --k --json-out".split(),
}


class TestParserSurface:
    def test_flags_of_each_subcommand(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {tuple(a.option_strings): (a.dest, a.type, a.choices and tuple(a.choices))
                   for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()
        }
        want = {name: {(flag,): _FLAGS[flag] for flag in flags}
                for name, flags in _SUBCOMMAND_FLAGS.items()}
        assert got == want

    @pytest.mark.parametrize("argv", [["oracle", "--nodes", "3"],
                                      ["spreading-time", "--alphabet", "5"]])
    def test_flag_the_subcommand_never_reads_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


# Run in a fresh interpreter: import the CLI, then list the modules that
# each run imports between the entry of run_experiment and the return of
# cli.main.  Module loading belongs before the run, and scipy not at all.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import netmoments.cli as cli
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
entry = {}
run_experiment = cli.run_experiment
def probe(*args, **kwargs):
    entry["modules"] = set(sys.modules)
    return run_experiment(*args, **kwargs)
cli.run_experiment = probe
late = {}
for name, argv in json.loads(sys.argv[2]).items():
    code = cli.main(argv)
    late[name] = [code, sorted(set(sys.modules) - entry["modules"])]
print(json.dumps({"scipy": scipy, "late": late}))
"""


class TestImports:
    def test_no_scipy_and_no_import_inside_a_run(self, tmp_path):
        common = ["--nodes", "60", "--alphabet", "5", "--network", "rgg-connected",
                  "--r1", "2", "--r2", "4", "--seed", "3"]
        runs = {
            "k3-gossip": ["run", *common, "--k", "3", "--s1", "1", "--buckets", "2",
                          "--protocol", "gossip", "--out", str(tmp_path / "gossip")],
            "k2-aloha": ["run", *common, "--protocol", "aloha", "--out", str(tmp_path / "aloha")],
        }
        src = str(Path(netmoments.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src, json.dumps(runs)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["scipy"] == []
        assert result["late"] == {"k3-gossip": [0, []], "k2-aloha": [0, []]}


class TestSolveBudget:
    def test_given_sizes_keep_the_split(self):
        solved, quant = solve_budget(0.1, 0.1, 300)
        given, given_quant = solve_budget(0.1, 0.1, 300, r1=8, r2=64)
        assert given == dataclasses.replace(solved, r1=8, r2=64)
        assert given_quant == quant

    def test_given_sizes_skip_the_cell_cap(self):
        with pytest.raises(CapacityError):
            solve_budget(0.001, 0.001, 300)
        budget, _ = solve_budget(0.001, 0.001, 300, r1=2, r2=4)
        assert (budget.r1, budget.r2) == (2, 4)

    @pytest.mark.parametrize("sizes", [dict(r1=8), dict(r2=8)])
    def test_one_size_alone_rejected(self, sizes):
        with pytest.raises(ValueError, match="both"):
            solve_budget(0.1, 0.1, 300, **sizes)


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def experiment_configs(draw):
    n = draw(st.integers(3, 10**6))
    k = draw(st.integers(2, 5))
    network = draw(st.sampled_from(
        ["complete", "rgg-connected", "rgg-percolating", "graph:edges.txt"]
    ))
    data = draw(st.one_of(
        st.sampled_from([DataModel("pointmass"), DataModel("uniform"),
                         DataModel("file", path="data.txt")]),
        st.floats(1e-3, 10.0, **_finite).map(lambda t: DataModel("zipf", theta=t)),
    ))
    positive = st.floats(1e-6, 1.0, **_finite)
    unit = st.floats(1e-6, 1.0, exclude_max=True, **_finite)
    return ExperimentConfig(
        n_nodes=n,
        alphabet_size=draw(st.integers(1, n - 1)),
        k=k,
        data=data,
        budget=ErrorBudget(eps1=draw(positive), eps2=draw(positive), mu=draw(positive),
                           r1=draw(st.integers(1, 1024)), r2=draw(st.integers(1, 1024)),
                           beta=draw(unit)),
        quant=QuantConfig(truncation_L=draw(st.floats(1e-3, 100.0, **_finite)),
                          quant_bits=draw(st.integers(1, 62)), target_mu=draw(unit)),
        network=network,
        protocol=draw(st.sampled_from(
            ["gossip"] + (["aloha"] if network != "complete" else [])
        )),
        num_buckets=draw(st.integers(1, 50)),
        s1=draw(st.integers(1, 9)),
        trials=draw(st.integers(1, 100)),
        master_seed=draw(st.integers(0, 2**32 - 1)),
        epsilon=draw(unit),
        delta=draw(unit),
        radius_c=draw(st.none() | st.floats(0.1, 10.0, **_finite)),
        p_n=draw(st.none() | unit),
        spread=SpreadConfig(beta=draw(unit), max_steps=draw(st.none() | st.integers(1, 10**9)),
                            exchange_mode=draw(st.sampled_from([EXCHANGE, PUSH]))),
    )


class TestConfigRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(experiment_configs())
    def test_pickles_for_workers_and_dumps_to_json(self, cfg):
        # --jobs hands each worker the pickled config; report.json holds to_dict()
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        json.dumps(cfg.to_dict())
