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

Both digests of every config were re-recorded once more when the config
block lost the five values that no run reads: budget eps1, eps2, mu and
beta, and quant target_mu.  On every config, the earlier report.json with
those five keys deleted and re-serialised equalled the new one byte for
byte, and trials.csv and effective.cfg did not change.

The whole-report digests were re-recorded once more when a sketch began to
be drawn once per distinct rate, from one draw generator per phase, in
place of once per value from a generator per value.  That changed the draw
stream again but not its law; every stripped digest still matches, so only
the estimates moved.  The trials.csv and sweep summary.csv digests and the
summary lines were re-recorded with them, for the same reason.
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
)
from netmoments.protocols import (
    ALOHA,
    EXCHANGE,
    PUSH,
    SpreadConfig,
    default_max_steps,
    default_p_n,
    empirical_quantile,
    run_spreading,
)
from netmoments.simulator import (
    CapacityError,
    ExperimentConfig,
    generate_data,
    solve_budget,
    write_dataset_file,
)
from netmoments.sketch_core import QuantConfig

from oracles import write_edge_list


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
        "b379cb169daba787b0231a30a71c7755a165d6f1a497b7edb85ed012ca8e8b79",
        "02d6ca93670ec1e9c07541987cbbfb9a32d579ddf9f342b246d34c7d6e57725d",
    ),
    "complete-gossip-push-k2": (
        ["--nodes", "200", "--alphabet", "12", "--network", "complete", "--protocol", "gossip",
         "--exchange-mode", "push", "--data", "uniform", "--r1", "8", "--r2", "32",
         "--trials", "2", "--seed", "12"],
        0,
        "bc076620db07b13d42144009760bbb00ff9568f308ee8206cb63f2d3f2686b3c",
        "43379dab4aca5e577f4207687976e669493ab59f7a625f9bcd90e6692a0975f1",
    ),
    "rgg-connected-aloha-k2": (
        ["--nodes", "300", "--alphabet", "20", "--network", "rgg-connected", "--protocol", "aloha",
         "--data", "zipf:1.2", *_BUDGET, "--trials", "2", "--seed", "13"],
        0,
        "f9a1e34d4daf9e44f610191368d131640e918c1a49124552994481e5673b9f48",
        "ca12fef53a7e4c38625538827db6fefa7ea4cb63b008290cb23c7f3c0227529d",
    ),
    "rgg-percolating-gossip-k2": (
        ["--nodes", "600", "--alphabet", "30", "--network", "rgg-percolating", "--protocol", "gossip",
         "--data", "zipf:1.5", *_BUDGET, "--trials", "3", "--seed", "14"],
        0,
        "97735f578d685ff4b34bd277f44044b3dbd05d5356e97e2c0b5a50c10711842e",
        "9e35198cc4f6df8299a2ca8c72798b401109572b742ed854aec43b237735144c",
    ),
    "rgg-percolating-aloha-k2": (
        ["--nodes", "600", "--alphabet", "30", "--network", "rgg-percolating", "--protocol", "aloha",
         "--data", "zipf:1.5", *_BUDGET, "--trials", "3", "--seed", "22"],
        0,
        "7d1098f0f48e119eaff4a4230c86ca40e9ce3ffef8b141de21e828bc28172b96",
        "a5046a4f0ee110a1977c3e733d8ae7ca79809f094205c93a3cbdc6dc28bc6251",
    ),
    "rgg-percolating-gossip-k3": (
        [*_K3_PERCOLATING, "--protocol", "gossip"],
        0,
        "d821deb7b78aa10b1a51410587ddab806375c9ee7992c06dce37a8ac7243925c",
        "0e4cd030cea3020548861a831afabe5914b774d1ac045f95613051efbb3c3fdd",
    ),
    "rgg-percolating-aloha-k3": (
        [*_K3_PERCOLATING, "--protocol", "aloha"],
        0,
        "ddcac0357738a50c3f1d85dd4c7e9675396938eda8d3cff5191674187ac98667",
        "1e4f29839992be276db8f1074cab37b4ae9ff3954aa88c25b1bd6fcf131b2455",
    ),
    "rgg-connected-gossip-k3": (
        [*_K3, "--network", "rgg-connected", "--protocol", "gossip", "--data", "zipf:1.2",
         "--seed", "15"],
        0,
        "3dd30af5f12b498a52b9a497b280ca533989c42592798627ad041c981021933b",
        "dd20f6ae76f491f0f5f7bb87f2234d1df6cee0857673838daeaacec337469bcc",
    ),
    "rgg-connected-aloha-k4": (
        ["--nodes", "100", "--alphabet", "8", "--k", "4", "--s1", "1", "--buckets", "2",
         "--network", "rgg-connected", "--protocol", "aloha", "--data", "pointmass",
         "--r1", "4", "--r2", "16", "--seed", "16"],
        0,
        "1217da9334ef5996364ec95750eae335fe4ec809dd5861f93f523741ca0a24de",
        "5b580b6a7a74ec4c23cf16e0130bbb8075f05f7a22e3c354d8628c0fa16ee84d",
    ),
    "rgg-connected-gossip-k3-cut": (
        [*_K3, "--network", "rgg-connected", "--protocol", "gossip", "--data", "zipf:1.2",
         "--max-steps", "300", "--seed", "19"],
        4,
        "532dabbf16762df22174e89583325f17cb196ee8706b7d8d384d3a8086842e8e",
        "431cb9532f0ec178c069113a37958f8ed6fb05c603faa2d06fca32199c78140d",
    ),
    "complete-gossip-cut": (
        ["--nodes", "300", "--alphabet", "20", "--network", "complete", "--protocol", "gossip",
         "--data", "zipf:1.2", *_BUDGET, "--max-steps", "600", "--seed", "17"],
        4,
        "0e0424de36e4c419782d6270a2bc5e267bf83b97850ba5e042d116747a79d2b8",
        "e86661bcde0e853bd65c098d8e1d5039f633302bd8a33af0ce0828bf66b08b5d",
    ),
    "rgg-connected-aloha-cut": (
        ["--nodes", "300", "--alphabet", "20", "--network", "rgg-connected", "--protocol", "aloha",
         "--data", "zipf:1.2", *_BUDGET, "--max-steps", "20", "--seed", "18"],
        4,
        "bb14d935f33548de1fa0cfc7c3272fec56a8ed307b00fbdeb7b20ff11690e34e",
        "48928713d5882f6445265e6268bdaf4e02153969dcb7c96ff8d84322a90010d9",
    ),
}


# name -> (argv, sha256 of report.json, sha256 without estimate-derived keys)
# on the 150-node graph of _write_graph,
# given by a relative path so that the path inside report.json is fixed
GRAPH_GOLDEN = {
    "graph-gossip-k2": (
        ["--nodes", "150", "--alphabet", "12", "--protocol", "gossip", "--data", "zipf:1.2",
         *_BUDGET, "--trials", "2", "--seed", "20"],
        "6ba63ff2b72a1a311085983974000e5d2acc347a625d58c64772b64074588e6e",
        "fbcdd46a4cc2a26f9ffe62b6d976a71e6e461040fe8db5523fcc75672bc63a1a",
    ),
    "graph-aloha-k3": (
        [*_K3, "--protocol", "aloha", "--data", "zipf:1.2", "--seed", "21"],
        "51e9409a9ef8bc3307880415d1ea855d66d607e966046226b7c1d20ad2a8584e",
        "ab66e8ff12ffc3feb71ecf2c5b984af8c3352367b5b5a3e751ae8367abc0a615",
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


# GOLDEN name -> sha256 of trials.csv; these, the sweep's summary.csv and the
# summary lines were recorded on the release that held trials and reports in
# classes of their own, and re-recorded with the whole-report digests
TRIALS_CSV = {
    "rgg-percolating-gossip-k2": "e623a7edde5167c86e891a5a97f352e56058cc7ee1063c99fd12a81862c95acf",
    "rgg-connected-gossip-k3-cut": "f96cd89c76cc939bd1795ea770031cabef8ff0702e0fd0808443bd5f31dcbb99",
}
_SUMMARY = """\
trials: 3 measured, 0 rejected, 0 non-converged
phases: 1
message bits per transmission: 11776
median steps: 38629  total bits: 2595006464
mean estimate_scaled: 0.259844  mean exact_scaled: 0.229239
mean |error|: 0.106148  max |error|: 0.20513
success rate: 0.667 (target >= 0.900 at epsilon = 0.1)
"""


class TestOtherOutputs:
    @pytest.mark.parametrize("name", sorted(TRIALS_CSV))
    def test_trials_csv_digest(self, tmp_path, capsys, name):
        argv, want_code, want_digest, _ = GOLDEN[name]
        out = tmp_path / name
        assert cli.main(["run", *argv, "--out", str(out), "--format", "both"]) == want_code
        body = (out / "trials.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == TRIALS_CSV[name]
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == want_digest

    def test_summary_lines(self, tmp_path, capsys):
        code, _ = _run(tmp_path, "summary", GOLDEN["rgg-percolating-gossip-k2"][0])
        assert code == cli.EXIT_OK
        assert capsys.readouterr().out.split("# end-config\n", 1)[1] == _SUMMARY

    def test_sweep_summary_csv_digest(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", "network", "--values", "complete,rgg-percolating",
                "--nodes", "200", "--alphabet", "10", "--r1", "4", "--r2", "16",
                "--trials", "2", "--seed", "5", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        body = (out / "summary.csv").read_bytes()
        want = "a7b87a0be1402948c532b73d22f43d1d0a8b81587248b13f7e61d6560e5e1b88"
        assert hashlib.sha256(body).hexdigest() == want

    def test_csv_format_writes_no_json(self, tmp_path, capsys):
        out = tmp_path / "csv"
        argv = ["run", "--nodes", "40", "--alphabet", "5", "--r1", "2", "--r2", "8",
                "--trials", "2", "--seed", "2", "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["effective.cfg", "trials.csv"]
        assert len((out / "trials.csv").read_text().splitlines()) == 3


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
        cfg = SpreadConfig()
        reports = [run_spreading(topo, protocol, cfg, rng, p_n=p_n)[0] for _ in range(3)]
        steps = [report.steps_to_full for report in reports if report.completed]
        # the n_nodes column counts the nodes the spread ran on: the giant's
        want = (topo.n_nodes, empirical_quantile(steps, 1.0 - cfg.beta),
                empirical_quantile(steps, 0.5), float(np.mean(steps)), len(steps))
        row = (tmp_path / "st" / "spreading_time.csv").read_text().splitlines()[1]
        assert row == ",".join(str(x) for x in want)

    def test_small_giant_is_config_error(self, tmp_path, capsys):
        # the graph is drawn before the echo, so its failure leaves no output
        out = tmp_path / "st"
        argv = ["spreading-time", "--nodes", "300", "--network", "rgg-percolating",
                "--radius-c", "0.6", "--seed", "3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert re.search(r"giant component holds \d+/300 nodes", captured.err)
        assert "# effective-config" not in captured.out
        assert not out.exists()

    def test_graph_of_a_later_size_fails_before_echo(self, tmp_path, monkeypatch, capsys):
        # the 150-node file serves N = 150 but not N = 200
        monkeypatch.chdir(tmp_path)
        _write_graph(tmp_path / "edges.txt")
        argv = ["spreading-time", "--nodes", "150,200", "--network", "graph:edges.txt",
                "--seed", "3", "--out", "st"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "graph file has 150 nodes, config wants 200" in captured.err
        assert "# effective-config" not in captured.out
        assert not (tmp_path / "st").exists()

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

    @pytest.mark.parametrize("net", ["complete", "rgg-connected", "rgg-percolating", "graph"])
    def test_resolves_the_regime_run_resolves(self, tmp_path, monkeypatch, capsys, net):
        # one N, so spreading-time's echo pins the radius_c and p_n it ran with
        monkeypatch.chdir(tmp_path)
        _write_graph(tmp_path / "edges.txt")
        spec = "graph:edges.txt" if net == "graph" else net
        protocol = "gossip" if net == "complete" else "aloha"
        common = ["--nodes", "150", "--network", spec, "--protocol", protocol, "--seed", "5"]
        argv = ["spreading-time", *common, "--trials", "1", "--out", "st"]
        assert cli.main(argv) == cli.EXIT_OK
        echo = dict(line.split(" = ") for line in Path("st/effective.cfg").read_text().splitlines())
        code, out = _run(tmp_path, "run", [*common, "--alphabet", "5", "--r1", "2", "--r2", "4"])
        assert code == cli.EXIT_OK
        config = json.loads((out / "report.json").read_text())["config"]
        assert float(echo["radius_c"]) == config["radius_c"]
        assert float(echo["p_n"]) == config["p_n"]

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
        values = generate_data("zipf:1.2", n, m, np.random.default_rng(data_ss)).values
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

    def test_echo_and_report_agree_on_s1_at_k2(self, tmp_path, capsys):
        # k = 2 runs one phase, so the s1 it runs with is 1 whatever was given
        argv = ["--nodes", "200", "--alphabet", "10", "--network", "rgg-percolating",
                "--radius-c", "0.5", "--r1", "2", "--r2", "4", "--trials", "2", "--seed", "1"]
        code, out = _run(tmp_path, "s1", argv)
        assert code == cli.EXIT_OK
        echoed = re.findall(r"^s1 = (\d+)$", (out / "effective.cfg").read_text(), re.M)
        assert echoed == ["1"]
        assert json.loads((out / "report.json").read_text())["config"]["s1"] == 1

    def test_k2_resolves_given_buckets_to_one(self, tmp_path, capsys):
        # a k = 2 run has no bucket maps, so a bucket count given to it is 1,
        # as is s1, in the echo and the report alike (a count below 1 still
        # fails: TestExitCodes.test_zero_buckets_is_config_error)
        argv = ["--nodes", "60", "--alphabet", "5", "--r1", "2", "--r2", "4", "--seed", "1"]
        code, first = _run(tmp_path, "first", [*argv, "--buckets", "5"])
        assert code == cli.EXIT_OK
        assert {"buckets = 1", "s1 = 1"} <= set((first / "effective.cfg").read_text().splitlines())
        config = json.loads((first / "report.json").read_text())["config"]
        assert (config["num_buckets"], config["s1"]) == (1, 1)
        code, again = _run(tmp_path, "again", ["--config", str(first / "effective.cfg")])
        assert code == cli.EXIT_OK
        assert (again / "report.json").read_bytes() == (first / "report.json").read_bytes()

    def test_rerun_from_effective_cfg(self, tmp_path, capsys):
        _, first = _run(tmp_path, "first", [*_SMALL, "--network", "rgg-connected"])
        _, again = _run(tmp_path, "again", ["--config", str(first / "effective.cfg")])
        assert (first / "report.json").read_bytes() == (again / "report.json").read_bytes()


_CONFIG = "nodes = 60\nalphabet = 5\nr1 = 2\nr2 = 4\nseed = 1\n"


class TestConfigFile:
    def test_value_outside_choices_is_config_error(self, tmp_path, capsys):
        (tmp_path / "fmt.cfg").write_text(_CONFIG + "format = xml\n")
        out = tmp_path / "fmtout"
        assert cli.main(["run", "--config", str(tmp_path / "fmt.cfg"), "--out", str(out)]) == 2
        assert "format must be one of json, csv, both, got 'xml'" in capsys.readouterr().err
        assert not out.exists()

    def test_key_may_take_its_flag_spelling(self, tmp_path, capsys):
        (tmp_path / "tl.cfg").write_text(_CONFIG + "trunc-L = 5\nmax-steps = 900\n")
        code, out = _run(tmp_path, "tl", ["--config", str(tmp_path / "tl.cfg")])
        assert code == cli.EXIT_OK
        assert {"trunc_l = 5.0", "max_steps = 900"} <= set(
            (out / "effective.cfg").read_text().splitlines()
        )
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["quant"]["truncation_L"] == 5.0
        assert config["spread"]["max_steps"] == 900

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        (tmp_path / "bad.cfg").write_text(_CONFIG + "trunc_L = 5\n")
        code, _ = _run(tmp_path, "bad", ["--config", str(tmp_path / "bad.cfg")])
        assert code == cli.EXIT_CONFIG
        assert "unknown config key 'trunc_L'" in capsys.readouterr().err


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

    def test_echo_and_reports_agree_on_s1_and_buckets_at_k2(self, tmp_path, capsys):
        # k = 2 runs one phase at every point, so each resolves s1 and buckets to 1
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", "nodes", "--values", "60,80", "--alphabet", "5",
                "--r1", "2", "--r2", "4", "--seed", "1", "--format", "json", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        echo = (out / "effective.cfg").read_text().splitlines()
        assert {"s1 = 1", "buckets = 1"} <= set(echo)
        for point in ("nodes=60", "nodes=80"):
            config = json.loads((out / point / "report.json").read_text())["config"]
            assert (config["s1"], config["num_buckets"]) == (1, 1)

    def test_echo_withholds_values_the_points_resolve_apart(self, tmp_path, capsys):
        # each network kind has its own radius_c and p_n, so the echo pins neither
        argv = ["sweep", "--param", "network", "--values", "complete,rgg-percolating",
                "--nodes", "200", "--alphabet", "5", "--r1", "2", "--r2", "4", "--trials", "2",
                "--seed", "2", "--format", "json"]
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli.main([*argv, "--out", str(first)]) == cli.EXIT_OK
        cfg = (first / "effective.cfg").read_text()
        assert "radius_c = " not in cfg and "p_n = " not in cfg
        rerun = ["sweep", "--config", str(first / "effective.cfg"), "--out", str(again)]
        assert cli.main(rerun) == cli.EXIT_OK
        for point in ("network=complete", "network=rgg-percolating"):
            body = (first / point / "report.json").read_bytes()
            assert (again / point / "report.json").read_bytes() == body

    @pytest.mark.parametrize("param, values", [("delta", "0.1,0.05"), ("epsilon", "0.1,0.09")])
    def test_echo_pins_r1_and_r2_together(self, tmp_path, capsys, param, values):
        # at epsilon 0.1 both points solve r2 = 512 but r1 = 64 and 128; solve_budget
        # takes r1 and r2 only as a pair, so the echo must withhold both
        argv = ["sweep", "--param", param, "--values", values, "--nodes", "30",
                "--alphabet", "3", "--seed", "3", "--format", "json"]
        first, again = tmp_path / "first", tmp_path / "again"
        assert cli.main([*argv, "--out", str(first)]) == cli.EXIT_OK
        cfg = (first / "effective.cfg").read_text()
        assert "r1 = " not in cfg and "r2 = " not in cfg
        rerun = ["sweep", "--config", str(first / "effective.cfg"), "--out", str(again)]
        assert cli.main(rerun) == cli.EXIT_OK
        budgets = set()
        for raw in values.split(","):
            body = (first / f"{param}={raw}" / "report.json").read_bytes()
            assert (again / f"{param}={raw}" / "report.json").read_bytes() == body
            budget = json.loads(body)["config"]["budget"]
            budgets.add((budget["r1"], budget["r2"]))
        assert budgets == {(64, 512), (128, 512)}

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

    def test_value_outside_choices_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", "format", "--values", "json,xml", "--nodes", "60",
                "--alphabet", "5", "--r1", "2", "--r2", "4", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "format must be one of json, csv, both, got 'xml'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "point",
        [["--param", "nodes", "--values", "60,4"],
         ["--param", "p-n", "--values", "0.2,1.5", "--network", "rgg-connected",
          "--protocol", "aloha"]],
    )
    def test_bad_point_fails_before_any_output(self, tmp_path, capsys, point):
        out = tmp_path / "sweep"
        argv = ["sweep", *point, "--nodes", "60", "--alphabet", "5",
                "--r1", "2", "--r2", "4", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()


_TINY = ["--nodes", "60", "--alphabet", "5", "--r1", "2", "--r2", "4", "--seed", "1"]
_BAD_DATA = [
    ("bogus", "unknown data model 'bogus'"), ("zipf", "unknown data model 'zipf'"),
    ("zipf:", "could not convert"), ("zipf:abc", "could not convert"),
    ("zipf:0", "positive theta"), ("zipf:-1", "positive theta"), ("zipf:nan", "positive theta"),
    ("zipf:inf", "finite theta"), ("file:", "file model needs a path"),
]


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

    @pytest.mark.parametrize(
        "flags, message",
        [(["--alphabet", "0"], "1 <= M < N"), (["--alphabet", "-1", "--k", "3"], "1 <= M < N"),
         (["--radius-c", "0"], "need radius_c > 0"),
         (["--network", "rgg-connected", "--protocol", "aloha", "--p-n", "1.5"],
          "p_n must lie in (0, 1)")],
    )
    def test_bad_setting_fails_before_any_output(self, tmp_path, capsys, flags, message):
        code, out = _run(tmp_path, "bad", ["--nodes", "40", "--alphabet", "5", "--seed", "2",
                                           *flags])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--p-n", "0"], "p_n must lie in (0, 1)"), (["--radius-c", "0"], "need radius_c > 0"),
         (["--trials", "0"], "trials must be >= 1")],
    )
    def test_spreading_time_bad_setting_fails_before_echo(self, tmp_path, capsys, flags, message):
        out = tmp_path / "st"
        argv = ["spreading-time", "--nodes", "60", "--network", "rgg-connected",
                "--protocol", "aloha", *flags, "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert "# effective-config" not in captured.out
        assert not out.exists()

    def test_gen_data_without_alphabet_is_config_error(self, tmp_path, capsys):
        code = cli.main(["gen-data", "--nodes", "40", "--out", str(tmp_path / "data.txt")])
        assert code == cli.EXIT_CONFIG
        assert "--alphabet" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        *(pytest.param(["run", *_TINY, "--data", spec], message, id=f"run-{spec}")
          for spec, message in _BAD_DATA),
        pytest.param(["sweep", *_TINY, "--param", "data", "--values", "zipf:1.2,zipf:nan"],
                     "positive theta", id="sweep-zipf:nan"),
        pytest.param(["gen-data", "--nodes", "60", "--alphabet", "5", "--seed", "1",
                      "--data", "zipf:nan"], "positive theta", id="gen-data-zipf:nan"),
        *(pytest.param(["gen-data", "--nodes", "10", "--alphabet", m, "--seed", "1",
                        "--data", "uniform"], "alphabet size must satisfy 1 <= M < N",
                       id=f"gen-data-M={m}") for m in ("0", "-3")),
    ])
    def test_bad_data_fails_before_any_output(self, tmp_path, capsys, argv, message):
        # sweep checks every point before it runs the first
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert "# effective-config" not in captured.out
        assert not out.exists()

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

    @pytest.mark.parametrize("bad, message", [
        (["--protocol", "aloha"], "aloha needs a spatial network"),
        (["--network", "torus"], "unknown network kind 'torus'"),
    ])
    def test_network_error_is_reported_before_bucket_error(self, tmp_path, capsys, bad, message):
        code, out = _run(tmp_path, "order", [*_SMALL, "--k", "3", "--buckets", "0", *bad])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
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

    @pytest.mark.parametrize("flags, message", [
        (["--data", "file:MISSING"], "data file 'MISSING' is not a file"),
        (["--network", "graph:MISSING"], "graph file 'MISSING' is not a file"),
    ])
    def test_missing_input_file_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys, flags, message
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["run", "--nodes", "200", "--alphabet", "10", *flags, "--r1", "2", "--r2", "4",
                "--seed", "3", "--out", "out"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert message in captured.err
        assert "# effective-config" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_spreading_time_without_connected_rgg_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "st"
        argv = ["spreading-time", "--nodes", "500", "--network", "rgg-connected",
                "--radius-c", "0.05", "--seed", "3", "--out", str(out)]
        with _deadline(60):
            code = cli.main(argv)
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "connected" in captured.err
        assert "# effective-config" not in captured.out
        assert not out.exists()

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
            # the f2-complete-gossip path: the complete graph as its node count
            "k2-complete-gossip": ["run", *common[:4], *common[6:], "--network", "complete",
                                   "--protocol", "gossip", "--out", str(tmp_path / "complete")],
        }
        src = str(Path(netmoments.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, src, json.dumps(runs)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["scipy"] == []
        assert result["late"] == dict.fromkeys(runs, [0, []])


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

    def test_given_quantizer_values_override_the_rule(self):
        _, quant = solve_budget(0.1, 0.1, 300)
        _, bits = solve_budget(0.1, 0.1, 300, quant_bits=12)
        _, length = solve_budget(0.1, 0.1, 300, trunc_l=5.0)
        assert (bits.truncation_L, bits.quant_bits) == (quant.truncation_L, 12)
        assert (length.truncation_L, length.quant_bits) == (5.0, quant.quant_bits)

    @pytest.mark.parametrize("sizes", [dict(r1=8), dict(r2=8)])
    def test_one_size_alone_rejected(self, sizes):
        with pytest.raises(ValueError, match="both"):
            solve_budget(0.1, 0.1, 300, **sizes)


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def experiment_configs(draw, graph_path, data_path):
    """Configs over every setting; graph_path and data_path name files, as a
    config checks that its graph: and file: paths do."""
    n = draw(st.integers(3, 10**6))
    k = draw(st.integers(2, 5))
    network = draw(st.sampled_from(
        ["complete", "rgg-connected", "rgg-percolating", f"graph:{graph_path}"]
    ))
    data = draw(st.one_of(
        st.sampled_from(["pointmass", "uniform", f"file:{data_path}"]),
        st.floats(1e-3, 10.0, **_finite).map(lambda t: f"zipf:{t!r}"),
    ))
    unit = st.floats(1e-6, 1.0, exclude_max=True, **_finite)
    return ExperimentConfig(
        n_nodes=n,
        alphabet_size=draw(st.integers(1, n - 1)),
        k=k,
        data=data,
        budget=ErrorBudget(r1=draw(st.integers(1, 1024)), r2=draw(st.integers(1, 1024))),
        quant=QuantConfig(truncation_L=draw(st.floats(1e-3, 100.0, **_finite)),
                          quant_bits=draw(st.integers(1, 62))),
        network=network,
        protocol=draw(st.sampled_from(
            ["gossip"] + (["aloha"] if network != "complete" else [])
        )),
        num_buckets=draw(st.none() | st.integers(1, 50)),
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


# the top-level keys of report.json's config block
_CONFIG_BLOCK_KEYS = sorted(
    "alphabet_size budget data delta epsilon k master_seed n_nodes network num_buckets p_n "
    "protocol quant radius_c s1 spread trials".split()
)


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """(graph file, data file): the checks read only that each is a file."""
    root = tmp_path_factory.mktemp("inputs")
    for name in ("edges.txt", "data.txt"):
        (root / name).touch()
    return root / "edges.txt", root / "data.txt"


class TestConfigRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_pickles_for_workers_and_dumps_to_json(self, input_files, data):
        # --jobs hands each worker the pickled config; report.json holds asdict()
        cfg = data.draw(experiment_configs(*input_files))
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        d = dataclasses.asdict(cfg)
        json.dumps(d)
        assert sorted(d) == _CONFIG_BLOCK_KEYS
        assert sorted(d["budget"]) == ["r1", "r2"]
        assert sorted(d["quant"]) == ["quant_bits", "truncation_L"]
        assert d["data"] == cfg.data
        assert d["network"] == cfg.network
        # every setting is resolved: k = 2 runs one phase with no bucket maps
        assert d["num_buckets"] >= 1
        if cfg.k == 2:
            assert (d["num_buckets"], d["s1"]) == (1, 1)
