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

Both digests of every config were re-recorded once more when the config
block began to hold only what decides a run: spread.beta left it, and
radius_c, p_n and spread.exchange_mode became null where they decide
nothing (radius_c off the RGG kinds, p_n under gossip, exchange_mode under
Aloha).  On all 14 configs, the earlier report.json with spread.beta
deleted and those keys set to null, re-serialised as report.json is
written, equalled the new one byte for byte.  trials.csv did not change, so
its digests, the sweep summary.csv digest, the summary lines and the
spreading-time CSV digests all pass as they were recorded.

Both digests of every config were re-recorded once more when the config
block's spread object dissolved into it: spread.exchange_mode and
spread.max_steps became the top-level exchange_mode and max_steps.  On all
14 configs, the earlier report.json with those two keys moved up and
re-serialised as report.json is written equalled the new one byte for
byte, and trials.csv and effective.cfg did not change.

The whole-report digests were re-recorded once more when the shared maps
became random polynomials over the field of 2^31 - 1 (degree 3 for the
signs, 2k - 1 for the roots of unity, 1 for the buckets) in place of one
keyed hash per (map, value).  Spreads and the exact oracle never read the
maps, so every stripped digest and the spreading-time CSV digests still
match: only the estimates moved.  The trials.csv and sweep summary.csv
digests and the summary lines were re-recorded with them, for the same
reason.  This re-record is not shared with the budget re-split of ROADMAP
item 3, which moves the same digests: that change needs exact slow tests of
its own for the map and replica terms, and a re-record of its own keeps
each move traceable to one cause.

Both digests of every config were re-recorded once more when gossip's push
variant and the exchange_mode setting were removed: gossip always
exchanges, as it did by default.  On all 14 configs, the earlier
report.json with config.exchange_mode deleted and re-serialised as
report.json is written equalled the new one byte for byte.  The push config
gave way to complete-gossip-uniform-k2, the same argv without
--exchange-mode push, which keeps a golden on --data uniform; both its
digests are the earlier release's report on that argv with the key
deleted, and the new report equals it byte for byte.  trials.csv did not
change, so its digests, the sweep summary.csv digest, the summary lines and
the spreading-time CSV digests all pass as they were recorded.

The whole-report digests were re-recorded once more when a node's draw
became an exponential clamped to L, min(Exp(rate), L), in place of one
conditioned on [0, L], so that a sketch cell is one draw at its members'
total rate.  Every stripped digest and the spreading-time CSV digests still
match: only the estimates moved.  The trials.csv and sweep summary.csv
digests and the summary lines were re-recorded with them; against the
earlier files only estimate_scaled and abs_error changed in trials.csv,
success_rate and mean_abs_error in summary.csv, and the mean estimate and
error lines in the summary.
"""

import argparse
import ast
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
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
from netmoments import cli, sketch_core
from netmoments.estimators import Dataset, ErrorBudget, exact_fk
from netmoments.network import (
    DEFAULT_PERCOLATION_C,
    build_rgg,
    giant_component,
    induced_subgraph,
    percolation_radius,
    read_edge_list,
)
from netmoments.protocols import ALOHA, default_max_steps, default_p_n, run_spreading
from netmoments.simulator import (
    CapacityError,
    ExperimentConfig,
    build_topology,
    generate_data,
    read_dataset_file,
    run_experiment,
    solve_budget,
    trial_inputs,
    write_dataset_file,
)
from netmoments.sketch_core import QuantConfig

from oracles import empirical_quantile, write_edge_list


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
        "3d25ced927664f691fb81b6901f59d49503ad18fdd683e7e12eb67537621a692",
        "0530075e39607b9464ca88f5b6c4e9387be4a8dbd5a33e08ae80b81a743cb623",
    ),
    "complete-gossip-uniform-k2": (
        ["--nodes", "200", "--alphabet", "12", "--network", "complete", "--protocol", "gossip",
         "--data", "uniform", "--r1", "8", "--r2", "32", "--trials", "2", "--seed", "12"],
        0,
        "83146023926061ef713ccf7fe0abcee70df833ff1bb688ad3baa9430da442fe1",
        "aa9f919c0b27285638f1747a44cc052c8a4c429be72f019f38db2b98f4326acc",
    ),
    "rgg-connected-aloha-k2": (
        ["--nodes", "300", "--alphabet", "20", "--network", "rgg-connected", "--protocol", "aloha",
         "--data", "zipf:1.2", *_BUDGET, "--trials", "2", "--seed", "13"],
        0,
        "83c94857cd1b42068242be2ec245c440dd5928f309a83c439bcb968af5f5c9be",
        "8b3ad46436c16a0c5753cb4aaf50b6679e140ff59e62e5bf7305880cb4fc3a96",
    ),
    "rgg-percolating-gossip-k2": (
        ["--nodes", "600", "--alphabet", "30", "--network", "rgg-percolating", "--protocol", "gossip",
         "--data", "zipf:1.5", *_BUDGET, "--trials", "3", "--seed", "14"],
        0,
        "5b93e0ce557605dc2a0ea459ad0b23c6549fb4dbf7013e8735a030a1fde2547d",
        "0e3020b9345e1e7736bb2a9a3a547446a4d4cad44029ca03f99ddb4b89e03af0",
    ),
    "rgg-percolating-aloha-k2": (
        ["--nodes", "600", "--alphabet", "30", "--network", "rgg-percolating", "--protocol", "aloha",
         "--data", "zipf:1.5", *_BUDGET, "--trials", "3", "--seed", "22"],
        0,
        "d244c867914d17d1451cd45d7a5c4ef790345ed37d1d05a9eec0807bd03eeed9",
        "f34bf4b494271773b9735b57fb1bb9838dde1e8d3adbbb5b220d0b8aec40bfc1",
    ),
    "rgg-percolating-gossip-k3": (
        [*_K3_PERCOLATING, "--protocol", "gossip"],
        0,
        "4b51b07e8443e50877bf3a83b9264d3d66eb6ceb7ebd52e013bd441cd2c0b88d",
        "18c5403ea4a406c19c6c587cd78816c4fb4859357d6e7e4a1b284b2d5f2fd75a",
    ),
    "rgg-percolating-aloha-k3": (
        [*_K3_PERCOLATING, "--protocol", "aloha"],
        0,
        "d684b40822c07f8de0d138757d7bdc7106a06d412f0bf5d82f438c3eb49638fe",
        "84c9a25a3176840fb6e6463b299ba0866fc6554f2ca2f808fb15cd318b5d5860",
    ),
    "rgg-connected-gossip-k3": (
        [*_K3, "--network", "rgg-connected", "--protocol", "gossip", "--data", "zipf:1.2",
         "--seed", "15"],
        0,
        "91bcdd0643fe57690de5fd9442699a01a2b229726a9b6e47ad12f1bc777f3ed4",
        "023b815f973b8f33275f3728491b25e13492c790f08ed2cbd4a185574c833cec",
    ),
    "rgg-connected-aloha-k4": (
        ["--nodes", "100", "--alphabet", "8", "--k", "4", "--s1", "1", "--buckets", "2",
         "--network", "rgg-connected", "--protocol", "aloha", "--data", "pointmass",
         "--r1", "4", "--r2", "16", "--seed", "16"],
        0,
        "bf945245639d776fe688e925f4227bbb58a179a475e943b1b94ab644c11cf80a",
        "f424bec7b6b3fc65c1910eda53803dcbe04298874da4ddb965a1fd6d6ba9d5c8",
    ),
    "rgg-connected-gossip-k3-cut": (
        [*_K3, "--network", "rgg-connected", "--protocol", "gossip", "--data", "zipf:1.2",
         "--max-steps", "300", "--seed", "19"],
        4,
        "75bdc9f63c49a99d9eeaacf4f08477bc30134055652ccdd45b3b8aaf71f08271",
        "403c3e730056a01d224339f1cbfa249385b681f7441634861cfbf055f011d4bf",
    ),
    "complete-gossip-cut": (
        ["--nodes", "300", "--alphabet", "20", "--network", "complete", "--protocol", "gossip",
         "--data", "zipf:1.2", *_BUDGET, "--max-steps", "600", "--seed", "17"],
        4,
        "9f4e6c40fa1ff1fe42f3133447fab62a4d0d6832e1d23e23adf18c6bc9592e87",
        "a1a25364c5d89ae2558c61e1911bfb31317bf5491056ecc93247adaa3ea52ec3",
    ),
    "rgg-connected-aloha-cut": (
        ["--nodes", "300", "--alphabet", "20", "--network", "rgg-connected", "--protocol", "aloha",
         "--data", "zipf:1.2", *_BUDGET, "--max-steps", "20", "--seed", "18"],
        4,
        "9eed8db7c5b8321e3fd6031a0ef989fd396d7b9dea538e645f8978240fcedce2",
        "2b686b0b5bac3c9329b2f9a1fcf6c531c683f90c4d8dd964a9b96ba5d93f074c",
    ),
}


# name -> (argv, sha256 of report.json, sha256 without estimate-derived keys)
# on the 150-node graph of _write_graph,
# given by a relative path so that the path inside report.json is fixed
GRAPH_GOLDEN = {
    "graph-gossip-k2": (
        ["--nodes", "150", "--alphabet", "12", "--protocol", "gossip", "--data", "zipf:1.2",
         *_BUDGET, "--trials", "2", "--seed", "20"],
        "d34b709363f3200384b797afa9e7bc0d1dd772a298ec35b75c1844aee96893ff",
        "14e32c9ef571b74540c35faeb5cc4c47c343f01e9cd57fbf628e5dac9645e034",
    ),
    "graph-aloha-k3": (
        [*_K3, "--protocol", "aloha", "--data", "zipf:1.2", "--seed", "21"],
        "18fe18574fc74f3ca38a104f2ea16c23f7cc19837573212f7d883a7fff04d278",
        "4cd468e066107d8aaf0bdf1559d0a8277025b627843ac5fc01904aacf61a6184",
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
    "rgg-percolating-gossip-k2": "e6fe23b0e0c915abd1c890ef80d715b40e23ee7448b7f5473dca3a469b974626",
    "rgg-connected-gossip-k3-cut": "9b0202f5fccbdb94a81b3dade9e080c38fb8fb055acd8dce63e2cef86f55ba3d",
}
_SUMMARY = """\
trials: 3 measured, 0 rejected, 0 non-converged
phases: 1
message bits per transmission: 11776
median steps: 38629  total bits: 2595006464
mean estimate_scaled: 0.274275  mean exact_scaled: 0.229239
mean |error|: 0.0913434  max |error|: 0.114325
success rate: 0.667 (target >= 0.900 at epsilon = 0.1)
"""


# sha256 of the dataset file and the oracle record of the round trip below,
# recorded before gen-data and oracle wrote their files ahead of the echo;
# that move left both unchanged
_ROUND_TRIP_DATA = "17b1d566a80d24db4d0e8171483616fa181c3fc772032a320c11eb9b6c81d6f1"
_ROUND_TRIP_JSON = "cbfe3c8626a607db5bb82a11ff41bdda14b43ddc1d8d039cb8d069867acb55ee"


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
        want = "cee9d6a75f82ca5ca583b491aaa80287ec7fee2da24064521c97ea7d667202c2"
        assert hashlib.sha256(body).hexdigest() == want

    def test_gen_data_oracle_and_run_round_trip(self, tmp_path, monkeypatch, capsys):
        # gen-data writes a dataset file, oracle --json-out reads it, and a
        # run on it as file: measures the moment the oracle wrote
        monkeypatch.chdir(tmp_path)
        argv = ["gen-data", "--nodes", "120", "--alphabet", "10", "--data", "zipf:1.2",
                "--seed", "4", "--out", "d.dat"]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith("wrote d.dat (N=120, M=10, model=zipf:1.2)\n")
        assert hashlib.sha256(Path("d.dat").read_bytes()).hexdigest() == _ROUND_TRIP_DATA
        assert cli.main(["oracle", "--file", "d.dat", "--json-out", "o.json"]) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith("wrote o.json\n")
        assert hashlib.sha256(Path("o.json").read_bytes()).hexdigest() == _ROUND_TRIP_JSON
        record = json.loads(Path("o.json").read_text())
        values = read_dataset_file("d.dat").values
        assert record["exact"] == exact_fk(Dataset(values, 10), 2)
        assert record["exact"] == sum(c * c for c in np.bincount(values).tolist())
        code, out = _run(tmp_path, "run", ["--nodes", "120", "--alphabet", "10",
                                           "--data", "file:d.dat", *_BUDGET, "--seed", "4"])
        assert code == cli.EXIT_OK
        (trial,) = json.loads((out / "report.json").read_text())["trials"]
        assert trial["exact_scaled"] == record["exact_scaled"]

    def test_csv_format_writes_no_json(self, tmp_path, capsys):
        out = tmp_path / "csv"
        argv = ["run", "--nodes", "40", "--alphabet", "5", "--r1", "2", "--r2", "8",
                "--trials", "2", "--seed", "2", "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["effective.cfg", "trials.csv"]
        assert len((out / "trials.csv").read_text().splitlines()) == 3


# network -> sha256 of spreading_time.csv for --nodes 20,300 --trials 3 --seed 1,
# first recorded from the release that stored the complete graph as a CSR.
# Re-recorded, with the Aloha digest below, when each trial began to spread
# on a generator of its own, spawned from its size's seed, in place of
# every trial of a size sharing the generator that drew the graph; the
# graphs did not change.  Each CSV equals the one the tick-by-tick oracles
# of tests/oracles.py give on the same seeds.
SPREADING_CSV = {
    "complete": "768fe3dcfd28d71cd2cc3128c1ef99e1104ed3814291014c72ea90e70c92f095",
    "rgg-connected": "551e8f7b2840a7e52646c85cc1132dbeb236381cc4b9bf86280ba29e9f753aac",
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
        # each of the three trials spreads on a generator spawned from its
        # size's seed.  Re-recorded with SPREADING_CSV when the trials
        # stopped sharing one generator; the CSV equals the one
        # oracles.aloha_spread gives on the same seeds.
        out = tmp_path / "aloha"
        code = cli.main(["spreading-time", "--nodes", "20,300", "--network", "rgg-connected",
                         "--protocol", "aloha", "--trials", "3", "--seed", "1",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        body = (out / "spreading_time.csv").read_bytes()
        want = "9e364d242e517bce9cfdca7c23b241b31a36950ed3e66e46af9e0489cdf7abae"
        assert hashlib.sha256(body).hexdigest() == want


    @pytest.mark.parametrize(
        "net, protocol",
        [("rgg-percolating", "gossip"), ("rgg-percolating", "aloha"), ("graph", "aloha")],
    )
    def test_runs_on_the_network_run_uses(self, tmp_path, monkeypatch, capsys, net, protocol):
        # a percolating graph spreads on its giant component at the regime's
        # p_n, as `run` does; the size's seed draws the graph and spawns one
        # seed per trial
        monkeypatch.chdir(tmp_path)
        _write_graph(tmp_path / "edges.txt")
        n = 150 if net == "graph" else 400
        spec = "graph:edges.txt" if net == "graph" else net
        code = cli.main(["spreading-time", "--nodes", str(n), "--network", spec,
                         "--protocol", protocol, "--trials", "3", "--seed", "4", "--out", "st"])
        assert code == cli.EXIT_OK
        size_ss = np.random.SeedSequence(entropy=(4, 0))
        if net == "graph":
            topo, p_n = read_edge_list("edges.txt"), default_p_n(n)
        else:
            radius = percolation_radius(n, DEFAULT_PERCOLATION_C)
            whole = build_rgg(n, radius, np.random.default_rng(size_ss))
            topo, _ = induced_subgraph(whole, giant_component(whole))
            p_n = default_p_n(n, percolating=True)
            assert n / 2 <= topo.n_nodes < n
        reports = [run_spreading(topo, protocol, np.random.default_rng(ss), p_n)[0]
                   for ss in size_ss.spawn(3)]
        steps = [report.steps_to_full for report in reports if report.completed]
        # the n_nodes column counts the nodes the spread ran on: the giant's;
        # the quantile is at 1 - beta for the default beta of 0.1
        want = (topo.n_nodes, empirical_quantile(steps, 1.0 - 0.1),
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
        # a cap that binds: the echo must carry it, or the re-run spreads
        # without the cap.  Exchange fills K_60 in about 400 ticks, so the
        # cap binds at N = 110, where it cuts two of the three spreads
        argv = ["spreading-time", "--nodes", "20,110", "--max-steps", "800", "--trials", "3",
                "--seed", "8"]
        assert cli.main([*argv, "--out", str(tmp_path / "first")]) == cli.EXIT_OK
        cfg = (tmp_path / "first" / "effective.cfg").read_text()
        assert "max_steps = 800" in cfg.splitlines()
        # gossip on the complete graph reads neither a radius nor p_n
        assert "radius_c = " not in cfg and "p_n = " not in cfg
        again = ["spreading-time", "--config", str(tmp_path / "first" / "effective.cfg"),
                 "--out", str(tmp_path / "again")]
        assert cli.main(again) == cli.EXIT_OK
        first = (tmp_path / "first" / "spreading_time.csv").read_bytes()
        assert (tmp_path / "again" / "spreading_time.csv").read_bytes() == first
        # the cap cut at least one trial short
        assert any(not row.endswith(b",3") for row in first.splitlines()[1:])

    @pytest.mark.parametrize("net", ["complete", "rgg-connected", "rgg-percolating", "graph"])
    def test_resolves_the_regime_run_resolves(self, tmp_path, monkeypatch, capsys, net):
        # one N, so spreading-time's echo pins the radius_c and p_n it ran
        # with, and leaves out those that run leaves null
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
        for key, value in _resolved_keys(config).items():
            assert echo.get(key) == (None if value is None else str(value)), key

    def test_echo_pins_a_p_n_shared_by_every_size(self, tmp_path, capsys):
        out = tmp_path / "one"
        argv = ["spreading-time", "--nodes", "300", "--network", "rgg-connected",
                "--protocol", "aloha", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        assert f"p_n = {default_p_n(300)}" in (out / "effective.cfg").read_text().splitlines()


def _resolved_keys(config: dict) -> dict:
    """The settings of report.json's config block that resolve only where
    they decide a run, None elsewhere."""
    return {"radius_c": config["radius_c"], "p_n": config["p_n"]}


# every supported (network, protocol) pair -> the keys of _resolved_keys that
# decide its runs; Aloha on the complete graph is a config error
_DECIDING = {
    ("complete", "gossip"): set(),
    ("rgg-connected", "gossip"): {"radius_c"},
    ("rgg-connected", "aloha"): {"radius_c", "p_n"},
    ("rgg-percolating", "gossip"): {"radius_c"},
    ("rgg-percolating", "aloha"): {"radius_c", "p_n"},
    ("graph", "gossip"): set(),
    ("graph", "aloha"): {"p_n"},
}
_GIVEN = {"radius_c": 2.5, "p_n": 0.05}


class TestResolvedSettings:
    """A setting is resolved, written to report.json and echoed only where it
    decides the run; given elsewhere, it is dropped."""

    @pytest.mark.parametrize("given", [False, True], ids=["defaults", "given"])
    @pytest.mark.parametrize("net, protocol", sorted(_DECIDING))
    def test_report_and_echo_hold_only_deciding_settings(
        self, tmp_path, monkeypatch, capsys, net, protocol, given
    ):
        monkeypatch.chdir(tmp_path)
        _write_graph(tmp_path / "edges.txt")
        spec = "graph:edges.txt" if net == "graph" else net
        argv = ["--nodes", "150", "--alphabet", "6", "--network", spec, "--protocol", protocol,
                "--r1", "2", "--r2", "4", "--trials", "2", "--seed", "9"]
        if given:
            argv += [arg for key, value in _GIVEN.items()
                     for arg in ("--" + key.replace("_", "-"), str(value))]
        code, first = _run(tmp_path, "first", argv)
        assert code == cli.EXIT_OK
        resolved = _resolved_keys(json.loads((first / "report.json").read_text())["config"])
        deciding = _DECIDING[net, protocol]
        assert {key for key, value in resolved.items() if value is not None} == deciding
        if given:
            assert {key: resolved[key] for key in deciding} == {key: _GIVEN[key] for key in deciding}
        echo = dict(line.split(" = ") for line in (first / "effective.cfg").read_text().splitlines())
        assert set(echo) & set(resolved) == deciding
        code, again = _run(tmp_path, "again", ["--config", str(first / "effective.cfg")])
        assert code == cli.EXIT_OK
        assert (again / "report.json").read_bytes() == (first / "report.json").read_bytes()


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

    def test_complete_network_is_a_topology_without_stored_rows(self):
        # its edge count is a Python int, which json.dumps takes
        topo, ids = build_topology("complete", 2000, None, np.random.default_rng(0))
        assert topo.indices is None and topo.n_nodes == 2000
        assert ids.tolist() == list(range(2000))
        assert type(topo.num_edges) is int
        assert json.dumps(topo.num_edges) == str(2000 * 1999 // 2)


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
        giant, ids = induced_subgraph(whole, giant_component(whole))
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

    def test_jobs_do_not_change_a_run_on_built_inputs(self, tmp_path, monkeypatch, capsys):
        # every trial, in this process or a worker, runs on the dataset
        # parsed before the echo
        monkeypatch.chdir(tmp_path)
        write_dataset_file(generate_data("zipf:1.2", 120, 10, np.random.default_rng(2)), "d.dat")
        argv = [*_SMALL, "--network", "rgg-connected", "--data", "file:d.dat"]
        _, one = _run(tmp_path, "jobs1", [*argv, "--jobs", "1"])
        _, two = _run(tmp_path, "jobs2", [*argv, "--jobs", "2"])
        assert (one / "report.json").read_bytes() == (two / "report.json").read_bytes()

    def test_echo_and_report_agree_on_s1_at_k2(self, tmp_path, capsys):
        # k = 2 runs one phase, so the s1 it runs with is 1 whatever was given;
        # at this radius both trials are rejected, so the run measures nothing
        argv = ["--nodes", "200", "--alphabet", "10", "--network", "rgg-percolating",
                "--radius-c", "0.5", "--r1", "2", "--r2", "4", "--trials", "2", "--seed", "1"]
        code, out = _run(tmp_path, "s1", argv)
        assert code == cli.EXIT_NONCONVERGED
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


class TestInputsBuiltOnce:
    """run and each sweep point build trial 0's dataset and network before
    the echo, and trial 0 runs on them; a data file is parsed once a run."""

    @pytest.mark.parametrize("command, points", [("run", 1), ("sweep", 2)])
    def test_file_parsed_once_and_each_graph_drawn_once(
        self, tmp_path, monkeypatch, capsys, command, points
    ):
        monkeypatch.chdir(tmp_path)
        write_dataset_file(generate_data("zipf:1.2", 120, 10, np.random.default_rng(1)), "d.dat")
        calls = dict.fromkeys(("read_dataset_file", "build_connected_rgg"), 0)

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count(netmoments.simulator, "read_dataset_file")
        count(netmoments.network, "build_connected_rgg")
        argv = [command, *_SMALL, "--network", "rgg-connected", "--data", "file:d.dat",
                "--out", "out"]
        if command == "sweep":
            argv += ["--param", "k", "--values", "2,3"]
        assert cli.main(argv) == cli.EXIT_OK
        # one parse and one draw of each of the 3 trials' graphs per run
        assert calls == {"read_dataset_file": points, "build_connected_rgg": 3 * points}

    def test_files_serve_every_trial_under_any_jobs(self, tmp_path):
        # every trial takes a data file's dataset and a graph file's network
        # from trial 0's inputs, in process and in worker processes alike,
        # so neither file is read again once they are built
        graph, data = tmp_path / "g.txt", tmp_path / "d.dat"
        _write_graph(graph)
        write_dataset_file(generate_data("zipf:1.2", 150, 12, np.random.default_rng(4)), data)
        budget, quant = solve_budget(0.1, 0.1, 150, r1=4, r2=16)
        cfg = ExperimentConfig(n_nodes=150, alphabet_size=12, k=2, data=f"file:{data}",
                               budget=budget, quant=quant, network=f"graph:{graph}", trials=3,
                               master_seed=9)
        first = trial_inputs(cfg, 0)
        graph.unlink()
        data.unlink()
        one, two = run_experiment(cfg, 1, first), run_experiment(cfg, 2, first)
        assert len(one["trials"]) == 3
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


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
        assert config["max_steps"] == 900

    @pytest.mark.parametrize("line, key", [
        pytest.param("trunc_L = 5", "trunc_L", id="trunc_L"),
        # gossip's effective.cfg held this line while push was a setting
        pytest.param("exchange_mode = exchange", "exchange_mode", id="exchange_mode"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, line, key):
        (tmp_path / "bad.cfg").write_text(_CONFIG + line + "\n")
        code, out = _run(tmp_path, "bad", ["--config", str(tmp_path / "bad.cfg")])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"unknown config key {key!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, body, line, key", [
        pytest.param("sweep", "beta = 0\nfile = nowhere\n", 1, "beta", id="sweep-beta"),
        pytest.param("run", _CONFIG + "json_out = x.json\n", 6, "json_out", id="run-json_out"),
    ])
    def test_key_the_command_never_reads_fails_before_echo(
        self, tmp_path, capsys, command, body, line, key
    ):
        # a config file may set only what its command reads, as the flags may
        path, out = tmp_path / "extra.cfg", tmp_path / "out"
        path.write_text(body)
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "sweep":
            argv += ["--param", "nodes", "--values", "60", "--alphabet", "5",
                     "--r1", "2", "--r2", "4", "--seed", "1"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{path}:{line}: {command} does not read config key {key!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()


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
        argv = ["sweep", "--param", "protocol", "--values", "gossip,flood", "--nodes",
                "60", "--alphabet", "5", "--r1", "2", "--r2", "4", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "protocol must be one of gossip, aloha, got 'flood'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param, values", [("jobs", "1,2"), ("format", "json,csv"),
                                               ("exchange-mode", "exchange,push")])
    def test_how_a_run_runs_is_not_sweepable(self, tmp_path, capsys, param, values):
        # every point runs at the base jobs and format, so sweeping either
        # would do nothing; gossip always exchanges, so it has no mode
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", param, "--values", values, "--nodes", "60", "--alphabet",
                "5", "--r1", "2", "--r2", "4", "--seed", "3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown sweep parameter {param!r}: not an experiment setting\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "point",
        [["--param", "nodes", "--values", "60,4"],
         ["--param", "p-n", "--values", "0.2,1.5", "--network", "rgg-connected",
          "--protocol", "aloha"],
         ["--param", "max-steps", "--values", "10,0"]],
    )
    def test_bad_point_fails_before_any_output(self, tmp_path, capsys, point):
        out = tmp_path / "sweep"
        argv = ["sweep", *point, "--nodes", "60", "--alphabet", "5",
                "--r1", "2", "--r2", "4", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert not out.exists()


_TINY = ["--nodes", "60", "--alphabet", "5", "--r1", "2", "--r2", "4", "--seed", "1"]
_PINS = ["--r1", "2", "--r2", "4", "--seed", "3"]
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
         (["--radius-c", "0"], "need radius_c > 0"), (["--radius-c", "nan"], "need radius_c > 0"),
         (["--radius-c", "inf"], "need radius_c > 0"),
         (["--network", "rgg-connected", "--protocol", "aloha", "--p-n", "1.5"],
          "p_n must lie in (0, 1)"),
         (["--max-steps", "0"], "max_steps must be >= 1")],
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
         (["--radius-c", "nan"], "need radius_c > 0"), (["--radius-c", "inf"], "need radius_c > 0"),
         (["--trials", "0"], "trials must be >= 1"),
         (["--max-steps", "0"], "max_steps must be >= 1")],
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

    @pytest.mark.parametrize("argv", [
        pytest.param(["gen-data", "--alphabet", "5"], id="gen-data"),
        pytest.param(["sweep", "--alphabet", "5", "--r1", "2", "--r2", "4", "--seed", "1",
                      "--param", "k", "--values", "2"], id="sweep"),
        pytest.param(["run", "--alphabet", "5", "--r1", "2", "--r2", "4", "--seed", "1"],
                     id="run"),
    ])
    def test_missing_nodes_fails_before_any_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "--nodes" in captured.err
        assert captured.out == ""
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

    def test_k_whose_n_to_the_k_overflows_fails_before_any_output(self, tmp_path, capsys):
        # 200^140 is beyond float64, so F_k / N^k cannot be formed
        code, out = _run(tmp_path, "k140", ["--nodes", "200", "--alphabet", "3", "--k", "140",
                                            "--r1", "2", "--r2", "4", "--s1", "1", "--seed", "1"])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: N^k = 200^140 overflows float64; F_k / N^k needs a smaller k\n"
        assert captured.out == ""
        assert not out.exists()

    def test_oracle_k_whose_n_to_the_k_overflows_fails_before_echo(self, tmp_path, capsys):
        data = tmp_path / "d.dat"
        write_dataset_file(generate_data("uniform", 200, 5, np.random.default_rng(1)), data)
        json_out = tmp_path / "o.json"
        argv = ["oracle", "--file", str(data), "--k", "200", "--json-out", str(json_out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: N^k = 200^200 overflows float64; F_k / N^k needs a smaller k\n"
        assert captured.out == ""
        assert not json_out.exists()

    @pytest.mark.parametrize("body", ["0 5\n", "3 5\n1\n2\n2\n"])
    def test_oracle_negative_k_fails_before_echo(self, tmp_path, capsys, body):
        # an empty dataset too, whose F_k / N^k is 0 for every k >= 0
        data = tmp_path / "d.dat"
        data.write_text(body)
        assert cli.main(["oracle", "--file", str(data), "--k", "-1"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: moment order must be nonnegative\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        # e^(-L) is about 1 > epsilon: nearly every draw is cut to L, and the
        # mean error was inf
        (["--trunc-L", "1e-300"], "truncation L = 1e-300 must be at least ln(1/epsilon) = 2.30259"),
        # 2^20 cells of width about 1e294: every min falls in the first cell,
        # and the mean error was 0.65
        (["--trunc-L", "1e300"], "cell width L/2^quant_bits = 9.53674e+293 must be at most "
                                 "1/N = 0.005"),
        # the rule's L = 2 ln 200 in 2^3 cells: the mean error was 0.62
        (["--quant-bits", "3"], "cell width L/2^quant_bits = 1.32458 must be at most 1/N = 0.005"),
    ])
    def test_quantizer_out_of_range_fails_before_any_output(self, tmp_path, capsys, flags, message):
        code, out = _run(tmp_path, "quant", ["--nodes", "200", "--alphabet", "5", "--r1", "8",
                                             "--r2", "16", "--trials", "3", "--seed", "1", *flags])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not out.exists()

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

    @pytest.mark.parametrize("flags", [
        pytest.param(["--epsilon", "1e-300"], id="map-divisor-underflows"),
        pytest.param(["--epsilon", "1e-160"], id="map-term-overflows"),
        pytest.param(["--delta", "5e-324"], id="delta-half-underflows"),
    ])
    def test_budget_past_float_range_is_infeasible(self, tmp_path, capsys, flags):
        # the solver's terms divide by (delta/2)(eps/2)^2 and (eps/32)^2,
        # which reach 0, or leave a quotient past float range, at tiny eps
        # or delta; test_infeasible_budget covers a term that is finite
        code, out = _run(tmp_path, "tiny", ["--nodes", "50", "--alphabet", "5", "--seed", "1",
                                            *flags])
        assert code == cli.EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.err.startswith("infeasible budget: ")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("eps, given", [
        pytest.param("1e-320", [], id="rule-L-past-float-range"),
        pytest.param("1e-300", [], id="rule-bits-past-62"),
        pytest.param("1e-200", [], id="rule-bits-past-62-at-1e-200"),
        pytest.param("1e-300", ["--trunc-L", "700"], id="given-L-rule-bits-past-62"),
    ])
    def test_quantizer_rule_past_range_is_infeasible(self, tmp_path, capsys, eps, given):
        # with r1 and r2 given, only the quantizer rule reads epsilon: its
        # L = max(2 ln N, ln(32/eps)) and its bits ceil(log2(L N 32/eps))
        # leave range at a tiny eps, which once crashed or named no setting
        code, out = _run(tmp_path, "tiny", ["--nodes", "50", "--alphabet", "5", "--seed", "1",
                                            "--r1", "2", "--r2", "4", "--epsilon", eps, *given])
        assert code == cli.EXIT_INFEASIBLE
        captured = capsys.readouterr()
        want = f"infeasible budget: epsilon = {float(eps)} needs a quantizer past range"
        assert captured.err.startswith(want)
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("given", [
        pytest.param(["--trunc-L", "700", "--quant-bits", "40"], id="both-given"),
        pytest.param(["--quant-bits", "40"], id="bits-given"),
    ])
    def test_given_quantizer_serves_a_tiny_epsilon(self, tmp_path, capsys, given):
        # the rule runs only for the parts not given: its L at eps = 1e-300
        # is about 695, in range, and e^(-700) <= 1e-300
        code, out = _run(tmp_path, "tiny", ["--nodes", "50", "--alphabet", "5", "--seed", "1",
                                            "--r1", "2", "--r2", "4", "--epsilon", "1e-300",
                                            *given])
        assert code == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())["config"]["quant"]["quant_bits"] == 40

    @pytest.mark.parametrize("argv", [
        pytest.param(["gen-data", "--nodes", "40", "--alphabet", "5"], id="gen-data"),
        pytest.param(["run", "--nodes", "40", "--alphabet", "5", "--r1", "2", "--r2", "4"],
                     id="run"),
        pytest.param(["sweep", "--nodes", "40", "--alphabet", "5", "--r1", "2", "--r2", "4",
                      "--param", "k", "--values", "2"], id="sweep"),
        pytest.param(["spreading-time", "--nodes", "20"], id="spreading-time"),
    ])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main([*argv, "--seed", "-3", "--out", str(out)]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -3\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, config", [
        pytest.param(["sweep", "--param", "seed", "--values", "1,-2", "--seed", "1"], "",
                     id="swept-value"),
        pytest.param(["run"], "seed = -2\n", id="config-file"),
    ])
    def test_negative_seed_off_the_flag_names_the_flag(self, tmp_path, capsys, argv, config):
        out = tmp_path / "out"
        extra = []
        if config:
            (tmp_path / "c.cfg").write_text(config)
            extra = ["--config", str(tmp_path / "c.cfg")]
        code = cli.main([*argv, "--nodes", "40", "--alphabet", "5", "--r1", "2", "--r2", "4",
                         *extra, "--out", str(out)])
        assert code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be >= 0, got -2\n"
        assert captured.out == ""
        assert not out.exists()

    def test_given_budget_over_the_cap_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys
    ):
        # 10^12 cells would need terabytes; should the check miss, the run
        # stops before it draws anything
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        code, out = _run(tmp_path, "big", ["--nodes", "200", "--alphabet", "2", "--r1", "1000000",
                                           "--r2", "1000000", "--seed", "1"])
        assert code == cli.EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert "infeasible budget: budget needs r1*r2 = 1000000000000 sketch cells" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_k3_budget_just_over_the_cap_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys
    ):
        # 3 * r1 * r2 is one cell over the cap; r1 * r2 alone is under it
        # (TestSolveBudget.test_cap_counts_channels)
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_experiment", refuse)
        r2 = (1 << 23) // 3 + 1
        code, out = _run(tmp_path, "k3", ["--nodes", "200", "--alphabet", "5", "--k", "3",
                                          "--r1", "1", "--r2", str(r2), "--seed", "1"])
        assert code == cli.EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert f"infeasible budget: budget needs 3*r1*r2 = {3 * r2} sketch cells" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("nodes", ["-3", "0", "20,0"])
    def test_spreading_time_without_nodes_fails_before_echo(self, tmp_path, capsys, nodes):
        out = tmp_path / "st"
        argv = ["spreading-time", "--nodes", nodes, "--trials", "2", "--seed", "1",
                "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: --nodes must be >= 1, got {min(map(int, nodes.split(',')))}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_point_that_measured_no_trial_is_nonconverged(self, tmp_path, capsys):
        # every trial of the k = 2 point is rejected, as in
        # test_run_that_measured_no_trial_is_nonconverged; the sweep still
        # runs every point and writes its summary
        out = tmp_path / "sweep"
        argv = ["sweep", "--param", "k", "--values", "2", "--nodes", "200", "--alphabet", "5",
                "--network", "rgg-percolating", "--radius-c", "1e-9", "--r1", "2", "--r2", "4",
                "--trials", "2", "--seed", "1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_NONCONVERGED
        captured = capsys.readouterr()
        assert "k=2: success 0.000" in captured.out
        assert captured.err == "no trial measured at k=2: all rejected\n"
        assert (out / "summary.csv").read_text().splitlines()[1].startswith("2,0.0,")

    def test_run_that_measured_no_trial_is_nonconverged(self, tmp_path, capsys):
        # a percolating radius this small leaves every node isolated, so
        # every trial is rejected; the report is still written
        argv = ["--nodes", "200", "--alphabet", "5", "--network", "rgg-percolating",
                "--radius-c", "1e-9", "--r1", "2", "--r2", "4", "--trials", "3", "--seed", "1"]
        code, out = _run(tmp_path, "none", argv)
        assert code == cli.EXIT_NONCONVERGED
        assert capsys.readouterr().err == "no trial measured: all 3 rejected\n"
        assert json.loads((out / "report.json").read_text())["rejected_trials"] == [0, 1, 2]

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

    @pytest.mark.parametrize("argv, out, message", [
        pytest.param(["run", "--nodes", "200", "--alphabet", "10", "--network", "rgg-connected",
                      "--radius-c", "0.05", *_PINS], "y",
                     "no connected RGG in 100 attempts at N=200", id="run-no-connected-rgg"),
        pytest.param(["run", "--nodes", "3", "--alphabet", "2", "--data", "file:bad.dat",
                      *_PINS], "z", "bad.dat:3: not an integer value", id="run-bad-data-file"),
        pytest.param(["run", "--nodes", "12", "--alphabet", "2", "--data", "file:d10.dat",
                      *_PINS], "v", "dataset file holds N=10 M=2, config wants N=12 M=2",
                     id="run-data-file-size"),
        pytest.param(["run", "--nodes", "4", "--alphabet", "2", "--network", "graph:g.txt",
                      *_PINS], "w", "graph file is not connected", id="run-disconnected-graph"),
        pytest.param(["sweep", "--nodes", "12", "--alphabet", "2", "--data", "file:d10.dat",
                      *_PINS, "--param", "k", "--values", "2"], "sw",
                     "dataset file holds N=10 M=2, config wants N=12 M=2",
                     id="sweep-data-file-size"),
        pytest.param(["gen-data", "--nodes", "12", "--alphabet", "2", "--data", "file:d10.dat",
                      "--seed", "1"], "g.out", "dataset file holds N=10 M=2, config wants N=12 M=2",
                     id="gen-data-data-file-size"),
    ])
    def test_input_trial_zero_cannot_use_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys, argv, out, message
    ):
        # run and each sweep point build trial 0's dataset and network before
        # the echo, and gen-data its dataset
        monkeypatch.chdir(tmp_path)
        Path("bad.dat").write_text("3 5\n1\nx\n2\n")
        write_dataset_file(Dataset(np.arange(10) % 2 + 1, 2), "d10.dat")
        Path("g.txt").write_text("4 -\n0 1\n2 3\n")
        with _deadline(60):
            assert cli.main([*argv, "--out", out]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""
        assert not Path(out).exists()

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

    @pytest.mark.parametrize("beta", ["0", "1"])
    @pytest.mark.parametrize("command", ["run", "spreading-time"])
    def test_beta_outside_unit_interval_fails_before_any_output(
        self, tmp_path, capsys, command, beta
    ):
        out = tmp_path / "out"
        argv = [command, "--nodes", "60", "--beta", beta, "--seed", "1", "--out", str(out)]
        if command == "run":
            argv += ["--alphabet", "5", "--r1", "2", "--r2", "4"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "beta must lie in (0, 1)" in captured.err
        assert "# effective-config" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["nan", "inf", "-inf", "-5", "0", "1e400"])
    @pytest.mark.parametrize("command", ["run", "spreading-time"])
    def test_graph_radius_not_finite_and_positive_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys, command, radius
    ):
        monkeypatch.chdir(tmp_path)
        Path("g.txt").write_text(f"3 {radius}\n0 1\n1 2\n")
        argv = [command, "--nodes", "3", "--network", "graph:g.txt", "--trials", "1",
                "--seed", "1", "--out", "out"]
        if command == "run":
            argv += ["--alphabet", "2", "--r1", "2", "--r2", "4"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "error: g.txt:1: malformed header, want 'N radius'\n"
        assert captured.out == ""
        assert not Path("out").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["gen-data", "--nodes", "60", "--alphabet", "5", "--seed", "1", "--out"],
                     id="gen-data"),
        pytest.param(["run", *_TINY, "--out"], id="run"),
        pytest.param(["sweep", *_TINY, "--param", "k", "--values", "2", "--out"], id="sweep"),
        pytest.param(["spreading-time", "--nodes", "20", "--seed", "1", "--out"],
                     id="spreading-time"),
        pytest.param(["oracle", "--file", "d.dat", "--json-out"], id="oracle"),
    ])
    def test_output_path_under_a_file_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys, argv
    ):
        # each command makes or writes its output path before its first line
        monkeypatch.chdir(tmp_path)
        write_dataset_file(Dataset(np.arange(10) % 2 + 1, 2), "d.dat")
        Path("plain").write_text("a regular file\n")
        assert cli.main([*argv, "plain/out"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_spreading_time_aloha_on_complete_is_config_error(self, capsys):
        argv = ["spreading-time", "--nodes", "120", "--network", "complete", "--protocol", "aloha",
                "--seed", "16"]
        with _deadline(60):
            code = cli.main(argv)
        assert code == cli.EXIT_CONFIG
        assert "aloha" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["run", *_TINY, "--epsilon", "1.5"], "eps and delta must lie in (0, 1)",
                     id="run-epsilon"),
        pytest.param(["run", *_TINY, "--k", "1"], "moment order k must be >= 2", id="run-k"),
        pytest.param(["run", *_TINY, "--trials", "0"], "trials must be >= 1", id="run-trials"),
        pytest.param(["run", *_TINY, "--network", "graph:"], "graph network needs a path",
                     id="run-graph-without-path"),
        pytest.param(["run", "--nodes", "1", "--alphabet", "1", *_PINS],
                     "need at least 2 nodes", id="run-one-node"),
        # a comment and a blank line are skipped; line 4 has no '='
        pytest.param(["run", "--config", "noeq.cfg"], "noeq.cfg:4: expected 'key = value'",
                     id="config-line-without-equals"),
        pytest.param(["sweep", *_TINY], "sweep needs --param and --values",
                     id="sweep-without-param"),
        pytest.param(["spreading-time", "--seed", "1"],
                     "spreading-time needs --nodes (comma list allowed)",
                     id="spreading-time-without-nodes"),
        pytest.param(["oracle"], "oracle needs --file DATASET", id="oracle-without-file"),
        *(pytest.param(["run", "--nodes", "3", "--alphabet", "2", "--data", f"file:{path}",
                        *_PINS], message, id=f"run-{path}")
          for path, message in (("wide.dat", "wide.dat: values must lie in [1, alphabet_size]"),
                                ("m0.dat", "m0.dat: alphabet size must be >= 1"))),
        *(pytest.param(["oracle", "--file", path], message, id=f"oracle-{path}")
          for path, message in (("wide.dat", "wide.dat: values must lie in [1, alphabet_size]"),
                                ("m0.dat", "m0.dat: alphabet size must be >= 1"))),
    ])
    def test_unusable_setting_or_input_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        Path("noeq.cfg").write_text("# a comment\n\nnodes = 60\nalphabet 5\n")
        Path("wide.dat").write_text("3 2\n1\n3\n2\n")
        Path("m0.dat").write_text("3 0\n1\n1\n1\n")
        out_flag = "--json-out" if argv[0] == "oracle" else "--out"
        assert cli.main([*argv, out_flag, "out"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not Path("out").exists()


# dataset file -> the error `oracle --file` reports for it, PATH for its path
_BAD_DATASETS = {
    "header-word": ("abc 5\n1\n2\n3\n", "PATH:1: malformed header, want 'N M'"),
    "header-one-token": ("3\n1\n2\n3\n", "PATH:1: malformed header, want 'N M'"),
    "word": ("3 5\n1\n\nx\n3\n", "PATH:4: not an integer value"),
    "two-ids": ("3 5\n1\n2 3\n3\n", "PATH:3: not an integer value"),
    "float": ("3 5\n1\n2.0\n3\n", "PATH:3: not an integer value"),
    "too-few": ("3 5\n1\n\n2\n", "PATH: header says N=3 but found 2 values"),
}
# graph file -> the error `spreading-time --network graph:PATH` reports for it
_BAD_GRAPHS = {
    "word-n": ("abc -\n0 1\n1 2\n", "PATH:1: malformed header, want 'N radius'"),
    "word-radius": ("3 x\n0 1\n1 2\n", "PATH:1: malformed header, want 'N radius'"),
}


class TestInputFiles:
    """A malformed input file is a configuration error named by its line,
    reported before any output."""

    @pytest.mark.parametrize("name", sorted(_BAD_DATASETS))
    def test_bad_dataset_file(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        body, message = _BAD_DATASETS[name]
        Path("data.txt").write_text(body)
        assert cli.main(["oracle", "--file", "data.txt"]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.replace('PATH', 'data.txt')}\n"
        assert captured.out == ""

    def test_dataset_blank_lines_skipped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("data.txt").write_text("3 5\n4\n\n  \n4\n5\n\n")
        assert cli.main(["oracle", "--file", "data.txt"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert {"N = 3  M = 5", "F_2 = 5", "top frequencies: 4:2, 5:1"} <= set(lines)

    @pytest.mark.parametrize("name", sorted(_BAD_GRAPHS))
    def test_bad_graph_file(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.chdir(tmp_path)
        body, message = _BAD_GRAPHS[name]
        Path("edges.txt").write_text(body)
        argv = ["spreading-time", "--nodes", "3", "--network", "graph:edges.txt", "--seed", "1",
                "--out", "st"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.replace('PATH', 'edges.txt')}\n"
        assert captured.out == ""
        assert not Path("st").exists()


# Every flag as the parser declares it: option string -> (dest, type, choices).
# Recorded on the release that declared flags per subcommand by hand; since
# then only oracle's --nodes/--alphabet/--seed/--out, spreading-time's
# --alphabet and sweep's --beta, which those subcommands never read, are gone.
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
    "--param": ("param", str, None),
    "--values": ("values", str, None),
    "--file": ("file", str, None),
    "--json-out": ("json_out", str, None),
}
_EXPERIMENT_FLAGS = ("--config --nodes --alphabet --seed --out --k --epsilon --delta --r1 --r2 "
                     "--quant-bits --trunc-L --network --radius-c --protocol --p-n --data "
                     "--buckets --s1 --trials --jobs --format --max-steps").split()
_SUBCOMMAND_FLAGS = {
    "gen-data": "--config --nodes --alphabet --seed --out --data".split(),
    "run": [*_EXPERIMENT_FLAGS, "--beta"],
    "sweep": [*_EXPERIMENT_FLAGS, "--param", "--values"],
    "spreading-time": ("--config --nodes --seed --out --network --protocol --p-n --radius-c "
                       "--trials --beta --max-steps").split(),
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
                                      ["spreading-time", "--alphabet", "5"],
                                      ["sweep", "--beta", "0.2"],
                                      ["run", "--exchange-mode", "push"],
                                      ["sweep", "--exchange-mode", "exchange"],
                                      ["spreading-time", "--exchange-mode", "push"]])
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
            # the f2-complete-gossip path: the complete graph, a Topology with implicit rows
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

    def test_maps_import_no_hashlib_and_keep_the_traced_names(self):
        # the map tables are polynomials evaluated in numpy, with no hash;
        # perfbench/tracer.py wraps the three table functions by name
        tree = ast.parse(Path(sketch_core.__file__).read_text())
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not {name for name in modules if name.split(".")[0] == "hashlib"}
        signatures = {"sign_table": ["seed", "r1", "alphabet_size"],
                      "root_table": ["seed", "r1", "k", "alphabet_size"],
                      "bucket_table": ["seed", "s1", "num_buckets", "alphabet_size"]}
        for name, params in signatures.items():
            assert list(inspect.signature(getattr(sketch_core, name)).parameters) == params

    def test_no_unused_imports(self):
        # every name an import binds is read, in the package and in the tests;
        # a dotted import without an alias binds only its first part and is
        # kept for its side effect, as is a __future__ import
        files = [*Path(netmoments.__file__).resolve().parent.glob("*.py"),
                 *Path(__file__).resolve().parent.glob("*.py")]
        unused = []
        for path in sorted(files):
            tree = ast.parse(path.read_text())
            bound = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
                elif isinstance(node, ast.Import):
                    bound.update((alias.asname or alias.name, node.lineno) for alias in node.names
                                 if alias.asname or "." not in alias.name)
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [f"{path.name}:{line}: {name}" for name, line in bound.items()
                       if name not in read]
        assert len(files) >= 12
        assert unused == []


class TestSolveBudget:
    def test_given_sizes_keep_the_split(self):
        solved, quant = solve_budget(0.1, 0.1, 300)
        given, given_quant = solve_budget(0.1, 0.1, 300, r1=8, r2=64)
        assert given == dataclasses.replace(solved, r1=8, r2=64)
        assert given_quant == quant

    def test_given_sizes_skip_the_cell_cap(self):
        # sizes given under the cap replace a solved budget over it
        with pytest.raises(CapacityError):
            solve_budget(0.001, 0.001, 300)
        budget, _ = solve_budget(0.001, 0.001, 300, r1=2, r2=4)
        assert (budget.r1, budget.r2) == (2, 4)

    @pytest.mark.parametrize("r1, r2", [(1 << 12, 1 << 12), (1, (1 << 23) + 1), (10**6, 10**6)])
    def test_given_sizes_over_the_cap_rejected(self, r1, r2):
        with pytest.raises(CapacityError, match=f"r1\\*r2 = {r1 * r2} sketch cells"):
            solve_budget(0.1, 0.1, 300, r1=r1, r2=r2)
        budget, _ = solve_budget(0.1, 0.1, 300, r1=1, r2=1 << 23)  # at the cap
        assert budget.r1 * budget.r2 == 1 << 23

    def test_cap_counts_channels(self):
        # a k >= 3 sketch holds 3 * r1 * r2 cells: one over the cap at k = 3
        # and k = 4; under it at k = 2, whose sketch has one channel
        r2 = (1 << 23) // 3 + 1
        for k in (3, 4):
            with pytest.raises(CapacityError, match=f"3\\*r1\\*r2 = {3 * r2} sketch cells"):
                solve_budget(0.1, 0.1, 300, r1=1, r2=r2, k=k)
        budget, _ = solve_budget(0.1, 0.1, 300, r1=1, r2=r2, k=2)
        assert budget.r2 == r2
        budget, _ = solve_budget(0.1, 0.1, 300, r1=1, r2=r2 - 1, k=3)  # 3 (r2 - 1) is under
        assert 3 * budget.r2 < 1 << 23

    def test_given_quantizer_values_override_the_rule(self):
        _, quant = solve_budget(0.1, 0.1, 300)
        _, bits = solve_budget(0.1, 0.1, 300, quant_bits=12)
        _, length = solve_budget(0.1, 0.1, 300, trunc_l=5.0)
        assert (bits.truncation_L, bits.quant_bits) == (quant.truncation_L, 12)
        assert (length.truncation_L, length.quant_bits) == (5.0, quant.quant_bits)

    @pytest.mark.parametrize("n", [2, 3, 4, 1000])
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_solved_truncation_cuts_a_draw_at_most_eps2(self, n, eps):
        # L = 2 ln N alone cut a rate-1 draw with probability 1/N^2, far
        # above eps2 = eps/32 at small N; at large N the rule is 2 ln N
        _, quant = solve_budget(eps, 0.1, n)
        assert math.exp(-quant.truncation_L) <= eps / 32 * (1 + 1e-12)
        assert quant.truncation_L == max(2.0 * math.log(n), math.log(1 / (eps / 32)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_solved_budget_meets_delta_at_small_n(self, tmp_path, capsys, n):
        # with L = 2 ln N every trial missed epsilon: the mean |error| was
        # 1.77, 0.44 and 0.20 at N = 2, 3 and 4
        code, out = _run(tmp_path, "small", ["--nodes", str(n), "--alphabet", "1",
                                             "--data", "pointmass", "--trials", "30",
                                             "--seed", "3"])
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["empirical_success_rate"] >= 0.9
        assert report["aggregates"]["mean_abs_error"] <= 0.05

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
        max_steps=draw(st.none() | st.integers(1, 10**9)),
    )


# the top-level keys of report.json's config block
_CONFIG_BLOCK_KEYS = sorted(
    "alphabet_size budget data delta epsilon k master_seed max_steps n_nodes network "
    "num_buckets p_n protocol quant radius_c s1 trials".split()
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
        # and a setting that decides nothing is None
        net = "graph" if cfg.network.startswith("graph:") else cfg.network
        resolved = {key for key, value in _resolved_keys(d).items() if value is not None}
        assert resolved == _DECIDING[net, cfg.protocol]
        # a step cap out of range is rejected on every network and protocol
        with pytest.raises(ValueError, match="max_steps"):
            dataclasses.replace(cfg, max_steps=0)
