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
"""

import contextlib
import dataclasses
import hashlib
import json
import signal
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmoments import cli
from netmoments.estimators import ErrorBudget
from netmoments.protocols import ALOHA, EXCHANGE, PUSH, SpreadConfig, default_max_steps
from netmoments.simulator import CapacityError, DataModel, ExperimentConfig, solve_budget
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
        ["complete", "rgg-connected", "graph:edges.txt"]
        + (["rgg-percolating"] if k == 2 else [])
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
    def test_to_dict_from_dict(self, cfg):
        d = cfg.to_dict()
        again = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
        assert again == cfg
        assert again.to_dict() == d
