"""In-memory spans and tallies around the public functions of `netmoments`.

The tracer replaces each function named in TARGETS with a wrapper in every
`netmoments` module that holds a reference to it, so `from .x import f`
bindings are covered too.  A "span" is timed call by call (name, parent,
start, end).  A "tally", for functions called thousands of times per trial,
keeps only calls, seconds and rows, charged to the enclosing span.  A span's
self time is its duration minus its child spans and tallies.  A name that a
later version of the package no longer has is reported as absent.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# wrapped name -> (kind, metrics it feeds).  The first metric receives the
# self time; the metrics in INCLUSIVE receive the whole duration; a tally's
# second metric counts its rows.  The other metrics are counts read off
# arguments and results in Tracer._after.
TARGETS = {
    "cli.main": ("span", ("cli.self_s",)),
    "simulator.run_experiment": ("span", ("simulator.self_s",)),
    "simulator.run_f2_trial": ("span", ("simulator.self_s", "simulator.trial_s")),
    "simulator.run_fk_trial": ("span", ("simulator.self_s", "simulator.trial_s")),
    "simulator.run_bucket_phase": ("span", ("simulator.self_s", "simulator.phase_s")),
    "simulator.DataModel.generate": ("span", ("simulator.data_s",)),
    "network.complete_topology": ("span", ("network.topology_s", "network.edges")),
    "network.build_rgg": ("span", ("network.topology_s", "network.edges")),
    "network.induced_subgraph": ("span", ("network.topology_s", "network.edges")),
    "network.giant_component": ("span", ("network.giant_s",)),
    "network.Topology.as_csr": ("tally", ("network.csr_s",)),
    "sketch_core.sign_table": ("span", ("sketch_core.maps_s",)),
    "sketch_core.root_table": ("span", ("sketch_core.maps_s",)),
    "sketch_core.bucket_table": ("span", ("sketch_core.maps_s",)),
    "sketch_core.truncated_exp_levels": (
        "tally", ("sketch_core.draw_s", "sketch_core.draw_calls")
    ),
    "protocols.run_spreading": (
        "span",
        (
            "protocols.spread_s",
            "protocols.steps",
            "protocols.messages",
            "protocols.step_us",
            "protocols.heard_mb",
            "sketch_core.sketch_mb",
        ),
    ),
    "protocols.ArrayState.receive": ("tally", ("protocols.merge_s", "protocols.merges")),
    "protocols.ArrayState.receive_many": ("tally", ("protocols.merge_s", "protocols.merges")),
    "estimators.estimate_f2": ("span", ("estimators.estimate_s",)),
    "estimators.estimate_fk": ("span", ("estimators.estimate_s",)),
    "estimators.exact_fk": ("span", ("estimators.oracle_s",)),
}
INCLUSIVE = {"simulator.trial_s", "simulator.phase_s"}
METRICS = tuple(dict.fromkeys(m for _, feeds in TARGETS.values() for m in feeds))


def _rows(name: str, args, kwargs) -> int:
    """Rows one tally call handles: merged rows for receive_many, else 1."""
    if name == "protocols.ArrayState.receive_many":
        return len(kwargs["dsts"] if "dsts" in kwargs else args[2])
    return 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, covered]
        self.stack: list[int] = []
        self.tallies: dict[str, list] = {}  # name -> [calls, seconds, rows]
        self.counts: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self.config = None  # the ExperimentConfig of the current experiment

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "simulator.run_experiment":
                self.config = args[0]
            parent = self.stack[-1] if self.stack else None
            rec = [name, parent, perf_counter(), None, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self.stack.pop()
                if parent is not None:
                    self.spans[parent][4] += rec[3] - rec[2]
            self._after(name, args, out)
            return out

        return wrapper

    def tally(self, name: str, fn):
        entry = self.tallies.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                entry[0] += 1
                entry[1] += dt
                entry[2] += _rows(name, args, kwargs)
                if self.stack:
                    self.spans[self.stack[-1]][4] += dt

        return wrapper

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _max(self, key: str, value: float) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _after(self, name: str, args, out) -> None:
        """Counts read off a span's arguments and result, outside its timing."""
        if name in ("network.complete_topology", "network.build_rgg"):
            self._add("network.edges", out.num_edges)
        elif name == "network.induced_subgraph":
            self._add("network.edges", out[0].num_edges)
        elif name == "protocols.run_spreading":
            report, n = out[0], args[0].n_nodes
            self._add("protocols.steps", report.steps_to_full)
            self._add("protocols.messages", report.messages_sent)
            # computed, not measured: heard-set bits and int32 sketch levels
            self._max("protocols.heard_mb", n * n / 8 / 1e6)
            cfg = self.config
            if cfg is not None:
                cells = cfg.channels * cfg.budget.r1 * cfg.budget.r2
                self._max("sketch_core.sketch_mb", n * cells * 4 / 1e6)

    def install(self, package: str = "netmoments") -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        for name, (kind, _) in TARGETS.items():
            mod_name, *outer, attr = name.split(".")
            owner = sys.modules.get(f"{package}.{mod_name}")
            for part in outer:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = (self.span if kind == "span" else self.tally)(name, orig)
            if outer:
                setattr(owner, attr, wrapper)
            else:
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)
            self.wrapped.add(name)

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far, and the metrics
        no wrapped name feeds."""
        metrics = dict.fromkeys(METRICS, 0.0)
        spread_s = 0.0
        for name, _parent, start, end, covered in self.spans:
            feeds = TARGETS[name][1]
            metrics[feeds[0]] += end - start - covered
            for m in feeds[1:]:
                if m in INCLUSIVE:
                    metrics[m] += end - start
            if name == "protocols.run_spreading":
                spread_s += end - start
        for name, (_calls, seconds, rows) in self.tallies.items():
            feeds = TARGETS[name][1]
            metrics[feeds[0]] += seconds
            if len(feeds) > 1:
                metrics[feeds[1]] += rows
        metrics.update(self.counts)
        steps = self.counts.get("protocols.steps", 0)
        metrics["protocols.step_us"] = spread_s / steps * 1e6 if steps else 0.0
        fed = {m for name in self.wrapped for m in TARGETS[name][1]}
        return {"metrics": metrics, "absent": [m for m in METRICS if m not in fed]}

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "parent": p, "start": s, "end": e, "self_s": e - s - c}
            for i, (n, p, s, e, c) in enumerate(self.spans)
        ]
