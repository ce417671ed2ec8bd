"""Exact moment oracles, the reference streaming estimator, and the sketch-based
estimators that turn converged sketch level arrays into scaled moment
estimates."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .sketch_core import QuantConfig, SharedRandomness, harmonic_estimate, sign_table


@dataclass
class Dataset:
    """One alphabet value per node.  The global constraint M = o(N) is enforced
    where experiments are configured, not here, so tiny and empty datasets
    remain expressible for oracle tests."""

    values: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.int64)
        if self.alphabet_size < 1:
            raise ValueError("alphabet size must be >= 1")
        if self.values.size and (
            self.values.min() < 1 or self.values.max() > self.alphabet_size
        ):
            raise ValueError("values must lie in [1, alphabet_size]")

    @property
    def n_nodes(self) -> int:
        return int(self.values.size)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n_nodes} {self.alphabet_size}\n".encode())
        h.update(self.values.tobytes())
        return h.hexdigest()


@dataclass
class Histogram:
    """Occurrence counts per alphabet value."""

    counts: np.ndarray

    @classmethod
    def from_dataset(cls, d: Dataset) -> "Histogram":
        counts = np.bincount(d.values, minlength=d.alphabet_size + 1)[1:]
        return cls(counts.astype(np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def exact_fk(d: Dataset, k: int) -> int:
    """Brute-force k-th frequency moment; the oracle every probabilistic path
    is validated against.  Exact integer arithmetic, so no k is too large."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    counts = Histogram.from_dataset(d).counts
    return sum(int(c) ** k for c in counts if c > 0)


def exact_nplus(d: Dataset, rand: SharedRandomness, map_index: int) -> int:
    """Number of nodes whose value the given sign map sends to +1."""
    if d.n_nodes == 0:
        return 0
    tbl = sign_table(rand, d.alphabet_size)
    counts = Histogram.from_dataset(d).counts
    return int(counts[tbl[map_index - 1] > 0].sum())


def f2_from_nplus(nplus: np.ndarray, n_nodes: int) -> float:
    """The shared second-moment combination: mean of (2 N_+ - N)^2 over the
    outer maps, scaled by N^2."""
    arr = np.asarray(nplus, dtype=float)
    return float(np.mean((2.0 * arr - n_nodes) ** 2)) / float(n_nodes) ** 2


def ams_reference_f2(d: Dataset, rand: SharedRandomness) -> float:
    """Streaming-style estimate from exact sign sums: the no-network baseline."""
    n = d.n_nodes
    nplus = np.array(
        [exact_nplus(d, rand, i) for i in range(1, rand.r1 + 1)], dtype=float
    )
    return float(np.mean((2.0 * nplus - n) ** 2))


def estimate_f2(levels: np.ndarray, quant: QuantConfig, n_nodes: int) -> float:
    """Scaled second-moment estimate from a fully converged (r1, r2) sign
    sketch: one harmonic population estimate N_+ per outer map."""
    return f2_from_nplus(harmonic_estimate(levels, quant), n_nodes)


def estimate_fk(phases: np.ndarray, n_nodes: int, k: int) -> float:
    """Scaled k-th moment estimate (k >= 3) from completed bucket phases.

    phases[t, b] holds the (3, r1) harmonic estimates of bucket phase
    (t + 1, b + 1): the real and imaginary channels estimate the shifted
    component sums, and the population channel estimates the bucket
    population that must be subtracted back out.  Per (map p, bucket map t):
    sum over buckets of Re{S^k}, where S is the complex component sum.
    Aggregation is the mean over the outer maps and the median over the
    bucket maps.
    """
    if k < 3:
        raise ValueError("estimate_fk handles k >= 3; use estimate_f2 for k = 2")
    real, imag, pop = np.moveaxis(phases, 2, 0)
    s_hat = (real - pop) + 1j * (imag - pop)
    per_t_p = np.real(s_hat**k).sum(axis=1)  # (s1, r1)
    per_t = per_t_p.mean(axis=1)
    return float(np.median(per_t)) / float(n_nodes) ** k


@dataclass(frozen=True)
class ErrorBudget:
    """Accuracy split across the three error sources: sign/root maps (eps1),
    exponential replicas (eps2), truncation/quantization (mu), and the
    spreading failure target (beta)."""

    eps1: float
    eps2: float
    mu: float
    r1: int
    r2: int
    beta: float

    def __post_init__(self):
        for name in ("eps1", "eps2", "mu"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if self.r1 < 1 or self.r2 < 1:
            raise ValueError("r1 and r2 must be >= 1")


def oracle_record(d: Dataset, k: int, estimate: float | None = None) -> dict:
    """JSON-ready record tying an exact moment to an estimate of it."""
    exact = exact_fk(d, k)
    scaled = exact / float(d.n_nodes) ** k if d.n_nodes else 0.0
    rec = {
        "dataset_digest": d.digest(),
        "k": k,
        "exact": exact,
        "exact_scaled": scaled,
        "estimate": estimate,
        "scaled_error": None if estimate is None else abs(estimate - scaled),
    }
    return rec
