"""Exact moment oracles, the reference streaming estimator, and the sketch-based
estimators that turn converged min-sketch state into scaled moment estimates."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .sketch_core import SharedRandomness, SketchVector, harmonic_estimate, sign_table


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


def estimate_f2(final: SketchVector, n_nodes: int) -> float:
    """Scaled second-moment estimate from a fully converged sketch vector."""
    nplus = np.array(
        [harmonic_estimate(final.row_values(i)) for i in range(1, final.r1 + 1)]
    )
    return f2_from_nplus(nplus, n_nodes)


@dataclass
class EstimatorState:
    """Per-phase harmonic estimates collected by the higher-moment pipeline.

    Indexed [bucket_map t, bucket b, outer map p]; real/imag channels estimate
    the shifted component sums and the population channel estimates the bucket
    population that must be subtracted back out.
    """

    r1: int
    k: int
    num_buckets: int
    s1: int
    real_sums: np.ndarray = field(init=False)
    imag_sums: np.ndarray = field(init=False)
    bucket_pops: np.ndarray = field(init=False)
    recorded: np.ndarray = field(init=False)

    def __post_init__(self):
        shape = (self.s1, self.num_buckets, self.r1)
        self.real_sums = np.zeros(shape)
        self.imag_sums = np.zeros(shape)
        self.bucket_pops = np.zeros(shape)
        self.recorded = np.zeros((self.s1, self.num_buckets), dtype=bool)

    def record_phase(self, t: int, b: int, real_row, imag_row, pop_row) -> None:
        """Store one phase's per-map harmonic estimates (t, b are 1-indexed)."""
        if self.recorded[t - 1, b - 1]:
            raise ValueError(f"phase (t={t}, b={b}) recorded twice")
        self.real_sums[t - 1, b - 1] = real_row
        self.imag_sums[t - 1, b - 1] = imag_row
        self.bucket_pops[t - 1, b - 1] = pop_row
        self.recorded[t - 1, b - 1] = True

    @property
    def complete(self) -> bool:
        return bool(self.recorded.all())


def estimate_fk(state: EstimatorState, n_nodes: int, k: int) -> float:
    """Scaled k-th moment estimate (k >= 3) from completed bucket phases.

    Per (map p, bucket map t): sum over buckets of Re{S^k}, where S is the
    complex component sum recovered by subtracting the bucket-population
    estimate from both channels.  Aggregation is the mean over the outer maps
    and the median over the bucket maps.
    """
    if k < 3:
        raise ValueError("estimate_fk handles k >= 3; use estimate_f2 for k = 2")
    if k != state.k:
        raise ValueError("moment order disagrees with the collected state")
    if not state.complete:
        raise ValueError("not all bucket phases have been recorded")
    s_hat = (state.real_sums - state.bucket_pops) + 1j * (
        state.imag_sums - state.bucket_pops
    )
    per_t_p = np.real(s_hat**k).sum(axis=1)  # (s1, r1)
    per_t = per_t_p.mean(axis=1)
    return float(np.median(per_t)) / float(n_nodes) ** k


def percolation_bound_check(d: Dataset, alpha: float) -> tuple[float, bool]:
    """Most-damaging removal of floor(alpha N) nodes (copies of the most
    frequent value, spilling to the next when exhausted) and whether the
    residual moment respects F2 - alpha^2 N^2.  The bound is only claimed
    when the top frequency is at least alpha N; below that it is vacuous."""
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    n = d.n_nodes
    counts = sorted(
        (int(c) for c in Histogram.from_dataset(d).counts if c > 0), reverse=True
    )
    f2 = sum(c * c for c in counts)
    to_remove = int(math.floor(alpha * n + 1e-9))
    top = counts[0] if counts else 0
    removed_counts = []
    for c in counts:
        take = min(c, to_remove)
        removed_counts.append(c - take)
        to_remove -= take
    f2_alpha = float(sum(c * c for c in removed_counts))
    if top >= alpha * n:
        bound_ok = f2_alpha <= f2 - alpha * alpha * n * n + 1e-9
    else:
        bound_ok = True
    return f2_alpha, bound_ok


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


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

    @property
    def epsilon_unquantized(self) -> float:
        return self.eps1 + 4.0 * self.eps2 * (3.0 + self.eps2)

    @property
    def epsilon_quantized(self) -> float:
        return self.eps1 + 8.0 * self.mu * (3.0 + 2.0 * self.mu)

    @property
    def p1(self) -> float:
        return _clamp01(1.0 - 2.0 / (self.r1 * self.eps1**2))

    @property
    def p2(self) -> float:
        return _clamp01(1.0 - 2.0 * math.exp(-self.eps2**2 * self.r2 / 12.0))

    def success_bound(self) -> float:
        return self.p1 * self.p2 * (1.0 - self.beta)

    def certified_delta(self) -> float:
        """Worst-case failure bound of the quantized pipeline at this budget.
        Deliberately conservative; desk-scale budgets report a vacuous value
        here while their calibrated bound is checked by the budget solver."""
        x = math.exp(-self.mu**2 * self.r2 / 6.0)
        return min(1.0, x + (2.0 / (self.r1 * self.eps1**2)) * (1.0 - x))


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
