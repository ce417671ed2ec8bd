"""Exact moment oracles, the reference streaming estimator, and the
estimators that turn the harmonic population estimates read off converged
sketches into scaled moment estimates."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .sketch_core import sign_table


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

    @property
    def counts(self) -> np.ndarray:
        """Occurrence counts per alphabet value, value 1 first."""
        return np.bincount(self.values, minlength=self.alphabet_size + 1)[1:]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.n_nodes} {self.alphabet_size}\n".encode())
        h.update(self.values.tobytes())
        return h.hexdigest()


def exact_fk(d: Dataset, k: int) -> int:
    """Brute-force k-th frequency moment; the oracle every probabilistic path
    is validated against.  Exact integer arithmetic, so no k is too large."""
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    return sum(int(c) ** k for c in d.counts if c > 0)


def exact_nplus(d: Dataset, seed: int, r1: int) -> np.ndarray:
    """N_+ under each of the r1 sign maps of the seed: the number of nodes
    whose value the map sends to +1."""
    return (sign_table(seed, r1, d.alphabet_size) > 0) @ d.counts


def ams_reference_f2(d: Dataset, seed: int, r1: int) -> float:
    """Streaming-style estimate from exact sign sums over the r1 sign maps of
    the seed: the no-network baseline."""
    nplus = exact_nplus(d, seed, r1).astype(float)
    return float(np.mean((2.0 * nplus - d.n_nodes) ** 2))


def median(values) -> float:
    """np.median of a 1-D sample, bit for bit, from one sort: the middle
    value, or the mean of the two middle ones, and nan when any value is nan.
    np.median imports numpy.ma on its first call, which would land inside a
    timed run."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    mid = len(ordered) // 2
    if len(ordered) == 0 or np.isnan(ordered[-1]):
        return math.nan
    if len(ordered) % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def estimate_fk(phases: np.ndarray, n_nodes: int, k: int) -> float:
    """Scaled k-th moment estimate (k >= 2) from completed bucket phases.

    phases[t, b] holds the (channels, r1) harmonic estimates of bucket phase
    (t + 1, b + 1), and S is each outer map's component sum over the bucket.
    At k = 2 there is one bucket and one channel, N_+ under the sign maps,
    and S = 2 N_+ - N is real.  At k >= 3 the real and imaginary channels
    estimate the shifted component sums, and the population channel
    estimates the bucket population that must be subtracted back out.
    Per (map p, bucket map t): sum over buckets of Re{S^k}.  Aggregation is
    the mean over the outer maps and the median over the bucket maps.
    """
    if k == 2:
        s_hat = 2.0 * phases[:, :, 0] - n_nodes
    else:
        real, imag, pop = np.moveaxis(phases, 2, 0)
        s_hat = (real - pop) + 1j * (imag - pop)
    per_t_p = np.real(s_hat**k).sum(axis=1)  # (s1, r1)
    per_t = per_t_p.mean(axis=1)
    return median(per_t) / float(n_nodes) ** k


@dataclass(frozen=True)
class ErrorBudget:
    """Sketch sizes: r1 outer (sign or roots-of-unity) maps, each with r2
    exponential replicas."""

    r1: int
    r2: int

    def __post_init__(self):
        if self.r1 < 1 or self.r2 < 1:
            raise ValueError("r1 and r2 must be >= 1")


def moment_scale(n_nodes: int, k: int) -> float:
    """N^k in float64, the scale of F_k / N^k; a k for which it overflows
    raises ValueError, as no scaled moment of that order can be formed."""
    try:
        return float(n_nodes) ** k
    except OverflowError:
        raise ValueError(f"N^k = {n_nodes}^{k} overflows float64; "
                         f"F_k / N^k needs a smaller k") from None


def oracle_record(d: Dataset, k: int) -> dict:
    """JSON-ready record of a dataset's exact k-th moment."""
    scale = moment_scale(d.n_nodes, k) if d.n_nodes else 0.0  # first: c^k grows with k
    exact = exact_fk(d, k)
    return {
        "dataset_digest": d.digest(),
        "k": k,
        "exact": exact,
        "exact_scaled": exact / scale if scale else 0.0,
    }
