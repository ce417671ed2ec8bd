"""Shared-randomness maps and truncated, quantized exponential draws.

Every node derives the same map values from a common seed by keyed
hashing, so "shared global randomness" costs no per-node storage; a trial
reads each map family as one (maps, alphabet) table.  Sketch
entries are exponential variables truncated to [0, L] and uniformly
quantized to integer levels; the level 2^quant_bits, one above every finite
level, is the infinity sentinel.  A sketch is a plain integer level array.
The sketch a node holds after spreading is the elementwise min over the
initial sketches of its heard-set.  A member's rate in a cell depends only on
its value, and the min of c iid truncated Exp(rate) draws has a closed-form
inverse CDF, so min_truncated_exp_levels draws each cell's min directly from
the count of members at each rate, with one count per row.
harmonic_estimate reads population estimates off the last axis of a sketch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

_PHI_DOMAIN = b"phi"  # sign maps and roots-of-unity maps share one draw per (index, value)
_CHI_DOMAIN = b"chi"  # bucket maps

_SNAP_EPS = 1e-15


def _map_draws(seed: int, domain: bytes, rows: int, alphabet_size: int) -> np.ndarray:
    """(rows, M) uniform 64-bit draws of one map family: entry [i - 1, v - 1]
    is the 8-byte blake2b digest, keyed by the 8-byte seed, of domain, then
    i in 4 bytes, then v in 8 bytes (all big-endian).  Map i is thus a pure
    function of (seed, domain, i, v).  The keyed state is built once and
    copied per row and per value."""
    keyed = blake2b(digest_size=8, key=seed.to_bytes(8, "big"))
    values = [v.to_bytes(8, "big") for v in range(1, alphabet_size + 1)]
    digests = bytearray()
    for i in range(1, rows + 1):
        row = keyed.copy()
        row.update(domain + i.to_bytes(4, "big"))
        for v in values:
            h = row.copy()
            h.update(v)
            digests += h.digest()
    return np.frombuffer(digests, dtype=">u8").reshape(rows, alphabet_size)


def _roots_table(k: int) -> np.ndarray:
    # Snap near-zero / near-unit coordinates so that e.g. the k-even root -1
    # yields an exactly-zero rate (alpha + 1 == 0) downstream.
    roots = []
    for ell in range(k):
        angle = 2.0 * math.pi * ell / k
        re, im = math.cos(angle), math.sin(angle)
        if abs(re) < _SNAP_EPS:
            re = 0.0
        elif abs(abs(re) - 1.0) < _SNAP_EPS:
            re = math.copysign(1.0, re)
        if abs(im) < _SNAP_EPS:
            im = 0.0
        elif abs(abs(im) - 1.0) < _SNAP_EPS:
            im = math.copysign(1.0, im)
        roots.append(complex(re, im))
    return np.array(roots)


def sign_table(seed: int, r1: int, alphabet_size: int) -> np.ndarray:
    """(r1, M) int8 table of the r1 sign maps: +1 where the draw is even."""
    draws = _map_draws(seed, _PHI_DOMAIN, r1, alphabet_size)
    return np.where(draws % 2 == 0, np.int8(1), np.int8(-1))


def root_table(seed: int, r1: int, k: int, alphabet_size: int) -> np.ndarray:
    """(r1, M) complex table of the r1 roots-of-unity maps: a uniform k-th
    root of unity.  It shares its draws with sign_table, so for k = 2 the
    roots are the signs."""
    return _roots_table(k)[_map_draws(seed, _PHI_DOMAIN, r1, alphabet_size) % k]


def bucket_table(seed: int, s1: int, num_buckets: int, alphabet_size: int) -> np.ndarray:
    """(s1, M) int32 table of the s1 bucket maps: a uniform bucket in
    [1, num_buckets]."""
    draws = _map_draws(seed, _CHI_DOMAIN, s1, alphabet_size)
    return (1 + draws % num_buckets).astype(np.int32)


@dataclass(frozen=True)
class QuantConfig:
    """Truncation length and quantizer resolution."""

    truncation_L: float
    quant_bits: int

    def __post_init__(self):
        if not (self.truncation_L > 0):
            raise ValueError("truncation_L must be positive")
        if not (1 <= self.quant_bits <= 62):
            raise ValueError("quant_bits must lie in [1, 62] (the sentinel must fit int64)")

    @classmethod
    def for_population(cls, n_nodes: int, target_mu: float = 0.05) -> "QuantConfig":
        """Default rule: L = 2 ln n and a cell width of at most target_mu / n,
        so minima of order 1/n carry relative quantization error <= target_mu."""
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not (0.0 < target_mu < 1.0):
            raise ValueError("target_mu must lie in (0, 1)")
        L = 2.0 * math.log(n_nodes)
        bits = math.ceil(math.log2(L * n_nodes / target_mu))
        return cls(truncation_L=L, quant_bits=bits)

    @property
    def cell_width(self) -> float:
        return self.truncation_L / (1 << self.quant_bits)

    @property
    def infinity_level(self) -> int:
        return 1 << self.quant_bits

    @property
    def level_dtype(self) -> type:
        """Narrowest integer type holding the sentinel 2^quant_bits."""
        return np.int32 if self.quant_bits <= 30 else np.int64

    @property
    def bits_per_entry(self) -> int:
        # finite levels plus the sentinel need one extra bit on the wire
        return self.quant_bits + 1

    def quantize(self, raw) -> np.ndarray:
        """Cell indices of raw values in [0, L], as level_dtype: the floor of
        raw / cell_width, clamped below the sentinel so that L itself (or a
        value that rounds up to it) stays finite.  Works elementwise."""
        levels = np.empty(np.shape(raw), dtype=self.level_dtype)
        # cast in buffered chunks: no float temporary the size of raw
        np.divide(raw, self.cell_width, out=levels, casting="unsafe")
        np.minimum(levels, self.infinity_level - 1, out=levels)
        return levels

    def dequantize(self, levels):
        """Cell midpoints; the sentinel level maps to +inf.  Works elementwise,
        in one float buffer."""
        arr = np.asarray(levels)
        out = np.add(arr, 0.5, out=np.empty(arr.shape))
        out *= self.cell_width
        out[arr >= self.infinity_level] = np.inf
        return out


def min_truncated_exp_levels(
    rates: np.ndarray, counts: np.ndarray, r2: int, quant: QuantConfig, rng: np.random.Generator
) -> np.ndarray:
    """One row of r2 levels per rate entry: the min of counts[i] iid
    Exp(rates[i]) draws truncated to [0, L], drawn in one step and quantized
    once.  counts holds one count, at least 1, per rate entry.

    The min of c such draws has the inverse CDF
    x = -ln(e^(-rate L) + (1 - e^(-rate L)) u^(1/c)) / rate, for u uniform on
    (0, 1]; it is evaluated in one float buffer, one uniform per positive
    entry and replica, in the cancellation-free form
    -log1p(expm1(-rate L) * -expm1(ln(u) / c)) / rate.  A zero rate encodes
    "no member contributes" and yields the infinity sentinel directly,
    whatever its count.
    """
    rates = np.asarray(rates, dtype=float)
    counts = np.asarray(counts)
    if counts.shape != rates.shape:
        raise ValueError(f"counts of shape {counts.shape} do not match rates of {rates.shape}")
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    if np.any(counts < 1):
        raise ValueError("counts must be >= 1")
    pos = rates > 0
    lam = rates[pos][:, None]
    x = rng.random((lam.size, r2))
    np.subtract(1.0, x, out=x)  # u in (0, 1], so ln(u) is finite
    np.log(x, out=x)
    x /= counts[pos][:, None]
    np.expm1(x, out=x)
    x *= -np.expm1(-lam * quant.truncation_L)
    np.log1p(x, out=x)
    x /= -lam
    levels = quant.quantize(x)
    del x  # the float buffer is freed before the sentinel-filled array exists
    out = np.full((rates.size, r2), quant.infinity_level, dtype=quant.level_dtype)
    out[pos] = levels
    return out


def harmonic_estimate(levels, quant: QuantConfig) -> np.ndarray:
    """Population estimates r2 / sum(row) over the last axis of a level
    array, one per replica row of r2 dequantized values.

    Any sentinel in a row (in particular an all-infinite row, meaning no
    node contributed) drives its sum to infinity and its estimate to 0.
    """
    values = quant.dequantize(levels)
    with np.errstate(divide="ignore"):
        return values.shape[-1] / values.sum(axis=-1)
