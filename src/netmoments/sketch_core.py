"""Shared-randomness maps and truncated, quantized exponential draws.

Every node derives the same map values from a common master seed (keyed
hashing), so "shared global randomness" costs no per-node storage.  Sketch
entries are exponential variables truncated to [0, L] and uniformly
quantized to integer levels; the level 2^quant_bits, one above every finite
level, is the infinity sentinel.  A sketch is a plain integer level array.
The sketch a node holds after spreading is the elementwise min over the
initial sketches of its heard-set, and the min of c iid truncated Exp(rate)
draws has a closed-form inverse CDF, so min_truncated_exp_levels draws it
directly from the count of members per value.  harmonic_estimate reads
population estimates off the last axis of a sketch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b

import numpy as np

_PHI_DOMAIN = b"phi"  # sign maps and roots-of-unity maps share one draw per (index, value)
_CHI_DOMAIN = b"chi"  # bucket maps

_SNAP_EPS = 1e-15


@dataclass(frozen=True)
class SharedRandomness:
    """Seeds for the global map families: r1 outer maps, r2 replicas each,
    plus s1 bucket maps into num_buckets buckets."""

    master_seed: int
    r1: int
    r2: int
    k: int = 2
    num_buckets: int = 1
    s1: int = 1

    def __post_init__(self):
        if not (0 <= self.master_seed < 2**64):
            raise ValueError("master_seed must fit in 64 bits")
        if min(self.r1, self.r2, self.s1) < 1:
            raise ValueError("r1, r2 and s1 must all be >= 1")
        if self.k < 2:
            raise ValueError("moment order k must be >= 2")
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")

    @property
    def _key(self) -> bytes:
        return self.master_seed.to_bytes(8, "big")


def _map_draw(rand: SharedRandomness, domain: bytes, index: int, value: int) -> int:
    """Uniform 64-bit draw, a pure function of (master_seed, domain, index, value)."""
    msg = domain + index.to_bytes(4, "big") + int(value).to_bytes(8, "big")
    return int.from_bytes(blake2b(msg, digest_size=8, key=rand._key).digest(), "big")


def _check_index(index: int, limit: int, what: str) -> None:
    if not (1 <= index <= limit):
        raise ValueError(f"{what} {index} out of range [1, {limit}]")


def sign_map_eval(rand: SharedRandomness, map_index: int, value: int) -> int:
    """Evaluate the map_index-th sign map on an alphabet value, returning +1 or -1.

    Shares its underlying draw with root_map_eval so that the k=2 root map
    and the sign map agree on every value.
    """
    _check_index(map_index, rand.r1, "map_index")
    return 1 if _map_draw(rand, _PHI_DOMAIN, map_index, value) % 2 == 0 else -1


@lru_cache(maxsize=64)
def _roots_table(k: int) -> tuple[complex, ...]:
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
    return tuple(roots)


def root_map_eval(rand: SharedRandomness, map_index: int, value: int) -> complex:
    """Evaluate the map_index-th roots-of-unity map: a uniform k-th root of unity."""
    _check_index(map_index, rand.r1, "map_index")
    ell = _map_draw(rand, _PHI_DOMAIN, map_index, value) % rand.k
    return _roots_table(rand.k)[ell]


def bucket_map_eval(rand: SharedRandomness, bucket_map_index: int, value: int) -> int:
    """Evaluate the bucket_map_index-th bucket map: a uniform bucket in [1, num_buckets]."""
    _check_index(bucket_map_index, rand.s1, "bucket_map_index")
    return 1 + _map_draw(rand, _CHI_DOMAIN, bucket_map_index, value) % rand.num_buckets


@lru_cache(maxsize=32)
def sign_table(rand: SharedRandomness, alphabet_size: int) -> np.ndarray:
    """(r1, M) table of sign_map_eval over the whole alphabet."""
    tbl = np.empty((rand.r1, alphabet_size), dtype=np.int8)
    for i in range(1, rand.r1 + 1):
        for v in range(1, alphabet_size + 1):
            tbl[i - 1, v - 1] = sign_map_eval(rand, i, v)
    tbl.setflags(write=False)
    return tbl


@lru_cache(maxsize=32)
def root_table(rand: SharedRandomness, alphabet_size: int) -> np.ndarray:
    """(r1, M) complex table of root_map_eval over the whole alphabet."""
    tbl = np.empty((rand.r1, alphabet_size), dtype=np.complex128)
    for i in range(1, rand.r1 + 1):
        for v in range(1, alphabet_size + 1):
            tbl[i - 1, v - 1] = root_map_eval(rand, i, v)
    tbl.setflags(write=False)
    return tbl


@lru_cache(maxsize=32)
def bucket_table(rand: SharedRandomness, alphabet_size: int) -> np.ndarray:
    """(s1, M) table of bucket_map_eval over the whole alphabet."""
    tbl = np.empty((rand.s1, alphabet_size), dtype=np.int32)
    for t in range(1, rand.s1 + 1):
        for v in range(1, alphabet_size + 1):
            tbl[t - 1, v - 1] = bucket_map_eval(rand, t, v)
    tbl.setflags(write=False)
    return tbl


@dataclass(frozen=True)
class QuantConfig:
    """Truncation length, quantizer resolution, and the relative-error target
    the default resolution rule is derived from."""

    truncation_L: float
    quant_bits: int
    target_mu: float = 0.05

    def __post_init__(self):
        if not (self.truncation_L > 0):
            raise ValueError("truncation_L must be positive")
        if not (1 <= self.quant_bits <= 62):
            raise ValueError("quant_bits must lie in [1, 62] (the sentinel must fit int64)")
        if not (0.0 < self.target_mu < 1.0):
            raise ValueError("target_mu must lie in (0, 1)")

    @classmethod
    def for_population(cls, n_nodes: int, target_mu: float = 0.05) -> "QuantConfig":
        """Default rule: L = 2 ln n and a cell width of at most target_mu / n,
        so minima of order 1/n carry relative quantization error <= target_mu."""
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        L = 2.0 * math.log(n_nodes)
        bits = math.ceil(math.log2(L * n_nodes / target_mu))
        return cls(truncation_L=L, quant_bits=bits, target_mu=target_mu)

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
        """Cell midpoints; the sentinel level maps to +inf.  Works elementwise."""
        arr = np.asarray(levels)
        out = (arr + 0.5) * self.cell_width
        return np.where(arr >= self.infinity_level, np.inf, out)


def min_truncated_exp_levels(
    rates: np.ndarray, count: int, r2: int, quant: QuantConfig, rng: np.random.Generator
) -> np.ndarray:
    """One row of r2 levels per rate entry: the min of `count` iid Exp(rate)
    draws truncated to [0, L], drawn in one step and quantized once.

    The min of c such draws has the inverse CDF
    x = -ln(e^(-rate L) + (1 - e^(-rate L)) u^(1/c)) / rate, for u uniform on
    (0, 1]; it is evaluated in one float buffer, one uniform per positive
    entry and replica, in the cancellation-free form
    -log1p(expm1(-rate L) * -expm1(ln(u) / c)) / rate.  A zero rate encodes
    "no member contributes" and yields the infinity sentinel directly.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    if count < 1:
        raise ValueError("count must be >= 1")
    pos = rates > 0
    lam = rates[pos][:, None]
    x = rng.random((lam.size, r2))
    np.subtract(1.0, x, out=x)  # u in (0, 1], so ln(u) is finite
    np.log(x, out=x)
    x /= count
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
