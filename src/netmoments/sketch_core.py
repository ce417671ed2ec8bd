"""Shared-randomness maps, truncated/quantized exponential draws, and min-sketch state.

Every node derives the same map values from a common master seed (keyed
hashing), so "shared global randomness" costs no per-node storage.  Sketch
entries are exponential variables truncated by resampling and uniformly
quantized to integer levels; the level 2^quant_bits, one above every finite
level, is the infinity sentinel, so elementwise integer minimum is the merge
operation.  Because that merge is a semilattice, the sketch a node holds
after spreading is the min over the initial sketches of its heard-set, and
the simulator computes it as one min-reduce instead of merging per message.
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


class ShapeMismatchError(ValueError):
    """Merging sketch state with incompatible dimensions, channel, or quantizer."""


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

    def quantize(self, value: float) -> int:
        """Floor a raw value in [0, L] to its cell index."""
        return min(int(value / self.cell_width), self.infinity_level - 1)

    def dequantize(self, levels):
        """Cell midpoints; the sentinel level maps to +inf.  Works elementwise."""
        arr = np.asarray(levels)
        out = (arr + 0.5) * self.cell_width
        return np.where(arr >= self.infinity_level, np.inf, out)


def truncated_exp_levels(
    rates: np.ndarray, r2: int, quant: QuantConfig, rng: np.random.Generator
) -> np.ndarray:
    """One row of r2 levels per rate entry: Exp(rate) draws conditioned on
    being <= L (by resampling), then quantized.  A zero rate encodes "this
    node contributes nothing" and yields the infinity sentinel directly."""
    return min_truncated_exp_levels(rates, r2, quant, (rng,))


def min_truncated_exp_levels(rates: np.ndarray, r2: int, quant: QuantConfig, rngs) -> np.ndarray:
    """Elementwise min of truncated_exp_levels(rates, r2, quant, rng) over the
    generators in rngs, drawn once per generator and quantized once.

    Each generator draws r2 Exp(rate) values per positive rate and redraws,
    in row-major order, only the entries still above L.  The raw
    values are min-reduced in float before quantizing, which gives the same
    levels because quantizing is monotone.  Zero-rate rows, and every row
    when rngs is empty, hold the infinity sentinel.
    """
    rates = np.asarray(rates, dtype=float)
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    pos = rates > 0
    scales = 1.0 / rates[pos]
    acc = z = None
    for rng in rngs:
        # in place, but the same values as Exp(1) draws times the scale
        z = rng.standard_exponential(size=(scales.size, r2), out=z)
        z *= scales[:, None]
        over = np.flatnonzero(z > quant.truncation_L)
        while over.size:
            redraw = rng.standard_exponential(size=over.size)
            redraw *= scales[over // r2]
            np.put(z, over, redraw)
            over = over[redraw > quant.truncation_L]
        if acc is None:
            acc, z = z, None
        else:
            np.minimum(acc, z, out=acc)
    z = None  # the draw buffer is freed before the level arrays exist
    out = np.full((rates.size, r2), quant.infinity_level, dtype=quant.level_dtype)
    if acc is not None:
        acc /= quant.cell_width
        levels = acc.astype(quant.level_dtype)
        np.minimum(levels, quant.infinity_level - 1, out=levels)
        out[pos] = levels
    return out


@dataclass
class SketchVector:
    """An (r1, r2) grid of quantized-exponential levels for one logical channel."""

    levels: np.ndarray
    channel_tag: str
    quant: QuantConfig

    def __post_init__(self):
        self.levels = np.asarray(self.levels)
        if self.levels.ndim != 2:
            raise ShapeMismatchError("levels must be a 2-d (r1, r2) grid")
        if not np.issubdtype(self.levels.dtype, np.integer):
            raise ShapeMismatchError("levels must be integer cell indices")

    @classmethod
    def all_infinite(cls, r1: int, r2: int, channel_tag: str, quant: QuantConfig) -> "SketchVector":
        return cls(
            np.full((r1, r2), quant.infinity_level, dtype=quant.level_dtype), channel_tag, quant
        )

    @property
    def r1(self) -> int:
        return self.levels.shape[0]

    @property
    def r2(self) -> int:
        return self.levels.shape[1]

    @property
    def wire_bits(self) -> int:
        return self.levels.size * self.quant.bits_per_entry

    def row_values(self, map_index: int) -> np.ndarray:
        """Dequantized replica row for one outer map (1-indexed)."""
        _check_index(map_index, self.r1, "map_index")
        return self.quant.dequantize(self.levels[map_index - 1])

    def copy(self) -> "SketchVector":
        return SketchVector(self.levels.copy(), self.channel_tag, self.quant)


def merge_min(a: SketchVector, b: SketchVector) -> SketchVector:
    """Elementwise minimum.  The sentinel is the top level, so it absorbs."""
    if a.levels.shape != b.levels.shape:
        raise ShapeMismatchError(
            f"cannot merge grids of shapes {a.levels.shape} and {b.levels.shape}"
        )
    if a.channel_tag != b.channel_tag:
        raise ShapeMismatchError(
            f"cannot merge channels {a.channel_tag!r} and {b.channel_tag!r}"
        )
    if a.quant != b.quant:
        raise ShapeMismatchError("cannot merge grids with different quantizers")
    return SketchVector(np.minimum(a.levels, b.levels), a.channel_tag, a.quant)


def harmonic_estimate(row) -> float:
    """Population estimate r2 / sum(row) from one replica row of dequantized values.

    Any infinity in the row (in particular an all-infinite row, meaning no
    node contributed) drives the sum to infinity and the estimate to 0.
    """
    arr = np.asarray(row, dtype=float)
    total = float(arr.sum())
    if not math.isfinite(total):
        return 0.0
    if total <= 0.0:
        return math.inf
    return arr.size / total
