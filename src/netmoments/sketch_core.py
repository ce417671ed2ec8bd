"""Shared-randomness maps and clamped, quantized exponential draws.

Every node derives the same map values from a short common seed: map i of a
family is a random polynomial of degree d over the prime field of
p = 2^31 - 1, so its values on any d + 1 distinct alphabet values are
independent and uniform on [0, p) (Wegman and Carter, JCSS 1981).  The
seed fixes the coefficients, d + 1 values below p per map, so "shared global
randomness" is (d + 1) * 31 bits a map and no per-node storage.  A trial
reads each family as one (maps, alphabet) table, evaluated by Horner's rule
in numpy.  The degrees follow the moments each estimator reads:
- sign maps, degree 3: the AMS F_2 estimator's variance reads products of
  four signs on distinct values (Alon, Matias and Szegedy, STOC 1996), so
  4-wise independence suffices;
- roots-of-unity maps of order k, degree 2k - 1: the k-th power of a root
  sum has its mean in k-fold and its variance in 2k-fold products of roots.
  At k = 2 that is degree 3, and the roots are the signs;
- bucket maps, degree 1: a bucket's load reads only whether two values share
  a bucket, which pairwise independence makes 1/B.
A sign is +1 on an even value, a root is e^(2 pi i h / k) for h the value
mod k, and a bucket is 1 + the value mod B.  Their laws are off uniform by
at most 1/(2p) for the parity and k/p for a residue mod k.

Sketch entries are exponential variables clamped to [0, L], min(Exp(rate),
L), and uniformly quantized to integer levels; the level 2^quant_bits, one
above every finite level, is the infinity sentinel.  A sketch is a plain
integer level array.  The sketch a node holds after spreading is the
elementwise min over the initial sketches of its heard-set.  The min of
independent clamped draws at rates rate_i is a clamped draw at their sum, and
the floor of the quantizer is monotone, so it commutes with that min:
min_truncated_exp_levels draws each cell's min directly, one exponential per
cell at the cell's total rate.
harmonic_estimate reads population estimates off the last axis of a sketch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_PRIME = (1 << 31) - 1  # the maps' field; a product of two values below it is below 2^62
_PHI, _CHI = 0, 1  # map families: sign and roots-of-unity maps; bucket maps
_SIGN_DEGREE = 3
_BUCKET_DEGREE = 1

_SNAP_EPS = 1e-15


def _poly_table(coef: np.ndarray, alphabet_size: int, prime: int = _PRIME) -> np.ndarray:
    """(rows, M) uint64 table of the polynomials whose coefficients, lowest
    degree first and each below prime, are coef's rows: entry [i, v - 1] is
    sum_j coef[i, j] v^j mod prime, by Horner's rule with one reduction a
    step.  prime is at most 2^31 - 1, so no step leaves uint64.  The values
    1..M must be distinct mod prime, so M >= prime raises ValueError."""
    if alphabet_size >= prime:
        raise ValueError(f"alphabet size {alphabet_size} must be below the maps' prime {prime}")
    values = np.arange(1, alphabet_size + 1, dtype=np.uint64)
    table = np.empty((len(coef), alphabet_size), dtype=np.uint64)
    table[:] = coef[:, -1:]
    for j in range(coef.shape[1] - 2, -1, -1):
        table *= values
        table += coef[:, j : j + 1]
        table %= np.uint64(prime)
    return table


def _map_draws(seed: int, family: int, degree: int, rows: int, alphabet_size: int) -> np.ndarray:
    """(rows, M) uint64 values, uniform on [0, _PRIME), of the first rows maps
    of a family at a degree: map i's coefficients are row i of one
    generator's draws, keyed by (seed, family, degree) and made row by row,
    so map i on value v depends only on (seed, family, degree, i, v)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, family, degree)))
    # drawn as int64, as the spreads draw: a uint64 draw gives the same values
    # but first touches about 0.5 MB more of numpy's code
    coef = rng.integers(0, _PRIME, size=(rows, degree + 1)).astype(np.uint64)
    return _poly_table(coef, alphabet_size)


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
    """(r1, M) int8 table of the r1 sign maps, 4-wise independent: +1 where
    the map's degree-3 polynomial is even."""
    parity = _map_draws(seed, _PHI, _SIGN_DEGREE, r1, alphabet_size) & 1
    return 1 - 2 * parity.astype(np.int8)


def root_table(seed: int, r1: int, k: int, alphabet_size: int) -> np.ndarray:
    """(r1, M) complex table of the r1 roots-of-unity maps, 2k-wise
    independent: a uniform k-th root of unity from a polynomial of degree
    2k - 1.  For k = 2 that is sign_table's polynomial, so the roots are the
    signs."""
    return _roots_table(k)[_map_draws(seed, _PHI, 2 * k - 1, r1, alphabet_size) % k]


def bucket_table(seed: int, s1: int, num_buckets: int, alphabet_size: int) -> np.ndarray:
    """(s1, M) int32 table of the s1 bucket maps, pairwise independent: a
    uniform bucket in [1, num_buckets]."""
    draws = _map_draws(seed, _CHI, _BUCKET_DEGREE, s1, alphabet_size)
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
    def for_population(
        cls, n_nodes: int, target_mu: float = 0.05,
        truncation_L: float | None = None, quant_bits: int | None = None,
    ) -> "QuantConfig":
        """Default rule for the parts not given: L = max(2 ln n,
        ln(1/target_mu)), so that a rate-1 draw is clamped with probability
        e^(-L) <= target_mu, and a cell width of at most target_mu / n at
        that L, so minima of order 1/n carry relative quantization error <=
        target_mu.  A target_mu so small that a part the rule gives leaves
        range (an infinite L, or more than 62 bits) raises OverflowError; a
        given part is checked as the constructor checks it."""
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if not (0.0 < target_mu < 1.0):
            raise ValueError("target_mu must lie in (0, 1)")
        L = max(2.0 * math.log(n_nodes), math.log(1.0 / target_mu))
        if truncation_L is None:
            if math.isinf(L):
                raise OverflowError(f"the rule's L = ln(1/{target_mu}) is past float range")
            truncation_L = L
        if quant_bits is None:
            # ceil raises OverflowError itself where the quotient is infinite
            quant_bits = math.ceil(math.log2(L * n_nodes / target_mu))
            if quant_bits > 62:
                raise OverflowError(f"the rule's {quant_bits} quantizer bits are past 62")
        return cls(truncation_L=truncation_L, quant_bits=quant_bits)

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
    rates: np.ndarray, r2: int, quant: QuantConfig, rng: np.random.Generator
) -> np.ndarray:
    """One row of r2 levels per rate entry, each min(Exp(rate), L) quantized:
    one standard exponential per entry and replica, drawn in one call,
    divided by its rate and clamped to L before the cast, so no level
    overflows.  rates are positive; a cell at the total rate of its members
    gets the min of their clamped draws."""
    rates = np.asarray(rates, dtype=float)
    if not np.all(rates > 0):
        raise ValueError("rates must be positive")
    x = rng.standard_exponential((rates.size, r2))
    x /= rates[:, None]
    np.minimum(x, quant.truncation_L, out=x)
    return quant.quantize(x)


def harmonic_estimate(levels, quant: QuantConfig) -> np.ndarray:
    """Population estimates r2 / sum(row) over the last axis of a level
    array, one per replica row of r2 dequantized values.

    Any sentinel in a row (in particular an all-infinite row, meaning no
    node contributed) drives its sum to infinity and its estimate to 0.
    """
    values = quant.dequantize(levels)
    with np.errstate(divide="ignore"):
        return values.shape[-1] / values.sum(axis=-1)
