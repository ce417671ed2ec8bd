import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netmoments.estimators import ErrorBudget
from netmoments.simulator import ExperimentConfig, _heard_sketch
from netmoments.sketch_core import (
    _CHI,
    _PHI,
    _PRIME,
    QuantConfig,
    _poly_table,
    _roots_table,
    bucket_table,
    harmonic_estimate,
    min_truncated_exp_levels,
    root_table,
    sign_table,
)

import oracles
from oracles import map_draw, min_exponential_samples


class TestMapsAgainstOracle:
    """Every table entry is its map's polynomial, evaluated in Python
    integers at its value: the sign is +1 on an even value of the degree-3
    sign polynomial, the root is e^(2 pi i h / k) for h the value of the
    degree-(2k - 1) polynomial mod k, the bucket is 1 + h mod B for h the
    value of the degree-1 bucket polynomial."""

    @pytest.mark.parametrize("seed", [0, 1234, 2**64 - 1])
    @pytest.mark.parametrize("rows, m", [(1, 1), (3, 40)])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sign_and_root_tables(self, seed, rows, m, k):
        signs, roots = sign_table(seed, rows, m), root_table(seed, rows, k, m)
        assert signs.shape == roots.shape == (rows, m)
        for i in range(1, rows + 1):
            for v in range(1, m + 1):
                sign = map_draw(seed, _PHI, 3, i, v)
                assert signs[i - 1, v - 1] == (1 if sign % 2 == 0 else -1)
                root = map_draw(seed, _PHI, 2 * k - 1, i, v)
                assert abs(roots[i - 1, v - 1] - cmath.exp(2j * math.pi * (root % k) / k)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1234, 2**64 - 1])
    @pytest.mark.parametrize("rows, m", [(1, 1), (3, 40)])
    @pytest.mark.parametrize("num_buckets", [1, 8])
    def test_bucket_table(self, seed, rows, m, num_buckets):
        buckets = bucket_table(seed, rows, num_buckets, m)
        assert buckets.shape == (rows, m)
        for t in range(1, rows + 1):
            for v in range(1, m + 1):
                draw = map_draw(seed, _CHI, 1, t, v)
                assert buckets[t - 1, v - 1] == 1 + draw % num_buckets


class TestPolynomialFamily:
    """The maps are random polynomials over a prime field: on d + 1 distinct
    values, a polynomial of degree d with uniform coefficients takes every
    tuple of values equally often."""

    @pytest.mark.parametrize("prime, degree", [(5, 1), (5, 3), (7, 1), (7, 3), (7, 5)])
    def test_exactly_independent_over_a_small_prime(self, prime, degree):
        # every coefficient tuple, lowest degree first, as one table's rows
        coef = np.array(list(itertools.product(range(prime), repeat=degree + 1)), dtype=np.uint64)
        table = _poly_table(coef, prime - 1, prime)
        for row, got in zip(coef[::97], table[::97]):
            want = [sum(int(a) * v**j for j, a in enumerate(row)) % prime for v in range(1, prime)]
            assert got.tolist() == want
        # on every set of degree + 1 distinct values, each tuple of table
        # values comes from exactly one coefficient tuple
        place = prime ** np.arange(degree + 1, dtype=np.uint64)
        subsets = list(itertools.combinations(range(prime - 1), degree + 1))
        assert subsets
        for columns in subsets:
            outcome = (table[:, list(columns)] @ place).astype(np.int64)
            counts = np.bincount(outcome, minlength=prime ** (degree + 1))
            assert np.all(counts == 1), columns

    def test_largest_coefficients_at_the_real_prime(self):
        # every coefficient at p - 1, degree 7: Horner in uint64 equals the
        # polynomial in Python integers
        top, m = _PRIME - 1, 1 << 20
        table = _poly_table(np.full((1, 8), top, dtype=np.uint64), m)
        for v in (1, 2, 12345, m - 1, m):
            assert int(table[0, v - 1]) == sum(top * v**j for j in range(8)) % _PRIME

    def test_alphabet_of_the_prime_or_more_rejected(self):
        coef = np.zeros((1, 2), dtype=np.uint64)
        with pytest.raises(ValueError, match="below the maps' prime"):
            _poly_table(coef, 7, 7)
        for m in (_PRIME, _PRIME + 1):
            with pytest.raises(ValueError, match="below the maps' prime"):
                sign_table(1, 1, m)

    def test_signs_are_balanced_and_4_wise_uncorrelated(self):
        # seeded: over 2^15 sign maps, the mean of each product of two, three
        # or four signs on distinct values is 0 within 4.5 standard errors
        maps = 1 << 15
        signs = sign_table(2012, maps, 8).astype(np.float64)
        bound = 4.5 / math.sqrt(maps)
        assert np.all(np.abs(signs.mean(axis=0)) <= bound)
        for order in (2, 3, 4):
            for columns in itertools.combinations(range(8), order):
                mean = signs[:, list(columns)].prod(axis=1).mean()
                assert abs(mean) <= bound, (columns, mean)

    def test_k3_roots_are_6_wise_uncorrelated(self):
        # a product of roots on distinct values with exponents not all 0
        # mod 3 has mean 0 when the roots are independent and uniform; the
        # product is w^s for s the exponents' dot product with the residues
        maps = 1 << 14
        angles = np.angle(root_table(2013, maps, 3, 6)) * 3 / (2 * math.pi)
        residues = (np.round(angles) % 3).astype(np.int8)
        exponents = np.array(list(itertools.product((0, 1, 2), repeat=6))[1:], dtype=np.int8).T
        s = (residues @ exponents) % 3
        means = sum((s == c).mean(axis=0) * cmath.exp(2j * math.pi * c / 3) for c in range(3))
        assert np.all(np.abs(means) <= 4.5 / math.sqrt(maps))


class TestMaps:
    def test_sign_deterministic(self):
        assert np.array_equal(sign_table(99, 2, 49), sign_table(99, 2, 49))
        # map i on value v does not depend on how many maps or values the table holds
        assert np.array_equal(sign_table(99, 2, 49), sign_table(99, 5, 80)[:2, :49])

    def test_sign_values(self):
        signs = sign_table(1234, 8, 199)
        assert signs.dtype == np.int8 and set(np.unique(signs)) <= {1, -1}

    def test_sign_fraction_near_half(self):
        m = 10**5
        plus = int((sign_table(7, 1, m) == 1).sum())
        assert abs(plus / m - 0.5) <= 3.0 / math.sqrt(m)

    def test_k2_roots_are_signs(self):
        roots = root_table(31, 4, 2, 299)
        assert np.array_equal(roots.real, sign_table(31, 4, 299))
        assert not roots.imag.any()

    def test_k4_roots_exact(self):
        roots = root_table(5, 1, 4, 199)
        seen = set(zip(roots.real.ravel().tolist(), roots.imag.ravel().tolist()))
        assert seen == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}

    def test_roots_on_unit_circle(self):
        roots = root_table(1234, 8, 3, 99)
        assert np.all(np.abs(roots.real**2 + roots.imag**2 - 1.0) < 1e-12)

    def test_k3_root_frequencies(self):
        m = 30_000
        roots = root_table(11, 1, 3, m).ravel()
        keys, counts = np.unique(np.round(roots, 9), return_counts=True)
        assert len(keys) == 3
        assert np.all(np.abs(counts / m - 1 / 3) <= 0.01)

    def test_bucket_single(self):
        assert np.all(bucket_table(3, 2, 1, 99) == 1)

    def test_bucket_deterministic_and_range(self):
        buckets = bucket_table(1234, 4, 8, 499)
        assert np.array_equal(buckets, bucket_table(1234, 4, 8, 499))
        assert buckets.min() >= 1 and buckets.max() <= 8

    def test_bucket_balance(self):
        loads = np.bincount(bucket_table(17, 1, 8, 10_000).ravel() - 1, minlength=8)
        assert loads.max() / loads.mean() <= 1.2


class StubRng:
    """A generator whose standard_exponential() returns one fixed value
    everywhere."""

    def __init__(self, value):
        self.value = value

    def standard_exponential(self, size):
        return np.full(size, self.value)


class TestQuantizedDraws:
    def test_zero_rate_rejected(self):
        # beside a positive rate: a cell no member draws is the caller's
        # sentinel, not a draw
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        with pytest.raises(ValueError, match="rates must be positive"):
            min_truncated_exp_levels(np.array([0.0, 1.0, 0.0]), 4, q, np.random.default_rng(0))

    def test_negative_rate_rejected(self):
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        with pytest.raises(ValueError, match="rates must be positive"):
            min_truncated_exp_levels(np.array([-1.0]), 4, q, np.random.default_rng(0))

    def test_midpoint_rule(self):
        # L = 8 with 3 bits gives unit cells; a raw sample of 2.3 lands in
        # cell 2 and dequantizes to the midpoint 2.5.  At rate 1 the sample
        # is the standard exponential itself; at rate 2 it is half of it
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        levels = min_truncated_exp_levels(np.array([1.0]), 1, q, StubRng(2.3))
        assert levels.tolist() == [[2]]
        assert q.dequantize(levels).tolist() == [[2.5]]
        levels = min_truncated_exp_levels(np.array([1.0, 2.0]), 1, q, StubRng(4.6))
        assert levels.tolist() == [[4], [2]]

    @pytest.mark.parametrize("draw", [0.0, 1e10, 1e300])
    @pytest.mark.parametrize("bits", [8, 19, 31, 33])
    def test_extreme_exponentials_give_finite_levels(self, draw, bits):
        # E = 0 gives level 0; a huge E, divided by a small rate, is clamped
        # to L before the cast and gives the top finite level, never the
        # sentinel, and no step may warn
        for L in (1e-3, 3.0, 60.0):
            q = QuantConfig(truncation_L=L, quant_bits=bits)
            rates = np.array([0.05, 1.0, 2.0, 40.0])
            levels = min_truncated_exp_levels(rates, 5, q, StubRng(draw))
            assert levels.dtype == q.level_dtype
            assert (levels == (0 if draw == 0.0 else q.infinity_level - 1)).all()

    def test_clamped_fraction_is_e_to_the_minus_rate_L(self):
        # analytic identity behind the default rule: P(Exp(1) > 2 ln N) = N^-2
        n = 1024
        assert math.isclose(math.exp(-2.0 * math.log(n)), n**-2, rel_tol=1e-12)
        # the kernel clamps a draw, to the top level, with probability
        # e^(-rate L): at N = 16, rate 1 and L = 2 ln 16, 1/256 of the draws
        q = QuantConfig.for_population(16)
        levels = min_truncated_exp_levels(np.ones(64), 1 << 14, q, np.random.default_rng(42))
        p, draws = 16.0**-2, levels.size
        clamped = np.mean(levels == q.infinity_level - 1)
        assert abs(clamped - p) <= 4.5 * math.sqrt(p * (1 - p) / draws)

    @pytest.mark.parametrize("rate", [0.2, 0.5, 1.0, 3.0])
    def test_mean_matches_clamped_law(self, rate):
        # E[min(Exp(rate), L)] = (1 - e^(-rate L)) / rate, within 4.5
        # standard errors; the cells are 2^-20 wide, far below that error
        q = QuantConfig(truncation_L=3.0, quant_bits=22)
        levels = min_truncated_exp_levels(np.full(100, rate), 10_000, q,
                                          np.random.default_rng(9))
        values = q.dequantize(levels)
        target = -math.expm1(-rate * q.truncation_L) / rate
        assert abs(values.mean() - target) <= 4.5 * values.std() / math.sqrt(values.size)

    def test_level_never_reaches_sentinel_for_positive_rate(self):
        q = QuantConfig(truncation_L=1.0, quant_bits=2)
        rng = np.random.default_rng(3)
        levels = min_truncated_exp_levels(np.full(4, 0.05), 500, q, rng)
        assert levels.max() < q.infinity_level

    def test_default_rule_cell_width(self):
        q = QuantConfig.for_population(500, target_mu=0.1)
        assert q.truncation_L == 2.0 * math.log(500)
        assert q.cell_width <= 0.1 / 500

    @pytest.mark.parametrize("target_mu", [0.0, 1.0, -0.1])
    def test_default_rule_rejects_target_outside_unit_interval(self, target_mu):
        with pytest.raises(ValueError, match="target_mu must lie in"):
            QuantConfig.for_population(500, target_mu=target_mu)


class TestLevelDtype:
    @pytest.mark.parametrize("bits, dtype", [(30, np.int32), (31, np.int64), (32, np.int64)])
    def test_sentinel_fits_level_arrays(self, bits, dtype):
        q = QuantConfig(truncation_L=20.0, quant_bits=bits)
        assert q.level_dtype is dtype
        assert int(np.array(q.infinity_level, dtype=dtype)) == q.infinity_level == 1 << bits
        rates = np.array([1.0, 2.0])
        levels = min_truncated_exp_levels(rates, 64, q, np.random.default_rng(bits))
        assert levels.dtype == dtype
        assert levels.max() < q.infinity_level
        z = q.dequantize(levels)
        assert np.all((z > 0) & (z < q.truncation_L))

    def test_solver_budget_above_30_bits_draws(self):
        from netmoments.simulator import solve_budget

        _, q = solve_budget(0.1, 0.1, 150000)
        assert q.quant_bits == 31
        assert int(np.array(q.infinity_level, dtype=q.level_dtype)) == 1 << 31
        levels = min_truncated_exp_levels(np.ones(1), 8, q, np.random.default_rng(0))
        assert levels.dtype == q.level_dtype and levels.max() < 1 << 31

    def test_sentinel_beyond_int64_rejected(self):
        with pytest.raises(ValueError):
            QuantConfig(truncation_L=1.0, quant_bits=63)


class TestClosedFormKernel:
    """The one-draw kernel at rate count * rate has the law of the min over
    `count` generators that each draw a clamped exponential at rate."""

    RATES = (0.05, 0.134, 0.7, 1.0, 2.0)

    @pytest.mark.parametrize("bits", [8, 19, 31, 33])
    @pytest.mark.parametrize("count", [1, 2, 9, 4000])
    def test_ks_against_member_oracle(self, bits, count):
        rows, r2 = 8, 50  # 400 oracle samples per rate
        rates = np.repeat(self.RATES, rows)
        for L in (3.0, 13.8):
            quant = QuantConfig(truncation_L=L, quant_bits=bits)
            seeds = np.random.SeedSequence((bits, count)).spawn(count + 1)
            rng = np.random.default_rng(seeds[0])
            got = min_truncated_exp_levels(count * rates, 5 * r2, quant, rng)
            want = oracles.clamped_min_levels(
                rates, r2, quant, (np.random.default_rng(s) for s in seeds[1:])
            )
            assert got.dtype == want.dtype == quant.level_dtype
            assert got.max() < quant.infinity_level
            for i, rate in enumerate(self.RATES):
                block = slice(i * rows, (i + 1) * rows)
                p = stats.ks_2samp(got[block].ravel(), want[block].ravel()).pvalue
                assert p > 1e-3, (L, rate, p)


class TestMemberOracle:
    """The clamped-member oracle: a group of generators gives the
    elementwise min of their single draws, and no generator gives the
    all-infinite grid."""

    @pytest.mark.parametrize("bits", [8, 19, 25, 31, 33])
    @pytest.mark.parametrize("n_rngs", [1, 2, 3, 4, 5])
    def test_equals_min_of_single_generator_draws(self, bits, n_rngs):
        rng = np.random.default_rng(100 * bits + n_rngs)
        for _ in range(8):
            rates = rng.uniform(0.05, 2.0, size=int(rng.integers(1, 7)))
            rates[rng.random(rates.size) < 0.3] = 0.0
            quant = QuantConfig(truncation_L=float(rng.uniform(1.0, 12.0)), quant_bits=bits)
            r2 = int(rng.integers(1, 40))
            seeds = rng.integers(2**63, size=n_rngs)
            got = oracles.clamped_min_levels(
                rates, r2, quant, (np.random.default_rng(s) for s in seeds)
            )
            singles = [
                oracles.clamped_min_levels(rates, r2, quant, [np.random.default_rng(s)])
                for s in seeds
            ]
            assert got.dtype == quant.level_dtype
            assert all(lv.dtype == quant.level_dtype for lv in singles)
            np.testing.assert_array_equal(got, np.minimum.reduce(singles))

    def test_no_generators_is_all_infinite(self):
        quant = QuantConfig(truncation_L=4.0, quant_bits=12)
        levels = oracles.clamped_min_levels([0.5, 1.0], 8, quant, iter(()))
        assert (levels == quant.infinity_level).all() and levels.shape == (2, 8)


def _ks_rows(a, b, infinity_level) -> list[float]:
    """Two-sample KS p-values of the rows of two level arrays, one per row
    that holds finite levels; a row infinite in one array must be infinite
    in the other."""
    finite = (a < infinity_level).any(axis=1)
    np.testing.assert_array_equal(finite, (b < infinity_level).any(axis=1))
    return [stats.ks_2samp(x, y).pvalue for x, y in zip(a[finite], b[finite])]


class TestMergeMin:
    """The sketch a node holds is the elementwise min over the initial
    sketches of its heard-set, drawn at each cell's total rate over its
    members with one generator.  For a given generator it is idempotent in
    its members (the heard-set is a set), free of member order, depends only on
    how many members hold each value, and has the empty heard-set (the
    all-infinite sketch, which draws nothing) as identity.  Merging by
    elementwise min over member sets that share no value draws the parts
    from generators of their own, so it gives the sketch of the union in
    distribution only: each cell row is a two-sample KS test at
    ALPHA / rows (Bonferroni), on fixed seeds."""

    Q = QuantConfig(truncation_L=4.0, quant_bits=12)
    N, M, R2 = 12, 4, 6
    ALPHA = 1e-3

    def _setup(self, seed, r2=R2):
        rng = np.random.default_rng(seed)
        values = rng.integers(1, self.M + 1, size=self.N)
        rates = rng.uniform(0.2, 2.0, size=(self.M, 3))
        rates[rng.random(rates.shape) < 0.3] = 0.0

        def heard(members, draws_seed=0):
            mask = np.zeros(self.N, dtype=bool)
            mask[np.asarray(members, dtype=np.int64)] = True
            draws = np.random.default_rng(draws_seed)
            return _heard_sketch(rates, values, r2, self.Q, draws, mask)

        return rng, values, heard

    def test_idempotent(self):
        _, _, heard = self._setup(0)
        members = [1, 4, 5, 9]
        assert np.array_equal(heard(members + members), heard(members))
        assert np.array_equal(heard(members + [4, 1]), heard(members))

    def test_identity_element(self):
        _, _, heard = self._setup(1)
        empty = heard([])
        assert (empty == self.Q.infinity_level).all() and empty.shape == (3, self.R2)
        assert empty.dtype == self.Q.level_dtype
        full = heard(range(self.N))
        assert np.array_equal(np.minimum(full, empty), full)
        draws = np.random.default_rng(7)
        state = draws.bit_generator.state
        _heard_sketch(np.ones((self.M, 3)), np.ones(self.N, dtype=np.int64), self.R2, self.Q,
                      draws, np.zeros(self.N, dtype=bool))
        assert draws.bit_generator.state == state

    def test_one_draw_per_replica_of_each_positive_cell(self):
        # a cell of positive total rate takes r2 draws, one per replica, and
        # a cell of rate 0 none: the generator ends where one that drew
        # standard_exponential((cells, r2)) ends, and each level is that
        # draw over the cell's rate summed member by member, clamped to L
        for seed in range(4):
            rng = np.random.default_rng(seed)
            values = rng.integers(1, self.M + 1, size=self.N)
            rates = rng.uniform(0.2, 2.0, size=(self.M, 5))
            rates[rng.random(rates.shape) < 0.3] = 0.0
            rates[:, 0] = 0.0
            heard = rng.random(self.N) < 0.6
            total = sum((rates[v - 1] for v in values[heard]), np.zeros(5))
            cells = total > 0
            draws, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _heard_sketch(rates, values, self.R2, self.Q, draws, heard)
            raw = twin.standard_exponential((cells.sum(), self.R2)) / total[cells, None]
            assert draws.bit_generator.state == twin.bit_generator.state
            want = np.full((5, self.R2), self.Q.infinity_level, dtype=self.Q.level_dtype)
            want[cells] = self.Q.quantize(np.minimum(raw, self.Q.truncation_L))
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.permutations(range(12)))
    def test_merge_order_free(self, seed, order):
        _, _, heard = self._setup(seed)
        assert np.array_equal(heard(order), heard(range(self.N)))

    def test_merge_grouping_free(self):
        r2 = 2000
        for seed in range(4):
            rng, values, heard = self._setup(seed, r2)
            side = rng.permutation(np.arange(self.M + 1) % 3)  # split the values, not the members
            a, b, c = (np.flatnonzero(side[values] == s) for s in range(3))
            full = heard(range(self.N), 10)
            for merged in (
                np.minimum(heard(a, 11), heard(np.concatenate([b, c]), 12)),
                np.minimum(heard(np.concatenate([a, b]), 13), heard(c, 14)),
                np.minimum.reduce([heard(a, 15), heard(b, 16), heard(c, 17)]),
            ):
                pvalues = _ks_rows(full, merged, self.Q.infinity_level)
                assert min(pvalues, default=1.0) > self.ALPHA / len(full), (seed, pvalues)

    def test_depends_only_on_counts_per_value(self):
        _, values, heard = self._setup(3)
        for v in np.unique(values):
            holders = np.flatnonzero(values == v)
            others = np.flatnonzero(values != v)
            if holders.size < 2:
                continue
            # the same number of members per value, different members
            one = np.concatenate([holders[:1], others])
            two = np.concatenate([holders[1:2], others])
            assert np.array_equal(heard(one), heard(two))


def _channel_rates(k: int, root_ids) -> np.ndarray:
    """(values, cells) rates of a root-index table as run_trial builds them:
    the sign channel (rate 1 on +1, 0 on -1) for k = 2, else the channels
    Re(root) + 1, Im(root) + 1 and 1."""
    roots = _roots_table(k)[np.asarray(root_ids)]
    if k == 2:
        return (roots.real > 0).astype(float)
    return np.concatenate([roots.real + 1.0, roots.imag + 1.0, np.ones(roots.shape)], axis=1)


class TestGroupedDrawAgainstMemberOracle:
    """_heard_sketch, one draw per cell at its total rate from one
    generator, against oracles.heard_sketch, one clamped exponential per
    member and cell, min-merged.  The r2 levels of a cell row are iid, so
    each row that holds finite levels is a two-sample Kolmogorov-Smirnov
    test at ALPHA / rows (Bonferroni: family-wise ALPHA per case), and a
    row infinite on one side must be infinite on the other.  The seeds are
    fixed, so the outcome is too.

    Each case is a root-index table (values x maps) and a member count per
    value, plus three nodes that hold values but are not heard:
    - k = 2: a map positive on every value, one on none (a zero-rate row),
      mixed maps, and one positive on the count-1 value alone;
    - k = 3: a map whose members hold only roots 1 and 2, whose Re + 1
      rates differ in the last bit, and mixed maps;
    - k = 4: zero rates from the roots -1 (real) and -i (imaginary), a map
      zero on every member in the real channel, and mixed maps."""

    ALPHA = 1e-3
    R2 = 3000
    CASES = {
        "k2": (2, [[0, 1, 0, 0], [0, 1, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1]], [1, 2, 5, 13]),
        "k3": (3, [[1, 0, 0], [2, 1, 0], [1, 2, 0], [2, 0, 0]], [1, 3, 4, 9]),
        "k4": (4, [[2, 0, 3], [2, 1, 3], [2, 2, 1], [2, 3, 0]], [2, 1, 6, 3]),
    }

    def _draw(self, name, quant, drop_value=None):
        k, root_ids, counts = self.CASES[name]
        rates = _channel_rates(k, root_ids)
        m = len(counts)
        values = np.concatenate([np.repeat(np.arange(1, m + 1), counts), [1, 2, m]])
        heard = np.arange(values.size) < sum(counts)
        case = sorted(self.CASES).index(name)
        draws = np.random.default_rng(np.random.SeedSequence((case, 0)))
        got = _heard_sketch(rates, values, self.R2, quant, draws, heard)
        if drop_value is not None:
            heard &= values != drop_value
        node_seeds = np.random.SeedSequence((case, 1)).spawn(values.size)
        want = oracles.heard_sketch(rates, values, self.R2, quant, node_seeds,
                                    np.flatnonzero(heard))
        return got, want

    @pytest.mark.parametrize("L", [3.0, 9.0])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_law_as_member_draws(self, name, L):
        quant = QuantConfig(truncation_L=L, quant_bits=16)
        got, want = self._draw(name, quant)
        assert got.dtype == want.dtype == quant.level_dtype
        pvalues = _ks_rows(got, want, quant.infinity_level)
        assert min(pvalues) > self.ALPHA / len(got), pvalues

    def test_detects_a_missing_value(self):
        # the test has power: leaving out the count-13 value from the oracle's
        # members fails it in some row
        quant = QuantConfig(truncation_L=9.0, quant_bits=16)
        got, want = self._draw("k2", quant, drop_value=4)
        pvalues = _ks_rows(got, want, quant.infinity_level)
        assert min(pvalues) < self.ALPHA / len(got)


@pytest.mark.slow
class TestHeardSketchAgainstOracle:
    """Harmonic estimates read off _heard_sketch, one draw generator per
    sketch, against the node-by-node clamped-member oracle, over 300
    seeds."""

    N, M, SEEDS = 60, 6, 300

    def _compare(self, rates_by_value, r2):
        quant = QuantConfig.for_population(self.N)
        rng = np.random.default_rng(1210)
        values = rng.integers(1, self.M + 1, size=self.N)
        heard = rng.random(self.N) < 0.8
        got, want = [], []
        for seed in range(self.SEEDS):
            draws = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            node_seeds = np.random.SeedSequence((seed, 1)).spawn(self.N)
            got.append(harmonic_estimate(
                _heard_sketch(rates_by_value, values, r2, quant, draws, heard), quant
            ))
            want.append(harmonic_estimate(
                oracles.heard_sketch(
                    rates_by_value, values, r2, quant, node_seeds, np.flatnonzero(heard)
                ),
                quant,
            ))
        got, want = np.ravel(got), np.ravel(want)
        se = math.sqrt((got.var() + want.var()) / got.size)
        assert abs(got.mean() - want.mean()) < 4 * se
        assert stats.ks_2samp(got, want).pvalue > 1e-3

    def test_k2_sign_table(self):
        self._compare((sign_table(5, 4, self.M).T > 0).astype(float), 16)

    def test_k3_root_table(self):
        roots = root_table(6, 4, 3, self.M).T
        rates = np.concatenate(
            [np.real(roots) + 1.0, np.imag(roots) + 1.0, np.ones(roots.shape)], axis=1
        )
        self._compare(rates, 16)


class TestHarmonic:
    Q = QuantConfig(truncation_L=8.0, quant_bits=3)  # unit cells

    def test_direct_formula(self):
        assert harmonic_estimate(np.zeros(4, dtype=np.int32), self.Q) == 2.0

    def test_all_infinite_is_zero(self):
        assert harmonic_estimate(np.full(8, self.Q.infinity_level), self.Q) == 0.0

    def test_partial_infinite_is_zero(self):
        assert harmonic_estimate(np.array([0, self.Q.infinity_level]), self.Q) == 0.0

    @pytest.mark.parametrize("bits", [8, 19, 31, 33])
    @pytest.mark.parametrize("shape", [(7,), (5, 9), (3, 4, 11)])
    def test_matches_scalar_oracle(self, bits, shape):
        # each row reduced one Python float at a time, bit for bit
        q = QuantConfig(truncation_L=11.0, quant_bits=bits)
        rng = np.random.default_rng(bits * 100 + len(shape))
        for _ in range(20):
            levels = rng.integers(0, q.infinity_level, size=shape).astype(q.level_dtype)
            rows = levels.reshape(-1, shape[-1])
            rows[rng.random(rows.shape) < 0.05] = q.infinity_level  # sentinel entries
            rows[rng.random(rows.shape[0]) < 0.2] = q.infinity_level  # all-sentinel rows
            got = np.asarray(harmonic_estimate(levels, q))
            want = np.array([oracles.harmonic_estimate(q.dequantize(row)) for row in rows])
            assert got.shape == shape[:-1]
            np.testing.assert_array_equal(got.view(np.uint64), want.reshape(got.shape).view(np.uint64))

    def test_monte_carlo_accuracy(self):
        # minima over a 100-strong population, 512 replicas: within 10% of
        # the truth in at least 95% of trials
        rng = np.random.default_rng(7)
        n_plus, r2, trials = 100, 512, 400
        q = QuantConfig.for_population(1000)
        mins = np.array(
            [rng.exponential(1.0, size=(r2, n_plus)).min(axis=1) for _ in range(trials)]
        )
        estimates = harmonic_estimate(q.quantize(mins), q)
        assert estimates.shape == (trials,)
        assert np.mean(np.abs(estimates - n_plus) <= 0.1 * n_plus) >= 0.95

    def test_quantized_vs_unquantized_relative_error(self):
        # quantization under the default resolution rule shifts the harmonic
        # estimate by at most target_mu in relative terms
        for n_plus, mu, seed in [(50, 0.05, 0), (500, 0.05, 1), (200, 0.02, 2)]:
            q = QuantConfig.for_population(1000, target_mu=mu)
            rng = np.random.default_rng(seed)
            raw = rng.exponential(1.0 / n_plus, size=256)
            raw = np.minimum(raw, q.truncation_L - 1e-12)
            a = oracles.harmonic_estimate(raw)
            b = harmonic_estimate(q.quantize(raw), q)
            assert abs(a - b) / a <= mu


class TestQuantize:
    @pytest.mark.parametrize("bits, dtype", [(3, np.int32), (30, np.int32), (31, np.int64)])
    def test_cell_edges(self, bits, dtype):
        q = QuantConfig(truncation_L=8.0, quant_bits=bits)
        cells = np.array([0, 1, 2, 5, q.infinity_level - 1])
        edges = cells * q.cell_width  # exact: the cell width is a power of two
        levels = q.quantize(edges)
        assert levels.dtype == dtype
        np.testing.assert_array_equal(levels, cells)
        inside = q.quantize(np.nextafter(edges[1:], 0.0))
        np.testing.assert_array_equal(inside, cells[1:] - 1)

    @pytest.mark.parametrize("bits", [8, 19, 31, 33])
    def test_just_below_L_clamps_to_top_cell(self, bits):
        q = QuantConfig.for_population(1000)
        q = QuantConfig(truncation_L=q.truncation_L, quant_bits=bits)
        top = q.infinity_level - 1
        near = np.array([q.truncation_L, np.nextafter(q.truncation_L, 0.0)])
        levels = q.quantize(near)
        assert levels.dtype == q.level_dtype
        np.testing.assert_array_equal(levels, [top, top])


class TestMinExponentialLaw:
    def test_ks_against_rate_sum(self):
        rng = np.random.default_rng(2024)
        samples = min_exponential_samples([1.0, 2.0, 3.5], 100_000, rng)
        stat = stats.kstest(samples, stats.expon(scale=1 / 6.5).cdf).statistic
        critical_1pct = 1.628 / math.sqrt(samples.size)
        assert stat < critical_1pct


class TestWireWidth:
    def test_sketch_message_bits(self):
        # a message carries channels * r1 * r2 entries of quant_bits + 1 bits:
        # one sign channel for k = 2, real/imaginary/population for k >= 3
        budget = ErrorBudget(r1=2, r2=3)
        quant = QuantConfig(truncation_L=8.0, quant_bits=4)
        for k, channels in ((2, 1), (3, 3)):
            cfg = ExperimentConfig(
                n_nodes=10, alphabet_size=4, k=k, data="uniform",
                budget=budget, quant=quant, num_buckets=2,
            )
            assert cfg.channels == channels
            assert cfg.message_bits == channels * 2 * 3 * (4 + 1)
