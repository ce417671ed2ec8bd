import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netmoments.estimators import ErrorBudget
from netmoments.simulator import ExperimentConfig, _heard_sketch
from netmoments.sketch_core import (
    QuantConfig,
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
    """Every table entry is the one-call keyed-hash draw of its (map, value):
    the sign is +1 on an even draw, the root is e^(2 pi i draw / k), the
    bucket is 1 + draw mod B."""

    @pytest.mark.parametrize("seed", [0, 1234, 2**64 - 1])
    @pytest.mark.parametrize("rows, m", [(1, 1), (3, 40)])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sign_and_root_tables(self, seed, rows, m, k):
        signs, roots = sign_table(seed, rows, m), root_table(seed, rows, k, m)
        assert signs.shape == roots.shape == (rows, m)
        for i in range(1, rows + 1):
            for v in range(1, m + 1):
                draw = map_draw(seed, b"phi", i, v)
                assert signs[i - 1, v - 1] == (1 if draw % 2 == 0 else -1)
                assert abs(roots[i - 1, v - 1] - cmath.exp(2j * math.pi * (draw % k) / k)) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1234, 2**64 - 1])
    @pytest.mark.parametrize("rows, m", [(1, 1), (3, 40)])
    @pytest.mark.parametrize("num_buckets", [1, 8])
    def test_bucket_table(self, seed, rows, m, num_buckets):
        buckets = bucket_table(seed, rows, num_buckets, m)
        assert buckets.shape == (rows, m)
        for t in range(1, rows + 1):
            for v in range(1, m + 1):
                draw = map_draw(seed, b"chi", t, v)
                assert buckets[t - 1, v - 1] == 1 + draw % num_buckets


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
    """A generator whose random() returns one fixed value everywhere."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


class TestQuantizedDraws:
    def test_zero_rate_is_sentinel(self):
        # whatever its count, and beside a positive rate with its own count
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        rates = np.array([0.0, 1.0, 0.0])
        for count in (1, 7, 10**6):
            counts = np.array([count, 2, 1])
            levels = min_truncated_exp_levels(rates, counts, 4, q, np.random.default_rng(0))
            assert (levels[[0, 2]] == q.infinity_level).all()
            assert np.isinf(q.dequantize(levels[[0, 2]])).all()
            assert levels[1].max() < q.infinity_level

    def test_negative_rate_rejected(self):
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        with pytest.raises(ValueError, match="nonnegative"):
            min_truncated_exp_levels(np.array([-1.0]), np.ones(1), 4, q, np.random.default_rng(0))

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        # in any row, the zero-rate row included
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        for row in range(3):
            counts = np.array([3, 1, 5])
            counts[row] = count
            with pytest.raises(ValueError, match="counts must be >= 1"):
                min_truncated_exp_levels(
                    np.array([0.0, 1.0, 2.0]), counts, 4, q, np.random.default_rng(0)
                )

    @pytest.mark.parametrize("counts", [1, [1, 1], [[1], [1], [1]], [1, 1, 1, 1]])
    def test_counts_must_match_rates_in_shape(self, counts):
        # one calling form: a scalar count is a shape mismatch, not a broadcast
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        with pytest.raises(ValueError, match="do not match"):
            min_truncated_exp_levels(
                np.array([0.5, 1.0, 2.0]), np.array(counts), 4, q, np.random.default_rng(0)
            )

    def test_each_row_draws_at_its_own_count(self):
        # the same uniform in every entry: a row's level falls as its count
        # grows, and rows of equal rate and count agree
        q = QuantConfig(truncation_L=8.0, quant_bits=20)
        rates, counts = np.ones(4), np.array([1, 9, 1, 9])
        levels = min_truncated_exp_levels(rates, counts, 3, q, StubRng(0.5))
        assert levels[0, 0] > levels[1, 0]
        np.testing.assert_array_equal(levels[:2], levels[2:])
        for count, row in zip(counts, levels):
            alone = min_truncated_exp_levels(np.ones(1), np.array([count]), 3, q, StubRng(0.5))
            np.testing.assert_array_equal(alone[0], row)

    def test_midpoint_rule(self):
        # L = 8 with 3 bits gives unit cells; a raw sample of 2.3 lands in
        # cell 2 and dequantizes to the midpoint 2.5.  For one draw at rate 1
        # the inverse CDF gives 2.3 at u = (e^-2.3 - e^-8) / (1 - e^-8)
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        u = (math.exp(-2.3) - math.exp(-8.0)) / (1.0 - math.exp(-8.0))
        levels = min_truncated_exp_levels(np.array([1.0]), np.ones(1), 1, q, StubRng(1.0 - u))
        assert levels.tolist() == [[2]]
        assert q.dequantize(levels).tolist() == [[2.5]]

    @pytest.mark.parametrize("draw", [0.0, np.nextafter(1.0, 0.0)])
    @pytest.mark.parametrize("count", [1, 9, 4000])
    @pytest.mark.parametrize("bits", [8, 31])
    def test_extreme_uniforms_give_finite_levels(self, draw, count, bits):
        # u = 1 - draw is 1 or 2^-53; rate * L spans a tiny product up to one
        # where e^(-rate L) rounds to 0, and no step may warn
        for L in (1e-3, 3.0, 60.0):
            q = QuantConfig(truncation_L=L, quant_bits=bits)
            rates = np.array([0.05, 1.0, 2.0, 40.0])
            levels = min_truncated_exp_levels(rates, np.full(4, count), 5, q, StubRng(draw))
            assert levels.dtype == q.level_dtype
            assert (levels >= 0).all() and (levels < q.infinity_level).all()
            if draw == 0.0:
                assert (levels == 0).all()

    def test_truncation_is_resampling(self):
        # analytic identity behind the default rule: P(Exp(1) > 2 ln N) = N^-2
        n = 1024
        L = 2.0 * math.log(n)
        assert math.isclose(math.exp(-L), n**-2, rel_tol=1e-12)
        # empirical rejection fraction stays at that order
        rng = np.random.default_rng(42)
        draws = rng.exponential(1.0, size=2_000_000)
        assert np.mean(draws > L) <= 2.0 * n**-2

    def test_conditional_mean_matches_truncated_law(self):
        n = 1024
        q = QuantConfig.for_population(n)
        rng = np.random.default_rng(9)
        levels = min_truncated_exp_levels(np.ones(100), np.ones(100), 10_000, q, rng)
        mean = float(q.dequantize(levels).mean())
        L = q.truncation_L
        target = (1.0 - (L + 1.0) * math.exp(-L)) / (1.0 - math.exp(-L))
        assert abs(mean - target) / target <= 0.02

    def test_level_never_reaches_sentinel_for_positive_rate(self):
        q = QuantConfig(truncation_L=1.0, quant_bits=2)
        rng = np.random.default_rng(3)
        levels = min_truncated_exp_levels(np.full(4, 0.05), np.ones(4), 500, q, rng)
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
        rates = np.array([0.0, 1.0, 2.0])
        levels = min_truncated_exp_levels(rates, np.full(3, 3), 64, q, np.random.default_rng(bits))
        assert levels.dtype == dtype
        assert (levels[0] == q.infinity_level).all() and q.infinity_level == 1 << bits
        assert levels[1:].max() < q.infinity_level
        z = q.dequantize(levels[1:])
        assert np.all((z > 0) & (z < q.truncation_L))

    def test_solver_budget_above_30_bits_draws(self):
        from netmoments.simulator import solve_budget

        _, q = solve_budget(0.1, 0.1, 150000)
        assert q.quant_bits == 31
        rates = np.array([0.0, 1.0])
        levels = min_truncated_exp_levels(rates, np.ones(2), 8, q, np.random.default_rng(0))
        assert levels[0, 0] == 1 << 31 and levels[1].max() < 1 << 31

    def test_sentinel_beyond_int64_rejected(self):
        with pytest.raises(ValueError):
            QuantConfig(truncation_L=1.0, quant_bits=63)


# truncation lengths per member count: at L = 3 the rate 0.05 redraws most
# oracle entries many times, which 4000 oracle generators cannot afford
_KS_LENGTHS = {1: (3.0, 13.8), 2: (3.0, 13.8), 9: (3.0, 13.8), 4000: (40.0,)}


class TestClosedFormKernel:
    """The closed-form min of `count` truncated draws has the law of the
    min over `count` generators that each truncate by resampling."""

    RATES = (0.05, 0.134, 0.7, 1.0, 2.0)

    @pytest.mark.parametrize("bits", [8, 19, 31, 33])
    @pytest.mark.parametrize("count", sorted(_KS_LENGTHS))
    def test_ks_against_resampling_oracle(self, bits, count):
        rows, r2 = 8, 50  # 400 oracle samples per rate
        rates = np.repeat([0.0, *self.RATES], rows)
        for L in _KS_LENGTHS[count]:
            quant = QuantConfig(truncation_L=L, quant_bits=bits)
            seeds = np.random.SeedSequence((bits, count)).spawn(count + 1)
            rng = np.random.default_rng(seeds[0])
            got = min_truncated_exp_levels(rates, np.full(rates.size, count), 5 * r2, quant, rng)
            want = oracles.resampled_min_levels(
                rates, r2, quant, (np.random.default_rng(s) for s in seeds[1:])
            )
            assert got.dtype == want.dtype == quant.level_dtype
            assert (got[:rows] == quant.infinity_level).all()
            assert (want[:rows] == quant.infinity_level).all()
            assert got[rows:].max() < quant.infinity_level
            for i in range(1, len(self.RATES) + 1):
                block = slice(i * rows, (i + 1) * rows)
                p = stats.ks_2samp(got[block].ravel(), want[block].ravel()).pvalue
                assert p > 1e-3, (L, self.RATES[i - 1], p)


class TestGroupedKernel:
    """The resampling oracle: one generator's draws are pinned, and a group
    of generators gives the elementwise min of their single draws."""

    # sha256 of the levels recorded from the kernel that resampled by
    # rescanning the whole array; at L = 3 the rates 0.05 and 0.134 redraw
    # most entries several times
    PINNED = {
        19: "83b9e5bdf221d2dcc59c3ad0e9f6180c13e471fc0cdcee497c1c8f36f3d156d4",
        31: "650a861e574675f97884cf347c15c93158160237a12a505362031a055e965fad",
    }

    @pytest.mark.parametrize("bits, dtype", [(19, np.int32), (31, np.int64)])
    def test_heavy_resampling_digest(self, bits, dtype):
        quant = QuantConfig(truncation_L=3.0, quant_bits=bits)
        levels = oracles.resampled_min_levels(
            [0.0, 0.05, 0.134, 1.0], 64, quant, [np.random.default_rng(2012)]
        )
        assert levels.dtype == dtype and levels.shape == (4, 64)
        assert hashlib.sha256(levels.tobytes()).hexdigest() == self.PINNED[bits]

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
            got = oracles.resampled_min_levels(
                rates, r2, quant, (np.random.default_rng(s) for s in seeds)
            )
            singles = [
                oracles.resampled_min_levels(rates, r2, quant, [np.random.default_rng(s)])
                for s in seeds
            ]
            assert got.dtype == quant.level_dtype
            assert all(lv.dtype == quant.level_dtype for lv in singles)
            np.testing.assert_array_equal(got, np.minimum.reduce(singles))

    def test_no_generators_is_all_infinite(self):
        quant = QuantConfig(truncation_L=4.0, quant_bits=12)
        levels = oracles.resampled_min_levels([0.5, 1.0], 8, quant, iter(()))
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
    sketches of its heard-set, drawn from the count of members at each rate
    with one generator.  For a given generator it is idempotent in its
    members (the heard-set is a set), free of member order, depends only on
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
    """_heard_sketch, one closed-form draw per distinct rate from one
    generator, against oracles.heard_sketch, one truncated exponential per
    member drawn by resampling.  The r2 levels of a cell row are iid, so
    each row that holds finite levels is a two-sample Kolmogorov-Smirnov
    test at ALPHA / rows (Bonferroni: family-wise ALPHA per case), and a
    row infinite on one side must be infinite on the other.  The seeds are
    fixed, so the outcome is too.

    Each case is a root-index table (values x maps) and a member count per
    value, plus three nodes that hold values but are not heard:
    - k = 2: a map positive on every value, one on none (a zero-rate row),
      mixed maps, and one positive on the count-1 value alone;
    - k = 3: a map whose members hold only roots 1 and 2, whose Re + 1
      rates differ in the last bit and so are two groups, and mixed maps;
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
    sketch, against the node-by-node resampling oracle, over 300 seeds."""

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
