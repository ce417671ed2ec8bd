import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netmoments.sketch_core import (
    QuantConfig,
    ShapeMismatchError,
    SharedRandomness,
    SketchVector,
    bucket_map_eval,
    harmonic_estimate,
    merge_min,
    min_truncated_exp_levels,
    root_map_eval,
    sign_map_eval,
    truncated_exp_levels,
)

from oracles import min_exponential_samples


RAND = SharedRandomness(master_seed=1234, r1=8, r2=16, k=3, num_buckets=8, s1=4)


class TestMaps:
    def test_sign_deterministic(self):
        rand = SharedRandomness(99, r1=2, r2=2)
        assert all(
            sign_map_eval(rand, 1, v) == sign_map_eval(rand, 1, v) for v in range(1, 50)
        )

    def test_sign_values(self):
        assert all(sign_map_eval(RAND, 2, v) in (1, -1) for v in range(1, 200))

    def test_sign_fraction_near_half(self):
        m = 10**5
        rand = SharedRandomness(7, r1=1, r2=1)
        plus = sum(sign_map_eval(rand, 1, v) == 1 for v in range(1, m + 1))
        assert abs(plus / m - 0.5) <= 3.0 / math.sqrt(m)

    def test_sign_index_range(self):
        with pytest.raises(ValueError):
            sign_map_eval(RAND, 0, 1)
        with pytest.raises(ValueError):
            sign_map_eval(RAND, RAND.r1 + 1, 1)

    def test_k2_roots_are_signs(self):
        rand = SharedRandomness(31, r1=4, r2=2, k=2)
        for i in range(1, 5):
            for v in range(1, 300):
                root = root_map_eval(rand, i, v)
                assert (root.real, root.imag) in ((1.0, 0.0), (-1.0, 0.0))
                assert root.real == sign_map_eval(rand, i, v)

    def test_k4_roots_exact(self):
        rand = SharedRandomness(5, r1=1, r2=1, k=4)
        seen = {
            (root_map_eval(rand, 1, v).real, root_map_eval(rand, 1, v).imag)
            for v in range(1, 200)
        }
        assert seen == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)}

    def test_roots_on_unit_circle(self):
        for v in range(1, 100):
            r = root_map_eval(RAND, 3, v)
            assert abs(r.real**2 + r.imag**2 - 1.0) < 1e-12

    def test_k3_root_frequencies(self):
        rand = SharedRandomness(11, r1=1, r2=1, k=3)
        m = 30_000
        freq: dict[tuple[float, float], int] = {}
        for v in range(1, m + 1):
            r = root_map_eval(rand, 1, v)
            key = (round(r.real, 9), round(r.imag, 9))
            freq[key] = freq.get(key, 0) + 1
        assert len(freq) == 3
        for count in freq.values():
            assert abs(count / m - 1 / 3) <= 0.01

    def test_bucket_single(self):
        rand = SharedRandomness(3, r1=1, r2=1, num_buckets=1, s1=2)
        assert all(bucket_map_eval(rand, 1, v) == 1 for v in range(1, 100))

    def test_bucket_deterministic_and_range(self):
        for v in range(1, 500):
            b = bucket_map_eval(RAND, 2, v)
            assert b == bucket_map_eval(RAND, 2, v)
            assert 1 <= b <= RAND.num_buckets

    def test_bucket_balance(self):
        rand = SharedRandomness(17, r1=1, r2=1, num_buckets=8, s1=1)
        loads = np.zeros(8)
        for v in range(1, 10_001):
            loads[bucket_map_eval(rand, 1, v) - 1] += 1
        assert loads.max() / loads.mean() <= 1.2

    def test_bucket_index_range(self):
        with pytest.raises(ValueError):
            bucket_map_eval(RAND, RAND.s1 + 1, 1)


class TestQuantizedDraws:
    def test_zero_rate_is_sentinel(self):
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        levels = truncated_exp_levels(np.array([0.0]), 4, q, np.random.default_rng(0))
        assert (levels == q.infinity_level).all()
        assert np.isinf(q.dequantize(levels)).all()

    def test_negative_rate_rejected(self):
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        with pytest.raises(ValueError):
            truncated_exp_levels(np.array([-1.0]), 4, q, np.random.default_rng(0))

    def test_midpoint_rule(self):
        # L = 8 with 3 bits gives unit cells; a raw sample of 2.3 lands in
        # cell 2 and dequantizes to the midpoint 2.5
        q = QuantConfig(truncation_L=8.0, quant_bits=3)

        class StubRng:
            def standard_exponential(self, size, out=None):
                return np.full(size, 2.3)

        levels = truncated_exp_levels(np.array([1.0]), 1, q, StubRng())
        assert levels.tolist() == [[2]]
        assert q.dequantize(levels).tolist() == [[2.5]]

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
        levels = truncated_exp_levels(np.ones(100), 10_000, q, rng)
        mean = float(q.dequantize(levels).mean())
        L = q.truncation_L
        target = (1.0 - (L + 1.0) * math.exp(-L)) / (1.0 - math.exp(-L))
        assert abs(mean - target) / target <= 0.02

    def test_level_never_reaches_sentinel_for_positive_rate(self):
        q = QuantConfig(truncation_L=1.0, quant_bits=2)
        rng = np.random.default_rng(3)
        levels = truncated_exp_levels(np.full(4, 0.05), 500, q, rng)
        assert levels.max() < q.infinity_level

    def test_default_rule_cell_width(self):
        q = QuantConfig.for_population(500, target_mu=0.1)
        assert q.truncation_L == 2.0 * math.log(500)
        assert q.cell_width <= 0.1 / 500


class TestLevelDtype:
    @pytest.mark.parametrize("bits, dtype", [(30, np.int32), (31, np.int64), (32, np.int64)])
    def test_sentinel_fits_level_arrays(self, bits, dtype):
        q = QuantConfig(truncation_L=20.0, quant_bits=bits)
        assert q.level_dtype is dtype
        levels = truncated_exp_levels(np.array([0.0, 1.0, 2.0]), 64, q, np.random.default_rng(bits))
        assert levels.dtype == dtype
        assert (levels[0] == q.infinity_level).all() and q.infinity_level == 1 << bits
        assert levels[1:].max() < q.infinity_level
        z = q.dequantize(levels[1:])
        assert np.all((z > 0) & (z < q.truncation_L))
        sketch = SketchVector.all_infinite(2, 3, "sign-population", q)
        assert sketch.levels.dtype == dtype and (sketch.levels == 1 << bits).all()

    def test_solver_budget_above_30_bits_draws(self):
        from netmoments.simulator import solve_budget

        _, q = solve_budget(0.1, 0.1, 150000)
        assert q.quant_bits == 31
        levels = truncated_exp_levels(np.array([0.0, 1.0]), 8, q, np.random.default_rng(0))
        assert levels[0, 0] == 1 << 31 and levels[1].max() < 1 << 31

    def test_sentinel_beyond_int64_rejected(self):
        with pytest.raises(ValueError):
            QuantConfig(truncation_L=1.0, quant_bits=63)


def _random_vector(rng, q, r1=3, r2=5, tag="sign-population"):
    levels = rng.integers(0, q.infinity_level + 1, size=(r1, r2)).astype(np.int32)
    return SketchVector(levels, tag, q)


class TestGroupedKernel:
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
        levels = truncated_exp_levels(
            [0.0, 0.05, 0.134, 1.0], 64, quant, np.random.default_rng(2012)
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
            got = min_truncated_exp_levels(
                rates, r2, quant, (np.random.default_rng(s) for s in seeds)
            )
            singles = [
                truncated_exp_levels(rates, r2, quant, np.random.default_rng(s)) for s in seeds
            ]
            assert got.dtype == quant.level_dtype
            assert all(lv.dtype == quant.level_dtype for lv in singles)
            np.testing.assert_array_equal(got, np.minimum.reduce(singles))

    def test_no_generators_is_all_infinite(self):
        quant = QuantConfig(truncation_L=4.0, quant_bits=12)
        levels = min_truncated_exp_levels([0.5, 1.0], 8, quant, iter(()))
        assert (levels == quant.infinity_level).all() and levels.shape == (2, 8)


class TestMergeMin:
    Q = QuantConfig(truncation_L=4.0, quant_bits=4)

    def test_idempotent(self):
        a = _random_vector(np.random.default_rng(0), self.Q)
        assert np.array_equal(merge_min(a, a).levels, a.levels)

    def test_identity_element(self):
        a = _random_vector(np.random.default_rng(1), self.Q)
        inf = SketchVector.all_infinite(a.r1, a.r2, a.channel_tag, self.Q)
        assert np.array_equal(merge_min(a, inf).levels, a.levels)

    def test_shape_mismatch(self):
        a = _random_vector(np.random.default_rng(2), self.Q, r1=2)
        b = _random_vector(np.random.default_rng(3), self.Q, r1=3)
        with pytest.raises(ShapeMismatchError):
            merge_min(a, b)

    def test_channel_mismatch(self):
        a = _random_vector(np.random.default_rng(2), self.Q, tag="real")
        b = _random_vector(np.random.default_rng(3), self.Q, tag="imag")
        with pytest.raises(ShapeMismatchError):
            merge_min(a, b)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.permutations(range(5)))
    def test_merge_order_free(self, seed, order):
        rng = np.random.default_rng(seed)
        vecs = [_random_vector(rng, self.Q) for _ in range(5)]
        left = vecs[0]
        for v in vecs[1:]:
            left = merge_min(left, v)
        shuffled = vecs[order[0]]
        for idx in order[1:]:
            shuffled = merge_min(vecs[idx], shuffled)
        assert np.array_equal(left.levels, shuffled.levels)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_merge_grouping_free(self, seed):
        rng = np.random.default_rng(seed)
        vecs = [_random_vector(rng, self.Q) for _ in range(4)]
        chain = merge_min(merge_min(merge_min(vecs[0], vecs[1]), vecs[2]), vecs[3])
        tree = merge_min(merge_min(vecs[0], vecs[1]), merge_min(vecs[2], vecs[3]))
        assert np.array_equal(chain.levels, tree.levels)


class TestHarmonic:
    def test_direct_formula(self):
        assert harmonic_estimate([0.5, 0.5, 0.5, 0.5]) == 2.0

    def test_all_infinite_is_zero(self):
        assert harmonic_estimate([math.inf] * 8) == 0.0

    def test_partial_infinite_is_zero(self):
        assert harmonic_estimate([0.5, math.inf]) == 0.0

    def test_monte_carlo_accuracy(self):
        # minima over a 100-strong population, 512 replicas: within 10% of
        # the truth in at least 95% of trials
        rng = np.random.default_rng(7)
        n_plus, r2, trials = 100, 512, 400
        hits = 0
        for _ in range(trials):
            mins = rng.exponential(1.0, size=(r2, n_plus)).min(axis=1)
            if abs(harmonic_estimate(mins) - n_plus) <= 0.1 * n_plus:
                hits += 1
        assert hits / trials >= 0.95

    def test_quantized_vs_unquantized_relative_error(self):
        # quantization under the default resolution rule shifts the harmonic
        # estimate by at most target_mu in relative terms
        for n_plus, mu, seed in [(50, 0.05, 0), (500, 0.05, 1), (200, 0.02, 2)]:
            q = QuantConfig.for_population(1000, target_mu=mu)
            rng = np.random.default_rng(seed)
            raw = rng.exponential(1.0 / n_plus, size=256)
            raw = np.minimum(raw, q.truncation_L - 1e-12)
            quantized = q.dequantize(np.array([q.quantize(z) for z in raw]))
            a = harmonic_estimate(raw)
            b = harmonic_estimate(quantized)
            assert abs(a - b) / a <= mu


class TestMinExponentialLaw:
    def test_ks_against_rate_sum(self):
        rng = np.random.default_rng(2024)
        samples = min_exponential_samples([1.0, 2.0, 3.5], 100_000, rng)
        stat = stats.kstest(samples, stats.expon(scale=1 / 6.5).cdf).statistic
        critical_1pct = 1.628 / math.sqrt(samples.size)
        assert stat < critical_1pct


class TestWireWidth:
    def test_sketch_message_bits(self):
        q = QuantConfig(truncation_L=8.0, quant_bits=4)
        vec = SketchVector.all_infinite(2, 3, "sign-population", q)
        assert vec.wire_bits == 2 * 3 * 5
