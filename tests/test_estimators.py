import math

import numpy as np
import pytest

from netmoments.estimators import (
    Dataset,
    ErrorBudget,
    ams_reference_f2,
    estimate_fk,
    exact_fk,
    exact_nplus,
    median,
    oracle_record,
)
from netmoments.sketch_core import QuantConfig, sign_table
from netmoments.sketch_core import harmonic_estimate as sketch_harmonic_estimate

from oracles import (
    exhaustive_root_expectation,
    exhaustive_sign_expectation,
    harmonic_estimate,
    harmonic_violation_rate,
)


def random_dataset(rng, n_max=30, m_max=6, n_min=2):
    n = int(rng.integers(n_min, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return Dataset(rng.integers(1, m + 1, size=n), m)


class TestExactOracles:
    def test_fk_direct(self):
        d = Dataset([1, 1, 2], 2)
        assert exact_fk(d, 2) == 5

    def test_fk_pointmass_scaled_is_one(self):
        for n, k in [(7, 2), (12, 3), (5, 6)]:
            d = Dataset([3] * n, 4)
            assert exact_fk(d, k) == n**k

    def test_fk_uniform_scaled(self):
        # exactly c copies of each value: F2 / N^2 = 1 / M
        m, c = 8, 5
        d = Dataset(np.repeat(np.arange(1, m + 1), c), m)
        n = m * c
        assert exact_fk(d, 2) / n**2 == pytest.approx(1.0 / m)

    def test_f0_counts_distinct(self):
        d = Dataset([1, 1, 4, 4, 4], 5)
        assert exact_fk(d, 0) == 2

    def test_fk_negative_k_rejected(self):
        with pytest.raises(ValueError):
            exact_fk(Dataset([1], 1), -1)

    def test_histogram_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = random_dataset(rng)
            assert d.counts.sum() == d.n_nodes
            assert (d.counts >= 0).all()

    def test_nplus_two_of_three(self):
        # find a seed whose first sign map sends value 1 to +1 and 2 to -1
        for seed in range(200):
            if sign_table(seed, 1, 2).tolist() == [[1, -1]]:
                d = Dataset([1, 1, 2], 2)
                (nplus,) = exact_nplus(d, seed, 1)
                assert nplus == 2
                assert 2 * nplus - d.n_nodes == 1
                return
        pytest.fail("no such seed in range")

    def test_nplus_empty_dataset(self):
        assert exact_nplus(Dataset([], 3), 1, 2).tolist() == [0, 0]

    def test_nplus_partition_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = random_dataset(rng)
            signs = sign_table(5, 4, d.alphabet_size)
            for i, nplus in enumerate(exact_nplus(d, 5, 4)):
                nminus = sum(
                    int(c)
                    for v, c in enumerate(d.counts, start=1)
                    if c > 0 and signs[i, v - 1] == -1
                )
                assert nplus + nminus == d.n_nodes


class TestSignExpectationIdentity:
    def test_exhaustive_mean_and_variance(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = random_dataset(rng)
            f2 = exact_fk(d, 2)
            mean, var = exhaustive_sign_expectation(d.counts)
            assert abs(mean - f2) <= 1e-9
            assert var <= 2.0 * f2**2 + 1e-9

    def test_ams_pointmass_exact(self):
        d = Dataset([4] * 9, 5)
        for seed in range(5):
            assert ams_reference_f2(d, seed, 6) == pytest.approx(81.0)


class TestRootExpectationIdentity:
    def test_exhaustive_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = random_dataset(rng, n_max=12, m_max=4)
            for k in (3, 4):
                mean = exhaustive_root_expectation(d.counts, k)
                assert abs(mean - exact_fk(d, k)) <= 1e-9


def _f2(nplus, n_nodes):
    """estimate_fk at k = 2 on the N_+ estimates of one phase's r1 sign maps."""
    return estimate_fk(np.asarray(nplus, dtype=float).reshape(1, 1, 1, -1), n_nodes, 2)


def _phases_from_exact_channels(counts, roots):
    """(s1, B, 3, r1) phase estimates for one bucket holding everything, with
    the harmonic channels replaced by their exact targets."""
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    s = complex((roots.real * counts).sum(), (roots.imag * counts).sum())
    return np.array([s.real + n, s.imag + n, n]).reshape(1, 1, 3, 1)


class TestEstimateFk:
    def test_single_bucket_exact_channels_enumeration(self):
        # with exact channel sums, averaging the estimator output over every
        # root assignment reproduces F3 (M <= 4, N <= 12)
        import itertools

        rng = np.random.default_rng(3)
        k = 3
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        for _ in range(6):
            d = random_dataset(rng, n_max=12, m_max=4)
            counts = d.counts
            n = d.n_nodes
            total = 0.0
            assignments = 0
            for assign in itertools.product(range(k), repeat=d.alphabet_size):
                w = roots[list(assign)]
                phases = _phases_from_exact_channels(counts, w)
                total += estimate_fk(phases, n, k) * n**k
                assignments += 1
            assert abs(total / assignments - exact_fk(d, k)) <= 1e-9

    def test_pointmass_exact_channels(self):
        # all nodes on one value: Re{(N w)^k} = N^k for every k-th root w
        n, k = 12, 4
        for ell in range(k):
            w = np.exp(2j * np.pi * np.array([ell]) / k)
            phases = _phases_from_exact_channels([n], w)
            assert estimate_fk(phases, n, k) == pytest.approx(1.0)

    def test_empty_bucket_contributes_zero(self):
        phases = np.zeros((1, 2, 3, 2))
        phases[0, 0] = np.array([13.0, 10.0, 10.0])[:, None]
        assert estimate_fk(phases, 10, 3) == pytest.approx(27.0 / 1000.0)

    def test_k2_exact_nplus_enumeration(self):
        # k = 2 is one bucket and one channel, N_+: averaging over every sign
        # assignment with exact N_+ reproduces F2 (M <= 6, N <= 20)
        import itertools

        rng = np.random.default_rng(4)
        for _ in range(6):
            d = random_dataset(rng, n_max=20, m_max=6)
            n = d.n_nodes
            total = 0.0
            assignments = 0
            for signs in itertools.product((0, 1), repeat=d.alphabet_size):
                total += _f2([np.dot(signs, d.counts)], n) * n**2
                assignments += 1
            assert abs(total / assignments - exact_fk(d, 2)) <= 1e-9

    def test_k2_bit_identical_to_sign_sum_formula(self):
        # mean of (2 N_+ - N)^2 over the outer maps, scaled by N^2, with ==
        rng = np.random.default_rng(5)
        for r1 in (1, 2, 7, 64, 1000):
            n = int(rng.integers(2, 10**5))
            nplus = rng.uniform(0.0, 1.2 * n, size=r1)
            expected = float(np.mean((2 * nplus - n) ** 2)) / n**2
            assert estimate_fk(nplus.reshape(1, 1, 1, -1), n, 2) == expected


class TestEstimateF2:
    def test_step5_equals_reference_combination(self):
        rng = np.random.default_rng(11)
        d = random_dataset(rng, n_max=20, m_max=6)
        nplus = exact_nplus(d, 21, 8)
        assert ams_reference_f2(d, 21, 8) == pytest.approx(
            _f2(nplus, d.n_nodes) * d.n_nodes**2
        )

    def test_estimate_is_harmonic_rows_through_step5(self):
        q = QuantConfig(truncation_L=4.0, quant_bits=6)
        rng = np.random.default_rng(12)
        levels = rng.integers(0, q.infinity_level, size=(3, 5)).astype(np.int32)
        n = 40
        rows = np.array([harmonic_estimate(q.dequantize(row)) for row in levels])
        nplus = sketch_harmonic_estimate(levels, q)
        assert _f2(nplus, n) == pytest.approx(_f2(rows, n))

    def test_all_infinite_gives_one(self):
        q = QuantConfig(truncation_L=4.0, quant_bits=4)
        levels = np.full((4, 8), q.infinity_level, dtype=q.level_dtype)
        assert _f2(sketch_harmonic_estimate(levels, q), 25) == pytest.approx(1.0)


class TestConcentration:
    def test_harmonic_violation_rate_below_chernoff(self):
        rng = np.random.default_rng(99)
        rate = harmonic_violation_rate(100, 512, 0.2, 1000, rng)
        bound = 2.0 * math.exp(-(0.2**2) * 512 / 12.0)
        assert rate <= bound
        assert rate <= 0.05  # empirically far below the ~0.37 bound


class TestErrorBudget:
    def test_invalid_values_rejected(self):
        for r1, r2 in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="r1 and r2 must be >= 1"):
                ErrorBudget(r1=r1, r2=r2)


class TestOracleRecord:
    def test_record_fields(self):
        d = Dataset([1, 1, 2], 2)
        rec = oracle_record(d, 2)
        assert sorted(rec) == ["dataset_digest", "exact", "exact_scaled", "k"]
        assert rec["exact"] == 5
        assert rec["k"] == 2
        assert rec["exact_scaled"] == pytest.approx(5 / 9)
        assert len(rec["dataset_digest"]) == 64

    def test_digest_stable(self):
        d1 = Dataset([1, 2, 3], 4)
        d2 = Dataset([1, 2, 3], 4)
        assert d1.digest() == d2.digest()
        assert d1.digest() != Dataset([1, 2, 3], 5).digest()


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 10, 101])
    def test_equals_np_median_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        samples = [
            rng.standard_normal(size),
            rng.integers(0, 10**6, size),
            rng.standard_normal(size) * 1e300,
            np.round(rng.standard_normal(size), 1),  # ties
        ]
        if size >= 2:
            inf = rng.standard_normal(size)
            inf[: size // 2 + 1] = np.inf
            samples.append(inf)
            nan = rng.standard_normal(size)
            nan[rng.integers(size)] = np.nan
            samples.append(nan)
        for sample in samples:
            got, want = median(sample), float(np.median(sample))
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_accepts_a_list_of_ints(self):
        assert median([7, 1, 4, 2]) == 3.0
