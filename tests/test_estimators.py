import math

import numpy as np
import pytest

from netmoments.estimators import (
    Dataset,
    ErrorBudget,
    Histogram,
    ams_reference_f2,
    estimate_f2,
    estimate_fk,
    exact_fk,
    exact_nplus,
    f2_from_nplus,
    oracle_record,
)
from netmoments.sketch_core import QuantConfig, SharedRandomness, sign_map_eval

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
            h = Histogram.from_dataset(d)
            assert h.total == d.n_nodes
            assert (h.counts >= 0).all()

    def test_nplus_two_of_three(self):
        # find a seed whose first sign map sends value 1 to +1 and 2 to -1
        for seed in range(200):
            rand = SharedRandomness(seed, r1=1, r2=1)
            if sign_map_eval(rand, 1, 1) == 1 and sign_map_eval(rand, 1, 2) == -1:
                d = Dataset([1, 1, 2], 2)
                nplus = exact_nplus(d, rand, 1)
                assert nplus == 2
                assert 2 * nplus - d.n_nodes == 1
                return
        pytest.fail("no such seed in range")

    def test_nplus_empty_dataset(self):
        rand = SharedRandomness(1, r1=2, r2=1)
        assert exact_nplus(Dataset([], 3), rand, 1) == 0

    def test_nplus_partition_identity(self):
        rng = np.random.default_rng(1)
        rand = SharedRandomness(5, r1=4, r2=1)
        for _ in range(100):
            d = random_dataset(rng)
            for i in range(1, 5):
                nplus = exact_nplus(d, rand, i)
                nminus = sum(
                    int(c)
                    for v, c in enumerate(Histogram.from_dataset(d).counts, start=1)
                    if c > 0 and sign_map_eval(rand, i, v) == -1
                )
                assert nplus + nminus == d.n_nodes


class TestSignExpectationIdentity:
    def test_exhaustive_mean_and_variance(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            d = random_dataset(rng)
            f2 = exact_fk(d, 2)
            mean, var = exhaustive_sign_expectation(Histogram.from_dataset(d).counts)
            assert abs(mean - f2) <= 1e-9
            assert var <= 2.0 * f2**2 + 1e-9

    def test_ams_pointmass_exact(self):
        d = Dataset([4] * 9, 5)
        for seed in range(5):
            rand = SharedRandomness(seed, r1=6, r2=1)
            assert ams_reference_f2(d, rand) == pytest.approx(81.0)


class TestRootExpectationIdentity:
    def test_exhaustive_mean(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            d = random_dataset(rng, n_max=12, m_max=4)
            for k in (3, 4):
                mean = exhaustive_root_expectation(
                    Histogram.from_dataset(d).counts, k
                )
                assert abs(mean - exact_fk(d, k)) <= 1e-9


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
            counts = Histogram.from_dataset(d).counts
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

    def test_k2_rejected(self):
        with pytest.raises(ValueError):
            estimate_fk(np.zeros((1, 1, 3, 1)), 4, 2)


class TestEstimateF2:
    def test_step5_equals_reference_combination(self):
        rng = np.random.default_rng(11)
        d = random_dataset(rng, n_max=20, m_max=6)
        rand = SharedRandomness(21, r1=8, r2=4)
        nplus = np.array([exact_nplus(d, rand, i) for i in range(1, 9)])
        assert ams_reference_f2(d, rand) == pytest.approx(
            f2_from_nplus(nplus, d.n_nodes) * d.n_nodes**2
        )

    def test_estimate_is_harmonic_rows_through_step5(self):
        q = QuantConfig(truncation_L=4.0, quant_bits=6)
        rng = np.random.default_rng(12)
        levels = rng.integers(0, q.infinity_level, size=(3, 5)).astype(np.int32)
        n = 40
        rows = np.array([harmonic_estimate(q.dequantize(row)) for row in levels])
        assert estimate_f2(levels, q, n) == pytest.approx(f2_from_nplus(rows, n))

    def test_all_infinite_gives_one(self):
        q = QuantConfig(truncation_L=4.0, quant_bits=4)
        levels = np.full((4, 8), q.infinity_level, dtype=q.level_dtype)
        assert estimate_f2(levels, q, 25) == pytest.approx(1.0)


class TestConcentration:
    def test_harmonic_violation_rate_below_chernoff(self):
        rng = np.random.default_rng(99)
        rate = harmonic_violation_rate(100, 512, 0.2, 1000, rng)
        bound = 2.0 * math.exp(-(0.2**2) * 512 / 12.0)
        assert rate <= bound
        assert rate <= 0.05  # empirically far below the ~0.37 bound


class TestErrorBudget:
    BUDGET = ErrorBudget(eps1=0.05, eps2=0.003125, mu=0.003125, r1=64, r2=512, beta=0.01)

    def test_doubling_r1_halves_map_term(self):
        b = self.BUDGET
        doubled = ErrorBudget(
            eps1=b.eps1, eps2=b.eps2, mu=b.mu, r1=2 * b.r1, r2=b.r2, beta=b.beta
        )
        assert 2.0 / (doubled.r1 * doubled.eps1**2) == pytest.approx(
            0.5 * (2.0 / (b.r1 * b.eps1**2))
        )

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget(eps1=0.0, eps2=0.1, mu=0.1, r1=1, r2=1, beta=0.5)
        with pytest.raises(ValueError):
            ErrorBudget(eps1=0.1, eps2=0.1, mu=0.1, r1=1, r2=1, beta=1.5)


class TestOracleRecord:
    def test_record_fields(self):
        d = Dataset([1, 1, 2], 2)
        rec = oracle_record(d, 2, estimate=0.6)
        assert rec["exact"] == 5
        assert rec["k"] == 2
        assert rec["exact_scaled"] == pytest.approx(5 / 9)
        assert rec["scaled_error"] == pytest.approx(abs(0.6 - 5 / 9))
        assert len(rec["dataset_digest"]) == 64

    def test_digest_stable(self):
        d1 = Dataset([1, 2, 3], 4)
        d2 = Dataset([1, 2, 3], 4)
        assert d1.digest() == d2.digest()
        assert d1.digest() != Dataset([1, 2, 3], 5).digest()
