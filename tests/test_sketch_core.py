import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netmoments.estimators import ErrorBudget
from netmoments.simulator import ExperimentConfig, _heard_estimates, solve_budget
from netmoments.sketch_core import (
    _CHI,
    _PHI,
    _PRIME,
    QuantConfig,
    _map_draws,
    _poly_table,
    _roots_table,
    bucket_table,
    harmonic_estimate,
    min_truncated_exp,
    root_table,
)

import oracles
from oracles import map_draw, min_exponential_samples


class TestMapsAgainstOracle:
    """Every table entry is its map's polynomial, evaluated in Python
    integers at its value: the sign, the root at k = 2, is +1 on an even
    value of the degree-3 polynomial, the root is e^(2 pi i h / k) for h the value of the
    degree-(2k - 1) polynomial mod k, the bucket is 1 + h mod B for h the
    value of the degree-1 bucket polynomial."""

    @pytest.mark.parametrize("seed", [0, 1234, 2**64 - 1])
    @pytest.mark.parametrize("rows, m", [(1, 1), (3, 40)])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_sign_and_root_tables(self, seed, rows, m, k):
        signs, roots = root_table(seed, rows, 2, m).real, root_table(seed, rows, k, m)
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
                root_table(1, 1, 2, m)

    def test_signs_are_balanced_and_4_wise_uncorrelated(self):
        # seeded: over 2^15 sign maps, the mean of each product of two, three
        # or four signs on distinct values is 0 within 4.5 standard errors
        maps = 1 << 15
        signs = root_table(2012, maps, 2, 8).real
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
        assert np.array_equal(root_table(99, 2, 2, 49), root_table(99, 2, 2, 49))
        # map i on value v does not depend on how many maps or values the table holds
        assert np.array_equal(root_table(99, 2, 2, 49), root_table(99, 5, 2, 80)[:2, :49])

    def test_sign_values(self):
        signs = root_table(1234, 8, 2, 199)
        assert set(np.unique(signs.real)) <= {1.0, -1.0} and not signs.imag.any()

    def test_sign_fraction_near_half(self):
        m = 10**5
        plus = int((root_table(7, 1, 2, m).real == 1).sum())
        assert abs(plus / m - 0.5) <= 3.0 / math.sqrt(m)

    def test_k2_roots_are_signs(self):
        # +1 where the degree-3 polynomial is even, -1 where it is odd, exactly
        roots = root_table(31, 4, 2, 299)
        parity = (_map_draws(31, _PHI, 3, 4, 299) & 1).astype(float)
        assert np.array_equal(roots.real, 1.0 - 2.0 * parity)
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
        # beside a positive rate: a cell no member draws holds no value, not
        # a draw
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        with pytest.raises(ValueError, match="rates must be positive"):
            min_truncated_exp(np.array([0.0, 1.0, 0.0]), 4, q, np.random.default_rng(0))

    def test_negative_rate_rejected(self):
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        with pytest.raises(ValueError, match="rates must be positive"):
            min_truncated_exp(np.array([-1.0]), 4, q, np.random.default_rng(0))

    def test_midpoint_rule(self):
        # L = 8 with 3 bits gives unit cells; a raw sample of 2.3 lands in
        # cell 2, whose midpoint is 2.5.  At rate 1 the sample is the
        # standard exponential itself; at rate 2 it is half of it
        q = QuantConfig(truncation_L=8.0, quant_bits=3)
        assert min_truncated_exp(np.array([1.0]), 1, q, StubRng(2.3)).tolist() == [[2.5]]
        values = min_truncated_exp(np.array([1.0, 2.0]), 1, q, StubRng(4.6))
        assert values.tolist() == [[4.5], [2.5]]

    @pytest.mark.parametrize("draw", [0.0, 1e10, 1e300])
    @pytest.mark.parametrize("bits", [8, 19, 31, 33])
    def test_extreme_exponentials_give_finite_values(self, draw, bits):
        # E = 0 gives the bottom cell's midpoint; a huge E, divided by a small
        # rate, is clamped to L and gives the top cell's midpoint, and no
        # step may warn
        for L in (1e-3, 3.0, 60.0):
            q = QuantConfig(truncation_L=L, quant_bits=bits)
            rates = np.array([0.05, 1.0, 2.0, 40.0])
            values = min_truncated_exp(rates, 5, q, StubRng(draw))
            cell = 0 if draw == 0.0 else 2**bits - 1
            assert (values == (cell + 0.5) * q.cell_width).all()
            assert np.isfinite(values).all() and (values < L).all()

    def test_clamped_fraction_is_e_to_the_minus_rate_L(self):
        # analytic identity behind the quantizer rule: P(Exp(1) > 2 ln N) = N^-2
        n = 1024
        assert math.isclose(math.exp(-2.0 * math.log(n)), n**-2, rel_tol=1e-12)
        # the kernel clamps a draw, to the top cell, with probability
        # e^(-rate L): at rate 1 and L = 2 ln 16, 1/256 of the draws
        q = QuantConfig(truncation_L=2.0 * math.log(16), quant_bits=11)
        values = min_truncated_exp(np.ones(64), 1 << 14, q, np.random.default_rng(42))
        p, draws = 16.0**-2, values.size
        clamped = np.mean(values == q.truncation_L - q.cell_width / 2)
        assert abs(clamped - p) <= 4.5 * math.sqrt(p * (1 - p) / draws)

    @pytest.mark.parametrize("rate", [0.2, 0.5, 1.0, 3.0])
    def test_mean_matches_clamped_law(self, rate):
        # E[min(Exp(rate), L)] = (1 - e^(-rate L)) / rate, within 4.5
        # standard errors; the cells are 2^-20 wide, far below that error
        q = QuantConfig(truncation_L=3.0, quant_bits=22)
        values = min_truncated_exp(np.full(100, rate), 10_000, q, np.random.default_rng(9))
        target = -math.expm1(-rate * q.truncation_L) / rate
        assert abs(values.mean() - target) <= 4.5 * values.std() / math.sqrt(values.size)

    def test_values_stay_in_the_cells_for_positive_rate(self):
        q = QuantConfig(truncation_L=1.0, quant_bits=2)
        rng = np.random.default_rng(3)
        values = min_truncated_exp(np.full(4, 0.05), 500, q, rng)
        assert set(np.unique(values)) <= {0.125, 0.375, 0.625, 0.875}

    def test_default_rule_cell_width(self):
        _, q = solve_budget(0.1, 0.1, 500)
        assert q.truncation_L == 2.0 * math.log(500)
        assert q.cell_width <= 0.1 / 32 / 500

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_default_rule_rejects_target_outside_unit_interval(self, eps):
        with pytest.raises(ValueError, match="eps and delta must lie in"):
            solve_budget(eps, 0.1, 500)


class TestWideQuantizers:
    @pytest.mark.parametrize("bits", [30, 31, 32])
    def test_values_are_finite_in_0_L(self, bits):
        q = QuantConfig(truncation_L=20.0, quant_bits=bits)
        values = min_truncated_exp(np.array([1.0, 2.0]), 64, q, np.random.default_rng(bits))
        assert np.all((values > 0) & (values <= q.truncation_L))

    def test_solver_budget_above_30_bits_draws(self):
        _, q = solve_budget(0.1, 0.1, 150000)
        assert q.quant_bits == 31
        values = min_truncated_exp(np.ones(1), 8, q, np.random.default_rng(0))
        assert np.all((values > 0) & (values <= q.truncation_L))

    def test_bits_beyond_int64_rejected(self):
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
            got = min_truncated_exp(count * rates, 5 * r2, quant, rng)
            want = oracles.clamped_min_values(
                rates, r2, quant, (np.random.default_rng(s) for s in seeds[1:])
            )
            assert np.isfinite(got).all() and np.isfinite(want).all()
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
            got = oracles.clamped_min_values(
                rates, r2, quant, (np.random.default_rng(s) for s in seeds)
            )
            singles = [
                oracles.clamped_min_values(rates, r2, quant, [np.random.default_rng(s)])
                for s in seeds
            ]
            np.testing.assert_array_equal(got, np.minimum.reduce(singles))
            assert np.array_equal(np.isinf(got).all(axis=1), rates == 0)

    def test_no_generators_is_all_infinite(self):
        quant = QuantConfig(truncation_L=4.0, quant_bits=12)
        values = oracles.clamped_min_values([0.5, 1.0], 8, quant, iter(()))
        assert np.isinf(values).all() and values.shape == (2, 8)


def _oracle_estimates(sketch) -> np.ndarray:
    """The harmonic estimate of each row of an oracle sketch, one row at a
    time: 0 for a row no member drew."""
    return np.array([oracles.harmonic_estimate(row) for row in sketch])


def _ks_rows(a, b) -> list[float]:
    """Two-sample KS p-values of the rows of two arrays of per-replica
    estimates, one per row that a member drew; a row estimated 0 in one
    array must be 0 in the other."""
    drawn = (a > 0).any(axis=1)
    np.testing.assert_array_equal(drawn, (b > 0).any(axis=1))
    return [stats.ks_2samp(x, y).pvalue for x, y in zip(a[drawn], b[drawn])]


def _replica_estimates(rates, values, r2, quant, draws, heard) -> np.ndarray:
    """(cells, r2) estimates, one per replica: r2 phase reads of one
    replica each from the one generator draws, which draw in turn, so each
    column is a fresh replica and each estimate is 1 / its value."""
    return np.stack([_heard_estimates(rates, values, 1, quant, draws, heard)
                     for _ in range(r2)], axis=1)


class TestMergeMin:
    """The sketch a node holds is the elementwise min over the initial
    sketches of its heard-set, drawn at each cell's total rate over its
    members with one generator, and the phase reads its harmonic
    estimates.  For a given generator they are idempotent in its members
    (the heard-set is a set), free of member order, depend only on how many
    members hold each value, and the empty heard-set, whose sketch holds no
    value, estimates 0 in every cell and draws nothing.  Merging by
    elementwise min the clamped draws of member sets that share no value,
    each at its own total rate and from a generator of its own, gives the
    draw at the union's total rate in distribution only: each cell row is a
    two-sample KS test at ALPHA / rows (Bonferroni), on fixed seeds."""

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
            return _heard_estimates(rates, values, r2, self.Q, draws, mask)

        return rng, values, rates, heard

    def test_idempotent(self):
        _, _, _, heard = self._setup(0)
        members = [1, 4, 5, 9]
        assert np.array_equal(heard(members + members), heard(members))
        assert np.array_equal(heard(members + [4, 1]), heard(members))

    def test_identity_element(self):
        _, _, _, heard = self._setup(1)
        empty = heard([])
        assert (empty == 0.0).all() and empty.shape == (3,)
        draws = np.random.default_rng(7)
        state = draws.bit_generator.state
        estimates = _heard_estimates(np.ones((self.M, 3)), np.ones(self.N, dtype=np.int64),
                                     self.R2, self.Q, draws, np.zeros(self.N, dtype=bool))
        assert draws.bit_generator.state == state
        assert (estimates == 0.0).all()

    def test_one_draw_per_replica_of_each_positive_cell(self):
        # a cell of positive total rate takes r2 draws, one per replica, and
        # a cell of rate 0 none: the generator ends where one that drew
        # standard_exponential((cells, r2)) ends, and each estimate is the
        # harmonic estimate of those draws over the cell's rate summed
        # member by member, clamped to L and quantized by integer levels
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
            got = _heard_estimates(rates, values, self.R2, self.Q, draws, heard)
            raw = twin.standard_exponential((cells.sum(), self.R2)) / total[cells, None]
            assert draws.bit_generator.state == twin.bit_generator.state
            want = np.zeros(5)
            want[cells] = _oracle_estimates(
                oracles.quantize_reference(np.minimum(raw, self.Q.truncation_L), self.Q)
            )
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), order=st.permutations(range(12)))
    def test_merge_order_free(self, seed, order):
        _, _, _, heard = self._setup(seed)
        assert np.array_equal(heard(order), heard(range(self.N)))

    def test_merge_grouping_free(self):
        r2 = 2000

        for seed in range(4):
            rng, values, rates, _ = self._setup(seed, r2)

            def draw(members, draws_seed):
                # the clamped draws at the members' total rates, inf where 0
                total = np.bincount(values[members] - 1, minlength=self.M) @ rates
                out = np.full((total.size, r2), np.inf)
                cells = total > 0
                out[cells] = min_truncated_exp(total[cells], r2, self.Q,
                                               np.random.default_rng(draws_seed))
                return out

            side = rng.permutation(np.arange(self.M + 1) % 3)  # split the values, not the members
            a, b, c = (np.flatnonzero(side[values] == s) for s in range(3))
            full = 1.0 / draw(np.arange(self.N), 10)
            for merged in (
                np.minimum(draw(a, 11), draw(np.concatenate([b, c]), 12)),
                np.minimum(draw(np.concatenate([a, b]), 13), draw(c, 14)),
                np.minimum.reduce([draw(a, 15), draw(b, 16), draw(c, 17)]),
            ):
                pvalues = _ks_rows(full, 1.0 / merged)
                assert min(pvalues, default=1.0) > self.ALPHA / len(full), (seed, pvalues)

    def test_depends_only_on_counts_per_value(self):
        _, values, _, heard = self._setup(3)
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
    """_heard_estimates, one draw per cell at its total rate from one
    generator, against oracles.heard_sketch, one clamped exponential per
    member and cell, min-merged, compared through per-replica harmonic
    estimates.  The R2 replica estimates of a cell row are iid, so each row
    that a member drew is a two-sample Kolmogorov-Smirnov test at ALPHA /
    rows (Bonferroni: family-wise ALPHA per case), and a row estimated 0 on
    one side must be 0 on the other.  The seeds are fixed, so the outcome
    is too.

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

    def _case(self, name):
        """(rates, values, heard) of a case."""
        k, root_ids, counts = self.CASES[name]
        m = len(counts)
        values = np.concatenate([np.repeat(np.arange(1, m + 1), counts), [1, 2, m]])
        return _channel_rates(k, root_ids), values, np.arange(values.size) < sum(counts)

    def _draw(self, name, quant, drop_value=None):
        rates, values, heard = self._case(name)
        case = sorted(self.CASES).index(name)
        draws = np.random.default_rng(np.random.SeedSequence((case, 0)))
        got = _replica_estimates(rates, values, self.R2, quant, draws, heard)
        if drop_value is not None:
            heard &= values != drop_value
        node_seeds = np.random.SeedSequence((case, 1)).spawn(values.size)
        want = oracles.heard_sketch(rates, values, self.R2, quant, node_seeds,
                                    np.flatnonzero(heard))
        return got, 1.0 / want

    @pytest.mark.parametrize("L", [3.0, 9.0])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_law_as_member_draws(self, name, L):
        quant = QuantConfig(truncation_L=L, quant_bits=16)
        got, want = self._draw(name, quant)
        pvalues = _ks_rows(got, want)
        assert min(pvalues) > self.ALPHA / len(got), pvalues

    def test_detects_a_missing_value(self):
        # the test has power: leaving out the count-13 value from the oracle's
        # members fails it in some row
        quant = QuantConfig(truncation_L=9.0, quant_bits=16)
        got, want = self._draw("k2", quant, drop_value=4)
        pvalues = _ks_rows(got, want)
        assert min(pvalues) < self.ALPHA / len(got)

    def test_k4_zero_rate_cells_estimate_zero_and_draw_nothing(self):
        # members holding only values 1 and 2 give rate 0 in the real channel
        # of map 1 (the root -1) and in the imaginary channel of map 3 (the
        # root -i): those cells estimate exactly 0, and the generator ends
        # where a draw over the positive cells alone ends
        rates, values, _ = self._case("k4")
        heard = values <= 2
        total = np.bincount(values[heard] - 1, minlength=len(rates)) @ rates
        cells = total > 0
        assert np.flatnonzero(~cells).tolist() == [0, 5]
        quant = QuantConfig(truncation_L=9.0, quant_bits=16)
        draws, twin = np.random.default_rng(33), np.random.default_rng(33)
        got = _heard_estimates(rates, values, 64, quant, draws, heard)
        raw = twin.standard_exponential((cells.sum(), 64)) / total[cells, None]
        assert draws.bit_generator.state == twin.bit_generator.state
        assert (got[~cells] == 0.0).all()
        want = _oracle_estimates(
            oracles.quantize_reference(np.minimum(raw, quant.truncation_L), quant)
        )
        np.testing.assert_array_equal(got[cells], want)


@pytest.mark.slow
class TestHeardSketchAgainstOracle:
    """Harmonic estimates read by _heard_estimates, one draw generator per
    sketch, against those of the node-by-node clamped-member oracle, over
    300 seeds."""

    N, M, SEEDS = 60, 6, 300

    def _compare(self, rates_by_value, r2):
        _, quant = solve_budget(0.1, 0.1, self.N)
        rng = np.random.default_rng(1210)
        values = rng.integers(1, self.M + 1, size=self.N)
        heard = rng.random(self.N) < 0.8
        got, want = [], []
        for seed in range(self.SEEDS):
            draws = np.random.default_rng(np.random.SeedSequence((seed, 0)))
            node_seeds = np.random.SeedSequence((seed, 1)).spawn(self.N)
            got.append(_heard_estimates(rates_by_value, values, r2, quant, draws, heard))
            want.append(_oracle_estimates(oracles.heard_sketch(
                rates_by_value, values, r2, quant, node_seeds, np.flatnonzero(heard)
            )))
        got, want = np.ravel(got), np.ravel(want)
        se = math.sqrt((got.var() + want.var()) / got.size)
        assert abs(got.mean() - want.mean()) < 4 * se
        assert stats.ks_2samp(got, want).pvalue > 1e-3

    def test_k2_sign_table(self):
        self._compare((root_table(5, 4, 2, self.M).real.T > 0).astype(float), 16)

    def test_k3_root_table(self):
        roots = root_table(6, 4, 3, self.M).T
        rates = np.concatenate(
            [np.real(roots) + 1.0, np.imag(roots) + 1.0, np.ones(roots.shape)], axis=1
        )
        self._compare(rates, 16)


class TestHarmonic:
    def test_direct_formula(self):
        # four values in the bottom unit cell, each its midpoint 0.5
        assert harmonic_estimate(np.full(4, 0.5)) == 2.0

    @pytest.mark.parametrize("bits", [8, 19, 31, 33])
    @pytest.mark.parametrize("shape", [(7,), (5, 9), (3, 4, 11)])
    def test_matches_scalar_oracle(self, bits, shape):
        # each row reduced one Python float at a time, bit for bit
        q = QuantConfig(truncation_L=11.0, quant_bits=bits)
        rng = np.random.default_rng(bits * 100 + len(shape))
        for _ in range(20):
            levels = rng.integers(0, 1 << bits, size=shape)
            values = (levels + 0.5) * q.cell_width
            got = np.asarray(harmonic_estimate(values))
            want = np.array([oracles.harmonic_estimate(row)
                             for row in values.reshape(-1, shape[-1])])
            assert got.shape == shape[:-1]
            np.testing.assert_array_equal(got.view(np.uint64), want.reshape(got.shape).view(np.uint64))

    def test_monte_carlo_accuracy(self):
        # minima over a 100-strong population, 512 replicas: within 10% of
        # the truth in at least 95% of trials
        rng = np.random.default_rng(7)
        n_plus, r2, trials = 100, 512, 400
        _, q = solve_budget(0.1, 0.1, 1000)
        mins = np.array(
            [rng.exponential(1.0, size=(r2, n_plus)).min(axis=1) for _ in range(trials)]
        )
        estimates = harmonic_estimate(q.quantize(np.minimum(mins, q.truncation_L)))
        assert estimates.shape == (trials,)
        assert np.mean(np.abs(estimates - n_plus) <= 0.1 * n_plus) >= 0.95

    def test_quantized_vs_unquantized_relative_error(self):
        # quantization under the solver's rule shifts the harmonic estimate
        # by at most eps2 = eps/32 in relative terms
        for n_plus, eps, seed in [(50, 0.1, 0), (500, 0.1, 1), (200, 0.05, 2)]:
            _, q = solve_budget(eps, 0.1, 1000)
            rng = np.random.default_rng(seed)
            raw = rng.exponential(1.0 / n_plus, size=256)
            raw = np.minimum(raw, q.truncation_L - 1e-12)
            a = oracles.harmonic_estimate(raw)
            b = harmonic_estimate(q.quantize(raw))
            assert abs(a - b) / a <= eps / 32


class TestQuantize:
    @pytest.mark.parametrize("bits", [3, 30, 31])
    def test_cell_edges(self, bits):
        q = QuantConfig(truncation_L=8.0, quant_bits=bits)
        cells = np.array([0, 1, 2, 5, 2**bits - 1])
        edges = cells * q.cell_width  # exact: the cell width is a power of two
        np.testing.assert_array_equal(q.quantize(edges.copy()), (cells + 0.5) * q.cell_width)
        inside = q.quantize(np.nextafter(edges[1:], 0.0))
        np.testing.assert_array_equal(inside, (cells[1:] - 0.5) * q.cell_width)

    @pytest.mark.parametrize("bits", [8, 19, 31, 33])
    def test_just_below_L_clamps_to_top_cell(self, bits):
        q = QuantConfig(truncation_L=2.0 * math.log(1000), quant_bits=bits)
        near = np.array([q.truncation_L, np.nextafter(q.truncation_L, 0.0)])
        top = (2**bits - 0.5) * q.cell_width
        np.testing.assert_array_equal(q.quantize(near), [top, top])

    @pytest.mark.parametrize("bits", [1, 3, 20, 30, 31, 53, 54, 62])
    @pytest.mark.parametrize("L", [1e-3, 8.0, 13.815510557964274, 1e300])
    def test_matches_integer_level_reference(self, bits, L):
        # bit for bit against the int64 levels of oracles.quantize_reference:
        # 0, L, exact cell edges low, mid and high, nextafter just below each,
        # and uniform values on [0, L]
        q = QuantConfig(truncation_L=L, quant_bits=bits)
        top = 2**bits - 1
        cells = np.array(sorted({0, 1, 2, 3, top // 2, top // 2 + 1, max(top - 1, 0), top}),
                         dtype=float)
        edges = cells * q.cell_width
        x = np.concatenate([[0.0, L], edges, np.nextafter(edges[1:], 0.0),
                            [np.nextafter(L, 0.0)],
                            np.random.default_rng(bits).uniform(0.0, L, size=1000)])
        want = oracles.quantize_reference(x, q)
        got = q.quantize(x.copy())
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.all((got > 0) & (got <= L))


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
