import math
import warnings

import numpy as np
import pytest

from sre_lab.lotteries import DominanceVerdict, Lottery, convolve, fosd_compare
from sre_lab.statistics import (
    EXPECTATION,
    TAYLOR_CUTOFF,
    MAStatistic,
    cara_certainty_equivalent,
    cgf_branches,
    evaluate,
    is_positively_homogeneous,
    k_a,
    normalized_cgf,
)

COIN = Lottery.from_vector([0.0, 1.0])

# Frozen value of log((1 + e)/2).
K1_COIN = 0.6201145069582775


def random_lottery(rng, max_atoms=4, scale=2.0):
    n = int(rng.integers(2, max_atoms + 1))
    vals = np.sort(rng.uniform(-scale, scale, size=n))
    return Lottery(vals, rng.dirichlet(np.ones(n)))


class TestKernel:
    def test_degenerate_is_identity_for_all_a(self):
        for a in (-math.inf, -3.0, -1e-5, 0.0, 1e-5, 2.0, math.inf):
            assert k_a(Lottery.degenerate(1.75), a) == pytest.approx(1.75, abs=1e-12)

    def test_zero_is_expectation(self):
        assert k_a(COIN, 0.0) == 0.5

    def test_unit_coin_value(self):
        assert k_a(COIN, 1.0) == pytest.approx(K1_COIN, abs=1e-12)

    def test_infinite_limits(self):
        assert k_a(COIN, math.inf) == 1.0
        assert k_a(COIN, -math.inf) == 0.0

    def test_huge_tilts_do_not_warn(self):
        # |a| * spread overflows the branch test, and every exponent but one overflows to
        # -inf, a term of exactly 0; neither is an error.
        x = Lottery.from_vector([0.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert k_a(x, 1e10) == 1e300
            assert k_a(x, -1e10) == 6.931471805599453e-11
            assert evaluate(MAStatistic(((-1e10, 0.5), (1e10, 0.5))), x) == 0.5 * 1e300 + 0.5 * 6.931471805599453e-11

    def test_nan_location_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            k_a(Lottery.from_vector([0.0, 1.0, 3.0]), math.nan)

    def test_bounded_by_support(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = random_lottery(rng)
            for a in (-50.0, -1.0, -1e-5, 0.0, 1e-5, 1.0, 50.0):
                v = k_a(x, a)
                assert x.min() - 1e-12 <= v <= x.max() + 1e-12

    def test_monotone_in_a(self):
        rng = np.random.default_rng(4)
        grid = np.concatenate([[-math.inf], -np.logspace(2, -6, 25), [0.0], np.logspace(-6, 2, 25), [math.inf]])
        for _ in range(10):
            x = random_lottery(rng)
            vals = [k_a(x, a) for a in grid]
            assert np.all(np.diff(vals) >= -1e-10)

    def test_taylor_switch_is_seamless(self):
        # The two branches must agree at the cutoff itself, so crossing it
        # introduces no jump (the function's own slope Var/2 is excluded by
        # comparing both formulas at the same a).
        def taylor(x, a):
            c = x.outcomes - x.mean()
            var = float(x.weights @ c**2)
            kappa3 = float(x.weights @ c**3)
            return x.mean() + a * var / 2 + a * a * kappa3 / 6

        def lse(x, a):
            shift = x.max() if a > 0 else x.min()
            return shift + math.log(float(x.weights @ np.exp(a * (x.outcomes - shift)))) / a

        rng = np.random.default_rng(7)
        for _ in range(40):
            x = random_lottery(rng)
            spread = x.max() - x.min()
            for sign in (1.0, -1.0):
                inside = sign * (TAYLOR_CUTOFF - 1e-7) / spread   # Taylor branch
                outside = sign * (TAYLOR_CUTOFF + 1e-7) / spread  # log-sum-exp branch
                assert abs(k_a(x, inside) - lse(x, inside)) <= 1e-8
                assert abs(k_a(x, outside) - taylor(x, outside)) <= 1e-8

    def test_limit_consistency(self):
        # log(w_max)/a decay: a = 1000/range puts the kernel within
        # 1e-3*range of the extremes for weights bounded below by 1/2.
        x = COIN
        span = x.max() - x.min()
        assert abs(k_a(x, 1000.0 / span) - x.max()) <= 1e-3 * span
        assert abs(k_a(x, -1000.0 / span) - x.min()) <= 1e-3 * span

    def test_additive_on_independent_sums(self):
        rng = np.random.default_rng(9)
        grid = [-2.0, -1.0, -1e-3, -1e-5, 1e-5, 1e-3, 0.5, 1.0, 3.0]
        for _ in range(50):
            x, y = random_lottery(rng), random_lottery(rng)
            z = convolve(x, y)
            for a in grid:
                assert abs(k_a(z, a) - k_a(x, a) - k_a(y, a)) <= 1e-9


class TestKernelSlopes:
    @pytest.mark.parametrize("a", [0.0, 1.5, -0.7, 2e-5, -2e-5, 60.0, -math.inf, math.inf])
    def test_slopes_match_central_differences_on_the_simplex(self, a):
        # a = 60 on this table underflows every term of some rows at the first
        # shift, so the re-shifted branch is covered too.
        rng = np.random.default_rng(3)
        table = rng.uniform(-2.0, 2.0, size=(4, 6))
        table[0] = [-30.0, -2.0, -1.0, 0.0, 1.0, 40.0]
        lo, hi = table.min(axis=1), table.max(axis=1)
        spread = float(np.max(hi - lo)) if abs(a) > 1e-3 else 4.0  # 2e-5 * 4 is in the Taylor band
        weights = rng.dirichlet(np.ones(6))
        if a == 60.0:
            weights[-1] = 0.0
            weights /= weights.sum()
        value, slopes = normalized_cgf(table, weights, a, lo, hi, spread, grad=True)
        np.testing.assert_array_equal(value, normalized_cgf(table, weights, a, lo, hi, spread))
        h = 1e-6
        for _ in range(3):
            step = rng.normal(size=6) * (weights > 0)
            step -= weights * step.sum() / weights.sum()  # tangent to the simplex, support kept
            up = normalized_cgf(table, weights + h * step, a, lo, hi, spread)
            down = normalized_cgf(table, weights - h * step, a, lo, hi, spread)
            np.testing.assert_allclose(slopes @ step, (up - down) / (2 * h), rtol=1e-7, atol=1e-8)

    def test_reshift_ignores_unreached_columns_beyond_it(self):
        # Every term of row 0 underflows at shift 10; after the re-shift to 0,
        # exp(100 * 10) would overflow on the zero-weight column.
        table = np.array([[0.0, 10.0], [1.0, 2.0]])
        weights = np.array([1.0, 0.0])
        value, slopes = normalized_cgf(table, weights, 100.0, table.min(axis=1), table.max(axis=1), 10.0, grad=True)
        np.testing.assert_allclose(value, [0.0, 1.0], rtol=0, atol=1e-12)
        assert np.all(np.isfinite(slopes))


class TestCgfBranches:
    def test_groups_come_back_in_mean_taylor_exp_order(self):
        # PhiEvaluator lays out its rows in this order without sorting them again.
        spread = 2.0
        atoms = [(3.0, 0.1), (1e-5, 0.2), (0.0, 0.3), (-1.0, 0.15), (-2e-5, 0.25)]
        groups = cgf_branches(atoms, spread)
        assert list(groups) == ["mean", "taylor", "exp"]
        locations = {branch: a.tolist() for branch, (a, _) in groups.items()}
        assert locations == {"mean": [0.0], "taylor": [1e-5, -2e-5], "exp": [3.0, -1.0]}

    def test_only_nonempty_groups_are_returned(self):
        assert list(cgf_branches([(2.0, 0.5), (-3.0, 0.5)], 1.0)) == ["exp"]
        assert list(cgf_branches([(1e-6, 1.0)], 1.0)) == ["taylor"]
        assert cgf_branches([(-math.inf, 0.5), (math.inf, 0.5)], 1.0) == {}

    def test_extreme_atoms_are_dropped(self):
        groups = cgf_branches([(-math.inf, 0.25), (0.0, 0.5), (math.inf, 0.25)], 1.0)
        assert list(groups) == ["mean"]
        a, w = groups["mean"]
        assert a.tolist() == [0.0] and w.tolist() == [0.5]

    def test_a_constant_table_puts_every_finite_atom_in_the_mean(self):
        groups = cgf_branches([(-math.inf, 0.1), (-5.0, 0.2), (1e-6, 0.3), (0.0, 0.4)], 0.0)
        assert list(groups) == ["mean"]
        a, w = groups["mean"]
        assert a.tolist() == [-5.0, 1e-6, 0.0] and w.tolist() == [0.2, 0.3, 0.4]

    def test_taylor_band_is_below_the_cutoff(self):
        spread = 4.0
        edge = TAYLOR_CUTOFF / spread
        groups = cgf_branches([(-0.5 * edge, 0.2), (edge, 0.3), (-edge, 0.1), (0.9 * edge, 0.4)], spread)
        assert {branch: a.tolist() for branch, (a, _) in groups.items()} == {
            "taylor": [-0.5 * edge, 0.9 * edge],
            "exp": [edge, -edge],
        }

    def test_each_weight_stays_with_its_atom(self):
        atoms = [(-2.0, 0.05), (1e-7, 0.15), (0.0, 0.2), (4.0, 0.25), (-1e-7, 0.35)]
        for branch, (a, w) in cgf_branches(atoms, 1.0).items():
            assert list(zip(a.tolist(), w.tolist())) == [atom for atom in atoms if atom[0] in a.tolist()]


class TestStatisticType:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MAStatistic(((0.0, 0.5), (1.0, 0.4)))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            MAStatistic(((1.0, 0.5), (1.0, 0.5)))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            MAStatistic(((0.0, 1.2), (1.0, -0.2)))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            MAStatistic(((0.0, math.nan),))

    def test_min_max_mean_drops_zero_weights(self):
        phi = MAStatistic.min_max_mean(0.5, 0.0, 0.5)
        assert len(phi.atoms) == 2
        assert phi.has_extreme_atoms

    def test_json_round_trip_with_extremes(self):
        phi = MAStatistic(((-math.inf, 0.25), (0.0, 0.5), (math.inf, 0.25)))
        again = MAStatistic.from_json(phi.to_json())
        assert again.atoms == phi.atoms

    def test_expectation_flag(self):
        assert EXPECTATION.is_expectation
        assert not MAStatistic.single(1.0).is_expectation


class TestEvaluate:
    def test_symmetric_three_way_split(self):
        phi = MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3)
        assert evaluate(phi, COIN) == pytest.approx(0.5, abs=1e-12)

    def test_extreme_weighted_rankings(self):
        from sre_lab.testgames import make_table2_lotteries

        phi = MAStatistic.min_max_mean(0.45, 0.10, 0.45)
        lots = make_table2_lotteries()
        vals = {k: evaluate(phi, v) for k, v in lots.items()}
        assert vals["a"] == pytest.approx(10.0, abs=1e-9)
        assert vals["b"] == pytest.approx(0.45 * 5 + 0.10 * (28 / 3) + 0.45 * 18, abs=1e-9)
        assert vals["c"] == pytest.approx(10.0, abs=1e-9)
        assert vals["b"] > vals["a"] and vals["b"] > vals["c"]

    def test_min_heavy_rankings(self):
        from sre_lab.testgames import make_allais_lotteries

        phi = MAStatistic.min_max_mean(0.5, 0.45, 0.05)
        lots = make_allais_lotteries()
        vals = {k: evaluate(phi, v) for k, v in lots.items()}
        assert vals["a"] == pytest.approx(10.0, abs=1e-9)
        assert vals["b"] == pytest.approx(5.05, abs=1e-9)
        assert vals["c"] == pytest.approx(0.995, abs=1e-9)
        assert vals["d"] == pytest.approx(1.045, abs=1e-9)

    def test_additivity_with_extreme_atoms(self):
        rng = np.random.default_rng(12)
        phi = MAStatistic(((-math.inf, 0.2), (-1.0, 0.3), (0.0, 0.2), (2.0, 0.2), (math.inf, 0.1)))
        for _ in range(25):
            x, y = random_lottery(rng), random_lottery(rng)
            lhs = evaluate(phi, convolve(x, y))
            assert abs(lhs - evaluate(phi, x) - evaluate(phi, y)) <= 1e-9

    def test_monotone_with_respect_to_dominance(self):
        rng = np.random.default_rng(13)
        phi = MAStatistic(((-2.0, 0.4), (0.0, 0.3), (1.0, 0.3)))
        checked = 0
        while checked < 10:
            x, y = random_lottery(rng), random_lottery(rng)
            if fosd_compare(x, y) is DominanceVerdict.STRICT_FOSD:
                checked += 1
                assert evaluate(phi, x) >= evaluate(phi, y) - 1e-10

    def test_risk_attitude_signs(self):
        rng = np.random.default_rng(14)
        averse = MAStatistic(((-2.0, 0.5), (-0.5, 0.5)))
        loving = MAStatistic(((0.5, 0.5), (2.0, 0.5)))
        for _ in range(20):
            x = random_lottery(rng)
            assert evaluate(averse, x) <= x.mean() + 1e-10
            assert evaluate(loving, x) >= x.mean() - 1e-10


class TestCaraOracle:
    def test_degenerate(self):
        assert cara_certainty_equivalent(Lottery.degenerate(3.0), 1.0) == pytest.approx(3.0, abs=1e-12)

    def test_matches_kernel_risk_loving(self):
        assert cara_certainty_equivalent(COIN, 1.0) == pytest.approx(K1_COIN, abs=1e-9)

    def test_matches_kernel_risk_averse(self):
        v = cara_certainty_equivalent(COIN, -2.0)
        assert v < 0.5
        assert v == pytest.approx(k_a(COIN, -2.0), abs=1e-9)

    def test_matches_kernel_on_grid(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = random_lottery(rng)
            for a in (-5.0, -2.0, -0.5, 0.5, 1.0, 2.0, 5.0):
                assert cara_certainty_equivalent(x, a) == pytest.approx(k_a(x, a), abs=1e-9)
        # Wide lotteries at small |a|: |a| * spread runs from 0.01 to 90,
        # well past the Taylor expansion's range although |a| < TAYLOR_CUTOFF.
        for spread in (1e4, 1e6):
            for _ in range(5):
                x = random_lottery(rng, scale=spread / 2)
                for a in (-9e-5, -5e-5, 1e-6, 5e-5, 9e-5):
                    assert cara_certainty_equivalent(x, a) == pytest.approx(k_a(x, a), abs=1e-9 * spread)

    def test_overflow_guarded(self):
        x = Lottery.from_vector([0.0, 500.0])
        v = cara_certainty_equivalent(x, 3.0)
        assert 0.0 <= v <= 500.0
        assert v == pytest.approx(k_a(x, 3.0), abs=1e-9)

    def test_rejects_zero_and_infinite(self):
        with pytest.raises(ValueError):
            cara_certainty_equivalent(COIN, 0.0)
        with pytest.raises(ValueError):
            cara_certainty_equivalent(COIN, math.inf)


class TestHomogeneity:
    def test_extreme_supported_statistics_are_homogeneous(self):
        phi = MAStatistic(((-math.inf, 0.2), (0.0, 0.5), (math.inf, 0.3)))
        assert is_positively_homogeneous(phi, trials=64, tol=1e-9)

    def test_expectation_is_homogeneous(self):
        assert is_positively_homogeneous(EXPECTATION, trials=64, tol=1e-9)

    def test_unit_kernel_fails_with_known_counterexample(self):
        phi = MAStatistic.single(1.0)
        assert not is_positively_homogeneous(phi, trials=64, tol=1e-9)
        # The fixed counter-instance: halving the coin's stakes moves the
        # kernel from 0.620115 to 0.280930, not to half of 0.620115.
        half = Lottery.from_vector([0.0, 0.5])
        assert k_a(half, 1.0) == pytest.approx(0.2809298036201614, abs=1e-12)
        assert abs(k_a(half, 1.0) - 0.5 * K1_COIN) > 0.02
