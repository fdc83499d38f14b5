import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sre_lab import lotteries
from sre_lab.lotteries import (
    MERGE_TOL,
    WEIGHT_FLOOR,
    DominanceVerdict,
    Lottery,
    convolve,
    dominates_in_large_numbers,
    fosd_compare,
    fosd_table,
    grid_lower,
    grid_upper,
    iid_sum,
    mix,
    scale_shift,
    weakly_dominates,
)


def lottery_strategy(max_atoms=4, lo=-5.0, hi=5.0):
    def build(draw_vals):
        vals, raw_w = draw_vals
        w = np.asarray(raw_w)
        return Lottery(np.asarray(vals), w / w.sum())

    n = st.integers(2, max_atoms)
    return n.flatmap(
        lambda k: st.tuples(
            st.lists(
                st.floats(lo, hi, allow_nan=False, allow_infinity=False),
                min_size=k,
                max_size=k,
                unique=True,
            ),
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
        )
    ).map(build)


def _sequential_merge(outcomes, weights):
    """A Lottery's atoms, one outcome at a time: zero weights left out, each outcome
    within MERGE_TOL of its group's lowest merged onto it, dust dropped, renormalized."""
    keep = weights > 0
    order = np.argsort(outcomes[keep], kind="stable")
    xs, ws = [], []
    for x, w in zip(outcomes[keep][order], weights[keep][order]):
        if xs and x - xs[-1] <= MERGE_TOL:
            ws[-1] += w
        else:
            xs.append(x)
            ws.append(w)
    xs, ws = np.array(xs), np.array(ws)
    keep = ws >= WEIGHT_FLOOR
    return xs[keep], ws[keep] / ws[keep].sum()


class TestConstruction:
    def test_from_vector_two_point(self):
        x = Lottery.from_vector([0.0, 1.0])
        np.testing.assert_allclose(x.outcomes, [0.0, 1.0])
        np.testing.assert_allclose(x.weights, [0.5, 0.5])

    def test_from_vector_merges_duplicates(self):
        x = Lottery.from_vector([1.0, 1.0, 1.0])
        assert len(x) == 1
        assert x.outcomes[0] == 1.0 and x.weights[0] == 1.0

    def test_from_vector_partial_merge(self):
        x = Lottery.from_vector([0.0, 1.0, 1.0, 4.0])
        np.testing.assert_allclose(x.outcomes, [0.0, 1.0, 4.0])
        np.testing.assert_allclose(x.weights, [0.25, 0.5, 0.25])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            Lottery.from_vector([])

    def test_bad_weight_sum_rejected(self):
        with pytest.raises(ValueError):
            Lottery(np.array([0.0, 1.0]), np.array([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Lottery(np.array([0.0, 1.0]), np.array([-0.2, 1.2]))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            Lottery(np.array([0.0, 1.0]), np.array([np.nan, 0.5]))

    def test_near_equal_outcomes_merge(self):
        x = Lottery(np.array([0.0, 1e-13, 1.0]), np.array([0.25, 0.25, 0.5]))
        assert len(x) == 2
        np.testing.assert_allclose(x.weights, [0.5, 0.5])

    def test_merges_onto_each_group_lowest_outcome(self):
        # A run of gaps below MERGE_TOL that spans more than MERGE_TOL holds two groups.
        chain = Lottery(np.array([5.0, 0.0, 0.6e-12, 1.2e-12, 1.8e-12, 3.0]), np.full(6, 1 / 6))
        np.testing.assert_array_equal(chain.outcomes, [0.0, 1.2e-12, 3.0, 5.0])
        rng = np.random.default_rng(4)
        for _ in range(300):
            outcomes = rng.integers(-2, 3, size=12) + rng.normal(scale=1e-12, size=12)
            weights = rng.dirichlet(np.ones(12))
            weights[rng.random(12) < 0.3] = 0.0
            weights[rng.integers(12)] += 0.1
            weights /= weights.sum()
            x = Lottery(outcomes, weights)
            xs, ws = _sequential_merge(outcomes, weights)
            np.testing.assert_array_equal(x.outcomes, xs)
            np.testing.assert_allclose(x.weights, ws, rtol=0, atol=1e-15)

    def test_json_round_trip(self):
        x = Lottery.from_pairs([(0.5, 0.25), (-1.25, 0.75)])
        again = Lottery.from_json(x.to_json())
        np.testing.assert_array_equal(x.outcomes, again.outcomes)
        np.testing.assert_array_equal(x.weights, again.weights)


class TestConvolution:
    def test_two_coins(self):
        x = Lottery.from_vector([0.0, 1.0])
        z = convolve(x, x)
        np.testing.assert_allclose(z.outcomes, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(z.weights, [0.25, 0.5, 0.25])

    def test_degenerate_shift(self):
        x = Lottery.from_pairs([(0.0, 0.3), (2.0, 0.7)])
        z = convolve(x, Lottery.degenerate(1.5))
        np.testing.assert_allclose(z.outcomes, x.outcomes + 1.5)
        np.testing.assert_allclose(z.weights, x.weights)

    def test_iid_sum_binomial(self):
        z = iid_sum(Lottery.from_vector([0.0, 1.0]), 4)
        np.testing.assert_allclose(z.outcomes, [0, 1, 2, 3, 4])
        np.testing.assert_allclose(z.weights, np.array([1, 4, 6, 4, 1]) / 16.0)

    def test_iid_sum_one_copy(self):
        x = Lottery.from_pairs([(0.0, 0.4), (3.0, 0.6)])
        z = iid_sum(x, 1)
        np.testing.assert_array_equal(z.outcomes, x.outcomes)

    def test_iid_sum_mean_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            vals = np.sort(rng.uniform(-2, 2, size=3))
            x = Lottery(vals, rng.dirichlet(np.ones(3)))
            for m in (2, 7, 64):
                assert abs(iid_sum(x, m).mean() - m * x.mean()) <= 1e-10 * m

    def test_iid_sum_min_scaling(self):
        # The extreme atom of the m-fold sum carries weight w_min^m, so the
        # identity min(X^m) = m*min(X) only holds while that stays above the
        # weight floor; keep weights bounded away from zero here.
        rng = np.random.default_rng(6)
        for _ in range(10):
            vals = np.sort(rng.uniform(-2, 2, size=3))
            w = np.clip(rng.dirichlet(np.ones(3)), 0.2, None)
            x = Lottery(vals, w / w.sum())
            for m in (2, 7, 16):
                z = iid_sum(x, m)
                assert z.min() == pytest.approx(m * x.min(), abs=1e-11 * m)

    @settings(max_examples=40, deadline=None)
    @given(lottery_strategy(3), lottery_strategy(3))
    def test_commutative(self, x, y):
        a, b = convolve(x, y), convolve(y, x)
        np.testing.assert_allclose(a.outcomes, b.outcomes, atol=1e-12)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(lottery_strategy(3), lottery_strategy(3), lottery_strategy(3))
    def test_associative(self, x, y, z):
        left = convolve(convolve(x, y), z)
        right = convolve(x, convolve(y, z))
        assert abs(left.mean() - right.mean()) <= 1e-12 * (1 + abs(left.mean()))
        grid = np.union1d(left.outcomes, right.outcomes)
        np.testing.assert_allclose(left.cdf(grid), right.cdf(grid), atol=1e-9)


class TestDominance:
    def test_degenerate_strict(self):
        assert fosd_compare(Lottery.degenerate(1.0), Lottery.degenerate(0.0)) is DominanceVerdict.STRICT_FOSD

    def test_self_equal(self):
        x = Lottery.from_pairs([(0.0, 0.5), (2.0, 0.5)])
        assert fosd_compare(x, x) is DominanceVerdict.EQUAL

    def test_crossing_incomparable(self):
        x = Lottery.from_pairs([(0.0, 0.5), (2.0, 0.5)])
        assert fosd_compare(x, Lottery.degenerate(1.0)) is DominanceVerdict.INCOMPARABLE

    def test_weak_dominance_helper(self):
        x = Lottery.from_pairs([(0.0, 0.4), (2.0, 0.6)])
        y = Lottery.from_pairs([(0.0, 0.6), (2.0, 0.4)])
        assert weakly_dominates(x, y)
        assert not weakly_dominates(y, x)
        assert weakly_dominates(x, x)

    @settings(max_examples=40, deadline=None)
    @given(lottery_strategy(3), lottery_strategy(3))
    def test_antisymmetric(self, x, y):
        forward = fosd_compare(x, y)
        backward = fosd_compare(y, x)
        if forward is DominanceVerdict.STRICT_FOSD:
            assert backward is DominanceVerdict.STRICT_FOSD_REVERSED
        if forward is DominanceVerdict.EQUAL:
            assert backward is DominanceVerdict.EQUAL

    @settings(max_examples=30, deadline=None)
    @given(lottery_strategy(3), lottery_strategy(3), lottery_strategy(3))
    def test_preserved_by_common_convolution(self, x, y, z):
        if fosd_compare(x, y) is DominanceVerdict.STRICT_FOSD:
            assert fosd_compare(convolve(x, z), convolve(y, z)) in (
                DominanceVerdict.STRICT_FOSD,
                DominanceVerdict.WEAK_ONLY,
            )


class TestFosdTable:
    @pytest.mark.parametrize(
        "gap, forward, backward",
        [
            (5e-11, DominanceVerdict.EQUAL, DominanceVerdict.EQUAL),
            (5e-10, DominanceVerdict.WEAK_ONLY, DominanceVerdict.WEAK_ONLY),
            (2e-9, DominanceVerdict.STRICT_FOSD, DominanceVerdict.STRICT_FOSD_REVERSED),
        ],
    )
    def test_verdict_thresholds(self, gap, forward, backward):
        # y moves `gap` of mass from 0 up to 1, so F_y sits `gap` below F_x on [0, 1).
        x = Lottery.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        y = Lottery.from_pairs([(0.0, 0.5 - gap), (1.0, 0.5 + gap)])
        assert fosd_compare(y, x) is forward
        assert fosd_compare(x, y) is backward
        assert weakly_dominates(y, x)
        assert weakly_dominates(x, y) is (gap < 1e-10)
        assert fosd_compare(y, x, tol=1e-8) is DominanceVerdict.EQUAL

    def test_rows_match_pairwise_lotteries(self, monkeypatch):
        rng = np.random.default_rng(3)
        table = rng.integers(-2, 3, size=(5, 7)).astype(float)
        weights = rng.dirichlet(np.ones(7))
        weights[[1, 4]] = 0.0
        weights /= weights.sum()
        keep = weights > 0
        lots = [Lottery(row[keep], weights[keep]) for row in table]
        for block in (lotteries.FOSD_BLOCK, 1):  # every row a at once, then one at a time
            monkeypatch.setattr(lotteries, "FOSD_BLOCK", block)
            verdict, weak = fosd_table(table, weights)
            for a, b in np.ndindex(5, 5):
                assert verdict[a, b] is fosd_compare(lots[a], lots[b])
                assert weak[a, b] == weakly_dominates(lots[a], lots[b])
        assert len(set(verdict.ravel())) >= 3


    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_tolerance_must_be_nonnegative_and_finite(self, tol):
        x = Lottery.from_pairs([(0.0, 0.5), (1.0, 0.5)])
        y = Lottery.degenerate(0.0)
        with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
            fosd_compare(x, x, tol=tol)
        with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
            weakly_dominates(x, y, tol=tol)
        with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
            fosd_table(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.5, 0.5]), tol=tol)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="no atoms left"):
            fosd_table(np.array([[0.0, 1.0], [1.0, 2.0]]), np.array([np.nan, 1.0]))

    @pytest.mark.parametrize(
        "outcomes, weights",
        [(np.zeros((2, 2)), [0.0, 0.0]), (np.empty((2, 0)), np.empty(0))],
        ids=["no-positive-weight", "no-columns"],
    )
    def test_rows_without_atoms_rejected_without_a_warning(self, outcomes, weights):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lottery has no atoms left after filtering"):
                fosd_table(outcomes, weights)

    def test_no_rows(self):
        verdict, weak = fosd_table(np.empty((0, 3)), np.full(3, 1 / 3))
        assert verdict.shape == weak.shape == (0, 0)


class TestGridApproximations:
    def test_dyadic_lottery_fixed(self):
        x = Lottery.from_vector([0.0, 1.0])
        for f in (grid_lower, grid_upper):
            z = f(x, 2)
            np.testing.assert_allclose(z.outcomes, x.outcomes)
            np.testing.assert_allclose(z.weights, x.weights)

    def test_third_weights_round(self):
        x = Lottery.from_pairs([(0.0, 1 / 3), (1.0, 2 / 3)])
        lower = grid_lower(x, 2)
        np.testing.assert_allclose(lower.outcomes, [0.0, 1.0])
        np.testing.assert_allclose(lower.weights, [0.5, 0.5])

    def test_degenerate_unchanged(self):
        x = Lottery.degenerate(2.5)
        for n in (1, 3, 8):
            assert grid_lower(x, n).is_close(x)
            assert grid_upper(x, n).is_close(x)

    def test_bracketing_and_monotone_in_n(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            vals = np.sort(rng.uniform(-2, 2, size=4))
            x = Lottery(vals, rng.dirichlet(np.ones(4)))
            previous_lower = None
            for n in range(1, 9):
                lower, upper = grid_lower(x, n), grid_upper(x, n)
                assert weakly_dominates(x, lower)
                assert weakly_dominates(upper, x)
                if previous_lower is not None:
                    assert weakly_dominates(lower, previous_lower)
                previous_lower = lower

    def test_out_of_range_n(self):
        x = Lottery.from_vector([0.0, 1.0])
        with pytest.raises(ValueError):
            grid_lower(x, 0)
        with pytest.raises(ValueError):
            grid_upper(x, 21)


class TestMixAndScale:
    def test_mix_endpoints(self):
        x = Lottery.from_vector([0.0, 1.0])
        z = Lottery.degenerate(5.0)
        assert mix(x, 1.0, z).is_close(x)
        assert mix(x, 0.0, z).is_close(z)

    def test_mix_half(self):
        z = mix(Lottery.degenerate(0.0), 0.5, Lottery.degenerate(1.0))
        assert z.is_close(Lottery.from_vector([0.0, 1.0]))

    def test_scale_shift_identity(self):
        x = Lottery.from_pairs([(0.0, 0.25), (1.5, 0.75)])
        assert scale_shift(x, 1.0, 0.0).is_close(x)

    def test_scale_negative_reverses(self):
        x = Lottery.from_pairs([(0.0, 0.25), (1.0, 0.75)])
        z = scale_shift(x, -1.0)
        np.testing.assert_allclose(z.outcomes, [-1.0, 0.0])
        np.testing.assert_allclose(z.weights, [0.75, 0.25])

    def test_small_stake_embedding(self):
        z = scale_shift(Lottery.from_vector([0.0, 1.0]), 0.1, 0.6)
        np.testing.assert_allclose(z.outcomes, [0.6, 0.7])
        np.testing.assert_allclose(z.weights, [0.5, 0.5])

    def test_zero_scale_collapses(self):
        z = scale_shift(Lottery.from_vector([0.0, 1.0]), 0.0, 2.0)
        assert z.is_close(Lottery.degenerate(2.0))


class TestLargeNumbers:
    def test_immediate_dominance(self):
        res = dominates_in_large_numbers(Lottery.degenerate(1.0), Lottery.degenerate(0.0), cap=8)
        assert res.found and res.m == 1

    def test_identical_lotteries_violate_hypothesis(self):
        x = Lottery.from_vector([0.0, 1.0])
        res = dominates_in_large_numbers(x, x, cap=8)
        assert res.verdict == "hypothesis_violated"
        assert res.m is None

    def test_tempting_pair_fails_probe(self):
        # The middle-a dip: a nearly-sure 2.4 beats the 1-or-4 coin for
        # moderately risk-averse kernels, so the scan refuses the pair.
        x = Lottery.from_vector([1.0, 4.0])
        y = Lottery.from_pairs([(0.0, 0.05), (2.4, 0.95)])
        res = dominates_in_large_numbers(x, y, cap=16)
        assert res.verdict == "hypothesis_violated"
        assert any(a < 0 for a in res.probe_failures)

    def test_threshold_pair(self):
        x = Lottery.from_vector([1.0, 4.0])
        y = Lottery.from_pairs([(0.0, 0.1), (2.2, 0.9)])
        res = dominates_in_large_numbers(x, y, cap=64)
        assert res.found and res.m == 48

    def test_cap_too_small_reports(self):
        x = Lottery.from_vector([1.0, 4.0])
        y = Lottery.from_pairs([(0.0, 0.1), (2.2, 0.9)])
        res = dominates_in_large_numbers(x, y, cap=16)
        assert res.verdict == "cap_exceeded"

    def test_cap_bounds(self):
        x = Lottery.from_vector([0.0, 1.0])
        with pytest.raises(ValueError):
            dominates_in_large_numbers(x, x, cap=513)
