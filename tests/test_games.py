import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sre_lab import lotteries
from sre_lab.games import (
    Game,
    MixedProfile,
    PlayerPermutation,
    _fosd_by_player,
    action_lottery,
    action_payoff_matrix,
    blow_up,
    blend_games,
    compose,
    compose_generalized,
    is_strategically_equivalent,
    marginal_profiles,
    opponent_weights,
    permute_players,
    permute_profile,
    product_profile,
    push_profile,
    scale_game,
    strategic_shift,
    two_player_game,
)
from sre_lab.lotteries import DominanceVerdict, fosd_table
from sre_lab.testgames import make_card_game, make_matching_pennies, make_test_game_gx, random_game


def random_two_by_two(rng):
    return Game((2, 2), rng.uniform(-2, 2, size=(2, 2, 2)))


def rng_strategy():
    return st.integers(0, 10_000).map(np.random.default_rng)


class TestGameType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Game((2, 2), np.zeros((2, 2, 3)))

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            Game((2, 2), bad)

    def test_label_arity_checked(self):
        with pytest.raises(ValueError):
            Game((2, 2), np.zeros((2, 2, 2)), (("a",), ("a", "b")))

    def test_json_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        g = Game((2, 3), rng.uniform(-1, 1, size=(2, 3, 2)), (("u", "d"), ("l", "m", "r")))
        blob = json.dumps(g.to_json())
        again = Game.from_json(json.loads(blob))
        assert np.array_equal(g.payoffs, again.payoffs)
        assert again.labels == g.labels
        assert json.dumps(again.to_json()) == blob

    def test_flat_order_is_last_player_fastest(self):
        tensor = np.arange(8, dtype=float).reshape(2, 2, 2)
        g = Game((2, 2), tensor)
        flat = g.to_json()["payoffs"]
        # profile (0,1) sits at flat index 1
        assert flat[1] == [tensor[0, 1, 0], tensor[0, 1, 1]]


class TestMixedProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            MixedProfile((np.array([0.5, 0.6]),))
        with pytest.raises(ValueError):
            MixedProfile((np.array([-0.1, 1.1]),))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            MixedProfile((np.array([np.nan, 0.5]), np.array([0.5, 0.5])))

    def test_uniform_and_pure(self):
        g = make_matching_pennies()
        u = MixedProfile.uniform(g)
        assert u.is_uniform()
        p = MixedProfile.pure(g, [1, 0])
        assert p.distributions[0][1] == 1.0

    def test_json_round_trip(self):
        p = MixedProfile((np.array([0.25, 0.75]), np.array([1.0])))
        q = MixedProfile.from_json(p.to_json())
        assert p.sup_distance(q) == 0.0


class TestCompose:
    def test_two_choice_games_add(self):
        gx, gy = make_test_game_gx(1.5), make_test_game_gx(2.0)
        combo = compose(gx, gy)
        assert combo.action_counts == (4, 1)
        u1 = combo.player_payoffs(0).ravel()
        # composite action order: (h,h), (h,l), (l,h), (l,l)
        np.testing.assert_allclose(u1, [3.5, 1.5, 2.0, 0.0])

    def test_zero_game_is_identity(self):
        g = make_matching_pennies()
        zero = Game((1, 1), np.zeros((1, 1, 2)))
        combo = compose(g, zero)
        assert combo.action_counts == g.action_counts
        np.testing.assert_array_equal(combo.payoffs, g.payoffs)

    def test_pennies_on_pennies_doubles_win(self):
        g = make_matching_pennies()
        combo = compose(g, g)
        assert combo.player_payoffs(0)[0, 0] == 2.0

    def test_player_count_mismatch(self):
        with pytest.raises(ValueError):
            compose(make_matching_pennies(), make_test_game_gx(1.0, n_players=3))

    @settings(max_examples=20, deadline=None)
    @given(rng_strategy())
    def test_associative_exactly(self, rng):
        g, h, k = (random_two_by_two(rng) for _ in range(3))
        left = compose(compose(g, h), k)
        right = compose(g, compose(h, k))
        assert np.array_equal(left.payoffs, right.payoffs)


class TestComposeGeneralized:
    def test_identity_matches_plain(self):
        rng = np.random.default_rng(1)
        g, h = random_two_by_two(rng), random_two_by_two(rng)
        combo = compose_generalized(g, h, lambda v: v, lambda v: v)
        assert np.array_equal(combo.payoffs, compose(g, h).payoffs)

    def test_identity_is_compose_on_labelled_three_player_games(self):
        rng = np.random.default_rng(3)
        g = Game((2, 1, 3), rng.normal(size=(2, 1, 3, 3)), (("a", "b"), ("c",), ("d", "e", "f")))
        h = Game((1, 2, 2), rng.normal(size=(1, 2, 2, 3)), (("p",), ("q", "r"), ("s", "t")))
        combo, plain = compose_generalized(g, h, lambda v: v, lambda v: v), compose(g, h)
        assert combo.action_counts == plain.action_counts == (2, 2, 6)
        assert np.array_equal(combo.payoffs, plain.payoffs)
        assert combo.labels == plain.labels and combo.labels[2][:2] == ("d+s", "d+t")

    @pytest.mark.parametrize(
        "payoffs, phi, bracket, message",
        [
            # arctan stays below pi/2, and arctan(2) + arctan(2) exceeds it.
            ([1.0, 2.0], np.arctan, None, "could not bracket phi inverse from above"),
            ([-1.0, -2.0], np.arctan, None, "could not bracket phi inverse from below"),
            ([1.0, 2.0], np.exp, (0.0, 1.0), "supplied bracket does not cover"),
        ],
    )
    def test_bracket_search_failures(self, payoffs, phi, bracket, message):
        g = Game((2,), np.array(payoffs)[:, None])
        with pytest.raises(ValueError, match=message):
            compose_generalized(g, g, phi, bracket=bracket)

    def test_exponential_reparameterization(self):
        g = Game((2,), np.array([[0.0], [1.0]]))
        h = Game((2,), np.array([[0.0], [2.0]]))
        combo = compose_generalized(g, h, np.exp, np.log)
        # log(e^1 + e^2)
        assert combo.player_payoffs(0).ravel()[3] == pytest.approx(2.3132616875182226, abs=1e-12)

    def test_bisected_inverse(self):
        g = Game((2,), np.array([[0.0], [1.0]]))
        h = Game((2,), np.array([[0.0], [2.0]]))
        combo = compose_generalized(g, h, np.exp)
        assert combo.player_payoffs(0).ravel()[3] == pytest.approx(2.3132616875182226, abs=1e-9)

    def test_bisected_inverse_of_log_stays_in_its_domain(self):
        # The inverse's lower end, 0.25, is less than the bracket's first step below the
        # payoffs, so the search meets log's domain and steps back into it, silently.
        g = Game((2,), np.array([[0.5], [0.6]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            combo = compose_generalized(g, g, np.log)
        np.testing.assert_allclose(combo.payoffs, compose_generalized(g, g, np.log, np.exp).payoffs, rtol=0, atol=1e-12)

    def test_cubic_associativity(self):
        rng = np.random.default_rng(2)
        cube = lambda v: np.power(v, 3)
        root = lambda v: np.sign(v) * np.abs(v) ** (1.0 / 3.0)
        g, h, k = (random_two_by_two(rng) for _ in range(3))
        left = compose_generalized(compose_generalized(g, h, cube, root), k, cube, root)
        right = compose_generalized(g, compose_generalized(h, k, cube, root), cube, root)
        assert np.max(np.abs(left.payoffs - right.payoffs)) < 1e-9

    def test_non_monotone_rejected(self):
        g = make_matching_pennies()
        with pytest.raises(ValueError):
            compose_generalized(g, g, lambda v: np.asarray(v) ** 2)

    def test_phi_that_overflows_on_the_payoffs_rejected(self):
        # v ** (10^40 + 1) overflows on matching pennies' payoff range: a ValueError that
        # names that, and no RuntimeWarning on the way.
        g = make_matching_pennies()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="phi is not finite on the payoff range"):
                compose_generalized(g, g, lambda v: np.power(v, 10**40 + 1))


class TestProductProfile:
    def test_uniform_times_uniform(self):
        g = make_matching_pennies()
        prod = product_profile(MixedProfile.uniform(g), MixedProfile.uniform(g))
        np.testing.assert_allclose(prod.distributions[0], [0.25] * 4)

    def test_spot_values(self):
        p = MixedProfile((np.array([1.0, 0.0]), np.array([1.0])))
        q = MixedProfile((np.array([0.3, 0.7]), np.array([1.0])))
        prod = product_profile(p, q)
        np.testing.assert_allclose(prod.distributions[0], [0.3, 0.7, 0.0, 0.0])

    @settings(max_examples=20, deadline=None)
    @given(rng_strategy())
    def test_marginals_recover_factors(self, rng):
        g, h = random_two_by_two(rng), random_two_by_two(rng)
        p = MixedProfile(tuple(rng.dirichlet(np.ones(2)) for _ in range(2)))
        q = MixedProfile(tuple(rng.dirichlet(np.ones(2)) for _ in range(2)))
        left, right = marginal_profiles(product_profile(p, q), g, h)
        assert left.sup_distance(p) <= 1e-15
        assert right.sup_distance(q) <= 1e-15


class TestPermutation:
    def test_identity(self):
        g = make_matching_pennies()
        pi = PlayerPermutation.identity(2)
        assert np.array_equal(permute_players(g, pi).payoffs, g.payoffs)

    def test_swap_asymmetric_game(self):
        rng = np.random.default_rng(3)
        g = Game((2, 3), rng.uniform(-1, 1, size=(2, 3, 2)))
        swapped = permute_players(g, PlayerPermutation.swap(2, 0, 1))
        assert swapped.action_counts == (3, 2)
        for i in range(2):
            for j in range(3):
                assert swapped.payoffs[j, i, 0] == g.payoffs[i, j, 1]
                assert swapped.payoffs[j, i, 1] == g.payoffs[i, j, 0]

    def test_double_swap_is_identity(self):
        rng = np.random.default_rng(4)
        g = random_two_by_two(rng)
        pi = PlayerPermutation.swap(2, 0, 1)
        again = permute_players(permute_players(g, pi), pi)
        assert np.array_equal(again.payoffs, g.payoffs)

    def test_profile_permutation(self):
        p = MixedProfile((np.array([0.2, 0.8]), np.array([0.5, 0.5])))
        swapped = permute_profile(p, PlayerPermutation.swap(2, 0, 1))
        np.testing.assert_array_equal(swapped.distributions[0], p.distributions[1])

    def test_invalid_mapping(self):
        with pytest.raises(ValueError):
            PlayerPermutation((0, 0))


class TestStrategicTransforms:
    def test_zero_shift_unchanged(self):
        g = make_matching_pennies()
        shifted = strategic_shift(g, [np.zeros(2), np.zeros(2)])
        assert np.array_equal(shifted.payoffs, g.payoffs)

    def test_column_shift_fixture(self):
        # Player 1 payoffs (0,2 / 1,1) shifted by (0, -1) on the opponent's
        # column become (0,1 / 1,0); the two games are equivalent.
        left = two_player_game([[0.0, 2.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]])
        shifted = strategic_shift(left, [np.array([0.0, -1.0]), np.zeros(2)])
        np.testing.assert_array_equal(shifted.player_payoffs(0), [[0.0, 1.0], [1.0, 0.0]])
        assert is_strategically_equivalent(left, shifted, tol=1e-12)

    def test_random_shift_preserves_margins(self):
        rng = np.random.default_rng(5)
        g = Game((2, 3), rng.uniform(-2, 2, size=(2, 3, 2)))
        shifts = [rng.uniform(-1, 1, size=(3,)), rng.uniform(-1, 1, size=(2,))]
        shifted = strategic_shift(g, shifts)
        for i in range(2):
            diff = g.player_payoffs(i) - shifted.player_payoffs(i)
            assert np.max(diff.max(axis=i) - diff.min(axis=i)) <= 1e-12
        assert is_strategically_equivalent(g, shifted)

    def test_scaling_is_not_equivalent(self):
        g = make_matching_pennies()
        assert not is_strategically_equivalent(g, scale_game(g, 2.0))

    def test_self_equivalent(self):
        g = make_matching_pennies()
        assert is_strategically_equivalent(g, g)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_nonnegative_and_finite(self, tol):
        # Unchecked, NaN and inf call two unrelated 3x3 games equivalent, and -1 calls a
        # game inequivalent to itself.
        g = random_game(np.random.default_rng(0), players=(2, 2), actions=(3, 3))
        h = random_game(np.random.default_rng(1), players=(2, 2), actions=(3, 3))
        for pair in ((g, h), (g, g)):
            with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
                is_strategically_equivalent(*pair, tol=tol)

    def test_shift_shape_checked(self):
        with pytest.raises(ValueError):
            strategic_shift(make_matching_pennies(), [np.zeros(3), np.zeros(2)])


class TestScaleAndBlend:
    def test_scale_one_unchanged(self):
        g = make_matching_pennies()
        assert np.array_equal(scale_game(g, 1.0).payoffs, g.payoffs)

    def test_scale_half(self):
        g = make_matching_pennies()
        assert scale_game(g, 0.5).payoffs.max() == 0.5

    def test_scale_round_trip(self):
        rng = np.random.default_rng(6)
        g = random_two_by_two(rng)
        back = scale_game(scale_game(g, 0.37), 1.0 / 0.37)
        assert np.max(np.abs(back.payoffs - g.payoffs)) <= 1e-15

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_game(make_matching_pennies(), 0.0)

    def test_blend_endpoints(self):
        rng = np.random.default_rng(7)
        g, h = random_two_by_two(rng), random_two_by_two(rng)
        assert np.array_equal(blend_games(g, h, 1.0).payoffs, g.payoffs)
        assert np.array_equal(blend_games(g, h, 0.0).payoffs, h.payoffs)


class TestBlowUp:
    def test_identity_maps(self):
        g = make_matching_pennies()
        blown = blow_up(g, [[0, 1], [0, 1]])
        assert np.array_equal(blown.payoffs, g.payoffs)

    def test_duplicate_row(self):
        g = make_matching_pennies()
        blown = blow_up(g, [[0, 0, 1], [0, 1]])
        assert blown.action_counts == (3, 2)
        assert np.array_equal(blown.payoffs[0], blown.payoffs[1])
        p = MixedProfile((np.array([0.2, 0.3, 0.5]), np.array([0.4, 0.6])))
        pushed = push_profile(p, [[0, 0, 1], [0, 1]], g)
        np.testing.assert_allclose(pushed.distributions[0], [0.5, 0.5])

    def test_every_profile_solves_flattened_zero_game(self):
        # Blowing up the one-action all-zero game yields an all-zero game on
        # any action sets, and pushing any profile lands on the point mass.
        zero = Game((1, 1), np.zeros((1, 1, 2)))
        blown = blow_up(zero, [[0, 0, 0], [0, 0]])
        assert blown.action_counts == (3, 2)
        assert np.all(blown.payoffs == 0.0)
        p = MixedProfile((np.array([0.1, 0.2, 0.7]), np.array([0.5, 0.5])))
        pushed = push_profile(p, [[0, 0, 0], [0, 0]], zero)
        assert pushed.distributions[0][0] == pytest.approx(1.0)

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError):
            blow_up(make_matching_pennies(), [[0, 0], [0, 1]])

    def test_expected_payoffs_preserved(self):
        rng = np.random.default_rng(8)
        g = Game((2, 3), rng.uniform(-2, 2, size=(2, 3, 2)))
        maps = [[0, 1, 0, 1], [0, 1, 2, 2]]
        blown = blow_up(g, maps)
        p = MixedProfile((rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))))
        pushed = push_profile(p, maps, g)
        for i in range(2):
            lifted = sum(
                p.distributions[i][a] * action_lottery(blown, i, a, p).mean()
                for a in range(blown.action_counts[i])
            )
            base = sum(
                pushed.distributions[i][b] * action_lottery(g, i, b, pushed).mean()
                for b in range(g.action_counts[i])
            )
            assert lifted == pytest.approx(base, abs=1e-12)


class TestActionLottery:
    def test_matching_pennies_spot(self):
        g = make_matching_pennies()
        p = MixedProfile((np.array([0.5, 0.5]), np.array([0.3, 0.7])))
        lot = action_lottery(g, 0, 0, p)
        np.testing.assert_allclose(lot.outcomes, [-1.0, 1.0])
        np.testing.assert_allclose(lot.weights, [0.7, 0.3])

    def test_pure_opponent_degenerate(self):
        g = make_matching_pennies()
        p = MixedProfile.pure(g, [0, 1])
        lot = action_lottery(g, 0, 0, p)
        assert len(lot) == 1 and lot.outcomes[0] == -1.0

    def test_card_game_small_stake_row(self):
        g = make_card_game(0.6, [0.0, 1.0], 0.1)
        p = MixedProfile.uniform(g)
        # (a_r, identity shuffle) row: 0.6 + 0.1 * card value
        a_r_identity = list(g.labels[0]).index("a_r|01")
        lot = action_lottery(g, 0, a_r_identity, p)
        np.testing.assert_allclose(lot.outcomes, [0.6, 0.7])
        np.testing.assert_allclose(lot.weights, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(9)
        g = Game((2, 3, 2), rng.uniform(-1, 1, size=(2, 3, 2, 3)))
        p = MixedProfile(tuple(rng.dirichlet(np.ones(k)) for k in g.action_counts))
        for i in range(3):
            for a in range(g.action_counts[i]):
                lot = action_lottery(g, i, a, p)
                assert abs(lot.weights.sum() - 1.0) <= 1e-12
                for outcome in lot.outcomes:
                    assert np.any(np.isclose(g.player_payoffs(i), outcome, atol=1e-12))

    def test_index_bounds(self):
        g = make_matching_pennies()
        with pytest.raises(ValueError):
            action_lottery(g, 2, 0, MixedProfile.uniform(g))
        with pytest.raises(ValueError):
            action_lottery(g, 0, 5, MixedProfile.uniform(g))


class TestFosdByPlayer:
    """One table for a whole profile gives each player the verdicts of their own fosd_table."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(32)
        cases = []
        for n in range(60):
            counts = tuple(int(k) for k in rng.integers(2, 6, size=2 + n % 3))
            if len(set(counts)) == 1:  # unequal counts, so the rows have different widths
                counts = counts[:-1] + (counts[-1] % 5 + 2,)
            shape = counts + (len(counts),)
            payoffs = rng.integers(-2, 3, size=shape) + rng.normal(scale=1e-11, size=shape)
            dists = []
            for k in counts:
                w = rng.dirichlet(np.ones(k))
                w[rng.random(k) < 0.3] = 0.0  # opponents' zero-weight actions
                w[rng.integers(k)] += 0.1
                dists.append(w / w.sum())
            cases.append((Game(counts, payoffs), MixedProfile(tuple(dists))))
        return cases

    @pytest.mark.parametrize("block", [lotteries.FOSD_BLOCK, 1])
    def test_blocks_match_per_player_tables(self, monkeypatch, block):
        monkeypatch.setattr(lotteries, "FOSD_BLOCK", block)
        strict = 0
        for g, p in self._cases():
            blocks = _fosd_by_player(g, p)
            assert len(blocks) == g.num_players
            for i, (verdict, weak) in enumerate(blocks):
                ref_verdict, ref_weak = fosd_table(action_payoff_matrix(g, i), opponent_weights(p.distributions, i))
                assert verdict.shape == (g.action_counts[i],) * 2
                assert np.array_equal(verdict, ref_verdict)
                assert np.array_equal(weak, ref_weak)
                strict += int(np.count_nonzero(verdict == DominanceVerdict.STRICT_FOSD))
        assert strict > 100
