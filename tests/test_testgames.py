import math
from collections import Counter

import numpy as np
import pytest

from sre_lab import testgames
from sre_lab.games import MixedProfile
from sre_lab.lotteries import Lottery
from sre_lab.statistics import EXPECTATION, MAStatistic, evaluate
from sre_lab.solvers import ConceptSpec, SolveResult, SolverConfig, solve_lqre
from sre_lab.testgames import (
    ElicitationResult,
    card_keep_actions,
    elicit_fosd,
    elicit_qre,
    fixture,
    fixture_ids,
    make_allais_lotteries,
    make_card_game,
    make_iia_game,
    make_no_extremal_eq_game,
    make_sure_thing_game,
    make_table2_lotteries,
    make_test_game_gx,
    make_vmp,
    random_game,
    vector_from_lottery,
)
from test_acceptance import _random_statistic

FAST = SolverConfig(multistarts=2, max_iters=20_000)


class TestDominantChoiceGames:
    def test_payoffs(self):
        g = make_test_game_gx(1.5, n_players=3)
        assert g.action_counts == (2, 1, 1)
        assert g.payoffs[0, 0, 0, 0] == 1.5
        assert g.payoffs[1, 0, 0, 0] == 0.0
        assert np.all(g.payoffs[..., 1:] == 0.0)

    def test_logit_play_closed_form(self):
        res = solve_lqre(make_test_game_gx(1.0), EXPECTATION, 1.0, FAST)
        e = math.e
        assert res.profiles[0].distributions[0][0] == pytest.approx(e / (1 + e), abs=1e-9)

    def test_zero_stake_gives_uniform(self):
        res = solve_lqre(make_test_game_gx(0.0), EXPECTATION, 3.0, FAST)
        assert res.profiles[0].is_uniform(tol=1e-12)

    def test_needs_two_players(self):
        with pytest.raises(ValueError):
            make_test_game_gx(1.0, n_players=1)


class TestCardGames:
    def test_spot_payoffs(self):
        g = make_card_game(0.6, [0.0, 1.0], 0.1)
        labels = list(g.labels[0])
        row = labels.index("a_r|01")
        assert g.payoffs[row, 1, 0] == pytest.approx(0.7)
        assert g.payoffs[row, 0, 0] == pytest.approx(0.6)

    def test_keep_rows_show_card_values(self):
        x = [0.0, 2.0, 5.0]
        g = make_card_game(1.0, x, 0.05)
        for row, label in enumerate(g.labels[0]):
            choice, perm_digits = label.split("|")
            perm = [int(c) for c in perm_digits]
            for card in range(3):
                drawn = x[perm[card]]
                expected = drawn if choice == "a_x" else 1.0 + 0.05 * drawn
                assert g.payoffs[row, card, 0] == pytest.approx(expected)
                assert g.payoffs[row, card, 1] == pytest.approx(-drawn)

    def test_take_r_rows_stay_near_r(self):
        r, x, eps = 0.3, [-1.0, 2.0], 0.01
        g = make_card_game(r, x, eps)
        bound = eps * max(abs(v) for v in x) + 1e-12
        for row, label in enumerate(g.labels[0]):
            if label.startswith("a_r"):
                assert np.max(np.abs(g.payoffs[row, :, 0] - r)) <= bound

    def test_keep_action_index_helper(self):
        g = make_card_game(0.5, [0.0, 1.0], 0.1)
        np.testing.assert_array_equal(card_keep_actions(g), [0, 1])

    def test_constant_values_rejected(self):
        with pytest.raises(ValueError):
            make_card_game(0.5, [1.0, 1.0], 0.1)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -0.1])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        # An infinite epsilon times the card value 0 was NaN, with a RuntimeWarning,
        # before the game was rejected for its payoffs.
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            make_card_game(0.4, [0, 1], epsilon)

    def test_size_limits(self):
        with pytest.raises(ValueError):
            make_card_game(0.5, [0.0], 0.1)
        with pytest.raises(ValueError):
            make_card_game(0.5, list(range(6)), 0.1)


class TestSureThingGames:
    def test_payoffs(self):
        g = make_sure_thing_game(0.25, [0.0, 1.0, 2.0], n_players=3)
        assert g.action_counts == (2, 3, 1)
        assert np.all(g.payoffs[0, :, :, 0] == 0.25)
        np.testing.assert_array_equal(g.payoffs[1, :, 0, 0], [0.0, 1.0, 2.0])
        assert np.all(g.payoffs[..., 1:] == 0.0)

    def test_logit_play_mixes_opponent_uniformly(self):
        g = make_sure_thing_game(0.4, [0.0, 1.0])
        res = solve_lqre(g, MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3), 2.0, FAST)
        for p in res.profiles:
            np.testing.assert_allclose(p.distributions[1], [0.5, 0.5], atol=1e-12)


class TestNamedFixtures:
    def test_vmp_entries(self):
        g = make_vmp()
        np.testing.assert_array_equal(g.player_payoffs(0), [[2.0, 0.0], [-1.0, 1.0]])
        np.testing.assert_array_equal(g.player_payoffs(1), [[0.0, 1.0], [1.0, 0.0]])

    def test_no_extremal_entries(self):
        g = make_no_extremal_eq_game(0.25)
        assert g.payoffs[0, 0, 0] == 5.0
        assert g.payoffs[0, 0, 1] == 0.0
        np.testing.assert_array_equal(g.player_payoffs(0), [[5.0, 0.0], [-4.0, 1.0]])

    def test_allais_lotteries(self):
        lots = make_allais_lotteries()
        b = lots["b"]
        np.testing.assert_allclose(b.outcomes, [0.0, 10.0, 11.0])
        np.testing.assert_allclose(b.weights, [0.01, 0.89, 0.10])
        assert b.mean() == pytest.approx(10.0, abs=1e-12)
        assert lots["a"].is_close(Lottery.degenerate(10.0))

    def test_table2_lotteries(self):
        lots = make_table2_lotteries()
        b = lots["b"]
        np.testing.assert_allclose(b.outcomes, [5.0, 18.0])
        np.testing.assert_allclose(b.weights, [2 / 3, 1 / 3])
        assert b.min() == 5.0 and b.max() == 18.0

    def test_iia_game_entries(self):
        g = make_iia_game(beta=1.0, delta=0.0)
        np.testing.assert_array_equal(g.player_payoffs(0), [[0, 2], [1, 1], [0, 0]])
        np.testing.assert_array_equal(g.player_payoffs(1), [[0, 0], [0, 0], [1, 0]])

    def test_registry_round_trip(self):
        for fid in fixture_ids():
            obj = fixture(fid)
            assert obj is not None

    def test_registry_card_id(self):
        g = fixture("card:r=.6,x=0,1,eps=.1")
        h = make_card_game(0.6, [0.0, 1.0], 0.1)
        np.testing.assert_array_equal(g.payoffs, h.payoffs)

    def test_registry_unknown(self):
        # Only the listed ids resolve; a parametrized id that is not listed is unknown.
        for fid in ("nonsense", "g_x:2"):
            with pytest.raises(KeyError):
                fixture(fid)


class TestRandomCorpus:
    def test_shapes_and_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = random_game(rng)
            assert 2 <= g.num_players <= 3
            assert all(2 <= k <= 4 for k in g.action_counts)
            assert np.max(np.abs(g.payoffs)) <= 2.0


class TestVectorFromLottery:
    def test_round_trip(self):
        x = Lottery.from_pairs([(0.0, 0.25), (1.0, 0.5), (4.0, 0.25)])
        vec = vector_from_lottery(x)
        assert sorted(vec.tolist()) == [0.0, 1.0, 1.0, 4.0]

    def test_rejects_irrational(self):
        x = Lottery.from_pairs([(0.0, 1 / math.pi), (1.0, 1 - 1 / math.pi)])
        with pytest.raises(ValueError):
            vector_from_lottery(x, max_m=50)


@pytest.fixture
def solve_calls(monkeypatch):
    """One entry per solve_lqre call made from testgames: its result."""
    calls = []
    inner = testgames.solve_lqre

    def counted(*args, **kwargs):
        calls.append(inner(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(testgames, "solve_lqre", counted)
    return calls


class TestElicitQre:
    def test_mean_response_symmetric(self):
        spec = ConceptSpec.lqre(1.0, solver=FAST)
        assert elicit_qre(spec, [0.0, 1.0]) == pytest.approx(0.5, abs=1e-9)

    def test_symmetric_statistic_symmetric_lottery(self):
        phi = MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3)
        spec = ConceptSpec.lqre(1.0, phi, FAST)
        assert elicit_qre(spec, [0.0, 1.0]) == pytest.approx(0.5, abs=1e-9)

    def test_extreme_weighted_statistic(self):
        phi = MAStatistic.min_max_mean(0.45, 0.10, 0.45)
        spec = ConceptSpec.lqre(1.0, phi, FAST)
        assert elicit_qre(spec, [0.0, 10.0, 20.0]) == pytest.approx(10.0, abs=1e-6)

    def test_requires_positive_lambda(self):
        with pytest.raises(ValueError):
            elicit_qre(ConceptSpec.lqre(0.0), [0.0, 1.0])

    def test_criterion_06_triples_take_few_solves(self, solve_calls):
        # Criterion 06's logit cases, drawn as it draws them.  Each probe is
        # one single-start solve, and a value takes about three of them.
        # A probe reaches its fixed point in one Newton step, and in none at
        # the threshold itself, where the uniform profile already is it: no
        # damped or continuation step, and both players' values evaluated
        # once per point.
        rng = np.random.default_rng(4242)
        for trial in range(20):
            phi = _random_statistic(rng)
            x = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 5)))
            spec = ConceptSpec.lqre((0.5, 1.0, 5.0)[trial % 3], phi, FAST)
            assert abs(elicit_qre(spec, x) - evaluate(phi, Lottery.from_vector(x))) <= 1e-12
        assert len(solve_calls) <= 80
        for d in (result.diagnostics for result in solve_calls):
            assert d["newton_steps"] <= 1 and d["jacobians"] == d["newton_steps"], d
            assert d["iterations"] == d["continuation_steps"] == 0, d
            assert d["evaluator_calls"] == 2 * (1 + d["newton_steps"]), d
        assert Counter(result.diagnostics["newton_steps"] for result in solve_calls) == {1: 38, 0: 20}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "lam, phi, x",
        [
            (1000.0, EXPECTATION, [0.0, 10.0]),
            (200.0, MAStatistic(((-1.0, 0.5), (1.0, 0.5))), [-50.0, 50.0]),
            (50.0, EXPECTATION, [0.0, 1.0, 30.0]),
        ],
    )
    def test_saturated_play_is_bisected(self, lam, phi, x):
        # A choice probability underflows to 0 at an end of the bracket, so
        # its log-odds are infinite and the search bisects past them.
        spec = ConceptSpec.lqre(lam, phi, FAST)
        assert abs(elicit_qre(spec, x) - evaluate(phi, Lottery.from_vector(x))) <= 1e-12

    def test_rejects_empty_vector(self, solve_calls):
        with pytest.raises(ValueError, match="at least one value"):
            elicit_qre(ConceptSpec.lqre(1.0), [])
        assert solve_calls == []

    @pytest.mark.parametrize("end, pick", [(-math.inf, min), (math.inf, max)])
    def test_extreme_statistic_returns_bracket_end(self, solve_calls, end, pick):
        # The minimum and the maximum sit on an end of the bracket [min x, max x].
        x = [0.5, -1.0, 2.0]
        spec = ConceptSpec.lqre(1.0, MAStatistic(((end, 1.0),)), FAST)
        assert elicit_qre(spec, x) == pick(x)
        assert len(solve_calls) == 2

    def test_constant_vector_needs_no_solve(self, solve_calls):
        assert elicit_qre(ConceptSpec.lqre(1.0, solver=FAST), [0.3, 0.3]) == 0.3
        assert solve_calls == []

    def test_log_odds_with_a_jump_end_on_the_bracket_width(self, monkeypatch):
        # Log-odds of +1 below r = 0.3 and -1 from it on never meet the |h| stop: each step
        # leaves the bracket, so the search bisects until the bracket is narrower than its
        # stop and returns the bracket's midpoint.
        probes = []

        def jump(game, phi, lam, cfg):
            r = game.payoffs[0, 0, 0]
            probes.append(r)
            p_x = 1.0 / (1.0 + math.exp(-lam if r < 0.3 else lam))
            return SolveResult([MixedProfile((np.array([1.0 - p_x, p_x]), np.full(2, 0.5)))], [0.0], {})

        monkeypatch.setattr(testgames, "solve_lqre", jump)
        assert elicit_qre(ConceptSpec.lqre(1.0, solver=FAST), [0.0, 1.0]) == pytest.approx(0.3, abs=1e-12)
        assert len(probes) < testgames.ELICIT_MAX_PROBES

    def test_indifference_at_returned_threshold(self):
        phi = MAStatistic(((-2.0, 0.4), (1.0, 0.6)))
        spec = ConceptSpec.lqre(1.0, phi, FAST)
        x = [0.0, 0.5, 2.0]
        r_star = elicit_qre(spec, x)
        res = solve_lqre(make_sure_thing_game(r_star, x), phi, 1.0, FAST)
        assert abs(res.profiles[0].distributions[0][1] - 0.5) <= 1e-9


class TestElicitFosd:
    def test_mean_response_two_cards(self):
        spec = ConceptSpec.nash(solver=FAST)
        result = elicit_fosd(spec, [0.0, 1.0], eps_schedule=(1e-1, 1e-2), bisection_iters=14)
        assert isinstance(result, ElicitationResult)
        assert len(result.estimates) == 2
        # thresholds shrink the stake by the burn fraction: (1 - eps) * 0.5
        assert result.estimates[0][1] == pytest.approx(0.45, abs=2e-3)
        assert result.estimates[1][1] == pytest.approx(0.495, abs=2e-3)
        assert result.estimates[0][1] <= result.estimates[1][1] + 1e-6

    @staticmethod
    def _empty_from_probe(monkeypatch, failing):
        """Let solve_nash_phi find nothing from probe number `failing` (counted from 1) on."""
        inner, probes = testgames.solve_nash_phi, []

        def solve(*args):
            probes.append(args)
            return inner(*args) if len(probes) < failing else SolveResult([], [], {})

        monkeypatch.setattr(testgames, "solve_nash_phi", solve)

    def test_inconclusive_end_probe_gives_no_estimate(self, monkeypatch):
        self._empty_from_probe(monkeypatch, 1)
        result = elicit_fosd(ConceptSpec.nash(solver=FAST), [0.0, 1.0], eps_schedule=(1e-1, 1e-2))
        assert result.estimates == [] and math.isnan(result.extrapolated)
        assert not result.converged and result.iterations == 2
        assert result.notes == "inconclusive probe at eps=0.1"

    def test_inconclusive_bisection_probe_keeps_earlier_estimates(self, monkeypatch):
        # Two end probes and three bisection probes at eps = 0.1, then two end probes at
        # eps = 0.01; its first bisection probe finds nothing.
        self._empty_from_probe(monkeypatch, 8)
        result = elicit_fosd(ConceptSpec.nash(solver=FAST), [0.0, 1.0], eps_schedule=(1e-1, 1e-2), bisection_iters=3)
        assert [eps for eps, _ in result.estimates] == [0.1]
        assert result.extrapolated == result.estimates[0][1]
        assert not result.converged and result.iterations == 8
        assert result.notes == "inconclusive probe at eps=0.01"

    def test_rejects_extreme_atoms(self):
        phi = MAStatistic.min_max_mean(0.2, 0.6, 0.2)
        with pytest.raises(ValueError):
            elicit_fosd(ConceptSpec.nash_phi(phi), [0.0, 1.0])

    def test_rejects_long_vectors(self):
        with pytest.raises(ValueError):
            elicit_fosd(ConceptSpec.nash(), [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            # With no bisection step each bracket's midpoint would come back as converged.
            ({"bisection_iters": 0}, "bisection_iters"),
            ({"bisection_iters": -3}, "bisection_iters"),
            ({"bisection_iters": 2.5}, "bisection_iters"),
            ({"eps_schedule": ()}, "eps_schedule"),
            ({"eps_schedule": (1e-1, 0.0)}, "eps_schedule"),
            ({"eps_schedule": (-1e-2,)}, "eps_schedule"),
            ({"eps_schedule": (math.nan,)}, "eps_schedule"),
            ({"eps_schedule": (math.inf, 1e-2)}, "eps_schedule"),
        ],
        ids=["iters=0", "iters=-3", "iters=2.5", "eps=()", "eps=0", "eps<0", "eps=nan", "eps=inf"],
    )
    def test_rejects_bad_schedules(self, monkeypatch, kwargs, message):
        monkeypatch.setattr(testgames, "solve_nash_phi", None)  # no probe may run
        with pytest.raises(ValueError, match=message):
            elicit_fosd(ConceptSpec.nash_phi(MAStatistic.single(1.0)), [0.0, 1.0], **kwargs)

    def test_rejects_empty_vector(self, monkeypatch):
        monkeypatch.setattr(testgames, "solve_nash_phi", None)  # no probe may run
        with pytest.raises(ValueError, match="at least one value"):
            elicit_fosd(ConceptSpec.nash(), [])
