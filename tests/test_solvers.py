import ctypes
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sre_lab.games import (
    Game,
    MixedProfile,
    PlayerPermutation,
    action_lottery,
    blow_up,
    compose,
    permute_players,
    permute_profile,
    product_profile,
    strategic_shift,
)
from sre_lab import solvers, symmetry
from sre_lab.statistics import EXPECTATION, TAYLOR_CUTOFF, MAStatistic, evaluate, k_a
from sre_lab.solvers import (
    CONCEPT_KINDS,
    DEDUP_TOL,
    GAP_TOL,
    ConceptSpec,
    PhiEvaluator,
    SolveResult,
    SolverConfig,
    SolverError,
    homotopy_lambda_grid,
    homotopy_trace,
    logit_response,
    solve_lqre,
    solve_nash_phi,
    verify_fosd_nash,
    verify_fosd_qre,
    verify_lqre,
    verify_nash_phi,
)
from sre_lab.solvers import (
    _best_response_gap,
    _continue,
    _dismissed,
    _dominated_actions,
    _indexed,
    _linear_step,
    _logit,
    _logit_system,
    _newton,
    _solve_supports,
    _support_listing,
    _support_system,
)
from sre_lab.testgames import (
    elicit_fosd,
    elicit_qre,
    make_card_game,
    make_matching_pennies,
    make_no_extremal_eq_game,
    make_sure_thing_game,
    make_test_game_gx,
    make_vmp,
    random_game,
    random_shifts,
)

FAST = SolverConfig(multistarts=4, max_iters=20_000)
MMM_THIRDS = MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3)
K_PAIR = MAStatistic(((-1.0, 0.5), (1.0, 0.5)))
EXTREME_MIX = MAStatistic(((-math.inf, 0.125), (math.inf, 0.125), (0.0, 0.75)))


class TestLogitResponse:
    def test_uniform_is_fixed_in_pennies(self):
        g = make_matching_pennies()
        p = MixedProfile.uniform(g)
        assert logit_response(g, EXPECTATION, 1.0, p).sup_distance(p) < 1e-15

    def test_closed_form_on_dominant_choice(self):
        g = make_test_game_gx(1.0)
        out = logit_response(g, EXPECTATION, 1.0, MixedProfile.uniform(g))
        e = math.e
        np.testing.assert_allclose(out.distributions[0], [e / (1 + e), 1 / (1 + e)], atol=1e-12)

    def test_lambda_zero_gives_uniform(self):
        rng = np.random.default_rng(0)
        g = random_game(rng)
        start = MixedProfile(tuple(rng.dirichlet(np.ones(k)) for k in g.action_counts))
        out = logit_response(g, MMM_THIRDS, 0.0, start)
        assert out.is_uniform(tol=1e-15)

    def test_values_match_lottery_statistic_when_mixed(self):
        rng = np.random.default_rng(1)
        phi = MAStatistic(((-math.inf, 0.2), (-0.7, 0.3), (0.0, 0.2), (1.3, 0.3)))
        for _ in range(10):
            g = random_game(rng)
            p = MixedProfile(tuple(rng.dirichlet(np.ones(k)) for k in g.action_counts))
            evaluator = PhiEvaluator(g, phi)
            for i in range(g.num_players):
                vals = _player_values(evaluator, i, p.distributions, boundary_pure=True)
                for a in range(g.action_counts[i]):
                    direct = evaluate(phi, action_lottery(g, i, a, p))
                    assert abs(vals[a] - direct) <= 1e-12
        # The raw statistic against the slow reference, with opponents that
        # leave actions unplayed, payoffs up to 1e6 and finite atoms on both
        # sides of the Taylor switch: |a| near TAYLOR_CUTOFF, where wide
        # payoffs put |a| * spread far past it, and |a| * spread near it.
        for scale in (1.0, 1e2, 1e4, 1e6):
            near = TAYLOR_CUTOFF / scale
            phi = MAStatistic(
                (
                    (-math.inf, 0.1),
                    (-1.1 * TAYLOR_CUTOFF, 0.15),
                    (-0.9 * near, 0.15),
                    (0.0, 0.1),
                    (1.1 * near, 0.15),
                    (0.9 * TAYLOR_CUTOFF, 0.15),
                    (math.inf, 0.2),
                )
            )
            for _ in range(15):
                g = random_game(rng, payoff_range=(-2.0 * scale, 2.0 * scale))
                dists = []
                for k in g.action_counts:
                    d = rng.dirichlet(np.ones(k))
                    d[rng.random(k) < 0.4] = 0.0
                    if not d.any():
                        d[rng.integers(k)] = 1.0
                    dists.append(d / d.sum())
                p = MixedProfile(tuple(dists))
                evaluator = PhiEvaluator(g, phi)
                for i in range(g.num_players):
                    vals = _player_values(evaluator, i, p.distributions, boundary_pure=False)
                    for a in range(g.action_counts[i]):
                        direct = evaluate(phi, action_lottery(g, i, a, p))
                        assert abs(vals[a] - direct) <= 1e-9 * scale

    def test_negative_lambda_rejected(self):
        g = make_matching_pennies()
        with pytest.raises(ValueError):
            logit_response(g, EXPECTATION, -1.0, MixedProfile.uniform(g))

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        g = make_matching_pennies()
        with pytest.raises(ValueError, match="lambda must be"):
            logit_response(g, EXPECTATION, lam, MixedProfile.uniform(g))
        with pytest.raises(ValueError, match="lambda must be"):
            solve_lqre(g, EXPECTATION, lam, FAST)
        with pytest.raises(ValueError, match="lambda must be"):
            ConceptSpec.lqre(lam)
        with pytest.raises(ValueError, match="lambda_max"):
            homotopy_trace(g, EXPECTATION, lam, 10, FAST)
        spec = ConceptSpec.lqre(1.0)
        object.__setattr__(spec, "lam", lam)  # past ConceptSpec's own check
        with pytest.raises(ValueError, match="lambda must be"):
            elicit_qre(spec, [0.0, 1.0])


class TestVerifyLqre:
    def test_uniform_pennies_residual(self):
        g = make_matching_pennies()
        assert verify_lqre(g, EXPECTATION, 1.0, MixedProfile.uniform(g)) < 1e-15

    def test_perturbed_profile_fails(self):
        g = make_matching_pennies()
        p = MixedProfile((np.array([0.51, 0.49]), np.array([0.49, 0.51])))
        assert verify_lqre(g, EXPECTATION, 1.0, p) > 1e-3

    def test_lambda_zero_uniform_exact(self):
        g = make_vmp()
        assert verify_lqre(g, EXPECTATION, 0.0, MixedProfile.uniform(g)) == 0.0


class TestSolveLqre:
    def test_pennies_unique_uniform(self):
        for lam in (0.5, 1.0, 5.0):
            res = solve_lqre(make_matching_pennies(), EXPECTATION, lam, FAST)
            assert len(res.profiles) == 1
            assert res.profiles[0].is_uniform(tol=1e-9)

    def test_one_player_plays_the_softmax(self):
        # No opponent: each start's stacked values have no mix to sum over.
        u = np.array([1.0, 2.0, 0.5])
        res = solve_lqre(Game((3,), u[:, None]), EXPECTATION, 2.0, FAST)
        softmax = np.exp(2.0 * u) / np.exp(2.0 * u).sum()
        assert len(res.profiles) == 1
        np.testing.assert_allclose(res.profiles[0].distributions[0], softmax, atol=1e-12)

    @pytest.mark.parametrize("index", [1, 112], ids=["2p-4x2", "3p-2x2x4"])
    @pytest.mark.parametrize(
        "phi",
        [EXPECTATION, MMM_THIRDS, MAStatistic(((-math.inf, 0.3), (2.0, 0.7))), K_PAIR],
        ids=["mean", "mmm", "extreme", "kpair"],
    )
    def test_lambda_zero_is_uniform_without_evaluating(self, index, phi):
        # At lambda = 0 the response ignores the payoffs: every start gets the
        # uniform profile, exactly, and nothing is evaluated.
        rng = np.random.default_rng(777)
        game = [random_game(rng) for _ in range(index + 1)][index]
        res = solve_lqre(game, phi, 0.0, FAST)
        [profile] = res.profiles
        for dist, k in zip(profile.distributions, game.action_counts):
            assert dist.tolist() == np.full(k, 1.0 / k).tolist()
        assert res.residuals == [0.0]
        d = res.diagnostics
        assert d["evaluator_calls"] == d["newton_steps"] == d["jacobians"] == 0
        assert d["starts_converged"] == d["starts"] == FAST.multistarts + 1
        lam, first = homotopy_trace(game, phi, 1.0, 3, FAST)[0]
        assert lam == 0.0
        assert [dist.tolist() for dist in first.distributions] == [dist.tolist() for dist in profile.distributions]

    def test_interior_starts_are_drawn_once_and_read_only(self, monkeypatch):
        counts, seed = (2, 4, 2), 3
        want = np.random.default_rng(seed)
        want = [np.concatenate([want.dirichlet(np.ones(k)) for k in counts]) for _ in range(2)]
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *args: built.append(args) or default_rng(*args))
        solvers._interior_starts.cache_clear()
        starts = solvers._interior_starts(counts, seed, 2)
        assert len(built) == 1 and starts.shape == (3, sum(counts))  # one concatenated profile per row
        assert starts[0].tolist() == np.concatenate([np.full(k, 1.0 / k) for k in counts]).tolist()
        for got, drawn in zip(starts[1:], want):
            assert got.tolist() == drawn.tolist()
        assert not starts.flags.writeable
        assert solvers._interior_starts(counts, seed, 2) is starts and len(built) == 1

    def test_vmp_regression_fixture(self):
        res = solve_lqre(make_vmp(), EXPECTATION, 1.0, FAST)
        assert len(res.profiles) == 1
        np.testing.assert_allclose(
            res.profiles[0].distributions[0], [0.66302565, 0.33697435], atol=1e-6
        )
        np.testing.assert_allclose(
            res.profiles[0].distributions[1], [0.41920171, 0.58079829], atol=1e-6
        )
        assert res.residuals[0] < 1e-10

    def test_all_profiles_pass_verifier(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            g = random_game(rng)
            res = solve_lqre(g, K_PAIR, 1.0, FAST)
            for p in res.profiles:
                assert verify_lqre(g, K_PAIR, 1.0, p) <= FAST.tol_fixed_point

    def test_solutions_are_fosd_qre_members(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_game(rng)
            res = solve_lqre(g, EXPECTATION, 1.0, FAST)
            for p in res.profiles:
                assert verify_fosd_qre(g, p) == []

    def test_existence_with_extreme_atoms(self):
        rng = np.random.default_rng(4)
        phi = MAStatistic(((-math.inf, 0.3), (2.0, 0.7)))
        for lam in (0.0, 1.0, 5.0):
            g = random_game(rng)
            res = solve_lqre(g, phi, lam, FAST)
            assert len(res.profiles) >= 1

    def test_stiff_lambda_still_converges(self):
        res = solve_lqre(make_matching_pennies(), EXPECTATION, 50.0, FAST)
        assert res.profiles and res.profiles[0].is_uniform(tol=1e-8)

    def test_diagnostics_reported(self):
        res = solve_lqre(make_matching_pennies(), EXPECTATION, 1.0, FAST)
        assert res.diagnostics["starts"] == FAST.multistarts + 1
        assert res.diagnostics["starts_converged"] >= 1

    def test_iterations_count_damped_steps_apart_from_newton_steps(self):
        # At lambda = 0 the response is uniform, so the uniform profile is the
        # only fixed point: every start gets it without an evaluation.
        d = solve_lqre(make_vmp(), EXPECTATION, 0.0, SolverConfig(multistarts=2)).diagnostics
        assert d == {
            "iterations": 0,
            "newton_steps": 0,
            "continuation_steps": 0,
            "starts": 3,
            "starts_converged": 3,
            "evaluator_calls": 0,
            "jacobians": 0,
        }
        # Criterion 03's corpus game 4 (2x4x2) under the mean at lambda = 5:
        # two of the three starts take the damped warm-up, 16 steps each, and
        # the Newton retry leaves both.  The first Dirichlet start's fixed point
        # is regular with index +1, so neither takes its homotopy path, and the
        # index check's one evaluation and Jacobian are counted.  evaluator_calls
        # counts the speculative halvings of rejected Newton steps too.
        rng = np.random.default_rng(777)
        game = [random_game(rng) for _ in range(5)][4]
        d = solve_lqre(game, EXPECTATION, 5.0, SolverConfig(multistarts=2, max_iters=20_000)).diagnostics
        assert d == {
            "iterations": 32,
            "newton_steps": 23,
            "continuation_steps": 0,
            "starts": 3,
            "starts_converged": 1,
            "evaluator_calls": 468,
            "jacobians": 28,
        }

    def test_a_solve_keeps_the_starts_within_tol_when_others_fail(self):
        # Criterion 03's corpus game 4 (2x4x2) under the mean at lambda = 5, with one
        # continuation step per path: the first Dirichlet start converges, and the other two
        # take the warm-up and the Newton retry, then stop on their paths.  A start has
        # converged exactly when its residual is within tol: a failed one keeps its best
        # damped iterate, with that point's own residual, and the solve returns the others.
        rng = np.random.default_rng(777)
        game = [random_game(rng) for _ in range(5)][4]
        cfg = SolverConfig(multistarts=2, max_iters=1)
        res = solve_lqre(game, EXPECTATION, 5.0, cfg)
        assert res.diagnostics["starts"] == 3 and res.diagnostics["starts_converged"] == 1
        assert len(res.profiles) == 1 and res.residuals[0] == pytest.approx(2.2e-11, rel=0.05)
        assert all(r <= cfg.tol_fixed_point for r in res.residuals)
        evaluator = PhiEvaluator(game, EXPECTATION)
        starts = solvers._interior_starts(game.action_counts, cfg.seed, cfg.multistarts)
        points, residuals = solvers._solve_fixed_point(evaluator, 5.0, starts, cfg)
        assert [r <= cfg.tol_fixed_point for r in residuals] == [False, True, False]
        assert residuals[1] == res.residuals[0]
        for point, r in zip(points, residuals):
            profile = MixedProfile(tuple(np.split(point, np.cumsum(game.action_counts)[:-1])))
            assert abs(verify_lqre(game, EXPECTATION, 5.0, profile) - r) <= 1e-12

    def test_evaluator_calls_and_jacobians_match_counters(self, monkeypatch):
        # Criterion 03's corpus game 196 at lambda = 5 (op 590 of the benchmark): its
        # starts run every stage, Newton, the damped warm-up, the index check, whose
        # two fixed points sum to 0, and the homotopy path.
        # The first Newton stage, the warm-up, the Newton retry and the index check
        # each run the starts as one stack, so a damped step and a Jacobian call count
        # one per row of the stack they serve, and a values call one per player and row.
        # Only the damped steps evaluate without derivatives: each is one response.
        rng = np.random.default_rng(777)
        game = [random_game(rng) for _ in range(197)][196]
        calls, jacobians, responses, newton_steps, continuation_steps = [], [], [], [], []
        values = PhiEvaluator.values

        def counted_values(self, p, boundary_pure=True, grad=False):
            rows = len(p) if p.ndim > 1 else 1
            calls.extend(list(range(self.n)) * rows)
            if not grad:
                responses.extend([boundary_pure] * rows)
            return values(self, p, boundary_pure, grad)

        logit_system = solvers._logit_system

        def counted_system(evaluator, lam):
            system = logit_system(evaluator, lam)

            def counted(theta):
                f, jacobian = system(theta)

                def taken(rows=None):
                    stack = theta if rows is None else theta[rows]
                    jacobians.extend(stack if stack.ndim > 1 else [stack])
                    return jacobian(rows)

                return f, taken

            logit_systems.add(counted)
            return counted

        logit_systems = set()
        newton, continuation = solvers._newton, solvers._continue

        def counted_newton(system, *args):
            out = newton(system, *args)
            if system in logit_systems:  # Newton on p - T(p), not a corrector
                newton_steps.append(int(np.sum(out[2])))
            return out

        def counted_continuation(*args, **kwargs):
            out = continuation(*args, **kwargs)
            continuation_steps.append(out[2])
            return out

        monkeypatch.setattr(PhiEvaluator, "values", counted_values)
        monkeypatch.setattr(solvers, "_logit_system", counted_system)
        monkeypatch.setattr(solvers, "_newton", counted_newton)
        monkeypatch.setattr(solvers, "_continue", counted_continuation)
        d = solve_lqre(game, EXPECTATION, 5.0, SolverConfig(multistarts=2, max_iters=20_000)).diagnostics
        assert d["iterations"] > 0 and d["newton_steps"] > 0 and d["continuation_steps"] > 0
        assert d["iterations"] == len(responses) and all(responses)  # each a response, on the logit functional
        assert d["newton_steps"] == sum(newton_steps)
        assert d["continuation_steps"] == sum(continuation_steps)
        assert d["evaluator_calls"] == len(calls)
        assert d["jacobians"] == len(jacobians)
        assert 0 < d["jacobians"] < d["evaluator_calls"]

    def test_diagnostics_are_the_evaluators_counts(self, monkeypatch):
        # Corpus game 196 at lambda = 5, whose starts run every stage: the solve reports
        # the counts its evaluator kept, and the evaluator keeps no other count.
        rng = np.random.default_rng(777)
        game = [random_game(rng) for _ in range(197)][196]
        evaluators = []

        class Recorded(PhiEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                evaluators.append(self)

        monkeypatch.setattr(solvers, "PhiEvaluator", Recorded)
        d = solve_lqre(game, EXPECTATION, 5.0, SolverConfig(multistarts=2, max_iters=20_000)).diagnostics
        [evaluator] = evaluators
        keys = ("iterations", "newton_steps", "continuation_steps", "evaluator_calls", "jacobians")
        assert set(evaluator.counts) == set(keys)
        assert {key: d[key] for key in keys} == evaluator.counts


    def test_newton_retried_after_few_damped_iterations(self):
        # Criterion 03's corpus op 239: a 4x3 game under K_PAIR at lambda = 5.
        # One start needs a few damped steps to reach Newton's basin, and
        # Newton retried early takes it from there.
        rng = np.random.default_rng(777)
        for _ in range(80):
            g = random_game(rng)
        assert g.action_counts == (4, 3)
        res = solve_lqre(g, K_PAIR, 5.0, SolverConfig(multistarts=2, max_iters=20_000))
        assert res.diagnostics["iterations"] < 200
        assert res.profiles
        for p in res.profiles:
            assert verify_lqre(g, K_PAIR, 5.0, p) <= 1e-8

    @pytest.mark.parametrize("index, counts", [(112, (2, 2, 4)), (48, (4, 2, 2))])
    def test_stuck_corpus_starts_finish_on_their_homotopy_path(self, index, counts):
        # Criterion 03's corpus at lambda = 5 under the expectation (ops 338
        # and 146 of the benchmark).  Damped iteration orbits there: one start
        # of game 112 runs 20,000 iterations without converging, and two of
        # game 48 about 8,200 each before they converge.  Each start is solved
        # alone, with no other start's fixed point to certify the solve, so a
        # start that stages 1 and 2 leave takes its path, and every start converges.
        rng = np.random.default_rng(777)
        games = [random_game(rng) for _ in range(index + 1)]
        g = games[index]
        assert g.action_counts == counts
        cfg = SolverConfig(multistarts=2, max_iters=20_000)
        paths = 0
        for start in solvers._interior_starts(g.action_counts, cfg.seed, cfg.multistarts):
            evaluator = PhiEvaluator(g, EXPECTATION)
            [point], [res] = solvers._solve_fixed_point(evaluator, 5.0, start[None], cfg)
            assert res <= cfg.tol_fixed_point
            assert evaluator.counts["iterations"] <= 16
            assert verify_lqre(g, EXPECTATION, 5.0, solvers._profile(evaluator, point)) <= 1e-8
            paths += evaluator.counts["continuation_steps"] > 0
        assert paths == (1 if index == 112 else 2)


def _coordination_points(lam):
    """The symmetric 2x2 coordination game's logit fixed points at lam > 2, as concatenated profiles.

    Each player plays its first action with the probability p = sigma(lam (2p - 1)),
    sigma the logistic function: p = 1/2, and the root above 1/2 (by bisection) and its mirror.
    """
    lo, hi = 0.5 + 1e-9, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 1.0 / (1.0 + math.exp(-lam * (2.0 * mid - 1.0))) > mid else (lo, mid)
    return [np.array([q, 1.0 - q, q, 1.0 - q]) for q in (lo, 0.5, 1.0 - lo)]


COORDINATION = Game((2, 2), np.eye(2)[:, :, None].repeat(2, axis=2))


class TestIndexSum:
    """solvers._index_sum, and the check it gives _solve_fixed_point before any start takes its homotopy path."""

    def test_coordination_game(self):
        # At lam = 4 the coordination game has three fixed points: the two near its pure
        # equilibria, each of index +1, and the uniform profile, of index -1.  All three sum
        # to 1, and any two to 2 or 0.  The check evaluates the points as one stack and
        # builds one Jacobian per point, counted like any other.
        high, middle, low = _coordination_points(4.0)
        evaluator = PhiEvaluator(COORDINATION, EXPECTATION)
        assert solvers._index_sum(evaluator, 4.0, np.array([high, middle, low])) == 1
        assert evaluator.counts["jacobians"] == 3 and evaluator.counts["evaluator_calls"] == 3 * 2
        system = _logit_system(evaluator, 4.0)
        assert max(np.abs(system(x)[0]).max() for x in (high, middle, low)) <= 1e-12
        for pair, total in (([high, low], 2), ([high, middle], 0), ([middle, low], 0)):
            assert solvers._index_sum(evaluator, 4.0, np.array(pair)) == total
        assert [solvers._index_sum(evaluator, 4.0, x[None]) for x in (high, middle, low)] == [1, -1, 1]
        # solve_lqre reaches all three from its default starts.
        found = _solution_arrays(solve_lqre(COORDINATION, EXPECTATION, 4.0, SolverConfig()))
        assert _same_set(found, [high, middle, low], 1e-9)

    def test_matching_pennies(self):
        # The uniform profile is the only fixed point, of index +1, at every lambda.
        evaluator = PhiEvaluator(make_matching_pennies(), EXPECTATION)
        for lam in (0.5, 5.0, 50.0):
            assert solvers._index_sum(evaluator, lam, np.full((1, 4), 0.5)) == 1

    def test_a_point_that_is_not_regular_gives_no_sum(self):
        # At lam = 2 the uniform profile of the coordination game is where its branch
        # splits: det(I - dT/dp) is 0 there, below solvers.REGULAR_DET, so no sum is read,
        # alone or beside a regular point, while just above lam = 2 it is regular of index -1.
        evaluator = PhiEvaluator(COORDINATION, EXPECTATION)
        uniform = np.full(4, 0.5)
        assert abs(np.linalg.det(_logit_system(evaluator, 2.0)(uniform)[1]())) < solvers.REGULAR_DET
        assert solvers._index_sum(evaluator, 2.0, uniform[None]) is None
        assert solvers._index_sum(evaluator, 2.0, np.array([uniform, [0.9, 0.1, 0.9, 0.1]])) is None
        assert solvers._index_sum(evaluator, 2.5, uniform[None]) == -1

    @staticmethod
    def _corpus_solve(monkeypatch, index, cfg):
        # Criterion 03's corpus game at lambda = 5 under the expectation, with every index sum recorded.
        sums = []
        index_sum = solvers._index_sum

        def recorded(evaluator, lam, points):
            sums.append(index_sum(evaluator, lam, points))
            return sums[-1]

        monkeypatch.setattr(solvers, "_index_sum", recorded)
        rng = np.random.default_rng(777)
        game = [random_game(rng) for _ in range(index + 1)][index]
        return game, solve_lqre(game, EXPECTATION, 5.0, cfg), sums

    @pytest.mark.parametrize("index, total, found", [(180, 2, 2), (196, 0, 3)], ids=["op542", "op590"])
    def test_a_sum_other_than_one_sends_the_stuck_starts_down_their_paths(self, monkeypatch, index, total, found):
        # Ops 542 and 590 of the benchmark, under criterion 03's configuration: the starts that
        # stages 1 and 2 leave follow their paths, and all three converge; op 590's path reaches
        # the third fixed point, which makes its set's indices sum to 1.
        cfg = SolverConfig(multistarts=2, max_iters=20_000)
        game, res, sums = self._corpus_solve(monkeypatch, index, cfg)
        d = res.diagnostics
        assert sums == [total] and d["continuation_steps"] > 0
        assert d["starts_converged"] == d["starts"] == 3 and len(res.profiles) == found
        assert all(r <= cfg.tol_fixed_point for r in res.residuals)
        if found == 3:
            evaluator = PhiEvaluator(game, EXPECTATION)
            assert solvers._index_sum(evaluator, 5.0, np.array(_solution_arrays(res))) == 1

    @pytest.mark.parametrize("index, converged", [(48, 1), (112, 2)], ids=["op146", "op338"])
    def test_a_certified_solve_runs_no_path(self, monkeypatch, index, converged):
        # Ops 146 and 338 of the benchmark: the starts that converge reach one fixed point, of
        # index +1, so the others stay stuck and take no path.  The solve returns the set its
        # three starts reach when each is solved alone, on its path where it needs one.
        cfg = SolverConfig(multistarts=2, max_iters=20_000)
        game, res, sums = self._corpus_solve(monkeypatch, index, cfg)
        d = res.diagnostics
        assert sums == [1] and d["continuation_steps"] == 0 and d["starts_converged"] == converged
        alone = []
        for start in solvers._interior_starts(game.action_counts, cfg.seed, cfg.multistarts):
            evaluator = PhiEvaluator(game, EXPECTATION)
            [point], [r] = solvers._solve_fixed_point(evaluator, 5.0, start[None], cfg)
            assert r <= cfg.tol_fixed_point
            alone.append(point)
        alone = np.array(alone)
        assert _same_set(_solution_arrays(res), list(alone[solvers._dedup(alone)]), DEDUP_TOL)

    def test_a_lone_stuck_start_takes_its_path(self, monkeypatch):
        # With no multistart, corpus game 4 at lambda = 5 (op 14 of the benchmark) has only
        # the uniform start, which stages 1 and 2 leave: with no converged start to check,
        # it takes its path and converges.
        game, res, sums = self._corpus_solve(monkeypatch, 4, SolverConfig(multistarts=0, max_iters=20_000))
        d = res.diagnostics
        assert sums == [] and d["continuation_steps"] > 0 and d["starts_converged"] == d["starts"] == 1

    def test_a_stuck_trace_point_takes_its_path(self, monkeypatch):
        # The homotopy trace of the 37th game of random_game(default_rng(4)), a 3x4 game, solves
        # each grid point from the last point alone: the point near lambda = 12.2 is left by
        # stages 1 and 2 and converges on its path, and the trace reaches lambda_max.
        finished = []
        finish = solvers._finish_start

        def counted(*args):
            out = finish(*args)
            finished.append(out[1])
            return out

        monkeypatch.setattr(solvers, "_finish_start", counted)
        rng = np.random.default_rng(4)
        game = [random_game(rng) for _ in range(37)][36]
        assert game.action_counts == (3, 4)
        trace = homotopy_trace(game, EXPECTATION, 200.0, 160, SolverConfig(multistarts=2, max_iters=20_000))
        assert len(trace) == 160 and trace[-1][0] == pytest.approx(200.0)
        assert len(finished) == 1 and finished[0] <= 1e-10


class TestContinue:
    """_continue on x^3 - 3x - (4t - 2) = 0: from (-2, 0) the zero set rises to
    a fold at (-1, 1), falls to a fold at (1, 0) and reaches t = 2 at the root
    of x^3 - 3x - 6, so no step in t alone can follow it."""

    @staticmethod
    def cubic(y):
        x, t = y
        return np.array([x**3 - 3 * x - (4 * t - 2)]), lambda: np.array([[3 * x**2 - 3, -4.0]])

    def test_passes_both_folds_to_t_end(self):
        points = []
        y, ended, steps = _continue(self.cubic, np.array([-2.0, 0.0]), 2.0, 1000, 1e-12, points.append)
        assert ended and steps == len(points)
        x_end = np.roots([1.0, 0.0, -3.0, -6.0])
        x_end = float(x_end[np.isreal(x_end)].real[0])
        assert y[1] == pytest.approx(2.0, abs=1e-12) and y[0] == pytest.approx(x_end, abs=1e-9)
        xs = np.array([p[0] for p in points])
        ts = np.array([p[1] for p in points])
        # t rises to near 1 at the first fold, then falls to near 0 at the second.
        assert ts[xs < 0].max() > 0.95
        assert ts[(xs > 0) & (xs < 2)].min() < 0.05
        for p in points:
            assert abs(self.cubic(p)[0][0]) <= 1e-12

    def test_tangent_keeps_its_orientation_through_the_folds(self):
        points = []
        _continue(self.cubic, np.array([-2.0, 0.0]), 2.0, 1000, 1e-12, points.append)
        xs = [p[0] for p in points]
        assert len(xs) > 3 and all(b > a for a, b in zip([-2.0] + xs, xs))

    def test_visit_ends_the_path(self):
        y, ended, steps = _continue(self.cubic, np.array([-2.0, 0.0]), 2.0, 1000, 1e-12, lambda y: y[0] > 0)
        assert ended and y[0] > 0 and y[1] < 1

    def test_exhausted_step_budget_is_returned_as_data(self):
        y, ended, steps = _continue(self.cubic, np.array([-2.0, 0.0]), 2.0, 3, 1e-12)
        assert not ended and steps <= 3 and y[1] < 2.0
        assert abs(self.cubic(y)[0][0]) <= 1e-12

    def test_step_below_the_minimum_is_returned_as_data(self):
        # H = 1 has no zero, so every corrector fails and the step halves below MIN_STEP.
        def unsolvable(y):
            return np.array([1.0]), lambda: np.array([[1.0, 1.0]])

        y0 = np.array([0.5, 0.0])
        y, ended, steps = _continue(unsolvable, y0, 1.0, 1000, 1e-12)
        assert not ended and steps == 0
        np.testing.assert_array_equal(y, y0)


class TestBracketingResiduals:
    def test_product_of_fixed_points_is_fixed(self):
        rng = np.random.default_rng(5)
        for phi in (EXPECTATION, MMM_THIRDS, K_PAIR):
            for _ in range(4):
                g = random_game(rng, players=(2, 2), actions=(2, 3))
                h = random_game(rng, players=(2, 2), actions=(2, 3))
                rg = solve_lqre(g, phi, 1.0, FAST)
                rh = solve_lqre(h, phi, 1.0, FAST)
                combo = compose(g, h)
                for p in rg.profiles:
                    for q in rh.profiles:
                        residual = verify_lqre(combo, phi, 1.0, product_profile(p, q))
                        assert residual <= 10 * FAST.tol_fixed_point

    def test_nash_products_verify(self):
        rng = np.random.default_rng(6)
        for _ in range(4):
            g = random_game(rng, players=(2, 2), actions=(2, 2))
            h = random_game(rng, players=(2, 2), actions=(2, 2))
            rg = solve_nash_phi(g, EXPECTATION, FAST)
            rh = solve_nash_phi(h, EXPECTATION, FAST)
            combo = compose(g, h)
            for p in rg.profiles:
                for q in rh.profiles:
                    assert verify_nash_phi(combo, EXPECTATION, product_profile(p, q))


class TestEquivariance:
    def test_anonymity_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            g = random_game(rng, players=(2, 3), actions=(2, 3))
            pi = PlayerPermutation.swap(g.num_players, 0, g.num_players - 1)
            permuted = permute_players(g, pi)
            for p in solve_lqre(g, EXPECTATION, 1.0, FAST).profiles:
                residual = verify_lqre(permuted, EXPECTATION, 1.0, permute_profile(p, pi))
                assert residual <= 10 * FAST.tol_fixed_point

    def test_strategic_shift_invariance_for_mean_response(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            g = random_game(rng, players=(2, 2), actions=(2, 3))
            shifted = strategic_shift(g, random_shifts(rng, g))
            for p in solve_lqre(g, EXPECTATION, 1.3, FAST).profiles:
                assert verify_lqre(shifted, EXPECTATION, 1.3, p) <= 10 * FAST.tol_fixed_point


class TestHomotopy:
    def test_pennies_path_stays_uniform(self):
        trace = homotopy_trace(make_matching_pennies(), EXPECTATION, 50.0, 40, FAST)
        assert len(trace) == 40
        for _, p in trace:
            assert p.is_uniform(tol=1e-8)

    def test_dominant_choice_follows_closed_form(self):
        trace = homotopy_trace(make_test_game_gx(1.0), EXPECTATION, 10.0, 30, FAST)
        for lam, p in trace:
            expected = math.exp(lam) / (1.0 + math.exp(lam))
            assert p.distributions[0][0] == pytest.approx(expected, abs=1e-8)

    def test_endpoint_approaches_best_response_play(self):
        # The gap to the best-response point decays like logit(0.1)/(2*lam),
        # so reaching 1e-4 needs the continuation pushed to lam ~ 2e4.
        trace = homotopy_trace(make_no_extremal_eq_game(0.25), EXPECTATION, 2e4, 120, FAST)
        end = trace[-1][1]
        np.testing.assert_allclose(end.distributions[0], [0.5, 0.5], atol=1e-4)
        np.testing.assert_allclose(end.distributions[1], [0.1, 0.9], atol=1e-4)

    def test_every_point_verifies(self):
        rng = np.random.default_rng(9)
        g = random_game(rng, players=(2, 2), actions=(2, 3))
        trace = homotopy_trace(g, MMM_THIRDS, 20.0, 25, FAST)
        for lam, p in trace:
            assert verify_lqre(g, MMM_THIRDS, lam, p) <= FAST.tol_fixed_point

    @pytest.mark.parametrize("cards, eps", [([0, 1], 0.1), ([0, 1], 0.01), ([0, 1, 2], 0.1), ([0, 1, 2], 0.01)])
    def test_card_games_reach_lambda_max(self, cards, eps):
        # Criterion 05's games and settings, as solve_nash_phi runs them.
        cfg = SolverConfig(multistarts=2, max_iters=20_000)
        trace = homotopy_trace(make_card_game(0.4, cards, eps), EXPECTATION, 200.0, 160, cfg)
        assert len(trace) == 160 and trace[-1][0] == pytest.approx(200.0)

    @pytest.mark.parametrize(
        "lambda_max, steps, message",
        [(10.0, 2.5, "steps must be an integer"), (10.0, 1, "steps >= 2"), (0.0, 10, "lambda_max")],
    )
    def test_bad_grid_rejected(self, lambda_max, steps, message):
        with pytest.raises(ValueError, match=message):
            homotopy_trace(make_matching_pennies(), EXPECTATION, lambda_max, steps, FAST)

    @pytest.mark.parametrize("steps", [2, 3, 160])
    def test_grid_ends_at_lambda_max(self, steps):
        grid = homotopy_lambda_grid(200.0, steps)
        assert len(grid) == steps and grid[0] == 0.0 and grid[-1] == 200.0

    def test_breakdown_reports_last_good_lambda(self):
        from sre_lab.solvers import HomotopyBreakdown

        # No fixed point meets a tolerance of 1e-17: the trace opens with the uniform profile
        # at lambda = 0, exactly, without a solve, keeps the points that happen to meet it and
        # stalls at the grid's ninth positive lambda.
        impossible = SolverConfig(multistarts=0, max_iters=60, tol_fixed_point=1e-17)
        grid = homotopy_lambda_grid(10.0, 12)
        with pytest.raises(HomotopyBreakdown, match=r"stalled at lambda=1\.58489") as err:
            homotopy_trace(make_vmp(), EXPECTATION, 10.0, 12, impossible)
        trace = err.value.trace
        assert len(trace) == 9 and [lam for lam, _ in trace] == grid[:9].tolist()
        assert err.value.last_lambda == trace[-1][0] == 0.6309573444801936
        assert trace[0][0] == 0.0 and [d.tolist() for d in trace[0][1].distributions] == [[0.5, 0.5], [0.5, 0.5]]


class TestNewton:
    def test_solves_linear_system(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([0.2, -0.1])
        theta, res, steps = _newton(lambda t: (a @ t - b, lambda: a), np.zeros(2), 1e-12, 40)
        assert res <= 1e-12 and steps >= 1
        np.testing.assert_allclose(theta, np.linalg.solve(a, b), rtol=0, atol=1e-11)

    def test_singular_square_system_takes_a_least_squares_step(self):
        # f = [t0 + t1 - 1, 2 (t0 + t1 - 1)]: a square solve finds [[1, 1], [2, 2]]
        # singular, but the system is consistent, so the least-squares step reaches it.
        jac = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(jac, np.ones(2))
        theta, res, steps = _newton(lambda t: (jac @ t - np.array([1.0, 2.0]), lambda: jac), np.zeros(2), 1e-12, 24)
        assert res <= 1e-12 and steps >= 1
        assert theta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_residual_is_flat_after_one_jacobian(self):
        calls = []

        def system(theta):
            calls.append("f")

            def jacobian():
                calls.append("jacobian")
                return np.zeros((2, 2))

            return np.array([1.0, -2.0]), jacobian

        theta, res, steps = _newton(system, np.array([0.3, 0.4]), 1e-12, 24)
        assert steps == 0 and res == 2.0
        assert calls == ["f", "jacobian"]
        np.testing.assert_array_equal(theta, [0.3, 0.4])
        np.testing.assert_array_equal(system(theta)[0], [1.0, -2.0])

    def test_stops_when_no_halving_lowers_the_residual(self):
        # 1 + t^2 has its minimum at t = 0, so every step, however short, raises it.
        # At t = 0 the true Jacobian is 0; a stated Jacobian of 1 proposes a step that cannot help.
        calls = []

        def system(theta):
            calls.append("f")

            def jacobian():
                calls.append("jacobian")
                return np.ones((1, 1))

            return 1.0 + theta**2, jacobian

        theta, res, steps = _newton(system, np.zeros(1), 1e-12, 24)
        assert steps == 0 and res == 1.0
        np.testing.assert_array_equal(theta, [0.0])
        assert calls == ["f", "jacobian"] + ["f"] * 8  # the residual, its Jacobian and eight halvings
        np.testing.assert_array_equal(system(theta)[0], [1.0])

    def test_each_step_gets_its_own_eight_halvings(self):
        # |f| is 1 at t = 0, 0.5 at 1/8, 0 at 1/8 + 1/512 and 10 elsewhere, and the stated
        # Jacobian is -1.  The step from 0 is capped at 0.5; 0.5 and 0.25 are rejected and
        # 1/8 is taken after two halvings.  The step of 0.5 from 1/8 is rejected at full
        # length and at each of seven halvings; the root lies one halving past the limit.
        residual = {0.0: 1.0, 0.125: 0.5, 0.125 + 0.5 / 256: 0.0}
        points, jacobians = [], []

        def system(theta):
            points.append(float(theta[0]))
            return np.array([residual.get(points[-1], 10.0)]), lambda: jacobians.append(1) or -np.ones((1, 1))

        theta, res, steps = _newton(system, np.zeros(1), 1e-12, 24)
        assert points == [0.0, 0.5, 0.25, 0.125] + [0.125 + 0.5 / 2**m for m in range(8)]
        assert len(jacobians) == 2 and steps == 1
        np.testing.assert_array_equal(theta, [0.125])
        assert res == 0.5
        np.testing.assert_array_equal(system(theta)[0], [0.5])


@pytest.fixture
def lu_calls(monkeypatch):
    """One entry per np.linalg.solve call, failing or not."""
    calls = []
    inner = np.linalg.solve

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


class TestLinearStep:
    def test_lone_singular_row_is_factorised_once(self, lu_calls):
        jac = np.array([[[1.0, 1.0], [2.0, 2.0]]])
        rhs = np.array([[1.0, 2.0]])
        step = _linear_step(jac, rhs)
        assert len(lu_calls) == 1
        np.testing.assert_array_equal(step, np.linalg.lstsq(jac[0], rhs[0], rcond=None)[0][None])

    def test_lone_nonsingular_row_takes_the_lu_step(self, lu_calls):
        jac = np.array([[[3.0, 1.0], [1.0, 2.0]]])
        rhs = np.array([[0.2, -0.1]])
        step = _linear_step(jac, rhs)
        assert len(lu_calls) == 1
        np.testing.assert_array_equal(step, np.linalg.solve(jac[0], rhs[0])[None])


def _support_profiles(counts):
    """Every support profile, in Stage 2's order, one at a time (the reference)."""

    def with_total(players, total):
        if not players:
            yield ()
            return
        k, rest = players[0], players[1:]
        for size in range(max(1, total - sum(rest)), min(k, total - len(rest)) + 1):
            for head in itertools.combinations(range(k), size):
                for tail in with_total(rest, total - size):
                    yield (head, *tail)

    for total in range(len(counts), sum(counts) + 1):
        yield from with_total(tuple(counts), total)


def _decoded(ids, masks):
    """A stack of support profiles (ids, masks) as a list of tuples of action tuples."""
    supports = [[tuple(np.flatnonzero(mask).tolist()) for mask in m] for m in masks]
    return [tuple(sups[t] for sups, t in zip(supports, row)) for row in ids.tolist()]


def _listed(counts, limit):
    return _decoded(*_support_listing(counts, limit))


def _solve(evaluator, profiles, seed, scale):
    """_solve_supports on support profiles given as tuples of action tuples: one entry per profile, its mixes or None."""
    places, roots = _solve_supports(evaluator, *_indexed(profiles, evaluator.game.action_counts), seed, scale)
    assert places == sorted(set(places)) and len(roots) == len(places)
    out = [None] * len(profiles)
    for q, root in zip(places, roots):
        out[q] = np.split(root, evaluator.starts[1:-1])
    return out


def _edge_limits(totals):
    """Limits at 0, 1, around the end of each total size, in the middle of each, and past the last profile."""
    limits = {0, 1}
    start = 0
    for total in sorted(set(totals)):
        end = start + totals.count(total)
        limits |= {max(end - 1, 0), end, end + 1, start + max(1, (end - start) // 2)}
        start = end
    return sorted(limits)


class TestSupportProfiles:
    @pytest.mark.parametrize(
        "counts", [(12, 3), (4, 2), (4, 3, 2), (3, 3, 3), (2, 2, 2, 2), (1, 5), (6, 1, 4)]
    )
    def test_product_order_by_total_size(self, counts):
        per_player = [
            [sup for size in range(1, k + 1) for sup in itertools.combinations(range(k), size)]
            for k in counts
        ]
        expected = sorted(
            itertools.product(*per_player), key=lambda sups: sum(len(s) for s in sups)
        )
        assert list(_support_profiles(counts)) == expected
        for limit in _edge_limits([sum(len(s) for s in sups) for sups in expected]):
            assert _listed(counts, limit) == expected[:limit], limit

    def test_large_game_yields_without_listing_every_profile(self):
        # Listing all (2^30 - 1)^2 profiles first would never finish.
        assert _listed((30, 30), 5) == [((0,), (j,)) for j in range(5)]
        ids, masks = _support_listing((30, 30), 5)
        assert [len(m) for m in masks] == [1, 5]

    def test_listing_is_cached_per_shape_and_read_only(self):
        ids, masks = _support_listing([4, 3], 50)
        same = _support_listing((4, 3), 50)
        assert same[0] is ids and all(a is b for a, b in zip(same[1], masks))
        assert _support_listing((4, 3), 49)[0] is not ids
        for array in (ids, *masks):
            with pytest.raises(ValueError):
                array[0] = 0


def _newton_support(evaluator, supports, seed, scale):
    """The Newton path of _solve_supports on one profile, from the same three starts.

    Newton runs on the support weights, player by player: the uniform mix,
    then two Dirichlet draws from a generator seeded by seed and each
    player's support as a bitmask, a one-action support drawing nothing and
    keeping its weight at 1.  Returns (dists or None, smallest support
    weight of Newton's accepted point).
    """
    system = _support_system(evaluator, supports)
    tol = 1e-10 * scale
    starts = [np.concatenate([np.full(len(s), 1.0 / len(s)) for s in supports])]
    rng = np.random.default_rng([seed, *(sum(2**a for a in s) for s in supports)])
    for _ in range(2):
        starts.append(np.concatenate([rng.dirichlet(np.ones(len(s))) if len(s) > 1 else [1.0] for s in supports]))
    for x in starts:
        x, res, _ = _newton(system, x, tol, 24)
        if res > tol:
            continue
        dists = [np.zeros(k) for k in evaluator.game.action_counts]
        for vec, sup, weights in zip(dists, supports, np.split(x, np.cumsum([len(s) for s in supports])[:-1])):
            vec[list(sup)] = weights
        if x.min() > 1e-9:
            return dists, x.min()
    return None, None


def _drawn_root_game():
    """A 4x4 game where, under K_PAIR and seed 3, only a Dirichlet start reaches the root of ((0, 1), (0, 1))."""
    rng = np.random.default_rng(31337)
    game = [random_game(rng, players=(2, 2), actions=(2, 4)) for _ in range(37)][-1]
    return Game(game.action_counts, game.payoffs[np.ix_([1, 3, 0, 2], [2, 3, 0, 1])])


def _random_two_player_game(seed, counts):
    rng = np.random.default_rng(seed)
    return Game(counts, rng.uniform(-2.0, 2.0, size=counts + (2,)))


def _chart(counts):
    """The simplex chart of full supports as a matrix: column t raises one free weight and lowers its player's last weight by as much."""
    starts = np.cumsum((0, *counts))
    cols = []
    for i, k in enumerate(counts):
        for a in range(k - 1):
            col = np.zeros(starts[-1])
            col[starts[i] + a], col[starts[i + 1] - 1] = 1.0, -1.0
            cols.append(col)
    return np.array(cols).T


def _central_jacobian(system, theta, h=1e-6):
    cols = []
    for d in range(theta.size):
        bump = np.zeros(theta.size)
        bump[d] = h
        cols.append((system(theta + bump)[0] - system(theta - bump)[0]) / (2 * h))
    return np.stack(cols, axis=1)


def _jacobian_statistics(game):
    """One statistic per kind of atom: 0, the exp branch, the Taylor branch and -inf/+inf."""
    spread = max(float(np.max(np.ptp(t, axis=1))) for t in PhiEvaluator(game, EXPECTATION).tables)
    taylor = 0.9 * TAYLOR_CUTOFF / spread
    return [
        EXPECTATION,
        K_PAIR,
        MAStatistic.single(1.5),
        MAStatistic.single(-taylor),
        MAStatistic(((-math.inf, 0.25), (taylor, 0.5), (math.inf, 0.25))),
        MAStatistic(((-math.inf, 0.5), (math.inf, 0.5))),
        MAStatistic(((-math.inf, 0.2), (0.0, 0.3), (0.8, 0.5))),
    ]


JACOBIAN_GAMES = [
    _random_two_player_game(21, (3, 4)),
    Game((2, 3, 2), np.random.default_rng(22).uniform(-2.0, 2.0, size=(2, 3, 2, 3))),
    Game((3, 2, 2, 2), np.random.default_rng(23).uniform(-2.0, 2.0, size=(3, 2, 2, 2, 4))),
    # Three opponents of distinct sizes for every player, so that contracting
    # them in the wrong order cannot go unseen.
    Game((2, 3, 4, 2), np.random.default_rng(24).uniform(-2.0, 2.0, size=(2, 3, 4, 2, 4))),
]


class TestExactJacobians:
    @pytest.mark.parametrize("game", JACOBIAN_GAMES)
    def test_logit_response_map(self, game):
        # dv/dp is exact along directions that keep each mix on the simplex, so the
        # Jacobian is checked along the chart's columns, each of which does.
        rng = np.random.default_rng(1)
        chart = _chart(game.action_counts)
        for phi in _jacobian_statistics(game):
            system = _logit_system(PhiEvaluator(game, phi), 3.0)
            p = np.concatenate([rng.dirichlet(np.ones(k)) for k in game.action_counts])
            exact = system(p)[1]() @ chart
            along = _central_jacobian(lambda theta: system(p + chart @ theta), np.zeros(chart.shape[1]))
            np.testing.assert_allclose(exact, along, rtol=0, atol=1e-8, err_msg=phi.describe())

    @pytest.mark.parametrize("game", JACOBIAN_GAMES)
    def test_determinant_is_the_charts(self, game):
        # det(I - dT/dp) on the concatenated profile equals the determinant of the chart's
        # Jacobian, (I - dT/dp) on the free rows times the chart, so a fixed point is regular
        # in both coordinates alike, with the same sign.
        rng = np.random.default_rng(3)
        chart = _chart(game.action_counts)
        free = np.flatnonzero(chart.max(axis=1) > 0.0)  # every place but each player's last
        for phi in _jacobian_statistics(game):
            system = _logit_system(PhiEvaluator(game, phi), 3.0)
            for _ in range(2):
                p = np.concatenate([rng.dirichlet(np.ones(k)) for k in game.action_counts])
                jac = system(p)[1]()
                full, charted = np.linalg.det(jac), np.linalg.det(jac[free] @ chart)
                assert abs(full - charted) <= 1e-10 * abs(charted), phi.describe()

    @pytest.mark.parametrize("game", JACOBIAN_GAMES)
    def test_support_value_differences(self, game):
        # The Jacobian on the support weights, along random directions that keep each
        # player's sum, as many as the weights less the players, against central
        # differences of f; its sum rows are the 0/1 player-sum matrix.
        rng = np.random.default_rng(2)
        for phi in _jacobian_statistics(game):
            evaluator = PhiEvaluator(game, phi)
            for _ in range(4):
                # Sizes from 2 up, so every player has weights to move.
                sups = [tuple(sorted(rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False))) for k in game.action_counts]
                system = _support_system(evaluator, sups)
                x = np.concatenate([rng.dirichlet(np.ones(len(s))) for s in sups])
                owner = np.repeat(np.arange(len(sups)), [len(s) for s in sups])
                moves = rng.normal(size=(x.size, x.size - len(sups)))
                for i in range(len(sups)):
                    moves[owner == i] -= moves[owner == i].mean(axis=0)
                exact = system(x)[1]()
                np.testing.assert_array_equal(exact[-len(sups) :], owner == np.arange(len(sups))[:, None])
                np.testing.assert_allclose(
                    exact @ moves,
                    _central_jacobian(lambda t: system(x + moves @ t), np.zeros(moves.shape[1])),
                    rtol=0,
                    atol=1e-8,
                    err_msg=f"{phi.describe()} {sups}",
                )

    @pytest.mark.parametrize("game", JACOBIAN_GAMES)
    @pytest.mark.parametrize("boundary_pure", [True, False])
    def test_a_stack_of_no_profiles(self, game, boundary_pure):
        # A (0 x K) stack gives (0 x K) values and a (0 x K x K) Jacobian, for every number of
        # players; a Jacobian that does not move with the mixes is the plan's constant.
        size = sum(game.action_counts)
        for phi in (EXPECTATION, K_PAIR):
            evaluator = PhiEvaluator(game, phi)
            assert evaluator.values(np.zeros((0, size)), boundary_pure).shape == (0, size)
            values, jacobian = evaluator.values(np.zeros((0, size)), boundary_pure, grad=True)
            assert values.shape == (0, size)
            for rows in (None, np.zeros(0, dtype=np.intp)):
                dv = jacobian(rows)
                assert dv is evaluator.constant_dv or dv.shape == (0, size, size), phi.describe()
            assert evaluator.counts["evaluator_calls"] == 0

    def test_jacobian_reuses_the_evaluation(self):
        game = JACOBIAN_GAMES[1]
        evaluator = PhiEvaluator(game, K_PAIR)
        products = _count_plan_products(evaluator)
        systems = [
            (_logit_system(evaluator, 2.0), np.array([0.4, 0.6, 0.3, 0.3, 0.4, 0.5, 0.5])),
            (_support_system(evaluator, [(0, 1), (0, 2), (0, 1)]), np.array([0.4, 0.6, 0.3, 0.7, 0.5, 0.5])),
        ]
        for system, theta in systems:
            f, jacobian = system(theta)
            assert len(products) == 1  # one plan product per evaluation
            jacobian()
            assert len(products) == 1  # and none for the Jacobian
            products.clear()

    def test_taylor_branch_is_not_the_mean(self):
        # The Taylor-band statistic's Jacobian differs from the expectation's
        # by far more than the tolerance above, so the tests tell them apart.
        game = JACOBIAN_GAMES[0]
        p = np.array([0.2, 0.5, 0.3, 0.3, 0.1, 0.4, 0.2])
        taylor = _jacobian_statistics(game)[3]
        jacs = [_logit_system(PhiEvaluator(game, phi), 3.0)(p)[1]() for phi in (EXPECTATION, taylor)]
        assert np.max(np.abs(jacs[0] - jacs[1])) > 1e-6


class TestValueBlocks:
    """values(grad=True)'s dv/dp blocks against central differences of values in each opponent's own mix."""

    @pytest.mark.parametrize("game", [JACOBIAN_GAMES[0], JACOBIAN_GAMES[1], JACOBIAN_GAMES[3]], ids=["2p", "3p", "4p"])
    @pytest.mark.parametrize("boundary_pure", [True, False])
    def test_blocks_match_central_differences(self, game, boundary_pure, monkeypatch):
        spread = min(PhiEvaluator(game, EXPECTATION).spread)
        taylor = 0.9 * TAYLOR_CUTOFF / max(PhiEvaluator(game, EXPECTATION).spread)
        steep = 1e4 / spread  # a * spread > 800 for every player
        statistics = [
            EXPECTATION,
            MMM_THIRDS,
            K_PAIR,
            MAStatistic(((-taylor, 0.5), (0.0, 0.5))),
            MAStatistic(((-steep, 0.5), (steep, 0.5))),
        ]
        fallbacks = []
        inner = solvers.normalized_cgf

        def counted(*args, **kwargs):
            fallbacks.append(args[3])
            return inner(*args, **kwargs)

        monkeypatch.setattr(solvers, "normalized_cgf", counted)
        rng = np.random.default_rng(6)
        dists = [rng.dirichlet(np.ones(k)) for k in game.action_counts]
        dists[-1][0] = 0.0  # a zero-weight action: the steep atoms' terms underflow on some rows
        dists[-1] /= dists[-1].sum()
        stack_rng = np.random.default_rng(60)  # the stack and its directions, apart from dists' own draws
        stack = _stack_around(dists, stack_rng)
        for phi in statistics:
            evaluator = PhiEvaluator(game, phi)
            reshifted = _record_reshifts(evaluator, monkeypatch)
            _assert_blocks_match_central_differences(evaluator, dists, boundary_pure, rng)
            _assert_blocks_match_central_differences(evaluator, stack, boundary_pure, stack_rng)
            if phi is statistics[-1] and game.num_players > 2:
                # The fallback runs inside the stack, on its row of the test's own dists alone.
                reshifted.clear()
                evaluator.values(np.concatenate(stack, axis=-1), boundary_pure, grad=True)
                assert reshifted and all(p == np.concatenate(dists).tolist() for p in reshifted)
        assert fallbacks, "no steep atom's terms underflowed"


def _player_values(evaluator, i, dists, boundary_pure):
    """Player i's action values, read off one values call on the concatenated profile (or stack)."""
    values = evaluator.values(np.concatenate(dists, axis=-1), boundary_pure)
    return values[..., evaluator.starts[i] : evaluator.starts[i + 1]]


def _stack_around(dists, rng):
    """A stack of three profiles, (3 x actions) per player: dists in row 0, then two totally mixed draws."""
    return [np.stack([d, rng.dirichlet(np.ones(d.size)), rng.dirichlet(np.ones(d.size))]) for d in dists]


def _record_reshifts(evaluator, monkeypatch):
    """The concatenated profiles whose tilts the evaluator finishes alone, one per _reshift call."""
    profiles = []
    inner = evaluator._reshift

    def recorded(i, p, grad):
        profiles.append(p.tolist())
        return inner(i, p, grad)

    monkeypatch.setattr(evaluator, "_reshift", recorded)
    return profiles


def _reference_values(game, phi, i, dists, boundary_pure):
    """Player i's action values from evaluate(phi, action_lottery(...)).

    With boundary_pure, the -inf/+inf atoms take the pure extremes instead:
    the minimum and maximum of the action's lottery against uniform opponents.
    """
    p = MixedProfile(tuple(dists))
    out = []
    for a in range(game.action_counts[i]):
        lottery = action_lottery(game, i, a, p)
        if not boundary_pure:
            out.append(evaluate(phi, lottery))
            continue
        pure = action_lottery(game, i, a, MixedProfile.uniform(game))
        extremes = {-math.inf: pure.min(), math.inf: pure.max()}
        out.append(sum(w * (extremes[loc] if math.isinf(loc) else k_a(lottery, loc)) for loc, w in phi.atoms))
    return np.array(out)


def _assert_blocks_match_central_differences(evaluator, dists, boundary_pure, rng, h=1e-7):
    """TestValueBlocks' check: each block of dv/dp times a direction inside the face of j's mix.

    dists is one profile or a stack, (B x actions) per player; each row of a
    stack is checked against central differences of its own profile.
    """
    game = evaluator.game
    size = sum(game.action_counts)
    _, jacobian = evaluator.values(np.concatenate(dists, axis=-1), boundary_pure, grad=True)
    dvs = jacobian()
    rows = [[d[r] for d in dists] for r in range(len(dists[0]))] if dists[0].ndim > 1 else [dists]
    assert dvs.shape[-2:] == (size, size)
    for row, dv in zip(rows, np.broadcast_to(dvs, (len(rows), size, size))):
        for i in range(game.num_players):
            own = slice(evaluator.starts[i], evaluator.starts[i + 1])
            assert not dv[own, own].any()  # a player's values do not move with its own mix
            for j in evaluator.others[i]:
                block = dv[own, evaluator.starts[j] : evaluator.starts[j + 1]]
                for _ in range(2):
                    step = rng.normal(size=row[j].size) * (row[j] > 0)
                    step -= (row[j] > 0) * step.sum() / (row[j] > 0).sum()
                    moved = [d.copy() for d in row]
                    moved[j] = row[j] + h * step
                    up = _player_values(evaluator, i, moved, boundary_pure)
                    moved[j] = row[j] - h * step
                    down = _player_values(evaluator, i, moved, boundary_pure)
                    np.testing.assert_allclose(
                        block @ step,
                        (up - down) / (2 * h),
                        rtol=0,
                        atol=1e-8,
                        err_msg=f"{evaluator.phi.describe()} {i} {j}",
                    )


def _count_plan_products(evaluator):
    """Give the evaluator a view of its plan that lists each product q @ plan taken with it."""
    products = []

    class Counted(np.ndarray):
        # A subclass's reflected product runs before ndarray's own.
        def __rmatmul__(self, other):
            products.append(np.shape(other))
            return np.asarray(other) @ self.view(np.ndarray)

    evaluator.plan = evaluator.plan.view(Counted)
    return products


class TestGroupedPlan:
    """PhiEvaluator's per-branch plan against the slow reference, atom kinds mixed in one statistic."""

    @staticmethod
    def _dists(game, seed):
        rng = np.random.default_rng(seed)
        dists = [rng.dirichlet(np.ones(k)) for k in game.action_counts]
        dists[-1][0] = 0.0  # an opponent with a zero-weight action
        dists[-1] /= dists[-1].sum()
        return dists

    def test_statistics_of_equal_branch_sizes_share_the_layout(self):
        # The layout's index arrays depend on the shape and the branch sizes alone, so two
        # statistics whose atoms take the same branches in the same numbers share them, while
        # each evaluator's entries are tagged with its own atoms' locations and weights.
        game = JACOBIAN_GAMES[1]
        taylor = 0.9 * TAYLOR_CUTOFF / max(PhiEvaluator(game, EXPECTATION).spread)
        first = PhiEvaluator(game, MAStatistic(((-1.5, 0.2), (taylor, 0.3), (0.0, 0.2), (1.5, 0.3))))
        second = PhiEvaluator(game, MAStatistic(((-2.0, 0.4), (taylor / 2, 0.1), (0.0, 0.1), (2.5, 0.4))))
        for evaluator in (first, second):
            assert [{b: len(a) for b, (a, _) in branches.items()} for branches in evaluator.branches] == [
                {"mean": 1, "taylor": 1, "exp": 2}
            ] * game.num_players
        assert first.layout is second.layout
        for name in ("taylor", "exp"):
            for evaluator in (first, second):
                atoms, weights, *_, scatter = evaluator.tags[name]
                own = [branches[name] for branches in evaluator.branches]
                np.testing.assert_array_equal(atoms, np.concatenate([np.repeat(a, k) for (a, _), k in zip(own, game.action_counts)]))
                np.testing.assert_array_equal(weights, np.concatenate([np.repeat(w, k) for (_, w), k in zip(own, game.action_counts)]))
                np.testing.assert_array_equal(scatter.sum(axis=1), weights)
            assert not np.array_equal(first.tags[name][0], second.tags[name][0])
            assert not np.array_equal(first.tags[name][1], second.tags[name][1])

    @pytest.mark.parametrize("game", [JACOBIAN_GAMES[0], JACOBIAN_GAMES[1], JACOBIAN_GAMES[3]], ids=["2p", "3p", "4p"])
    @pytest.mark.parametrize("boundary_pure", [True, False])
    def test_every_branch_in_one_statistic(self, game, boundary_pure):
        taylor = 0.9 * TAYLOR_CUTOFF / max(PhiEvaluator(game, EXPECTATION).spread)
        phi = MAStatistic(
            ((-math.inf, 0.1), (-1.5, 0.2), (taylor, 0.15), (0.0, 0.2), (1.5, 0.2), (math.inf, 0.15))
        )
        evaluator = PhiEvaluator(game, phi)
        # Every player's atoms take all three branches: the mean, the Taylor band and the tilts.
        assert all(set(branches) == {"mean", "taylor", "exp"} for branches in evaluator.branches)
        dists = self._dists(game, 7)
        stack = _stack_around(dists, np.random.default_rng(11))
        scale = 1.0 + float(np.max(np.abs(game.payoffs)))
        for i in range(game.num_players):
            np.testing.assert_allclose(
                _player_values(evaluator, i, dists, boundary_pure),
                _reference_values(game, phi, i, dists, boundary_pure),
                rtol=0,
                atol=1e-9 * scale,
            )
            for r, got in enumerate(_player_values(evaluator, i, stack, boundary_pure)):
                want = _reference_values(game, phi, i, [d[r] for d in stack], boundary_pure)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)
        for profile in (dists, stack):
            _assert_blocks_match_central_differences(evaluator, profile, boundary_pure, np.random.default_rng(8))

    @pytest.mark.parametrize("game", [JACOBIAN_GAMES[0], JACOBIAN_GAMES[1], JACOBIAN_GAMES[3]], ids=["2p", "3p", "4p"])
    @pytest.mark.parametrize("boundary_pure", [True, False])
    def test_one_tilt_of_a_group_underflows(self, game, boundary_pure, monkeypatch):
        steep = 1e4 / min(PhiEvaluator(game, EXPECTATION).spread)  # a * spread > 800 for every player
        fallbacks = []
        inner = solvers.normalized_cgf

        def counted(*args, **kwargs):
            fallbacks.append(args[3])
            return inner(*args, **kwargs)

        monkeypatch.setattr(solvers, "normalized_cgf", counted)
        dists = self._dists(game, 9)
        stack = _stack_around(dists, np.random.default_rng(12))
        mild, steep_only = MAStatistic.single(-1.0), MAStatistic.single(steep)
        both = MAStatistic(((-1.0, 0.5), (steep, 0.5)))
        for phi in (mild, steep_only):
            fallbacks.clear()
            evaluator = PhiEvaluator(game, phi)
            evaluator.values(np.concatenate(dists), boundary_pure, grad=True)
            assert bool(fallbacks) == (phi is steep_only)  # only the steep tilt underflows
        evaluator = PhiEvaluator(game, both)
        # One group of two tilts for every player.
        assert all(set(branches) == {"exp"} and len(branches["exp"][0]) == 2 for branches in evaluator.branches)
        scale = 1.0 + float(np.max(np.abs(game.payoffs)))
        fallbacks.clear()
        for i in range(game.num_players):
            np.testing.assert_allclose(
                _player_values(evaluator, i, dists, boundary_pure),
                _reference_values(game, both, i, dists, boundary_pure),
                rtol=0,
                atol=1e-9 * scale,
            )
        assert fallbacks
        _assert_blocks_match_central_differences(evaluator, dists, boundary_pure, np.random.default_rng(10))
        reshifted = _record_reshifts(evaluator, monkeypatch)
        for i in range(game.num_players):
            for r, got in enumerate(_player_values(evaluator, i, stack, boundary_pure)):
                want = _reference_values(game, both, i, [d[r] for d in stack], boundary_pure)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)
        if game.num_players > 2:  # the fallback runs inside the stack, on its row of the test's own dists alone
            assert reshifted and all(p == np.concatenate(dists).tolist() for p in reshifted)
        _assert_blocks_match_central_differences(evaluator, stack, boundary_pure, np.random.default_rng(10))


def _reference_cut(mixes):
    """Each mix with its negative weights cut to zero and renormalized, one player at a time, each on its own array."""
    dists = []
    for vec in mixes:
        vec = np.array(vec)
        if vec.min() < 0.0:
            np.maximum(vec, 0.0, out=vec)
            vec /= vec.sum()
        dists.append(vec)
    return dists


def _reference_logit(values, lam):
    """One player's logit response, on its own array."""
    z = lam * values
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


class TestLogitSystem:
    @staticmethod
    def _games():
        rng = np.random.default_rng(777)
        corpus = [random_game(rng) for _ in range(113)]
        assert corpus[112].action_counts == (2, 2, 4)
        return [make_card_game(0.4, [0, 1, 2], 0.1), make_card_game(0.4, [0, 1], 0.1), corpus[112]]

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["cards-12x3", "cards-4x2", "corpus-3p"])
    def test_residual_is_bit_identical_to_per_player_logits(self, index):
        # The profile-at-once cut and logit against the same steps taken
        # one player at a time, each on its own array: f = p - T(p^).
        game = self._games()[index]
        counts = game.action_counts
        places = np.cumsum(counts)[:-1]
        rng = np.random.default_rng(index)
        points = [np.concatenate([rng.dirichlet(np.ones(k)) for k in counts]) for _ in range(4)]
        cut = points[0].copy()
        cut[counts[0] - 1] -= 1.3 - cut[0]  # player 0's mix still sums to one, its last weight below zero
        cut[0] = 1.3
        points.append(cut)
        assert min(d.min() for d in _reference_cut(np.split(cut, places))) == 0.0
        for phi in (EXPECTATION, MMM_THIRDS, K_PAIR):
            evaluator = PhiEvaluator(game, phi)
            for lam in (0.5, 5.0, 200.0):
                system = _logit_system(evaluator, lam)
                for p in points:
                    dists = _reference_cut(np.split(p, places))
                    values = [_player_values(evaluator, i, dists, True) for i in range(len(dists))]
                    responses = [_reference_logit(v, lam) for v in values]
                    got = _logit(evaluator.values(np.concatenate(dists)), lam, evaluator.starts, evaluator.layout.owner)
                    np.testing.assert_array_equal(got, np.concatenate(responses))
                    np.testing.assert_array_equal(system(p)[0], p - np.concatenate(responses))

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["cards-12x3", "cards-4x2", "corpus-3p"])
    def test_a_stack_cuts_each_row_as_alone(self, index, monkeypatch):
        # Rows drawn inside the simplex product and around it, each mix summing to one as a
        # Newton step leaves it, so that some have a weight below zero to cut and some do not.
        # Each row of the stack hands values the profile it hands alone, bit for bit: p^, its
        # mixes cut and renormalized where a weight is negative, and p itself elsewhere.
        game = self._games()[index]
        counts = game.action_counts
        rng = np.random.default_rng(6)
        inside = [np.concatenate([rng.dirichlet(np.ones(k)) for k in counts]) for _ in range(6)]
        heads = [[rng.uniform(-0.3, 0.7, size=k - 1) for k in counts] for _ in range(6)]
        around = [np.concatenate([np.append(h, 1.0 - h.sum()) for h in row]) for row in heads]
        points = np.array(inside + around)
        evaluator = PhiEvaluator(game, K_PAIR)
        handed = []
        inner = evaluator.values

        def recorded(p, *args, **kwargs):
            handed.append(p.copy())
            return inner(p, *args, **kwargs)

        monkeypatch.setattr(evaluator, "values", recorded)
        system = _logit_system(evaluator, 5.0)
        system(points)
        [stacked] = handed
        cut = 0
        for r, p in enumerate(points):
            handed.clear()
            system(p)
            [alone] = handed
            np.testing.assert_array_equal(stacked[r], alone)
            want = np.concatenate(_reference_cut(np.split(p, np.cumsum(counts)[:-1])))
            np.testing.assert_array_equal(alone, want)
            cut += p.min() < 0.0
        assert 0 < cut < len(points)

    def test_polish_keeps_every_trial_point_on_the_simplex_product(self, monkeypatch):
        # Criterion 03's first 40 corpus games and statistics at lambda = 1 and 5, every stage
        # of each solve: 1_i^T f = sum(p_i) - 1 is linear, so each point that _newton_polish
        # evaluates, rejected steps and their halvings included, keeps each player's weights
        # summing to one up to rounding.
        polish, logit_system = solvers._newton_polish, solvers._logit_system
        points, sizes = [], []

        def recording_system(evaluator, lam):
            system = logit_system(evaluator, lam)

            def recorded(p):
                points.extend(np.atleast_2d(p))
                sizes.append(len(np.atleast_2d(p)))
                return system(p)

            return recorded

        def recorded_polish(*args, **kwargs):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solvers, "_logit_system", recording_system)
                return polish(*args, **kwargs)

        monkeypatch.setattr(solvers, "_newton_polish", recorded_polish)
        rng = np.random.default_rng(777)
        phis = [EXPECTATION, MMM_THIRDS, MAStatistic(((-math.inf, 0.3), (2.0, 0.7))), K_PAIR]
        cfg = SolverConfig(multistarts=2, max_iters=20_000)
        for index in range(40):
            game = random_game(rng)
            starts = np.cumsum((0, *game.action_counts))[:-1]
            for lam in (1.0, 5.0):
                points.clear()
                solve_lqre(game, phis[index % len(phis)], lam, cfg)
                sums = np.add.reduceat(np.array(points), starts, axis=1)
                assert np.abs(sums - 1.0).max() <= 1e-13, (index, lam)
        assert max(sizes) >= 7  # some pass evaluated a rejected step's halvings

    def test_blocks_are_built_once_per_jacobian_taken(self, monkeypatch):
        # Newton from this start at lambda = 20 rejects trial points on its
        # way to the root; those pay for values only.  Each evaluation takes
        # one plan product, and each Jacobian reads dv/dp off it once.
        game = JACOBIAN_GAMES[1]
        built = []
        inner = PhiEvaluator._dv

        def counted(self, *args):
            built.append(args[0].shape)
            return inner(self, *args)

        monkeypatch.setattr(PhiEvaluator, "_dv", counted)
        evaluator = PhiEvaluator(game, K_PAIR)
        products = _count_plan_products(evaluator)
        logit = _logit_system(evaluator, 20.0)
        evaluations, jacobians = [], []

        def system(theta):
            evaluations.append(theta)
            f, jacobian = logit(theta)

            def taken():
                jacobians.append(theta)
                return jacobian()

            return f, taken

        rng = np.random.default_rng(0)
        p = np.concatenate([rng.dirichlet(np.ones(k)) for k in game.action_counts])
        _, res, steps = _newton(system, p, 1e-12, 40)
        assert res <= 1e-12
        assert len(evaluations) > 1 + steps  # some trial point was rejected
        assert len(products) == len(evaluations)  # one plan product per evaluation, none per Jacobian
        assert len(built) == len(jacobians)

    def test_constant_blocks_are_shared_and_read_only(self):
        game = JACOBIAN_GAMES[0]
        extremes_only = MAStatistic(((-math.inf, 0.5), (math.inf, 0.5)))
        for phi in (EXPECTATION, MMM_THIRDS, extremes_only):
            evaluator = PhiEvaluator(game, phi)
            p = np.concatenate([np.full(k, 1.0 / k) for k in game.action_counts])
            values, jacobian = evaluator.values(p, True, grad=True)
            assert jacobian() is evaluator.constant_dv
            assert not evaluator.constant_dv.flags.writeable
            if evaluator.pure_extremes is not None:
                assert not evaluator.pure_extremes.flags.writeable
            if phi is extremes_only:  # the values are the plan's own -inf/+inf term
                assert values is evaluator.pure_extremes
        assert PhiEvaluator(game, K_PAIR).constant_dv is None
        assert PhiEvaluator(JACOBIAN_GAMES[1], MMM_THIRDS).constant_dv is None


class TestLockstepStarts:
    """_newton on a stack of starts against each start run alone.

    Every row keeps its own step, halvings and stop, so each start must reach
    the point it reaches alone, within 1e-12, in the same number of steps.
    """

    @staticmethod
    def _assert_rows_run_as_alone(system, thetas, tol, max_steps=12):
        calls = []

        def counted(theta):
            calls.append(theta.shape)
            return system(theta)

        theta, res, steps = _newton(counted, np.array(thetas), tol, max_steps)
        stacked = len(calls)
        calls.clear()
        alones = []
        for row, start in enumerate(thetas):
            alone, res_alone, steps_alone = _newton(counted, start, tol, max_steps)
            alones.append(alone)
            np.testing.assert_allclose(theta[row], alone, rtol=0, atol=1e-12)
            np.testing.assert_allclose(res[row], res_alone, rtol=0, atol=1e-12)
            assert steps[row] == steps_alone
        assert stacked < len(calls)  # the rows were evaluated together
        # f itself at each row's point and at the point it reaches alone, once the calls are counted.
        f = np.array([system(x)[0] for x in theta])
        np.testing.assert_allclose(f, [system(x)[0] for x in alones], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(f).max(axis=1), res, rtol=0, atol=1e-12)
        return steps, f

    @staticmethod
    def _starts(game, count, seed):
        rng = np.random.default_rng(seed)
        starts = [np.concatenate([np.full(k, 1.0 / k) for k in game.action_counts])]
        starts += [np.concatenate([rng.dirichlet(np.ones(k)) for k in game.action_counts]) for _ in range(count)]
        return starts

    @pytest.mark.parametrize("index", [1, 112, 0], ids=["2p-4x2", "3p-2x2x4", "3p-3x3x3"])
    def test_corpus_games(self, index):
        # Criterion 03's corpus games.  At lambda = 0 the residual is affine, so a
        # Dirichlet start converges on its first step unless the 0.5 cap cuts it;
        # at lambda = 5 some starts stall within the twelve steps and stop on
        # their own.
        rng = np.random.default_rng(777)
        game = [random_game(rng) for _ in range(index + 1)][index]
        assert len(game.action_counts) == (2 if index == 1 else 3)
        tol = 1e-10 / max(game.action_counts)
        for phi in (EXPECTATION, MMM_THIRDS, K_PAIR):
            evaluator = PhiEvaluator(game, phi)
            for lam in (0.0, 1.0, 5.0):
                system = _logit_system(evaluator, lam)
                steps, f = self._assert_rows_run_as_alone(system, self._starts(game, 4, index), tol)
                if lam == 0.0:  # the uniform start is the fixed point
                    assert steps[0] == 0 and 1 in steps[1:]

    @pytest.mark.parametrize(
        "index, phi, counts, warmed, stuck",
        [
            (2, MAStatistic(((-math.inf, 0.3), (2.0, 0.7))), (3, 2), 0, 0),
            (4, EXPECTATION, (2, 4, 2), 2, 2),
            (79, K_PAIR, (4, 3), 1, 1),
            (110, MAStatistic(((-math.inf, 0.3), (2.0, 0.7))), (3, 3, 2), 3, 1),
        ],
        ids=["op8", "op14", "op239", "op332"],
    )
    def test_warm_up_and_retry_give_each_start_its_outcome_alone(self, monkeypatch, index, phi, counts, warmed, stuck):
        # Criterion 03's corpus ops 8, 14, 239 and 332 at lambda = 5, with two
        # Dirichlet starts: the first Newton stage runs all three starts as one
        # stack; on op 8 each converges there, and on the others `warmed` of them
        # leave it unconverged and take the damped warm-up and the Newton retry
        # as one stack: two on op 14, which both stay stuck, one on op 239, which
        # does too, and all three on op 332, one of which does.  On each of these
        # the converged starts' fixed points sum to index +1, so no start takes its
        # homotopy path: every row ends where stages 1 and 2 leave it alone, which
        # a lone run shows with its own path cut off.  The index check's counts are
        # the stack's only others: one evaluation and one Jacobian per point checked.
        polished, finished, checked = [], [], []
        polish, finish, index_sum = solvers._newton_polish, solvers._finish_start, solvers._index_sum

        def counted_polish(evaluator, lam, profiles, tol, max_steps=40):
            polished.append((len(profiles), max_steps))
            return polish(evaluator, lam, profiles, tol, max_steps)

        def counted_finish(*args):
            finished.append(args[2])
            return finish(*args)

        def counted_index_sum(evaluator, lam, points):
            before = dict(evaluator.counts)
            out = index_sum(evaluator, lam, points)
            checked.append((len(points), out, Counter({k: evaluator.counts[k] - before[k] for k in before})))
            return out

        monkeypatch.setattr(solvers, "_newton_polish", counted_polish)
        monkeypatch.setattr(solvers, "_finish_start", counted_finish)
        monkeypatch.setattr(solvers, "_index_sum", counted_index_sum)
        rng = np.random.default_rng(777)
        game = [random_game(rng) for _ in range(index + 1)][index]
        assert game.action_counts == counts
        cfg = SolverConfig(multistarts=2, max_iters=20_000)
        starts = solvers._interior_starts(game.action_counts, cfg.seed, cfg.multistarts)
        evaluator = PhiEvaluator(game, phi)
        points, residuals = solvers._solve_fixed_point(evaluator, 5.0, starts, cfg)
        together = Counter(evaluator.counts)
        assert polished[:2] == [(3, 12)] + ([(warmed, 40)] if warmed else []) and finished == []
        assert together["iterations"] == warmed * solvers.WARM_UP
        assert points.shape == starts.shape and len(residuals) == len(starts)
        assert sum(not res <= cfg.tol_fixed_point for res in residuals) == stuck
        if stuck:
            [(size, total, gate)] = checked
            assert total == 1 and gate == Counter(evaluator_calls=size * game.num_players, jacobians=size)
            together -= gate
        else:
            assert checked == []
        # Alone, a stuck start has no other start's fixed point to certify it and would take its path.
        monkeypatch.setattr(solvers, "_finish_start", lambda evaluator, lam, start, point, res, cfg: (point, res))
        alone = Counter()
        for start, point, res in zip(starts, points, residuals):
            evaluator = PhiEvaluator(game, phi)
            [point_alone], [res_alone] = solvers._solve_fixed_point(evaluator, 5.0, start[None], cfg)
            alone.update(evaluator.counts)
            assert (res <= cfg.tol_fixed_point) == (res_alone <= cfg.tol_fixed_point)
            assert abs(res - res_alone) <= 1e-12
            np.testing.assert_allclose(point, point_alone, rtol=0, atol=1e-12)
        assert len(checked) == (1 if stuck else 0)  # a lone start's check needs another converged start
        assert together == alone

    @staticmethod
    def _scaled_identity(scale):
        # f(theta) = theta with the Jacobian scale * I: a wrong scale sends every
        # full step too far (0 < scale < 1) or the wrong way (scale < 0).  Its
        # arithmetic is exact, so a stack and a lone point evaluate alike.
        def system(theta):
            def jacobian(rows=None):
                count = len(theta) if rows is None else len(rows)
                return np.full((count, 1, 1), scale) if theta.ndim > 1 else np.full((1, 1), scale)

            return theta.copy(), jacobian

        return system

    @staticmethod
    def _counted(system, calls):
        def counted(theta):
            calls.append(theta.shape)
            return system(theta)

        return counted

    def test_a_stalled_row_tries_its_halvings_in_one_call(self):
        # Each full step of the wrong-way system doubles |theta|, and each of
        # its seven halvings still raises it: the row at 0.5 stalls after
        # 8 trial points, the full step in one call and the halvings in one more.
        calls = []
        theta, _, steps = _newton(
            self._counted(self._scaled_identity(-1.0), calls), np.array([[0.0], [0.5]]), 1e-12, 12
        )
        assert calls == [(2, 1), (1,), (7, 1)]
        assert [t.tolist() for t in theta] == [[0.0], [0.5]] and steps == [0, 0]

    def test_a_row_takes_the_first_halving_that_lowers_its_residual(self):
        # From 0.05 the overshooting system's full step lands on -0.45, and its
        # first two halvings on -0.2 and -0.075, none below 0.05 in size; the
        # third lands on -0.0125.  The stacked row takes the point it takes
        # alone, where the four trial points cost four calls.
        system = self._scaled_identity(0.1)
        calls, alone_calls = [], []
        theta, res, steps = _newton(self._counted(system, calls), np.array([[0.0], [0.05]]), 1e-12, 1)
        alone, res_alone, steps_alone = _newton(self._counted(system, alone_calls), np.array([0.05]), 1e-12, 1)
        assert calls == [(2, 1), (1,), (7, 1)] and len(alone_calls) == 5
        assert theta[1].tolist() == alone.tolist() == [0.05 - 0.5 / 8]
        assert res[1] == res_alone == 0.5 / 8 - 0.05 and steps == [0, 1] and steps_alone == 1
        assert system(theta[1])[0].tolist() == system(alone)[0].tolist() == [0.05 - 0.5 / 8]

    def test_a_singular_row_alone_takes_least_squares(self, monkeypatch):
        # The unit circle cut by x = y: the Jacobian [[2x, 2y], [1, -1]] is
        # singular on x = -y, where the first start lies, so the stack's one
        # solve fails and that row alone takes least-squares steps.
        def system(theta):
            x, y = theta[..., 0], theta[..., 1]

            def jacobian(rows=None):
                xs, ys = (x, y) if rows is None else (x[rows], y[rows])
                ones = np.ones_like(xs)
                return np.stack([np.stack([2 * xs, 2 * ys], -1), np.stack([ones, -ones], -1)], -2)

            return np.stack([x * x + y * y - 1.0, x - y], axis=-1), jacobian

        lstsq_rows = []
        lstsq = np.linalg.lstsq

        def counted(a, b, rcond=None):
            lstsq_rows.append(float(a[0, 0] + a[0, 1]))  # 2(x + y): zero on the singular line
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        starts = [np.array([0.5, -0.5]), np.array([0.9, 0.4]), np.array([-0.6, -0.9])]
        _, f = self._assert_rows_run_as_alone(system, starts, 1e-12, max_steps=24)
        assert lstsq_rows and all(row == 0.0 for row in lstsq_rows)
        assert max(np.abs(f[1:]).max(axis=1)) <= 1e-12  # the regular rows reach their roots

    def test_a_row_whose_jacobian_turns_nan_stops_where_it_is(self, monkeypatch, capfd):
        # x^2 = 1 in each coordinate, whose Jacobian turns NaN left of x = -0.5, with its first
        # column zero.  Such a row gets its NaN step without a LAPACK call, so least squares
        # is never handed a non-finite matrix and prints nothing to standard output.
        # The first start's capped step lands at x = -0.7: it takes no step from there and
        # leaves with that point, while the other rows reach their roots as alone.
        def system(theta):
            def jacobian(rows=None):
                points = theta if rows is None else theta[rows]
                jac = np.stack([np.diag(2.0 * x) for x in np.atleast_2d(points)])
                jac[points.reshape(-1, 2)[:, 0] < -0.5] = [[0.0, np.nan], [0.0, np.nan]]
                return jac if theta.ndim > 1 else jac[0]

            return theta * theta - 1.0, jacobian

        handed = []
        lstsq = np.linalg.lstsq

        def counted(a, b, rcond=None):
            handed.append(a.copy())
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        starts = [np.array([-0.2, 0.9]), np.array([0.9, 0.4]), np.array([1.2, 1.1])]
        steps, f = self._assert_rows_run_as_alone(system, starts, 1e-12)
        assert all(np.isfinite(a).all() for a in handed)
        theta, _, _ = _newton(system, starts[0], 1e-12, 12)
        assert theta[0] == -0.7 and steps[0] == 1
        assert max(np.abs(f[1:]).max(axis=1)) <= 1e-12
        ctypes.CDLL(None).fflush(None)  # LAPACK prints through C's buffered stdout
        assert capfd.readouterr().out == ""  # nothing reached file descriptor 1

    def test_a_row_whose_terms_underflow(self, monkeypatch):
        # At a = -966 the tilted terms of JACOBIAN_GAMES[1] underflow for a
        # start that leaves an opponent action unplayed, and only that row is
        # finished atom by atom by normalized_cgf.
        fallbacks = []
        inner = solvers.normalized_cgf

        def counted(*args, **kwargs):
            fallbacks.append(args[2])
            return inner(*args, **kwargs)

        monkeypatch.setattr(solvers, "normalized_cgf", counted)
        game = JACOBIAN_GAMES[1]
        evaluator = PhiEvaluator(game, MAStatistic.single(-966.0))
        starts = self._starts(game, 3, 0)
        unplayed = starts[1].copy()
        unplayed[2:5] = [1.0, 0.0, 0.0]  # player 1 plays its first action only
        starts.append(unplayed)
        for lam in (0.5, 5.0):
            fallbacks.clear()
            _, f = self._assert_rows_run_as_alone(_logit_system(evaluator, lam), starts, 1e-12)
            assert fallbacks
            assert max(np.abs(f).max(axis=1)) <= 1e-12

    def test_a_response_whose_terms_underflow_for_one_profile(self, monkeypatch):
        # The damped step's response, without derivatives: at a = -966 the stack's second
        # profile, whose player 1 plays its first action only, is finished atom by atom,
        # and the first, finished on its own, keeps its finish; each equals its own response.
        fallbacks = []
        inner = solvers.normalized_cgf

        def counted(*args, **kwargs):
            fallbacks.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(solvers, "normalized_cgf", counted)
        game = JACOBIAN_GAMES[1]
        evaluator = PhiEvaluator(game, MAStatistic.single(-966.0))
        rng = np.random.default_rng(0)
        first = [rng.dirichlet(np.ones(k)) for k in game.action_counts]
        second = [first[0], np.array([1.0, 0.0, 0.0]), first[2]]
        starts, owner = evaluator.starts, evaluator.layout.owner
        profiles = np.array([np.concatenate(first), np.concatenate(second)])
        stacked = _logit(evaluator.values(profiles), 5.0, starts, owner)
        assert fallbacks and all(weights.min() == 0.0 for weights in fallbacks)
        fallbacks.clear()
        for r, profile in enumerate(profiles):
            np.testing.assert_array_equal(stacked[r], _logit(evaluator.values(profile), 5.0, starts, owner))
        assert fallbacks  # the second profile alone underflows too


class TestSupportSolve:
    @pytest.mark.parametrize(
        "phi",
        [K_PAIR, MAStatistic(((0.0, 0.5), (1.0, 0.5))), MAStatistic(((-math.inf, 0.2), (0.0, 0.3), (0.8, 0.5)))],
        ids=["k-pair", "mean-and-exp", "extremes-mean-and-exp"],
    )
    def test_newton_keeps_each_sum_on_singular_systems(self, phi):
        # Off the linear path a two-player profile with |S_0| != |S_1| has a singular Jacobian:
        # the larger support's player has more difference rows than the opponent has weights
        # to move.  No such profile of this 4x3 game has a root, so Newton takes
        # least-squares steps from every start until it stalls, and every trial point keeps
        # each player's weight sum within 1e-12 of 1.  Under K_PAIR, scaling a mix moves no
        # value difference, so plain sum rows would keep the sums too; with an atom at 0 the
        # mean's part scales with the mix, and the centring of the Jacobian keeps them.
        game = _random_two_player_game(13, (4, 3))
        evaluator = PhiEvaluator(game, phi)
        tol = 1e-10 * (1.0 + float(np.max(np.abs(game.payoffs))))
        subsets = [[c for size in range(2, k + 1) for c in itertools.combinations(range(k), size)] for k in (4, 3)]
        profiles = [sups for sups in itertools.product(*subsets) if len(sups[0]) != len(sups[1])]
        for sups in profiles:
            system, points = _support_system(evaluator, sups), []

            def recorded(x):
                points.append(x)
                return system(x)

            for x in solvers._newton_starts(sups, 3):
                x, res, _ = _newton(recorded, x, tol, 24)
                assert res > tol, sups
                assert np.linalg.matrix_rank(system(x)[1]()) < x.size, sups
            sums = [(p[: len(sups[0])].sum(), p[len(sups[0]) :].sum()) for p in points]
            assert len(points) > 3 and np.abs(np.array(sums) - 1.0).max() <= 1e-12, sups

    @pytest.mark.parametrize("counts", [(2, 2), (3, 3), (2, 3, 2)])
    def test_flat_value_differences_stop_after_one_evaluation(self, counts):
        # Player 0's payoffs follow their own action alone and the other players' are constant,
        # so no value difference moves with the weights: the Jacobian is [0 ; S] exactly, and
        # its minimum-norm step is 0.  Newton evaluates once, builds one Jacobian and stops
        # where it started, and _solve_supports finds no root.
        payoffs = np.zeros(counts + (len(counts),))
        payoffs[..., 0] = 0.7 * np.indices(counts)[0]
        game = Game(counts, payoffs)
        sups = tuple(tuple(range(k)) for k in counts)
        for phi in (K_PAIR, MAStatistic(((-math.inf, 0.2), (0.0, 0.3), (0.8, 0.5)))):
            evaluator = PhiEvaluator(game, phi)
            system, calls = _support_system(evaluator, sups), []

            def counted(x):
                calls.append("f")
                f, jacobian = system(x)
                return f, lambda: calls.append("jacobian") or jacobian()

            start = next(solvers._newton_starts(sups, 0))
            x, res, steps = _newton(counted, start, 1e-10, 24)
            assert calls == ["f", "jacobian"] and steps == 0, phi.describe()
            np.testing.assert_array_equal(x, start)
            assert res > 0.5
            jac = system(start)[1]()
            np.testing.assert_array_equal(jac[: -len(counts)], 0.0)
            assert _solve(evaluator, [sups], 0, 2.0) == [None]

    @pytest.mark.parametrize(
        "game",
        [
            _random_two_player_game(11, (3, 4)),
            _random_two_player_game(12, (4, 4)),
            make_card_game(0.4, [0, 1], 0.1),
        ],
    )
    def test_linear_path_matches_newton_on_every_support(self, game):
        scale = 1.0 + float(np.max(np.abs(game.payoffs)))
        accepted = 0
        for phi in (EXPECTATION, MMM_THIRDS, MAStatistic(((-math.inf, 0.5), (math.inf, 0.5)))):
            evaluator = PhiEvaluator(game, phi)
            for sups in _support_profiles(game.action_counts):
                if sum(len(s) for s in sups) == 2:
                    continue  # no free weights: both paths return the pure profile
                exact = _solve(evaluator, [sups], 5, scale)[0]
                newton, low = _newton_support(evaluator, sups, 5, scale)
                if newton is None:
                    assert exact is None, (phi, sups)
                elif exact is None:
                    # Newton's accepted point sits at the boundary: its exact weight is zero.
                    assert low < 1e-7, (phi, sups)
                else:
                    accepted += 1
                    for a, b in zip(exact, newton):
                        np.testing.assert_allclose(a, b, rtol=0, atol=1e-7)
        assert accepted > 0

    def test_second_half_skipped_when_the_first_leaves_no_profile(self, monkeypatch):
        # In matching pennies player 0 is never indifferent against a pure action of
        # player 1, so the (2, 1) stack ends after its first half; the full support goes on.
        evaluator, half, calls = PhiEvaluator(make_matching_pennies(), EXPECTATION), solvers._linear_half, []

        def counted(*args):
            calls.append(len(args[2]))
            return half(*args)

        monkeypatch.setattr(solvers, "_linear_half", counted)
        pure_opponent = [np.array([[True, True], [True, True]]), np.array([[True, False], [False, True]])]
        rows, roots = solvers._linear_roots(evaluator, pure_opponent, 1e-10)
        assert len(rows) == len(roots) == 0
        assert calls == [2]
        calls.clear()
        full = np.ones((1, 2), dtype=bool)
        rows, roots = solvers._linear_roots(evaluator, [full, full], 1e-10)
        assert calls == [1, 1] and rows.tolist() == [0]
        np.testing.assert_allclose(roots[0], [0.5, 0.5, 0.5, 0.5], rtol=0, atol=1e-15)

    def test_zero_weight_solutions_are_rejected(self):
        game = make_card_game(0.4, [0, 1, 2], 0.01)
        evaluator = PhiEvaluator(game, EXPECTATION)
        scale = 1.0 + float(np.max(np.abs(game.payoffs)))
        for seed in range(40):
            for sups in (((7, 10), (0, 2)), ((8, 9), (0, 1)), ((8, 9), (0, 2))):
                assert _solve(evaluator, [sups], seed, scale)[0] is None
            dists = _solve(evaluator, [((7, 10), (0, 1))], seed, scale)[0]
            assert dists is not None
            np.testing.assert_allclose(dists[0][[7, 10]], [0.5, 0.5], rtol=0, atol=1e-12)
            np.testing.assert_allclose(dists[1][[0, 1]], [0.5, 0.5], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("phi", [EXPECTATION, MMM_THIRDS], ids=["mean", "mmm"])
    def test_consistency_pretest_changes_no_verdict_and_no_root(self, monkeypatch, phi):
        # Both halves of every support profile of the four 12x3 card games and of 40
        # random two-player games, solved by _linear_half with and without the QR
        # pretest: the same consistency verdicts, and the same roots where consistent.
        rng = np.random.default_rng(20240)
        games = [make_card_game(r, [0, 1, 2], eps) for r in (0.4, 0.95) for eps in (0.1, 0.01)]
        games += [random_game(rng, players=(2, 2), actions=(2, 5)) for _ in range(40)]
        pretest, tally = solvers._may_be_consistent, Counter()

        def counted(*args):
            passed = pretest(*args)
            tally["rejected"] += int((~passed).sum())
            return passed

        monkeypatch.setattr(solvers, "_may_be_consistent", counted)
        for game in games:
            evaluator = PhiEvaluator(game, phi)
            tol = 1e-10 * (1.0 + float(np.max(np.abs(game.payoffs))))
            # Every support profile in one stack, whatever its shape, as _linear_roots hands them on.
            ids, supports = _indexed(list(_support_profiles(game.action_counts)), game.action_counts)
            masks = [m[col] for m, col in zip(supports, ids.T)]
            for i in (0, 1):
                args = (evaluator, i, masks[i], masks[1 - i], tol)
                roots, consistent = solvers._linear_half(*args)
                with monkeypatch.context() as m:
                    m.setattr(solvers, "_may_be_consistent", lambda jac, *_: np.ones(len(jac), dtype=bool))
                    all_roots, all_consistent = solvers._linear_half(*args)
                assert np.array_equal(consistent, all_consistent)
                np.testing.assert_array_equal(roots[consistent], all_roots[consistent])
                tally["consistent"] += int(consistent.sum())
        assert tally["rejected"] > 0 and tally["consistent"] > 0

    def test_consistency_pretest_passes_a_gap_spread_over_every_equation(self):
        # A least-squares residual r orthogonal to the columns of jac, each of its m
        # entries 0.9 tol in size: the gap is within tol, and r's 2-norm is sqrt(m) times
        # that, the most the pretest allows for.
        rng = np.random.default_rng(8)
        tol, (stack, m, n) = 1e-10, (200, 7, 3)
        r = 0.9 * tol * rng.choice([-1.0, 1.0], size=(stack, m))
        g = rng.normal(size=(stack, m, n))
        jac = g - r[:, :, None] * (np.einsum("bm,bmn->bn", r, g) / (r * r).sum(axis=1)[:, None])[:, None, :]
        const = np.einsum("bmn,bn->bm", jac, rng.normal(size=(stack, n))) + r
        gap = np.abs(jac @ (-np.linalg.pinv(jac) @ const[..., None]) + const[..., None]).max(axis=(1, 2))
        assert (gap <= tol).all()
        assert solvers._may_be_consistent(jac, const, np.full(stack, m), np.full(stack, n), tol).all()

    @pytest.mark.parametrize(
        "phi",
        [EXPECTATION, MMM_THIRDS, MAStatistic(((-math.inf, 0.5), (math.inf, 0.5)))],
        ids=["mean", "mmm", "extremes"],
    )
    def test_one_stack_matches_one_solve_per_profile(self, phi):
        # Every support profile of the three games above, and the first 4,096 of a 12x3
        # card game, solved as one list, every shape in one stack, half by half (the card
        # game's 4,096 in three chunks of at most _MARGIN_CHUNK block entries): each
        # profile's mixes are those of its lone solve, bit for bit, as each profile's block
        # depends on its own supports alone.
        games = [
            _random_two_player_game(11, (3, 4)),
            _random_two_player_game(12, (4, 4)),
            make_card_game(0.4, [0, 1], 0.1),
            make_card_game(0.4, [0, 1, 2], 0.1),
        ]
        solved = 0
        for game in games:
            evaluator = PhiEvaluator(game, phi)
            scale = 1.0 + float(np.max(np.abs(game.payoffs)))
            profiles = list(itertools.islice(_support_profiles(game.action_counts), 4096))
            stacked = _solve(evaluator, profiles, 7, scale)
            assert len(stacked) == len(profiles)
            for sups, dists in zip(profiles, stacked):
                alone = _solve(evaluator, [sups], 7, scale)[0]
                assert (dists is None) == (alone is None), sups
                if dists is not None:
                    solved += sum(len(s) for s in sups) > 2
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(dists, alone)), sups
        assert solved > 0

    @pytest.mark.parametrize(
        "game, phi, every",
        [
            (_random_two_player_game(13, (4, 3)), K_PAIR, True),
            (Game((2, 3, 2), np.random.default_rng(14).uniform(-2.0, 2.0, size=(2, 3, 2, 3))), EXPECTATION, True),
            (make_card_game(0.4, [0, 1, 2], 0.1), K_PAIR, False),
            (_drawn_root_game(), K_PAIR, False),
        ],
        ids=["k-pair", "three-players", "k-pair-12x3", "k-pair-drawn"],
    )
    def test_newton_roots_do_not_depend_on_the_stack(self, game, phi, every):
        # Every support profile, or one of each shape with supports of 1 to 12 actions, in
        # an order that interleaves the shapes, solved as one stack, as the reverse stack
        # and one profile at a time: the same solutions, bit for bit, and those of the
        # reference from the same seed.  In the last game one root comes from a draw.
        evaluator = PhiEvaluator(game, phi)
        scale = 1.0 + float(np.max(np.abs(game.payoffs)))
        if every:
            profiles = list(_support_profiles(game.action_counts))
        else:
            shapes = itertools.product(*(range(1, k + 1) for k in game.action_counts))
            profiles = [tuple(tuple(range(size)) for size in shape) for shape in shapes]
        profiles = [profiles[t] for t in np.random.default_rng(0).permutation(len(profiles)).tolist()]
        solved = _solve(evaluator, profiles, 3, scale)
        reverse = _solve(evaluator, profiles[::-1], 3, scale)[::-1]
        roots = 0
        for sups, dists, back in zip(profiles, solved, reverse):
            if max(map(len, sups)) == 1:  # a pure profile draws nothing and is returned as it is
                expected = [np.eye(k)[a] for k, (a,) in zip(game.action_counts, sups)]
            else:
                expected = _newton_support(evaluator, sups, 3, scale)[0]
            for other in (back, _solve(evaluator, [sups], 3, scale)[0], expected):
                assert (dists is None) == (other is None), sups
                if dists is not None:
                    assert all(np.array_equal(a, b) for a, b in zip(dists, other)), sups
            roots += dists is not None
        assert roots > len([sups for sups in profiles if max(map(len, sups)) == 1])

    def test_linear_path_roots_do_not_change_with_the_seed(self):
        game = make_card_game(0.4, [0, 1, 2], 0.1)
        profiles = list(itertools.islice(_support_profiles(game.action_counts), 1024))
        scale = 1.0 + float(np.max(np.abs(game.payoffs)))
        for phi in (EXPECTATION, MMM_THIRDS, MAStatistic(((-math.inf, 0.5), (math.inf, 0.5)))):
            evaluator = PhiEvaluator(game, phi)
            solved = _solve(evaluator, profiles, 0, scale)
            for seed in (9, 2**40):
                for sups, dists, other in zip(profiles, solved, _solve(evaluator, profiles, seed, scale)):
                    assert (dists is None) == (other is None), sups
                    if dists is not None:
                        assert all(np.array_equal(a, b) for a, b in zip(dists, other)), sups
            assert any(dists is not None and max(map(len, sups)) > 1 for sups, dists in zip(profiles, solved))


class TestSolveNashPhi:
    def test_pennies_unique_uniform(self):
        res = solve_nash_phi(make_matching_pennies(), EXPECTATION, FAST)
        assert len(res.profiles) == 1
        assert res.profiles[0].is_uniform(tol=1e-9)

    def test_indifference_solution(self):
        res = solve_nash_phi(make_no_extremal_eq_game(0.25), EXPECTATION, FAST)
        assert len(res.profiles) == 1
        np.testing.assert_allclose(res.profiles[0].distributions[0], [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(res.profiles[0].distributions[1], [0.1, 0.9], atol=1e-9)

    def test_extreme_statistic_has_no_equilibrium(self):
        res = solve_nash_phi(make_no_extremal_eq_game(0.25), EXTREME_MIX, FAST)
        assert res.profiles == []
        assert res.diagnostics["enumeration_truncated"] is False

    def test_dominant_action_game(self):
        res = solve_nash_phi(make_test_game_gx(1.0), EXPECTATION, FAST)
        assert len(res.profiles) == 1
        assert res.profiles[0].distributions[0][0] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_newton_path_tries_the_drawn_starts_where_the_uniform_jacobian_is_zero(self, seed):
        # Player i earns 0 for action 1; for action 0, -0.32 when the other two match
        # and 0.68 when they do not, so it is indifferent when q + r - 2qr = 0.32 in the
        # others' weights on action 0.  The totally mixed equilibria have every player at
        # (0.8, 0.2) or at (0.2, 0.8); at the uniform start every Jacobian entry is
        # 1 - 2r = 0, so only a drawn start reaches one of them.
        payoffs = np.zeros((2, 2, 2, 3))
        for profile in itertools.product(range(2), repeat=3):
            for i in range(3):
                b, c = (profile[j] for j in range(3) if j != i)
                payoffs[(*profile, i)] = 0.0 if profile[i] else (-0.32 if b == c else 0.68)
        game = Game((2, 2, 2), payoffs)
        res = solve_nash_phi(game, EXPECTATION, SolverConfig(seed=seed))
        assert len(res.profiles) == 8 and res.diagnostics["enumeration_truncated"] is False
        (mixed,) = [p for p in res.profiles if min(d.min() for d in p.distributions) > 0.0]
        weight = mixed.distributions[0][0]
        assert min(abs(weight - 0.8), abs(weight - 0.2)) <= 1e-9
        for dist in mixed.distributions:
            np.testing.assert_allclose(dist, [weight, 1.0 - weight], rtol=0, atol=1e-9)
        assert verify_nash_phi(game, EXPECTATION, mixed)

    def test_limit_at_the_pure_profiles_lists_them_without_walking_the_rest(self):
        # (2^10 - 1)^2 profiles, of which the 100 pure ones come first; the listing stops
        # at 8 times the limit, so 800 are examined, and all but one of them are dismissed.
        g = _random_two_player_game(0, (10, 10))
        d = solve_nash_phi(g, EXPECTATION, SolverConfig(max_enum_supports=100)).diagnostics
        assert d["enumeration_examined"] == 800 <= 8 * 100
        assert d["enumeration_pruned"] == 799
        assert d["enumeration_truncated"] is True

    def test_limit_past_a_one_action_player_completes_the_enumeration(self):
        # A (12, 1) game has 4,095 profiles, up to total size 13; the default limit
        # examines every one, so on the linear path the trace is skipped.
        g = _random_two_player_game(0, (12, 1))
        res = solve_nash_phi(g, EXPECTATION)
        d = res.diagnostics
        assert d["enumeration_examined"] == 4_095
        assert d["enumeration_truncated"] is False and d["homotopy_skipped"] is True
        assert len(res.profiles) == 1

    def test_default_limits_find_only_complete_enumeration_solutions(self):
        # 3,819 of the 12x3 card game's 28,665 profiles survive dismissal, under the
        # default limit: the default enumeration is complete, skips the trace and finds
        # exactly the set of the enumeration at a limit of 30,000.
        game = make_card_game(0.4, [0, 1, 2], 0.1)
        complete = solve_nash_phi(game, EXPECTATION, SolverConfig(max_enum_supports=30_000))
        assert complete.diagnostics["enumeration_truncated"] is False
        default = solve_nash_phi(game, EXPECTATION, SolverConfig(multistarts=2, max_iters=20_000))
        assert default.diagnostics["enumeration_truncated"] is False
        assert default.diagnostics["homotopy_skipped"] is True
        assert "homotopy_breakdown_lambda" not in default.diagnostics
        assert len(default.profiles) == len(complete.profiles) == 21
        for p in default.profiles:
            assert min(p.sup_distance(q) for q in complete.profiles) <= 1e-9
        for q in complete.profiles:
            assert min(q.sup_distance(p) for p in default.profiles) <= 1e-9

    def test_default_solve_of_a_12x3_card_game_keeps_its_scratch_memory_small(self):
        # The complete enumeration lists 28,665 profiles; the margins of their dismissal
        # are taken in bounded chunks.  Traced peak: about 2.9 MB, and 7.6 MB with chunks
        # of 1 << 20 payoff differences.
        game = make_card_game(0.4, [0, 1, 2], 0.1)
        tracemalloc.start()
        try:
            res = solve_nash_phi(game, EXPECTATION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics["enumeration_truncated"] is False
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("eps, default_count", [(0.1, 21), (0.01, 21)])
    def test_complete_enumeration_contains_the_default_solutions(self, eps, default_count):
        game = make_card_game(0.4, [0, 1, 2], eps)
        complete = solve_nash_phi(game, EXPECTATION, SolverConfig(max_enum_supports=30_000))
        d = complete.diagnostics
        assert d["enumeration_truncated"] is False and d["homotopy_skipped"] is True
        assert (d["enumeration_examined"], d["enumeration_pruned"]) == (28_665, 24_846)
        # The 3,819 survivors fall into 671 orbits of the game's 6 automorphisms; one profile of each is solved.
        assert (d["automorphisms"], d["supports_solved"]) == (6, 671)
        assert len(complete.profiles) == 21
        default = solve_nash_phi(game, EXPECTATION)
        assert len(default.profiles) == default_count
        for p in default.profiles:
            assert min(p.sup_distance(q) for q in complete.profiles) <= DEDUP_TOL

    def test_limit_on_a_game_too_large_to_walk(self):
        # Walking the (2^14 - 1)^2 profiles one by one would take minutes; the listing
        # stops at 8 times the limit.
        g = _random_two_player_game(0, (14, 14))
        cfg = SolverConfig(max_enum_supports=196, homotopy_steps=2)
        d = solve_nash_phi(g, EXPECTATION, cfg).diagnostics
        assert d["enumeration_examined"] == 1_568 <= 8 * 196
        assert d["enumeration_truncated"] is True

    def test_zero_enumeration_limit_reports_truncation(self):
        # Stage 1 alone finds 18 profiles here; with no support examined that is not a complete search.
        game = make_card_game(0.4, [0, 1, 2], 0.1)
        res = solve_nash_phi(game, EXPECTATION, SolverConfig(max_enum_supports=0))
        assert res.profiles
        assert res.diagnostics["homotopy_skipped"] is False
        assert res.diagnostics["enumeration_examined"] == 0
        assert res.diagnostics["enumeration_truncated"] is True

    @pytest.mark.parametrize(
        "limit, expected", [(8, (44, 36, True, False)), (9, (45, 36, False, True))], ids=["limit-8", "limit-9"]
    )
    def test_enumeration_limits_at_their_edges(self, limit, expected):
        # A 4x2 card game has 15 * 3 = 45 support profiles over 6 actions, and 9 survive
        # dismissal, the last of them the last profile.  Both limits list all 45, and the
        # trace is skipped just when all 9 survivors are solved.  At limit 8 the examined
        # profiles are those before the ninth survivor.
        cfg = SolverConfig(multistarts=2, max_iters=20_000, max_enum_supports=limit)
        d = solve_nash_phi(make_card_game(0.4, [0, 1], 0.1), EXPECTATION, cfg).diagnostics
        keys = ("enumeration_examined", "enumeration_pruned", "enumeration_truncated", "homotopy_skipped")
        assert tuple(d[k] for k in keys) == expected

    @pytest.mark.parametrize(
        "limit, expected", [(5, (40, 39, True, False)), (6, (45, 44, False, True))], ids=["limit-5", "limit-6"]
    )
    def test_listing_stops_at_a_fixed_multiple_of_the_limit(self, limit, expected):
        # Each player of this 4x2 game has a strictly dominant action, so of its 45 profiles
        # only the pure profile of the two survives dismissal, and the enumeration is cut
        # short only by the listing's end at 8 times the limit: 40 profiles, then all 45.
        payoffs = np.stack(np.meshgrid(np.arange(4.0), np.arange(2.0), indexing="ij"), axis=-1)
        cfg = SolverConfig(multistarts=2, max_iters=20_000, max_enum_supports=limit)
        res = solve_nash_phi(Game((4, 2), payoffs), EXPECTATION, cfg)
        keys = ("enumeration_examined", "enumeration_pruned", "enumeration_truncated", "homotopy_skipped")
        assert tuple(res.diagnostics[k] for k in keys) == expected
        assert len(res.profiles) == 1
        np.testing.assert_array_equal(res.profiles[0].distributions[0], [0, 0, 0, 1])
        np.testing.assert_array_equal(res.profiles[0].distributions[1], [0, 1])

    def test_skipping_the_trace_keeps_every_solution_set(self, monkeypatch):
        # Games enumerated completely, so the default run skips the trace: the first games
        # of criterion 02's corpus, matching pennies and criterion 05's four card games
        # under the expectation, and a corpus game under MMM_THIRDS, all on the linear
        # path; and on the Newton path a three-player game, a corpus game under K_PAIR and
        # the 4x2 card game under K_PAIR.  Forcing the trace, by reporting the enumeration
        # as truncated, must find the same set.
        cfg = SolverConfig(multistarts=2, max_iters=20_000)
        rng = np.random.default_rng(20240)
        corpus = [random_game(rng, players=(2, 2), actions=(2, 3)) for _ in range(8)]
        cards = [make_card_game(0.4, x, eps) for x in ([0, 1], [0, 1, 2]) for eps in (0.1, 0.01)]
        games = corpus + [make_matching_pennies()] + cards
        cases = [(game, EXPECTATION) for game in games] + [(corpus[0], MMM_THIRDS)]
        cases += [(random_game(rng, players=(3, 3), actions=(2, 2)), EXPECTATION), (corpus[1], K_PAIR)]
        cases += [(cards[0], K_PAIR)]
        traces = []  # one entry per homotopy_trace call
        trace = solvers.homotopy_trace
        monkeypatch.setattr(solvers, "homotopy_trace", lambda *args: traces.append(1) or trace(*args))
        defaults = [solve_nash_phi(game, phi, cfg) for game, phi in cases]
        assert len(traces) == 0
        enumeration = solvers._enumeration
        with monkeypatch.context() as m:
            m.setattr(solvers, "_enumeration", lambda *args: (*enumeration(*args)[:3], False))
            forced = [solve_nash_phi(game, phi, cfg) for game, phi in cases]
        assert len(traces) == len(cases)
        assert sum(res.diagnostics["homotopy_candidates"] for res in forced) > 0
        for index, (default, traced) in enumerate(zip(defaults, forced)):
            d = default.diagnostics
            assert d["homotopy_skipped"] is True and d["homotopy_candidates"] == 0, index
            assert d["enumeration_truncated"] is False and traced.diagnostics["homotopy_skipped"] is False, index
            assert len(default.profiles) == len(traced.profiles), index
            for p in default.profiles:
                assert min(p.sup_distance(q) for q in traced.profiles) <= 1e-6, index
        # The trace runs where the enumeration is not complete (a 12x3 card game under a
        # limit below its 3,819 survivors).
        low = SolverConfig(multistarts=2, max_iters=20_000, max_enum_supports=256)
        d = solve_nash_phi(cards[2], EXPECTATION, low).diagnostics
        assert d["homotopy_skipped"] is False and d["enumeration_truncated"] is True
        assert len(traces) == len(cases) + 1

    def test_trace_breakdown_keeps_the_points_before_it(self, monkeypatch):
        # The 4x2 card game under K_PAIR, with a limit of 8, below its 9 survivors of dismissal,
        # so the trace runs.  A breakdown after its first k points gives the solve whose
        # trace is those k points, and reports the last good lambda.
        game = make_card_game(0.4, [0, 1], 0.1)
        cfg = SolverConfig(multistarts=4, max_iters=20_000, max_enum_supports=8)
        full = homotopy_trace(game, K_PAIR, solvers.HOMOTOPY_LAMBDA_MAX, cfg.homotopy_steps, cfg)
        k = 120
        last = full[k - 1][0]

        def broken(*args):
            raise solvers.HomotopyBreakdown(f"stalled past lambda={last:g}", full[:k], last)

        monkeypatch.setattr(solvers, "homotopy_trace", broken)
        res = solve_nash_phi(game, K_PAIR, cfg)
        monkeypatch.setattr(solvers, "homotopy_trace", lambda *args: full[:k])
        short = solve_nash_phi(game, K_PAIR, cfg)
        assert res.diagnostics.pop("homotopy_breakdown_lambda") == last
        assert res.diagnostics["homotopy_skipped"] is False and res.diagnostics["homotopy_candidates"] > 0
        assert res.to_json() == short.to_json()

    def test_supports_solved_counts_the_profiles_handed_to_the_solver(self, monkeypatch):
        # The trace's candidates and the enumeration's survivors go to the solver together as
        # one list, on the linear path (mean, MMM) and on the Newton path (K_PAIR, 3 players).
        handed = []
        inner = solvers._solve_supports
        monkeypatch.setattr(
            solvers, "_solve_supports", lambda ev, ids, *rest: handed.append(len(ids)) or inner(ev, ids, *rest)
        )
        rng = np.random.default_rng(20240)
        cases = [
            (make_card_game(0.4, [0, 1, 2], 0.1), EXPECTATION),
            (make_card_game(0.4, [0, 1], 0.1), EXPECTATION),
            (random_game(rng, players=(2, 2), actions=(2, 3)), MMM_THIRDS),
            (random_game(rng, players=(2, 2), actions=(2, 3)), K_PAIR),
            (random_game(rng, players=(3, 3), actions=(2, 2)), EXPECTATION),
        ]
        for game, phi in cases:
            handed.clear()
            d = solve_nash_phi(game, phi, FAST).diagnostics
            assert len(handed) == 1
            assert d["supports_solved"] == sum(handed) > 0
            # On the linear path one profile per orbit is solved, and an orbit holds at most
            # one survivor per automorphism.
            assert d["supports_solved"] * d["automorphisms"] >= d["enumeration_examined"] - d["enumeration_pruned"]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=-1)

    def test_negative_enumeration_limit_rejected(self):
        with pytest.raises(ValueError, match="max_enum_supports"):
            SolverConfig(max_enum_supports=-1)

    @pytest.mark.parametrize("field", ["tol_fixed_point", "support_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_tolerance_outside_zero_to_infinity_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_iters", "multistarts", "homotopy_steps", "max_enum_supports", "seed"])
    @pytest.mark.parametrize("value", [math.nan, 2.5, 4.0], ids=["nan", "fraction", "integral-float"])
    def test_integer_field_given_a_non_integer_rejected(self, field, value):
        # A NaN compares False, so the range checks alone would let it through.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: value})


def _label_free_games():
    """The four 12x3 card games and ten random two-player games, all enumerated completely by default."""
    rng = np.random.default_rng(2718)
    cards = [make_card_game(r, [0, 1, 2], eps) for r in (0.4, 0.95) for eps in (0.1, 0.01)]
    return cards + [random_game(rng, players=(2, 2), actions=(3, 6)) for _ in range(10)]


def _solution_arrays(res):
    return [np.concatenate(p.distributions) for p in res.profiles]


def _same_set(found, expected, tol):
    """Whether two lists of concatenated profiles hold the same points within tol, as many of each."""
    if len(found) != len(expected):
        return False
    return all(min(np.abs(x - y).max() for y in expected) <= tol for x in found) and all(
        min(np.abs(x - y).max() for y in found) <= tol for x in expected
    )


class TestLabelFree:
    @pytest.mark.parametrize("phi", [EXPECTATION, MMM_THIRDS], ids=["mean", "mmm"])
    def test_relabeling_actions_relabels_the_solutions(self, phi):
        # Solve, rename both players' actions by random permutations, solve again and map
        # the solutions back: the same set.  On the linear path each root is the projection
        # of the uniform mix onto its support's solutions, which no ordering of the
        # support's actions changes.
        rng = np.random.default_rng(161)
        for index, game in enumerate(_label_free_games()):
            base = solve_nash_phi(game, phi)
            assert base.diagnostics["enumeration_truncated"] is False, index
            for _ in range(3):
                perms = [rng.permutation(k) for k in game.action_counts]
                relabeled = Game(game.action_counts, game.payoffs[np.ix_(*perms)])
                back = []
                for p in solve_nash_phi(relabeled, phi).profiles:
                    mixes = [np.empty(k) for k in game.action_counts]
                    for mix, perm, dist in zip(mixes, perms, p.distributions):
                        mix[perm] = dist  # new action a is old action perm[a]
                    back.append(np.concatenate(mixes))
                assert _same_set(back, _solution_arrays(base), 1e-9), (index, perms)

    @pytest.mark.parametrize("phi", [EXPECTATION, MMM_THIRDS], ids=["mean", "mmm"])
    def test_scaling_the_payoffs_keeps_the_solutions(self, phi):
        # The weights' sum row of each half is weighted like the player's payoffs, so the
        # linear path's tolerance and conditioning are the same at every payoff scale:
        # every support profile gets the same root, or none, from 1e-6 to 1e6 times the
        # payoffs.  Whole solves are compared up to 1e3 only: GAP_TOL is absolute, and at
        # 1e6 the best-response gap of a root is a few units in the last place of its
        # values, which decide it either way (two of these games at the parent too).
        for index, game in enumerate(_label_free_games()):
            stack = _support_listing(game.action_counts, 10**6)
            profiles = _decoded(*stack)

            def solved(g):
                return _solve_supports(PhiEvaluator(g, phi), *stack, 0, 1.0 + float(np.max(np.abs(g.payoffs))))

            (base, base_roots), base_set = solved(game), _solution_arrays(solve_nash_phi(game, phi))
            assert base, index
            for alpha in (1e-6, 1e-3, 1e3, 1e6):
                scaled = Game(game.action_counts, alpha * game.payoffs)
                places, roots = solved(scaled)
                assert places == base, (index, alpha, [profiles[q] for q in sorted(set(places) ^ set(base))])
                gaps = np.abs(roots - base_roots).max(axis=1)
                assert gaps.max() <= 1e-9, (index, alpha, profiles[base[int(gaps.argmax())]])
                if alpha < 1e6:
                    assert _same_set(_solution_arrays(solve_nash_phi(scaled, phi)), base_set, 1e-9), (index, alpha)


def _shift_games(players):
    """Small random games on which an uncentred solve lost equilibria to a constant shift."""
    rng = np.random.default_rng(777)
    drawn = [random_game(rng, players=(2, 2), actions=(3, 6)) for _ in range(12)]
    if players == 2:
        return [random_game(np.random.default_rng(0), players=(2, 2), actions=(3, 4)), drawn[4]]
    return [random_game(rng, players=(3, 3), actions=(2, 3)) for _ in range(2)][1:]


class TestTranslation:
    @pytest.mark.parametrize("players", [2, 3])
    @pytest.mark.parametrize("phi", [EXPECTATION, MMM_THIRDS, K_PAIR], ids=["mean", "mmm", "k_pair"])
    def test_shifting_a_players_payoffs_keeps_the_solutions(self, phi, players):
        # Every statistic is translation-invariant, so adding c (i + 1) to player i's payoffs
        # leaves the equilibrium set as it is.  Without centring, Newton's stop grew with the
        # constant and the absolute gap test then rejected roots: the 4x4 game under K_PAIR
        # lost all 3 of its equilibria at c = 1e6.
        found = 0
        for index, game in enumerate(_shift_games(players)):
            base = solve_nash_phi(game, phi)
            assert base.diagnostics["enumeration_truncated"] is False, index
            found += len(base.profiles)
            for c in (1.0, -1e3, 1e3, 1e6):
                shifted = Game(game.action_counts, game.payoffs + c * np.arange(1, players + 1))
                res = solve_nash_phi(shifted, phi)
                assert res.diagnostics["enumeration_truncated"] is False, (index, c)
                assert _same_set(_solution_arrays(res), _solution_arrays(base), 1e-6), (index, c)
        assert found > 0


def _circulant_game(seed, n):
    """An n x n game with u_i(a, b) = c_i[(a - b) mod n] for random c_i: shifting both actions is a symmetry."""
    c = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, 2))
    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return Game((n, n), c[(a - b) % n])


def _valid_column_permutations(game):
    """How many permutations t of player 1's actions some s completes to u(s a, t b) = u(a, b), by sorted rows."""
    rows = sorted(map(tuple, game.payoffs.reshape(game.action_counts[0], -1).tolist()))
    return sum(
        sorted(map(tuple, game.payoffs[:, list(t)].reshape(game.action_counts[0], -1).tolist())) == rows
        for t in itertools.permutations(range(game.action_counts[1]))
    )


def _is_automorphism(game, perms):
    return np.array_equal(game.payoffs[np.ix_(*perms)], game.payoffs)


_WIDE_BLOW_UP = blow_up(make_card_game(0.4, [0, 1], 0.1), [[a % 4 for a in range(66)], [0, 1]])


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "game, order",
        [
            (make_card_game(0.4, [0, 1, 2], 0.1), 6),
            (make_card_game(0.4, [0, 1, 2], 0.01), 6),
            (make_card_game(0.4, [0, 1], 0.1), 2),
            (make_card_game(0.4, [0, 1], 0.01), 2),
            (Game((3, 12), make_card_game(0.4, [0, 1, 2], 0.1).payoffs.transpose(1, 0, 2)), 6),
            (blow_up(make_card_game(0.4, [0, 1], 0.1), [[0, 0, 1, 1, 2, 3, 3, 2], [0, 1]]), 2),
            (blow_up(make_card_game(0.4, [0, 1], 0.1), [[0, 1, 1, 2, 3, 3], [0, 1]]), 1),
            (blow_up(make_card_game(0.4, [0, 1, 2], 0.1), [list(range(12)) * 2, [0, 1, 2, 2]]), 4),
            (_WIDE_BLOW_UP, 2),
            (_circulant_game(1, 5), 5),
        ],
        ids=[
            "cards-12x3",
            "cards-12x3-eps",
            "cards-4x2",
            "cards-4x2-eps",
            "transposed",
            "blow-up",
            "blow-up-uneven",
            "blow-up-both",
            "blow-up-66",
            "circulant",
        ],
    )
    def test_group_order_and_each_pair_is_an_automorphism(self, game, order):
        group = symmetry.automorphisms(game)
        assert len(group) == order
        assert all(_is_automorphism(game, g) for g in group)
        assert [p.tolist() for p in group[0]] == [list(range(k)) for k in game.action_counts]
        if game.action_counts[1] <= game.action_counts[0]:
            assert len({tuple(g[1].tolist()) for g in group}) == order == _valid_column_permutations(game)

    def test_random_games_have_only_the_identity(self):
        rng = np.random.default_rng(777)
        for _ in range(40):
            game = random_game(rng, players=(2, 2), actions=(2, 6))
            [identity] = symmetry.automorphisms(game)
            assert [p.tolist() for p in identity] == [list(range(k)) for k in game.action_counts]

    def test_more_than_six_actions_give_the_identity_alone(self):
        # Every permutation of the constant game's actions is an automorphism; 7! are not tried.
        game = Game((7, 8), np.zeros((7, 8, 2)))
        [identity] = symmetry.automorphisms(game)
        assert [p.tolist() for p in identity] == [list(range(7)), list(range(8))]
        assert len(symmetry.automorphisms(Game((6, 8), np.zeros((6, 8, 2))))) == 720


def _identity_only(game):
    return [tuple(np.arange(k) for k in game.action_counts)]


class TestOrbitSolve:
    """solve_nash_phi with one profile solved per orbit against the same solve with the identity alone."""

    @staticmethod
    def _check(monkeypatch, game, phi, cfg, order):
        reduced = solve_nash_phi(game, phi, cfg)
        with monkeypatch.context() as patch:
            patch.setattr(symmetry, "automorphisms", _identity_only)
            full = solve_nash_phi(game, phi, cfg)
        d, e = reduced.diagnostics, full.diagnostics
        assert d["automorphisms"] == order and e["automorphisms"] == 1
        assert d["supports_solved"] < e["supports_solved"]
        for key in ("enumeration_examined", "enumeration_pruned", "enumeration_truncated", "homotopy_candidates"):
            assert d[key] == e[key], key
        assert len(reduced.profiles) == len(full.profiles) > 0
        for p, q in zip(reduced.profiles, full.profiles):
            assert p.sup_distance(q) <= 1e-12
        # An image keeps its representative's gap, which is its own up to rounding.
        np.testing.assert_allclose(reduced.residuals, full.residuals, rtol=0, atol=1e-15)
        if not d["enumeration_truncated"]:  # every profile was listed, so the solutions are closed under the group
            points = np.array(_solution_arrays(reduced))
            for g in symmetry.automorphisms(game):
                for p in reduced.profiles:
                    mixes = [np.empty(len(x)) for x in p.distributions]
                    for mix, perm, x in zip(mixes, g, p.distributions):
                        mix[perm] = x
                    assert np.abs(points - np.concatenate(mixes)).max(axis=1).min() <= 1e-9
        return d

    @pytest.mark.parametrize("phi", [EXPECTATION, MMM_THIRDS], ids=["mean", "mmm"])
    @pytest.mark.parametrize(
        "x, eps, order", [([0, 1, 2], 0.1, 6), ([0, 1, 2], 0.01, 6), ([0, 1], 0.1, 2), ([0, 1], 0.01, 2)]
    )
    def test_card_games(self, monkeypatch, phi, x, eps, order):
        d = self._check(monkeypatch, make_card_game(0.4, x, eps), phi, FAST, order)
        if len(x) == 3:
            assert (d["enumeration_examined"], d["enumeration_pruned"], d["supports_solved"]) == (28_665, 24_846, 671)

    @pytest.mark.parametrize("phi", [EXPECTATION, MMM_THIRDS], ids=["mean", "mmm"])
    @pytest.mark.parametrize("seed, n", [(1, 3), (2, 4), (3, 5)])
    def test_random_games_with_a_symmetry(self, monkeypatch, phi, seed, n):
        self._check(monkeypatch, _circulant_game(seed, n), phi, FAST, n)

    def test_more_than_64_actions(self, monkeypatch):
        # Orbit keys of 66 + 2 actions take two 52-bit chunks.  The listing stops short of
        # the whole game, so the trace's candidates join the stack.
        cfg = SolverConfig(multistarts=2, max_iters=20_000, homotopy_steps=8, max_enum_supports=1024)
        d = self._check(monkeypatch, _WIDE_BLOW_UP, EXPECTATION, cfg, 2)
        assert d["enumeration_truncated"] is True


def _reference_dominated(evaluator, i, opponent_supports):
    """Player i's actions beaten by more than GAP_TOL against every opponent profile in the supports, alone."""
    counts = evaluator.game.action_counts
    k = counts[i]
    grid = evaluator.tables[i].reshape(k, *(c for j, c in enumerate(counts) if j != i))
    reached = grid[np.ix_(range(k), *opponent_supports)].reshape(k, -1)
    margin = (reached[None, :, :] - reached[:, None, :]).min(axis=2)
    return frozenset(np.flatnonzero(margin.max(axis=1) > GAP_TOL).tolist())


def _reference_dismissed(evaluator, sups):
    return any(
        not _reference_dominated(evaluator, i, sups[:i] + sups[i + 1 :]).isdisjoint(sup) for i, sup in enumerate(sups)
    )


def _reference_walk(evaluator, limit):
    """(examined, truncated, survivors in order) of the per-profile walk the listing and _dismissed replace."""
    examined = list(itertools.islice(_support_profiles(evaluator.game.action_counts), limit + 1))
    truncated = len(examined) > limit
    del examined[limit:]
    return len(examined), truncated, [sups for sups in examined if not _reference_dismissed(evaluator, sups)]


def _first_of_orbits(profiles, group):
    """The profiles, tuples of action tuples, whose images under group no earlier profile's images are, in order."""
    seen, out = set(), []
    for sups in profiles:
        orbit = frozenset(tuple(tuple(sorted(perm[list(sup)].tolist())) for perm, sup in zip(g, sups)) for g in group)
        if orbit not in seen:
            seen.add(orbit)
            out.append(sups)
    return out


def _walk(evaluator, limit):
    """The same triple from _support_listing and one _dismissed call."""
    ids, masks = _support_listing(evaluator.game.action_counts, limit + 1)
    truncated = len(ids) > limit
    ids = ids[:limit]
    return len(ids), truncated, _decoded(ids[~_dismissed(evaluator, ids, masks)], masks)


def _dominated(evaluator, i, opponent_supports):
    """_dominated_actions on a stack of one entry, as a set."""
    counts = [k for j, k in enumerate(evaluator.game.action_counts) if j != i]
    masks = _indexed([tuple(opponent_supports)], counts)[1]  # one row each: the profile's supports
    return set(np.flatnonzero(_dominated_actions(evaluator, i, masks)[0]).tolist())


def _kernel_games():
    rng = np.random.default_rng(23)
    games = _pruning_games()
    for counts in ((4, 3, 2), (2, 2, 2, 2), (6, 1, 4), (12, 3)):
        # Payoffs on a grid of halves, so that actions tie and margins sit at 0.
        games.append(Game(counts, np.round(rng.uniform(-2.0, 2.0, size=counts + (len(counts),)) * 2) / 2))
    return games


def _pruning_games():
    rng = np.random.default_rng(5)
    return [random_game(rng, players=(p, p), actions=(2, 3)) for p in (2, 3) * 10]


class TestDominancePruning:
    def test_dominated_only_against_one_opponent_action(self):
        # Player 0: action 1 loses to action 0 against opponent action 0 only, and
        # action 2 ties action 1 there, so over both it is only weakly dominated.
        # Player 1: action 1 beats action 0 by 1, 1 and 5e-10, within GAP_TOL.
        u0 = np.array([[3.0, 0.0], [2.0, 2.0], [2.0, 1.0]])
        u1 = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 5e-10]])
        evaluator = PhiEvaluator(Game((3, 2), np.stack([u0, u1], axis=-1)), EXPECTATION)
        assert _dominated(evaluator, 0, ((0,),)) == {1, 2}
        assert _dominated(evaluator, 0, ((1,),)) == {0, 2}
        assert _dominated(evaluator, 0, ((0, 1),)) == set()
        assert _dominated(evaluator, 1, ((0, 1),)) == {0}
        assert _dominated(evaluator, 1, ((2,),)) == set()
        assert _dominated(evaluator, 1, ((1, 2),)) == set()

    @pytest.mark.parametrize(
        "margin, dominated", [(GAP_TOL, False), (np.nextafter(GAP_TOL, math.inf), True)], ids=["at", "above"]
    )
    def test_a_margin_of_exactly_gap_tol_does_not_dominate(self, margin, dominated):
        # Player 0's action 1 beats action 0 by margin against opponent action 0 and by 1
        # against opponent action 1: action 0 is dominated where both are reached only when
        # margin is above GAP_TOL.  Player 1's payoffs all tie, so only player 0 dismisses.
        u0 = np.array([[0.0, 0.0], [margin, 1.0]])
        assert u0[1, 0] - u0[0, 0] == margin
        evaluator = PhiEvaluator(Game((2, 2), np.stack([u0, np.zeros((2, 2))], axis=-1)), EXPECTATION)
        assert _dominated(evaluator, 0, ((0, 1),)) == _dominated(evaluator, 0, ((0,),)) == ({0} if dominated else set())
        assert _dominated(evaluator, 0, ((1,),)) == {0}
        assert _dominated(evaluator, 1, ((0, 1),)) == set()
        profiles = [((0,), (0, 1)), ((0, 1), (0, 1)), ((1,), (0, 1)), ((0,), (1,))]
        assert _dismissed(evaluator, *_indexed(profiles, (2, 2))).tolist() == [dominated, dominated, False, True]

    @pytest.mark.parametrize("index", [0, 1, 3, 17])
    def test_matches_a_loop_over_opponent_profiles(self, index):
        game = _pruning_games()[index]
        evaluator = PhiEvaluator(game, EXPECTATION)
        counts = game.action_counts
        for i in range(game.num_players):
            # Every opponent support profile, alone and all of them as one stack.
            others = counts[:i] + counts[i + 1 :]
            stack = list(_support_profiles(others))
            ids, masks = _indexed(stack, others)
            stacked = _dominated_actions(evaluator, i, [m[col] for m, col in zip(masks, ids.T)])
            for opponents, row in zip(stack, stacked):
                expected = set()
                for a, b in itertools.permutations(range(game.action_counts[i]), 2):
                    margins = [
                        game.payoffs[(*s[:i], b, *s[i:], i)] - game.payoffs[(*s[:i], a, *s[i:], i)]
                        for s in itertools.product(*opponents)
                    ]
                    if min(margins) > GAP_TOL:
                        expected.add(a)
                assert _dominated(evaluator, i, opponents) == expected
                assert set(np.flatnonzero(row).tolist()) == expected

    @pytest.mark.parametrize("phi", [EXPECTATION, MMM_THIRDS, K_PAIR], ids=["mean", "mmm", "k_pair"])
    def test_dismissed_profiles_have_no_best_response(self, phi):
        # Solve every dismissed profile anyway: no root may pass the gap test,
        # and the slow reference must reject each root too.
        roots = 0
        for game in _pruning_games()[:6]:
            evaluator = PhiEvaluator(game, phi)
            scale = 1.0 + float(np.max(np.abs(game.payoffs)))
            for sups in _support_profiles(game.action_counts):
                if not _reference_dismissed(evaluator, sups):
                    continue
                dists = _solve(evaluator, [sups], 1, scale)[0]
                if dists is None:
                    continue
                roots += 1
                p = MixedProfile(tuple(dists))
                assert np.isnan(_best_response_gap(evaluator, np.concatenate(p.distributions), GAP_TOL, 1e-7)), sups
                assert _reference_shortfall(game, phi, p) > GAP_TOL, sups
        assert roots > 10

    @pytest.mark.parametrize("index", range(len(_kernel_games())))
    def test_listing_and_dismissal_match_the_walk(self, index):
        game = _kernel_games()[index]
        counts = game.action_counts
        evaluator = PhiEvaluator(game, EXPECTATION)
        everything = list(_support_profiles(counts))
        flags = [_reference_dismissed(evaluator, sups) for sups in everything]
        for limit in _edge_limits([sum(map(len, sups)) for sups in everything]):
            examined = min(limit, len(everything))
            survivors = [sups for sups, flag in zip(everything[:examined], flags) if not flag]
            assert _walk(evaluator, limit) == (examined, limit < len(everything), survivors), limit
        # Stage 1's candidates come in sorted order, not the listing's.
        ordered = sorted(everything)
        expected = [_reference_dismissed(evaluator, sups) for sups in ordered]
        assert _dismissed(evaluator, *_indexed(ordered, counts)).tolist() == expected

    def test_margins_in_chunks_match_one_chunk(self, monkeypatch):
        game = make_card_game(0.4, [0, 1, 2], 0.1)
        evaluator = PhiEvaluator(game, EXPECTATION)
        ids, masks = _support_listing(game.action_counts, 30_000)
        whole = _dismissed(evaluator, ids, masks)
        monkeypatch.setattr(solvers, "_MARGIN_CHUNK", 50)  # one or two entries per chunk
        assert (_dismissed(evaluator, ids, masks) == whole).all()
        assert len(whole) - whole.sum() == 3_819

    @pytest.mark.parametrize(
        "game, phi, limit",
        [
            (make_card_game(0.4, [0, 1], 0.1), K_PAIR, 8),
            (make_card_game(0.4, [0, 1, 2], 0.1), EXPECTATION, 256),
        ],
        ids=["k-pair-4x2", "mean-12x3-256"],
    )
    def test_solver_gets_one_stack_in_order(self, monkeypatch, game, phi, limit):
        # Under a limit that truncates the enumeration, solve_nash_phi hands the solver one
        # stack: the trace's candidates that survive dismissal, in sorted order, then the
        # first limit survivors of the enumeration's listing, in listing order; on the linear
        # path only the first profile of each orbit of the game's automorphisms.
        proposed, handed = [], []
        propose, solve = solvers._candidate_supports, solvers._solve_supports
        monkeypatch.setattr(
            solvers, "_candidate_supports", lambda points: proposed.append(propose(points)) or proposed[-1]
        )
        monkeypatch.setattr(
            solvers,
            "_solve_supports",
            lambda ev, ids, masks, *rest: handed.append(_decoded(ids, masks)) or solve(ev, ids, masks, *rest),
        )
        cfg = SolverConfig(multistarts=4, max_iters=20_000, max_enum_supports=limit)
        res = solve_nash_phi(game, phi, cfg)
        evaluator = PhiEvaluator(game, phi)
        [candidates] = proposed
        kept = [sups for sups in sorted(candidates) if not _reference_dismissed(evaluator, sups)]
        assert res.diagnostics["homotopy_skipped"] is False and kept
        survivors = _reference_walk(evaluator, solvers._LISTING_FACTOR * limit)[2][:limit]
        stack = kept + survivors
        assert handed == [_first_of_orbits(stack, symmetry.automorphisms(game)) if phi is EXPECTATION else stack]

    def test_three_players_of_ten_actions_at_the_default_limits(self):
        # (2^10 - 1)^3 profiles: listing them all would not finish; the first 4,096 come at once.
        cfg = SolverConfig()
        game = random_game(np.random.default_rng(4), players=(3, 3), actions=(10, 10))
        assert game.action_counts == (10, 10, 10)
        evaluator = PhiEvaluator(game, EXPECTATION)
        walked = _walk(evaluator, cfg.max_enum_supports)
        assert walked[:2] == (4096, True)
        assert walked == _reference_walk(evaluator, cfg.max_enum_supports)

    @pytest.mark.parametrize(
        "index, phi",
        [(i, phi) for i in (0, 2, 3, 5) for phi in (EXPECTATION, MMM_THIRDS, K_PAIR)] + [(19, K_PAIR)],
        ids=[f"{i}-{name}" for i in (0, 2, 3, 5) for name in ("mean", "mmm", "k_pair")] + ["19-k_pair"],
    )
    def test_pruned_enumeration_keeps_every_solution(self, monkeypatch, index, phi):
        game = _pruning_games()[index]
        cfg = SolverConfig(multistarts=2, max_iters=20_000, homotopy_steps=40)
        pruned = solve_nash_phi(game, phi, cfg)
        with monkeypatch.context() as m:
            m.setattr(
                solvers,
                "_dominated_actions",
                lambda ev, i, opponents: np.zeros((len(opponents[0]), ev.game.action_counts[i]), dtype=bool),
            )
            unpruned = solve_nash_phi(game, phi, cfg)
        assert unpruned.diagnostics["enumeration_pruned"] == 0
        assert pruned.diagnostics["enumeration_pruned"] > 0
        for key in ("enumeration_examined", "enumeration_truncated"):
            assert pruned.diagnostics[key] == unpruned.diagnostics[key]
        for p in unpruned.profiles:
            assert min(p.sup_distance(q) for q in pruned.profiles) <= DEDUP_TOL
        # Pruned profiles draw no random starts, so later support solves start
        # elsewhere and can find a solution the unpruned run missed.
        for p in pruned.profiles:
            if min((p.sup_distance(q) for q in unpruned.profiles), default=math.inf) > DEDUP_TOL:
                assert _reference_shortfall(game, phi, p) <= GAP_TOL


class TestVerifyNashPhi:
    def test_uniform_pennies(self):
        g = make_matching_pennies()
        assert verify_nash_phi(g, EXPECTATION, MixedProfile.uniform(g))

    def test_correlated_composite_profile(self):
        g = make_matching_pennies()
        combo = compose(g, g)
        correlated = MixedProfile(
            (np.array([0.5, 0.0, 0.0, 0.5]), np.array([0.5, 0.0, 0.0, 0.5]))
        )
        assert verify_nash_phi(combo, EXPECTATION, correlated)

    def test_pure_profile_fails(self):
        g = make_matching_pennies()
        assert not verify_nash_phi(g, EXPECTATION, MixedProfile.pure(g, [0, 0]))

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"tol": math.nan},
            {"tol": math.inf},
            {"tol": -1e-9},
            {"support_tol": math.nan},
            {"support_tol": math.inf},
            {"support_tol": 0.0},
        ],
        ids=["tol-nan", "tol-inf", "tol-negative", "support-tol-nan", "support-tol-inf", "support-tol-zero"],
    )
    def test_tolerance_outside_its_range_rejected(self, tolerances):
        # Player 0 plays the sure 0 against a sure 1: no best response, at the default
        # tolerances.  A NaN comparison is False, so a NaN tolerance would pass it.
        g = make_test_game_gx(1.0)
        p = MixedProfile((np.array([0.0, 1.0]), np.array([1.0])))
        assert not verify_nash_phi(g, EXPECTATION, p)
        with pytest.raises(ValueError, match="finite"):
            verify_nash_phi(g, EXPECTATION, p, **tolerances)

    def test_unreached_payoff_far_above_the_reached_one(self):
        # Action 0 reaches 0 and action 1 reaches 1, so playing action 0 is no
        # best response.  Under a = 100 the unreached payoff 10 sits 1000 log
        # units above the reached one, where the kernel's exponentials overflow.
        g = Game((2, 2), np.stack([[[0.0, 10.0], [1.0, 2.0]], np.zeros((2, 2))], axis=-1))
        p = MixedProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        assert not verify_nash_phi(g, MAStatistic.single(100.0), p)

    def test_matches_the_slow_reference(self):
        rng = np.random.default_rng(31)
        games = [random_game(rng, players=(2, 2), actions=(2, 3)) for _ in range(3)]
        games += [random_game(rng, players=(3, 3), actions=(2, 2)) for _ in range(2)]
        checked = {True: 0, False: 0}
        for g in games:
            bound = 1e-12 * (1.0 + float(np.max(np.abs(g.payoffs))))
            spread = max(float(np.max(np.ptp(t, axis=1))) for t in PhiEvaluator(g, EXPECTATION).tables)
            taylor = 0.5 * TAYLOR_CUTOFF / spread
            for phi in (EXTREME_MIX, MAStatistic(((-math.inf, 0.25), (taylor, 0.5), (math.inf, 0.25))), K_PAIR):
                res = solve_nash_phi(g, phi, FAST)
                for p, residual in zip(res.profiles, res.residuals):
                    assert abs(residual - _reference_shortfall(g, phi, p)) <= bound
                profiles = list(res.profiles)
                for p in res.profiles + [MixedProfile.uniform(g)] * 3:
                    dists = []
                    for d in p.distributions:
                        d = 0.9 * d + 0.1 * rng.dirichlet(np.ones(d.size))
                        d[rng.random(d.size) < 0.4] = 0.0
                        if not d.any():
                            d[rng.integers(d.size)] = 1.0
                        dists.append(d / d.sum())
                    profiles.append(MixedProfile(tuple(dists)))
                for p in profiles:
                    verdict = verify_nash_phi(g, phi, p, tol=1e-9)
                    assert verdict == (_reference_shortfall(g, phi, p) <= 1e-9)
                    checked[verdict] += 1
        assert min(checked.values()) >= 5


def _reference_shortfall(game, phi, p, support_tol=1e-7):
    """The largest shortfall of a played action below its player's best value, by evaluate(phi, action_lottery(...))."""
    shortfall = 0.0
    for i in range(game.num_players):
        values = np.array([evaluate(phi, action_lottery(game, i, a, p)) for a in range(game.action_counts[i])])
        shortfall = max(shortfall, float(values.max() - values[p.distributions[i] > support_tol].min()))
    return shortfall


class TestOrdinalChecks:
    def test_pennies_equilibrium_is_fosd_nash(self):
        g = make_matching_pennies()
        assert verify_fosd_nash(g, MixedProfile.uniform(g)) == []

    def test_dominated_action_flagged(self):
        g = make_test_game_gx(1.0)
        p = MixedProfile((np.array([0.4, 0.6]), np.array([1.0])))
        violations = verify_fosd_nash(g, p)
        assert violations and violations[0]["action"] == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-9], ids=["nan", "inf", "zero", "negative"])
    def test_tolerance_outside_zero_to_infinity_rejected(self, value):
        # Player 0 plays its dominated action 1.  A NaN comparison is False, and
        # an infinite support tolerance counts no action as played: either would
        # report no violation.
        g = make_test_game_gx(1.0)
        p = MixedProfile((np.array([0.0, 1.0]), np.array([1.0])))
        assert [v["kind"] for v in verify_fosd_nash(g, p)] == ["dominated_action_played"]
        assert [v["kind"] for v in verify_fosd_qre(g, p)] == ["interiority", "monotonicity"]
        with pytest.raises(ValueError, match="support_tol must be positive and finite"):
            verify_fosd_nash(g, p, support_tol=value)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            verify_fosd_qre(g, p, tol=value)

    @pytest.mark.parametrize("s", [1.0, 1e5, 1e10])
    def test_dominated_action_flagged_at_any_payoff_scale(self, s):
        # Player 0's actions pay (0, s) and (-s, s) against a uniform opponent: action 1 is
        # strictly dominated at every positive scale s, since FOSD is ordinal.
        g = Game((2, 2), np.stack([np.array([[0.0, s], [-s, s]]), np.zeros((2, 2))], axis=-1))
        p = MixedProfile((np.array([0.0, 1.0]), np.array([0.5, 0.5])))
        violations = verify_fosd_nash(g, p)
        assert [(v["kind"], v["player"], v["action"], v["dominated_by"]) for v in violations] == [
            ("dominated_action_played", 0, 1, 0)
        ]

    def test_interiority_violation(self):
        g = make_matching_pennies()
        violations = verify_fosd_qre(g, MixedProfile.pure(g, [0, 1]))
        assert any(v["kind"] == "interiority" for v in violations)

    def test_lqre_solutions_pass(self):
        g = make_vmp()
        res = solve_lqre(g, EXPECTATION, 1.0, FAST)
        assert verify_fosd_qre(g, res.profiles[0]) == []

    def test_zero_payoff_opponent_forces_uniform(self):
        g = make_sure_thing_game(0.4, [0.0, 1.0])
        res = solve_lqre(g, MMM_THIRDS, 2.0, FAST)
        for p in res.profiles:
            np.testing.assert_allclose(p.distributions[1], [0.5, 0.5], atol=1e-12)
            assert verify_fosd_qre(g, p) == []

    def test_nash_solutions_are_fosd_nash(self):
        rng = np.random.default_rng(10)
        for _ in range(4):
            g = random_game(rng, players=(2, 2), actions=(2, 3))
            for p in solve_nash_phi(g, EXPECTATION, FAST).profiles:
                assert verify_fosd_nash(g, p) == []


class TestCardGameEquilibria:
    def test_player_two_mixes_uniformly(self):
        for eps in (0.1, 0.01):
            g = make_card_game(0.3, [0.0, 1.0], eps)
            res = solve_nash_phi(g, EXPECTATION, FAST)
            assert res.profiles
            for p in res.profiles:
                np.testing.assert_allclose(p.distributions[1], [0.5, 0.5], atol=1e-6)
                assert verify_fosd_nash(g, p) == []


class TestConceptSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            ConceptSpec("qre")
        with pytest.raises(ValueError):
            ConceptSpec("lqre", lam=-1.0)
        with pytest.raises(ValueError):
            ConceptSpec("nash", phi=MAStatistic.single(1.0))

    def test_check_only_kinds_refuse_to_solve(self):
        with pytest.raises(ValueError):
            ConceptSpec.fosd_nash().solve(make_matching_pennies())

    def test_membership_reports(self):
        g = make_matching_pennies()
        uniform = MixedProfile.uniform(g)
        assert ConceptSpec.lqre(1.0).membership_report(g, uniform)["member"]
        assert ConceptSpec.nash().membership_report(g, uniform)["member"]
        assert ConceptSpec.fosd_nash().membership_report(g, uniform)["member"]
        assert ConceptSpec.fosd_qre().membership_report(g, uniform)["member"]
        pure = MixedProfile.pure(g, [0, 0])
        assert not ConceptSpec.fosd_qre().membership_report(g, pure)["member"]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("kind", CONCEPT_KINDS)
    def test_membership_report_rejects_a_bad_tol(self, kind, tol):
        g = make_matching_pennies()
        with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
            ConceptSpec(kind, solver=FAST).membership_report(g, MixedProfile.uniform(g), tol=tol)

    @pytest.mark.parametrize("tol", [0.5, 1e-8])
    def test_ordinal_reports_name_the_tolerance_they_apply(self, tol):
        # The ordinal checks count an action as played above solver.support_tol, whatever
        # tol is; the report names that tolerance, and its verdict stays the default one.
        g = make_test_game_gx(1.0)
        p = MixedProfile((np.array([0.6, 0.4]), np.array([1.0])))
        report = ConceptSpec.fosd_nash().membership_report(g, p, tol=tol)
        assert report["tolerance"] == solvers.SUPPORT_TOL
        assert not report["member"]
        assert [(v["kind"], v["action"]) for v in report["violations"]] == [("dominated_action_played", 1)]

    @pytest.mark.parametrize("kind", CONCEPT_KINDS)
    def test_every_kind_by_its_family(self, kind):
        g = make_matching_pennies()
        spec = ConceptSpec(kind, solver=FAST)
        assert spec.family in ("logit", "best-response", "ordinal")
        if spec.family == "ordinal":
            with pytest.raises(ValueError):
                spec.solve(g)
        else:
            assert isinstance(spec.solve(g), SolveResult)
        report = spec.membership_report(g, MixedProfile.uniform(g))
        assert isinstance(report["member"], bool)
        assert report["concept"] == spec.label()
        if spec.family != "logit":
            with pytest.raises(ValueError, match="elicit_qre"):
                elicit_qre(spec, [0.0, 1.0])
        if spec.family != "best-response":
            with pytest.raises(ValueError, match="elicit_fosd"):
                elicit_fosd(spec, [0.0, 1.0])

    def test_solver_failure_is_distinct(self):
        # An unattainable tolerance forces the explicit failure verdict.
        tiny = SolverConfig(multistarts=0, max_iters=50, tol_fixed_point=1e-17)
        with pytest.raises(SolverError):
            solve_lqre(make_vmp(), EXPECTATION, 5.0, tiny)
