import itertools
import math

import numpy as np
import pytest

from sre_lab.games import (
    Game,
    MixedProfile,
    PlayerPermutation,
    action_lottery,
    compose,
    permute_players,
    permute_profile,
    product_profile,
    strategic_shift,
)
from sre_lab.statistics import EXPECTATION, TAYLOR_CUTOFF, MAStatistic, evaluate
from sre_lab.solvers import (
    ConceptSpec,
    PhiEvaluator,
    SolverConfig,
    SolverError,
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
    _dists_from_theta,
    _logit_system,
    _newton,
    _solve_support,
    _support_profiles,
    _support_system,
)
from sre_lab.testgames import (
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
                vals = evaluator.values(i, list(p.distributions), boundary_pure=True)
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
                    vals = evaluator.values(i, list(p.distributions), boundary_pure=False)
                    for a in range(g.action_counts[i]):
                        direct = evaluate(phi, action_lottery(g, i, a, p))
                        assert abs(vals[a] - direct) <= 1e-9 * scale

    def test_negative_lambda_rejected(self):
        g = make_matching_pennies()
        with pytest.raises(ValueError):
            logit_response(g, EXPECTATION, -1.0, MixedProfile.uniform(g))


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
        # At lambda = 0 the response is uniform: the uniform start is already
        # the fixed point, and each random start needs one Newton step on an
        # affine residual.  No damped iteration runs.
        d = solve_lqre(make_vmp(), EXPECTATION, 0.0, SolverConfig(multistarts=2)).diagnostics
        assert d == {"iterations": 0, "newton_steps": 2, "starts": 3, "starts_converged": 3}


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

    def test_breakdown_reports_last_good_lambda(self):
        from sre_lab.solvers import HomotopyBreakdown

        impossible = SolverConfig(multistarts=0, max_iters=60, tol_fixed_point=1e-17)
        with pytest.raises(HomotopyBreakdown) as err:
            homotopy_trace(make_vmp(), EXPECTATION, 10.0, 12, impossible)
        assert err.value.last_lambda >= 0.0
        assert isinstance(err.value.trace, list)


class TestNewton:
    def test_chart_cuts_negative_weights_and_renormalizes(self):
        # The last weight is one minus the unclipped free weights: [2, -5, 4] -> [2, 0, 4] / 6.
        (vec,) = _dists_from_theta(np.array([2.0, -5.0]), [(0, 1, 2)], [3])
        np.testing.assert_allclose(vec, [1 / 3, 0.0, 2 / 3], rtol=0, atol=1e-15)

    def test_solves_linear_system(self):
        a = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([0.2, -0.1])
        theta, f, flat, steps = _newton(lambda t: (a @ t - b, lambda: a), np.zeros(2), 1e-12, 40)
        assert np.max(np.abs(f)) <= 1e-12 and not flat and steps >= 1
        np.testing.assert_allclose(theta, np.linalg.solve(a, b), rtol=0, atol=1e-11)

    def test_constant_residual_is_flat_after_one_jacobian(self):
        calls = []

        def system(theta):
            calls.append("f")

            def jacobian():
                calls.append("jacobian")
                return np.zeros((2, 2))

            return np.array([1.0, -2.0]), jacobian

        theta, f, flat, steps = _newton(system, np.array([0.3, 0.4]), 1e-12, 24)
        assert flat and steps == 0
        np.testing.assert_array_equal(f, [1.0, -2.0])
        assert calls == ["f", "jacobian"]
        np.testing.assert_array_equal(theta, [0.3, 0.4])

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

        theta, f, flat, steps = _newton(system, np.zeros(1), 1e-12, 24)
        assert not flat and steps == 0
        np.testing.assert_array_equal(f, [1.0])
        np.testing.assert_array_equal(theta, [0.0])
        assert calls == ["f", "jacobian"] + ["f"] * 8  # the residual, its Jacobian and eight halvings


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

    def test_large_game_yields_without_listing_every_profile(self):
        # Listing all (2^30 - 1)^2 profiles first would never finish.
        first = list(itertools.islice(_support_profiles((30, 30)), 5))
        assert first == [((0,), (j,)) for j in range(5)]


def _newton_support(evaluator, supports, rng, scale):
    """The Newton path of _solve_support, from the same three starts.

    Returns (dists or None, smallest support weight of Newton's accepted point).
    """
    counts = evaluator.game.action_counts
    system = _support_system(evaluator, supports)
    tol = 1e-10 * scale
    starts = [np.concatenate([np.full(len(s) - 1, 1.0 / len(s)) for s in supports if len(s) > 1])]
    for _ in range(2):
        starts.append(
            np.concatenate([rng.dirichlet(np.ones(len(s)))[:-1] for s in supports if len(s) > 1])
        )
    for theta in starts:
        theta, f, flat, _ = _newton(system, theta, tol, 24)
        if flat:
            break
        if np.max(np.abs(f)) > tol:
            continue
        dists = _dists_from_theta(theta, supports, counts)
        low = min(vec[list(sup)].min() for sup, vec in zip(supports, dists))
        if low > 1e-9:
            return dists, low
    return None, None


def _random_two_player_game(seed, counts):
    rng = np.random.default_rng(seed)
    return Game(counts, rng.uniform(-2.0, 2.0, size=counts + (2,)))


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
]


class TestExactJacobians:
    @pytest.mark.parametrize("game", JACOBIAN_GAMES)
    def test_logit_response_map(self, game):
        rng = np.random.default_rng(1)
        for phi in _jacobian_statistics(game):
            system = _logit_system(PhiEvaluator(game, phi), 3.0)
            theta = np.concatenate([rng.dirichlet(np.ones(k))[:-1] for k in game.action_counts])
            exact = system(theta)[1]()
            np.testing.assert_allclose(exact, _central_jacobian(system, theta), rtol=0, atol=1e-8, err_msg=phi.describe())

    @pytest.mark.parametrize("game", JACOBIAN_GAMES)
    def test_support_value_differences(self, game):
        rng = np.random.default_rng(2)
        for phi in _jacobian_statistics(game):
            evaluator = PhiEvaluator(game, phi)
            for _ in range(4):
                # Sizes from 2 up, so every player has free weights.
                sups = [tuple(sorted(rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False))) for k in game.action_counts]
                system = _support_system(evaluator, sups)
                theta = np.concatenate([rng.dirichlet(np.ones(len(s)))[:-1] for s in sups])
                exact = system(theta)[1]()
                np.testing.assert_allclose(
                    exact, _central_jacobian(system, theta), rtol=0, atol=1e-8, err_msg=f"{phi.describe()} {sups}"
                )

    def test_jacobian_reuses_the_evaluation(self):
        game = JACOBIAN_GAMES[1]
        evaluator = PhiEvaluator(game, K_PAIR)
        calls = []
        inner = evaluator.values

        def counted(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        evaluator.values = counted
        systems = [
            (_logit_system(evaluator, 2.0), np.array([0.4, 0.3, 0.3, 0.5])),
            (_support_system(evaluator, [(0, 1), (0, 2), (0, 1)]), np.array([0.4, 0.3, 0.5])),
        ]
        for system, theta in systems:
            f, jacobian = system(theta)
            assert calls == [0, 1, 2]  # one evaluation per player
            jacobian()
            assert calls == [0, 1, 2]  # and none for the Jacobian
            calls.clear()

    def test_taylor_branch_is_not_the_mean(self):
        # The Taylor-band statistic's Jacobian differs from the expectation's
        # by far more than the tolerance above, so the tests tell them apart.
        game = JACOBIAN_GAMES[0]
        theta = np.array([0.2, 0.5, 0.3, 0.1, 0.4])
        taylor = _jacobian_statistics(game)[3]
        jacs = [_logit_system(PhiEvaluator(game, phi), 3.0)(theta)[1]() for phi in (EXPECTATION, taylor)]
        assert np.max(np.abs(jacs[0] - jacs[1])) > 1e-6


class TestSupportSolve:
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
                exact = _solve_support(evaluator, sups, np.random.default_rng(5), scale)
                newton, low = _newton_support(evaluator, sups, np.random.default_rng(5), scale)
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

    def test_zero_weight_solutions_are_rejected(self):
        game = make_card_game(0.4, [0, 1, 2], 0.01)
        evaluator = PhiEvaluator(game, EXPECTATION)
        scale = 1.0 + float(np.max(np.abs(game.payoffs)))
        for seed in range(40):
            for sups in (((7, 10), (0, 2)), ((8, 9), (0, 1)), ((8, 9), (0, 2))):
                assert _solve_support(evaluator, sups, np.random.default_rng(seed), scale) is None
            dists = _solve_support(evaluator, ((7, 10), (0, 1)), np.random.default_rng(seed), scale)
            assert dists is not None
            np.testing.assert_allclose(dists[0][[7, 10]], [0.5, 0.5], rtol=0, atol=1e-12)
            np.testing.assert_allclose(dists[1][[0, 1]], [0.5, 0.5], rtol=0, atol=1e-12)


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

    def test_support_cap_counts_skipped_profiles_without_walking_them(self):
        # (2^10 - 1)^2 profiles, of which the 100 pure ones fit under the cap.
        g = _random_two_player_game(0, (10, 10))
        d = solve_nash_phi(g, EXPECTATION, SolverConfig(support_cap=2)).diagnostics
        assert d["enumeration_examined"] == 100
        assert d["enumeration_skipped_by_cap"] == 1_046_429
        assert d["enumeration_truncated"] is True

    def test_default_limits_find_only_complete_enumeration_solutions(self):
        # The 12x3 card game's enumeration is truncated at the default limits;
        # every profile returned must still be one the complete enumeration finds.
        game = make_card_game(0.4, [0, 1, 2], 0.1)
        complete = solve_nash_phi(game, EXPECTATION, SolverConfig(support_cap=15, max_enum_supports=30_000))
        assert complete.diagnostics["enumeration_truncated"] is False
        default = solve_nash_phi(game, EXPECTATION, SolverConfig(multistarts=2, max_iters=20_000))
        assert default.diagnostics["enumeration_truncated"] is True
        assert "homotopy_breakdown_lambda" not in default.diagnostics
        assert len(default.profiles) > 8
        for p in default.profiles:
            assert min(p.sup_distance(q) for q in complete.profiles) <= 1e-9

    def test_support_cap_on_a_game_too_large_to_walk(self):
        # Walking the (2^14 - 1)^2 - 196 skipped profiles one by one would take minutes.
        g = _random_two_player_game(0, (14, 14))
        cfg = SolverConfig(support_cap=2, homotopy_steps=2)
        d = solve_nash_phi(g, EXPECTATION, cfg).diagnostics
        assert d["enumeration_examined"] == 196
        assert d["enumeration_skipped_by_cap"] == 268_402_493


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

    def test_unreached_payoff_far_above_the_reached_one(self):
        # Action 0 reaches 0 and action 1 reaches 1, so playing action 0 is no
        # best response.  Under a = 100 the unreached payoff 10 sits 1000 log
        # units above the reached one, where the kernel's exponentials overflow.
        g = Game((2, 2), np.stack([[[0.0, 10.0], [1.0, 2.0]], np.zeros((2, 2))], axis=-1))
        p = MixedProfile((np.array([1.0, 0.0]), np.array([1.0, 0.0])))
        assert not verify_nash_phi(g, MAStatistic.single(100.0), p)


class TestOrdinalChecks:
    def test_pennies_equilibrium_is_fosd_nash(self):
        g = make_matching_pennies()
        assert verify_fosd_nash(g, MixedProfile.uniform(g)) == []

    def test_dominated_action_flagged(self):
        g = make_test_game_gx(1.0)
        p = MixedProfile((np.array([0.4, 0.6]), np.array([1.0])))
        violations = verify_fosd_nash(g, p)
        assert violations and violations[0]["action"] == 1

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

    def test_solver_failure_is_distinct(self):
        # An unattainable tolerance forces the explicit failure verdict.
        tiny = SolverConfig(multistarts=0, max_iters=50, tol_fixed_point=1e-17)
        with pytest.raises(SolverError):
            solve_lqre(make_vmp(), EXPECTATION, 5.0, tiny)
