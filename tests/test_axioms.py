import json

import numpy as np
import pytest

from sre_lab.axioms import (
    AxiomReport,
    check_anonymity,
    check_bracketing,
    check_consequentialism,
    check_consistency,
    check_distribution_monotonicity,
    check_expectation_monotonicity,
    check_interiority,
    check_neutrality,
    check_rationality,
    check_scale_invariance,
    check_strategic_invariance,
)
from sre_lab.games import Game, MixedProfile, PlayerPermutation, action_lottery, game_from_payoff_lists
from sre_lab.lotteries import DominanceVerdict, Lottery, fosd_compare, weakly_dominates
from sre_lab.statistics import EXPECTATION, MAStatistic, evaluate
from sre_lab.solvers import ConceptSpec, SolverConfig, solve_lqre, solve_nash_phi, verify_fosd_nash, verify_fosd_qre
from sre_lab.testgames import (
    incomparable_mp_profile,
    make_card_game,
    make_incomparable_mp,
    make_iia_game,
    make_matching_pennies,
    make_sure_thing_game,
    make_test_game_gx,
    make_vmp,
    random_game,
)

FAST = SolverConfig(multistarts=4, max_iters=20_000)
LQRE_MEAN = ConceptSpec.lqre(1.0, solver=FAST)
NASH_MEAN = ConceptSpec.nash(solver=FAST)
MMM_HALVES = MAStatistic.min_max_mean(0.5, 0.0, 0.5)


def skewed_zero_game():
    """Player 2 earns nothing; player 1 ranks (0,0,9) above a sure 4 by the
    min/max average but below it by the mean."""
    u1 = np.array([[0.0, 0.0, 9.0], [4.0, 4.0, 4.0]])
    return game_from_payoff_lists([u1, np.zeros((2, 3))])


class TestReportShape:
    def test_passed_iff_no_violations(self):
        report = AxiomReport("demo", 3, [])
        assert report.passed
        report = AxiomReport("demo", 3, [{"player": 0}])
        assert not report.passed
        payload = report.to_json()
        assert payload["passed"] is False and payload["instances_checked"] == 3


class TestDistributionMonotonicity:
    def test_lqre_solutions_pass(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = random_game(rng, players=(2, 2), actions=(2, 3))
            for p in LQRE_MEAN.solve(g).profiles:
                assert check_distribution_monotonicity(g, p).passed

    def test_constructed_violation_fails(self):
        g = make_test_game_gx(1.0)
        p = MixedProfile((np.array([0.2, 0.8]), np.array([1.0])))
        report = check_distribution_monotonicity(g, p)
        assert not report.passed
        assert report.violations[0]["pair"] == [0, 1]

    def test_crossing_lotteries_vacuous(self):
        report = check_distribution_monotonicity(make_incomparable_mp(), incomparable_mp_profile())
        assert report.passed and report.vacuous


class TestExpectationMonotonicity:
    def test_pennies_equilibrium_passes(self):
        g = make_matching_pennies()
        assert check_expectation_monotonicity(g, MixedProfile.uniform(g)).passed

    def test_extreme_weighted_play_can_fail(self):
        g = skewed_zero_game()
        spec = ConceptSpec.lqre(1.0, MMM_HALVES, FAST)
        failed = False
        for p in spec.solve(g).profiles:
            if not check_expectation_monotonicity(g, p).passed:
                failed = True
        assert failed

    def test_uniform_at_lambda_zero_passes(self):
        g = make_test_game_gx(1.0)
        p = MixedProfile((np.array([0.5, 0.5]), np.array([1.0])))
        assert check_expectation_monotonicity(g, p).passed


class TestInteriorityAndNeutrality:
    def test_logit_output_is_interior(self):
        g = make_vmp()
        for p in LQRE_MEAN.solve(g).profiles:
            assert check_interiority(p).passed

    def test_pure_profile_fails(self):
        g = make_matching_pennies()
        assert not check_interiority(MixedProfile.pure(g, [0, 1])).passed

    def test_zero_payoff_opponent_play_is_neutral(self):
        g = make_sure_thing_game(0.0, [0.0, 1.0])
        phi = MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3)
        spec = ConceptSpec.lqre(2.0, phi, FAST)
        result = spec.solve(g)
        assert len(result.profiles) == 1
        p = result.profiles[0]
        np.testing.assert_allclose(p.distributions[1], [0.5, 0.5], atol=1e-12)
        assert check_neutrality(g, p, mode="distribution").passed

    def test_expectation_neutrality_flags_uneven_ties(self):
        g = make_sure_thing_game(0.0, [0.0, 1.0])
        p = MixedProfile((np.array([0.5, 0.5]), np.array([0.3, 0.7])))
        assert not check_neutrality(g, p, mode="expectation").passed


def _gx_on_action_1():
    return make_test_game_gx(1.0), MixedProfile((np.array([0.0, 1.0]), np.array([1.0])))


def _uneven_ties():
    return make_sure_thing_game(0.0, [0.0, 1.0]), MixedProfile((np.array([0.5, 0.5]), np.array([0.3, 0.7])))


PROFILE_CHECKS = {
    "interiority": (_gx_on_action_1, lambda g, p, **tol: check_interiority(p, **tol)),
    "rationality": (_gx_on_action_1, check_rationality),
    "distribution-monotonicity": (_gx_on_action_1, check_distribution_monotonicity),
    "expectation-monotonicity": (_gx_on_action_1, check_expectation_monotonicity),
    "neutrality": (_uneven_ties, check_neutrality),
}


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
@pytest.mark.parametrize("name", sorted(PROFILE_CHECKS))
def test_profile_checks_reject_a_tolerance_that_is_not_nonnegative_and_finite(name, tol):
    case, check = PROFILE_CHECKS[name]
    g, p = case()
    assert not check(g, p).passed  # flagged at the default tolerance
    with pytest.raises(ValueError, match="tol must be nonnegative and finite"):
        check(g, p, tol=tol)


@pytest.mark.parametrize(
    "check",
    [
        check_distribution_monotonicity,
        check_expectation_monotonicity,
        lambda g, p: check_neutrality(g, p, mode="expectation"),
        lambda g, p: check_neutrality(g, p, mode="distribution"),
        check_rationality,
    ],
    ids=[
        "distribution-monotonicity",
        "expectation-monotonicity",
        "expectation-neutrality",
        "distribution-neutrality",
        "rationality",
    ],
)
def test_profile_checks_reject_a_profile_that_does_not_match_the_game(check):
    # Matching pennies with a first player of 3 actions.
    p = MixedProfile((np.full(3, 1 / 3), np.array([0.5, 0.5])))
    with pytest.raises(ValueError, match="profile does not match the game"):
        check(make_matching_pennies(), p)


def _reference_reports(g, p):
    """What the four ordinal checks report, from one fosd_compare and one weakly_dominates
    per ordered pair of action_lottery's lotteries."""
    name = f"{g.num_players}p:{'x'.join(map(str, g.action_counts))}"
    nash, qre, mono, neutral = [], [], [], []
    strict_pairs = 0
    for i, dist in enumerate(p.distributions):
        lots = [action_lottery(g, i, a, p) for a in range(g.action_counts[i])]
        pairs = [(a, b) for a in range(len(lots)) for b in range(len(lots)) if a != b]
        verdict = {(a, b): fosd_compare(lots[a], lots[b]) for a, b in pairs}
        strict = {pair for pair in pairs if verdict[pair] is DominanceVerdict.STRICT_FOSD}
        strict_pairs += len(strict)
        for a, b in pairs:
            if (b, a) in strict and dist[a] > 1e-7:
                violation = {"kind": "dominated_action_played", "player": i, "action": a, "dominated_by": b}
                nash.append({**violation, "probability": float(dist[a])})
        qre += [
            {"kind": "interiority", "player": i, "action": a, "probability": float(dist[a])}
            for a in range(len(lots))
            if dist[a] <= 1e-7
        ]
        for a, b in pairs:
            gap = float(dist[b] - dist[a])
            if weakly_dominates(lots[a], lots[b]) and dist[a] < dist[b] - 1e-7:
                qre.append({"kind": "monotonicity", "player": i, "action": a, "below": b, "gap": gap})
            if (a, b) in strict and dist[a] < dist[b] - 1e-9:
                mono.append({"game": name, "player": i, "pair": [a, b], "magnitude": gap})
            if a < b and verdict[a, b] is DominanceVerdict.EQUAL and abs(dist[a] - dist[b]) > 1e-9:
                neutral.append({"game": name, "player": i, "pair": [a, b], "magnitude": float(abs(dist[a] - dist[b]))})
    n_pairs = sum(k * (k - 1) for k in g.action_counts)
    return {
        "fosd_nash": nash,
        "fosd_qre": qre,
        "monotonicity": {"instances": n_pairs, "vacuous": strict_pairs == 0, "violations": mono},
        "neutrality": {"instances": n_pairs // 2, "violations": neutral},
    }


def _random_mix(rng, k, kind):
    """A random mix; kind 1 zeroes some weights and kind 2 sets them to 1e-16."""
    w = rng.dirichlet(np.ones(k))
    if kind:
        hit = rng.random(k) < 0.4
        hit[rng.integers(k)] = False
        w[hit] = 0.0 if kind == 1 else 1e-16
    return w / w.sum()


def _near_tie_cases():
    """1,000 profiles of games with integer payoffs in [-2, 2] plus N(0, 1e-11) noise."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(1000):
        counts = tuple(int(k) for k in rng.integers(2, 6, size=int(rng.integers(2, 4))))
        shape = counts + (len(counts),)
        g = Game(counts, rng.integers(-2, 3, size=shape) + rng.normal(scale=1e-11, size=shape))
        cases.append((g, MixedProfile(tuple(rng.dirichlet(np.ones(k)) for k in counts))))
    return cases


def _differential_cases():
    rng = np.random.default_rng(12)
    cases = []
    for n in range(40):
        counts = tuple(int(k) for k in rng.integers(2, 6, size=int(rng.integers(2, 4))))
        payoffs = rng.normal(size=counts + (len(counts),))
        if n % 2:
            payoffs = np.round(2 * payoffs)
        g = Game(counts, payoffs)
        cases += [(g, MixedProfile(tuple(_random_mix(rng, k, kind) for k in counts))) for kind in range(3)]
        cases.append((g, MixedProfile.uniform(g)))
    cfg = SolverConfig(multistarts=2, max_iters=20_000)
    for x, eps in (([0.0, 1.0], 0.1), ([0.0, 1.0], 0.01), ([0.0, 1.0, 2.0], 0.1), ([0.0, 1.0, 2.0], 0.01)):
        g = make_card_game(0.4, x, eps)
        cases += [(g, p) for p in solve_nash_phi(g, EXPECTATION, cfg).profiles] + [(g, MixedProfile.uniform(g))]
    return cases


class TestOrdinalChecksMatchSlowReference:
    """The ordinal checks read one CDF comparison per profile; the reference compares
    action_lottery pairs one at a time with fosd_compare and weakly_dominates."""

    @pytest.fixture(scope="class")
    def cases(self):
        return [(g, p, _reference_reports(g, p)) for g, p in _differential_cases()]

    def test_cases_exercise_every_check(self, cases):
        assert len(cases) > 200
        for key in ("fosd_nash", "fosd_qre"):
            assert sum(bool(ref[key]) for _, _, ref in cases) > 100
        for key in ("monotonicity", "neutrality"):
            assert sum(bool(ref[key]["violations"]) for _, _, ref in cases) > 5

    def test_fosd_nash_and_fosd_qre(self, cases):
        for g, p, ref in cases:
            assert json.dumps(verify_fosd_nash(g, p)) == json.dumps(ref["fosd_nash"])
            assert json.dumps(verify_fosd_qre(g, p)) == json.dumps(ref["fosd_qre"])

    def test_distribution_monotonicity_and_neutrality(self, cases):
        for g, p, ref in cases:
            report = check_distribution_monotonicity(g, p)
            mono = ref["monotonicity"]
            assert (report.instances_checked, report.vacuous) == (mono["instances"], mono["vacuous"])
            assert json.dumps(report.violations) == json.dumps(mono["violations"])
            report = check_neutrality(g, p, mode="distribution")
            assert report.instances_checked == ref["neutrality"]["instances"]
            assert json.dumps(report.violations) == json.dumps(ref["neutrality"]["violations"])

    def test_near_ties(self):
        # Outcomes within MERGE_TOL of each other, merged by a Lottery, and
        # within 2 * MERGE_TOL across three rows, where a pair's own outcomes
        # read the CDFs at fewer points than the whole table's.
        cases = [(g, p, _reference_reports(g, p)) for g, p in _near_tie_cases()]
        assert sum(bool(ref["fosd_nash"]) for _, _, ref in cases) > 500
        self.test_fosd_nash_and_fosd_qre(cases)
        self.test_distribution_monotonicity_and_neutrality(cases)


class TestBracketing:
    def test_dominant_choice_games(self):
        report = check_bracketing(LQRE_MEAN, make_test_game_gx(1.0), make_test_game_gx(2.0))
        assert report.passed and report.instances_checked >= 1

    def test_nash_on_composite_pennies(self):
        report = check_bracketing(NASH_MEAN, make_matching_pennies(), make_matching_pennies())
        assert report.passed

    def test_non_member_product_is_reported(self):
        # At tol = 0 the product's rounding residual makes it a non-member.
        report = check_bracketing(LQRE_MEAN, make_vmp(), make_vmp(), tol=0.0)
        assert not report.passed and report.instances_checked == 1
        [violation] = report.violations
        assert violation["game"] == "2p:2x2 (x) 2p:2x2"
        assert violation["residual"] > 0 and violation["magnitude"] == violation["residual"]

    def test_min_max_mean_pairs(self):
        rng = np.random.default_rng(1)
        phi = MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3)
        spec = ConceptSpec.lqre(1.0, phi, FAST)
        for _ in range(3):
            g = random_game(rng, players=(2, 2), actions=(2, 2))
            h = random_game(rng, players=(2, 2), actions=(2, 2))
            assert check_bracketing(spec, g, h).passed


class TestAnonymity:
    def test_identity_permutation(self):
        g = make_vmp()
        pi = PlayerPermutation.identity(2)
        assert check_anonymity(LQRE_MEAN, g, pi).passed

    def test_swap_on_pennies(self):
        g = make_matching_pennies()
        assert check_anonymity(LQRE_MEAN, g, PlayerPermutation.swap(2, 0, 1)).passed

    def test_swap_on_asymmetric_variant(self):
        assert check_anonymity(LQRE_MEAN, make_vmp(), PlayerPermutation.swap(2, 0, 1)).passed


class TestScaleInvariance:
    def test_pennies_under_logit_play(self):
        report = check_scale_invariance(LQRE_MEAN, make_matching_pennies(), alphas=(0.5,))
        assert report.passed and not report.vacuous

    def test_extreme_statistic_keeps_uniform_solution(self):
        phi = MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3)
        x = np.array([0.0, 1.0])
        r = evaluate(phi, Lottery.from_vector(x))
        spec = ConceptSpec.lqre(2.0, phi, FAST)
        report = check_scale_invariance(spec, make_sure_thing_game(r, x), alphas=(0.25, 0.5))
        assert report.passed and not report.vacuous

    def test_unit_kernel_breaks_scale_invariance(self):
        phi = MAStatistic.single(1.0)
        x = np.array([0.0, 1.0])
        r = evaluate(phi, Lottery.from_vector(x))
        spec = ConceptSpec.lqre(2.0, phi, FAST)
        report = check_scale_invariance(spec, make_sure_thing_game(r, x), alphas=(0.5,))
        assert not report.passed

    def test_vacuous_without_uniform_solutions(self):
        report = check_scale_invariance(LQRE_MEAN, make_test_game_gx(1.0))
        assert report.vacuous and report.passed

    def test_rejects_empty_alphas(self, monkeypatch):
        monkeypatch.setattr(ConceptSpec, "solve", None)  # nothing may be solved
        with pytest.raises(ValueError, match="alphas"):
            check_scale_invariance(NASH_MEAN, make_matching_pennies(), alphas=())


class TestStrategicInvariance:
    def test_zero_shift(self):
        g = make_vmp()
        shifts = [np.zeros(2), np.zeros(2)]
        assert check_strategic_invariance(LQRE_MEAN, g, shifts).passed

    def test_mean_response_ignores_opponent_shifts(self):
        rng = np.random.default_rng(2)
        g = make_vmp()
        shifts = [rng.uniform(-2, 2, size=2), rng.uniform(-2, 2, size=2)]
        assert check_strategic_invariance(LQRE_MEAN, g, shifts).passed

    def test_extreme_weighted_play_is_shift_sensitive(self):
        # Over two opponent columns min+max equals the sum, so the extremes
        # behave linearly; three columns let a single-column shift move the
        # two actions' min/max averages apart.
        u1 = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])
        g = game_from_payoff_lists([u1, np.zeros((2, 3))])
        spec = ConceptSpec.lqre(1.0, MMM_HALVES, FAST)
        shifts = [np.array([-5.0, 0.0, 0.0]), np.zeros(2)]
        assert not check_strategic_invariance(spec, g, shifts).passed


class TestBrandlBrandtChecks:
    def test_consistency_identical_games(self):
        g = make_matching_pennies()
        assert check_consistency(NASH_MEAN, g, g).passed

    def test_consistency_shared_uniform_solution(self):
        report = check_consistency(NASH_MEAN, make_matching_pennies(), make_matching_pennies(2.0))
        assert report.passed and not report.vacuous

    def test_consistency_vacuous_without_common_solutions(self):
        # Pennies' only equilibrium is uniform; the variant's is ((1/2, 1/2), (1/4, 3/4)).
        report = check_consistency(NASH_MEAN, make_matching_pennies(), make_vmp())
        assert report.vacuous and report.passed and report.instances_checked == 0

    def test_consistency_rejects_empty_alphas(self, monkeypatch):
        monkeypatch.setattr(ConceptSpec, "solve", None)  # nothing may be solved
        with pytest.raises(ValueError, match="alphas"):
            check_consistency(NASH_MEAN, make_matching_pennies(), make_matching_pennies(2.0), alphas=())

    @pytest.mark.parametrize("alpha", [1.5, -0.1, float("nan")])
    def test_consistency_rejects_alphas_outside_the_unit_interval_unsolved(self, monkeypatch, alpha):
        solves = []
        inner = ConceptSpec.solve

        def counted(spec, game):
            solves.append(game)
            return inner(spec, game)

        monkeypatch.setattr(ConceptSpec, "solve", counted)
        with pytest.raises(ValueError, match="alphas"):
            check_consistency(NASH_MEAN, make_matching_pennies(), make_matching_pennies(2.0), alphas=(0.5, alpha))
        assert solves == []

    def test_consequentialism_identity_blowup(self):
        g = make_matching_pennies()
        assert check_consequentialism(NASH_MEAN, g, [[0, 1], [0, 1]]).passed

    def test_consequentialism_duplicated_action_best_response(self):
        assert check_consequentialism(NASH_MEAN, make_matching_pennies(), [[0, 0, 1], [0, 1]]).passed

    def test_consequentialism_fails_for_logit_play(self):
        report = check_consequentialism(LQRE_MEAN, make_matching_pennies(), [[0, 0, 1], [0, 1]])
        assert not report.passed

    def test_rationality_of_logit_play(self):
        g = make_test_game_gx(1.0)
        for p in LQRE_MEAN.solve(g).profiles:
            assert check_rationality(g, p).passed

    def test_rationality_of_best_response_play(self):
        g = make_test_game_gx(1.0)
        for p in NASH_MEAN.solve(g).profiles:
            assert check_rationality(g, p).passed

    def test_rationality_violation(self):
        g = make_test_game_gx(1.0)
        p = MixedProfile((np.array([0.0, 1.0]), np.array([1.0])))
        assert not check_rationality(g, p).passed


class TestSuiteInvariants:
    def test_logit_suite_on_corpus(self):
        rng = np.random.default_rng(3)
        phi = MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3)
        spec = ConceptSpec.lqre(1.0, phi, FAST)
        for _ in range(3):
            g = random_game(rng, players=(2, 2), actions=(2, 3))
            h = random_game(rng, players=(2, 2), actions=(2, 3))
            assert check_bracketing(spec, g, h).passed
            assert check_anonymity(spec, g, PlayerPermutation.swap(2, 0, 1)).passed
            for p in spec.solve(g).profiles:
                assert check_distribution_monotonicity(g, p).passed
                assert check_interiority(p).passed
                assert check_neutrality(g, p, mode="distribution").passed

    def test_best_response_suite_on_corpus(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            g = random_game(rng, players=(2, 2), actions=(2, 3))
            h = random_game(rng, players=(2, 2), actions=(2, 3))
            assert check_bracketing(NASH_MEAN, g, h).passed
            assert check_anonymity(NASH_MEAN, g, PlayerPermutation.swap(2, 0, 1)).passed
            identity_maps = [list(range(k)) for k in g.action_counts]
            assert check_consequentialism(NASH_MEAN, g, identity_maps).passed
            assert check_consistency(NASH_MEAN, g, g).passed
            for p in NASH_MEAN.solve(g).profiles:
                assert check_distribution_monotonicity(g, p).passed
                assert check_expectation_monotonicity(g, p).passed
                assert check_rationality(g, p).passed


class TestAddedActionsMatter:
    def test_logit_play_shifts_with_an_added_action(self):
        g = make_iia_game(beta=1.0, delta=0.0)
        result = solve_lqre(g, EXPECTATION, 1.0, FAST)
        assert len(result.profiles) == 1
        q1 = result.profiles[0].distributions[0]
        assert abs(q1[0] - q1[1]) > 1e-3
        np.testing.assert_allclose(
            q1, [0.40290352, 0.4365125, 0.16058398], atol=1e-6
        )
