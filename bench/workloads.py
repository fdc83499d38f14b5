"""The workloads: their inputs, one op each, its check and its counts.

Each workload mirrors one acceptance criterion of tests/test_acceptance.py
and uses that criterion's corpus, corpus seed and solver configuration, so a
benchmark number and a Tier-1 timing describe the same work.  The
benchmark's own --seed only orders the ops.  Drawing a fresh corpus per seed
would make runs incomparable: three of the 600 criterion-03 logit solves
take a third of that corpus's time, and whether such inputs are drawn would
swing a run by tens of percent.

An op calls into sre_lab through module attributes (`solvers.solve_lqre`,
not a name bound here), so the traced run's wrappers see it.  Checks use the
names bound at import, which the wrappers never replace, and run outside the
timed region.  `check` returns None for a correct output or the reason it is
wrong; `counts` reads what the output reports about the work done, which
repeats exactly from run to run.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager, nullcontext
from typing import Optional

import numpy as np

from sre_lab import axioms, solvers, testgames
from sre_lab.games import Game, MixedProfile, action_lottery, compose, product_profile
from sre_lab.lotteries import Lottery
from sre_lab.solvers import ConceptSpec, SolverConfig, verify_fosd_nash, verify_lqre, verify_nash_phi
from sre_lab.statistics import EXPECTATION, MAStatistic, evaluate
from sre_lab.testgames import make_card_game, make_matching_pennies, random_game

from spans import patched

# The acceptance criteria's solver configuration and statistics.
FAST = SolverConfig(multistarts=2, max_iters=20_000)
MMM_THIRDS = MAStatistic.min_max_mean(1 / 3, 1 / 3, 1 / 3)
K_PAIR = MAStatistic(((-1.0, 0.5), (1.0, 0.5)))

LQRE_TOL = 1e-8  # criterion 02's membership tolerance for logit fixed points
NASH_TOL = 1e-9  # verify_nash_phi's default gap tolerance
UNIFORM_TOL = 1e-6  # criterion 05's opponent-uniformity tolerance
ELICIT_TOL = 1e-6  # criterion 06's logit-side elicitation tolerance


def warm_up() -> None:
    """Run each solver path once on matching pennies so lazy set-up is done."""
    mp = make_matching_pennies()
    solvers.solve_lqre(mp, EXPECTATION, 1.0, FAST)
    for p in solvers.solve_nash_phi(mp, EXPECTATION, FAST).profiles:
        verify_fosd_nash(mp, p)


def reference_best_response(game: Game, phi: MAStatistic, p: MixedProfile, support_tol: float) -> bool:
    """Slow reference for verify_nash_phi: evaluate(phi, action_lottery(...))."""
    for i in range(game.num_players):
        values = [evaluate(phi, action_lottery(game, i, a, p)) for a in range(game.action_counts[i])]
        ceiling = max(values) - NASH_TOL
        if any(prob > support_tol and v < ceiling for prob, v in zip(p.distributions[i], values)):
            return False
    return True


def _lqre_counts(result) -> dict:
    d = result.diagnostics
    return {
        "solutions": len(result.profiles),
        "iterations": d["iterations"],
        "starts": d["starts"],
        "starts_converged": d["starts_converged"],
    }


class Workload:
    name = ""

    def build(self) -> list:
        raise NotImplementedError

    def installed(self):
        """Hooks the op needs to see its own output, kept for the whole run."""
        return nullcontext()

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> Optional[str]:
        raise NotImplementedError

    def counts(self, out) -> dict:
        raise NotImplementedError


class LqreCorpus(Workload):
    name = "lqre_corpus"

    def build(self) -> list:
        rng = np.random.default_rng(777)
        phis = [EXPECTATION, MMM_THIRDS, MAStatistic(((-math.inf, 0.3), (2.0, 0.7))), K_PAIR]
        ops = []
        for idx in range(200):
            game = random_game(rng)
            ops.extend((game, phis[idx % len(phis)], lam) for lam in (0.0, 1.0, 5.0))
        return ops

    def run(self, op):
        game, phi, lam = op
        return solvers.solve_lqre(game, phi, lam, FAST)

    def check(self, op, out) -> Optional[str]:
        game, phi, lam = op
        if not out.profiles:
            return "no logit fixed point returned"
        worst = max(verify_lqre(game, phi, lam, p) for p in out.profiles)
        return None if worst <= LQRE_TOL else f"fixed-point residual {worst:.3g} > {LQRE_TOL:g}"

    def counts(self, out) -> dict:
        return _lqre_counts(out)


class NashCards(Workload):
    name = "nash_cards"

    def build(self) -> list:
        cases = (([0.0, 1.0], 0.1), ([0.0, 1.0], 0.01), ([0.0, 1.0, 2.0], 0.1), ([0.0, 1.0, 2.0], 0.01))
        return [make_card_game(0.4, x, eps) for x, eps in cases]

    def run(self, game):
        # The fosd-nash-check-only path of `sre-lab solve`.
        result = solvers.solve_nash_phi(game, EXPECTATION, FAST)
        return result, [solvers.verify_fosd_nash(game, p) for p in result.profiles]

    def check(self, game, out) -> Optional[str]:
        result, fosd = out
        if not result.profiles:
            return "no best-response equilibrium returned"
        if any(fosd):
            return "the fosd-nash report lists a violation"
        uniform = 1.0 / game.action_counts[1]
        for p in result.profiles:
            if not verify_nash_phi(game, EXPECTATION, p, support_tol=FAST.support_tol):
                return "verify_nash_phi rejects a returned profile"
            if verify_fosd_nash(game, p, support_tol=FAST.support_tol):
                return "a returned profile plays a strictly FOSD-dominated action"
            if not reference_best_response(game, EXPECTATION, p, FAST.support_tol):
                return "the evaluate/action_lottery reference rejects a returned profile"
            if np.max(np.abs(p.distributions[1] - uniform)) > UNIFORM_TOL:
                return "the card opponent does not mix uniformly"
        return None

    def counts(self, out) -> dict:
        d = out[0].diagnostics
        return {
            "solutions": len(out[0].profiles),
            "results": 1,
            "complete": int(not d["enumeration_truncated"]),
            "supports_examined": d["enumeration_examined"],
            "homotopy_candidates": d["homotopy_candidates"],
            "homotopy_breakdowns": int("homotopy_breakdown_lambda" in d),
        }


class LqreBracketing(Workload):
    name = "lqre_bracketing"

    def __init__(self):
        self._results: list = []

    def build(self) -> list:
        rng = np.random.default_rng(20240)
        pairs = [
            (random_game(rng, players=(2, 2), actions=(2, 3)), random_game(rng, players=(2, 2), actions=(2, 3)))
            for _ in range(50)
        ]
        return [(ConceptSpec.lqre(1.0, phi, FAST), g, h) for phi in (EXPECTATION, MMM_THIRDS, K_PAIR) for g, h in pairs]

    @contextmanager
    def installed(self):
        # check_bracketing returns only a report; keep the component solutions
        # it computes so they can be checked against the reference.
        inner = solvers.solve_lqre

        def recording(*args, **kwargs):
            result = inner(*args, **kwargs)
            self._results.append(result)
            return result

        with patched("sre_lab", {inner: recording}):
            yield

    def run(self, op):
        self._results = []
        report = axioms.check_bracketing(*op)
        return report, self._results

    def check(self, op, out) -> Optional[str]:
        spec, g, h = op
        report, results = out
        if report.violations:
            return "check_bracketing reports a violation"
        if len(results) != 2 or not all(r.profiles for r in results):
            return "a component game has no logit fixed point"
        rg, rh = results
        if report.instances_checked != len(rg.profiles) * len(rh.profiles):
            return "check_bracketing did not check every product"
        for game, result in ((g, rg), (h, rh)):
            if max(verify_lqre(game, spec.phi, spec.lam, p) for p in result.profiles) > LQRE_TOL:
                return "a component profile is not a logit fixed point"
        composite = compose(g, h)
        for p in rg.profiles:
            for q in rh.profiles:
                if verify_lqre(composite, spec.phi, spec.lam, product_profile(p, q)) > LQRE_TOL:
                    return "a product profile is not a logit fixed point of the composite"
        return None

    def counts(self, out) -> dict:
        report, results = out
        totals = Counter()
        for result in results:
            totals.update(_lqre_counts(result))
        return {**totals, "products": report.instances_checked}


def _random_statistic(rng) -> MAStatistic:
    # Criterion 06's statistic generator, draw for draw.
    n = int(rng.integers(1, 4))
    locations = list(rng.uniform(-3.0, 3.0, size=n))
    if rng.random() < 0.3:
        locations[0] = -math.inf
    if n > 1 and rng.random() < 0.3:
        locations[-1] = math.inf
    weights = rng.dirichlet(np.ones(len(locations)))
    return MAStatistic(tuple(zip(locations, weights)))


class ElicitQre(Workload):
    name = "elicit_qre"

    def build(self) -> list:
        rng = np.random.default_rng(4242)
        ops = []
        for trial in range(20):
            phi = _random_statistic(rng)
            x = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 5)))
            ops.append((ConceptSpec.lqre((0.5, 1.0, 5.0)[trial % 3], phi, FAST), x))
        return ops

    def run(self, op):
        return testgames.elicit_qre(*op)

    def check(self, op, out) -> Optional[str]:
        spec, x = op
        gap = abs(out - evaluate(spec.phi, Lottery.from_vector(x)))
        return None if gap <= ELICIT_TOL else f"elicited value is {gap:.3g} from the statistic"

    def counts(self, out) -> dict:
        return {"solutions": 1}


WORKLOADS = {w.name: w for w in (LqreCorpus, NashCards, LqreBracketing, ElicitQre)}
