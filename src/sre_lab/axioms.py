"""Executable checks of solution-concept axioms on concrete games.

Every check returns an AxiomReport listing the violations it found; a report
passes exactly when the list is empty.  Universally quantified axioms are
checked over whatever instances the caller supplies (or the seeded random
corpus the CLI assembles in cli._suite_reports) — reports describe what was
checked and never claim a universal proof.  Membership is always residual-based through the concept's
verifier, since solutions are numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .games import (
    Game,
    MixedProfile,
    PlayerPermutation,
    _fosd_by_player,
    action_payoff_matrix,
    blend_games,
    blow_up,
    compose,
    expected_payoffs,
    permute_players,
    permute_profile,
    product_profile,
    push_profile,
    scale_game,
    strategic_shift,
)
from .lotteries import DominanceVerdict
from .solvers import ConceptSpec


@dataclass
class AxiomReport:
    """Outcome of one axiom check; passed is equivalent to 'no violations'."""

    axiom: str
    instances_checked: int
    violations: list[dict] = field(default_factory=list)
    vacuous: bool = False
    notes: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "instances_checked": int(self.instances_checked),
            "violations": self.violations,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "notes": self.notes,
        }


def _describe(game: Game) -> str:
    return f"{game.num_players}p:{'x'.join(str(k) for k in game.action_counts)}"


def _pair_violation(game: Game, i: int, a: int, b: int, magnitude: float) -> dict:
    return {"game": _describe(game), "player": i, "pair": [a, b], "magnitude": float(magnitude)}


def _check_tol(tol: float) -> None:
    if not 0 <= tol < math.inf:  # NaN fails the test too
        raise ValueError("tol must be nonnegative and finite")


def _check_profile(game: Game, p: MixedProfile) -> None:
    if not p.matches(game):
        raise ValueError("profile does not match the game")


# ---------------------------------------------------------------------------
# monotonicity and interiority of a concrete profile
# ---------------------------------------------------------------------------


def check_distribution_monotonicity(game: Game, p: MixedProfile, tol: float = 1e-9) -> AxiomReport:
    """Strictly dominated lotteries may not be played more than their dominators."""
    _check_tol(tol)
    _check_profile(game, p)
    violations = []
    instances = 0
    strict_pairs = 0
    for i, (dist, (verdict, _)) in enumerate(zip(p.distributions, _fosd_by_player(game, p))):
        strict = verdict == DominanceVerdict.STRICT_FOSD
        instances += dist.size * (dist.size - 1)
        strict_pairs += int(strict.sum())
        for a, b in np.argwhere(strict & (dist[:, None] < dist - tol)).tolist():
            violations.append(_pair_violation(game, i, a, b, dist[b] - dist[a]))
    return AxiomReport(
        "distribution-monotonicity",
        instances,
        violations,
        vacuous=strict_pairs == 0,
        notes="no strictly ranked pairs under this profile" if strict_pairs == 0 else "",
    )


def check_expectation_monotonicity(game: Game, p: MixedProfile, tol: float = 1e-9) -> AxiomReport:
    """Higher expected payoff may not come with strictly lower probability."""
    _check_tol(tol)
    _check_profile(game, p)
    violations = []
    instances = 0
    for i, dist in enumerate(p.distributions):
        means = expected_payoffs(game, i, p)
        instances += dist.size * (dist.size - 1)
        for a, b in np.argwhere((means[:, None] > means + tol) & (dist[:, None] < dist - tol)).tolist():
            violations.append(_pair_violation(game, i, a, b, dist[b] - dist[a]))
    return AxiomReport("expectation-monotonicity", instances, violations)


def check_interiority(p: MixedProfile, tol: float = 1e-9) -> AxiomReport:
    _check_tol(tol)
    violations = []
    for i, dist in enumerate(p.distributions):
        for a, prob in enumerate(dist):
            if prob <= tol:
                violations.append(
                    {"player": i, "action": a, "magnitude": float(prob)}
                )
    return AxiomReport("interiority", sum(len(d) for d in p.distributions), violations)


def check_neutrality(
    game: Game, p: MixedProfile, mode: str = "expectation", tol: float = 1e-9
) -> AxiomReport:
    """Actions with equal payoffs (in expectation or in distribution) get equal mass."""
    if mode not in ("expectation", "distribution"):
        raise ValueError("mode must be 'expectation' or 'distribution'")
    _check_tol(tol)
    _check_profile(game, p)
    if mode == "expectation":
        means = [expected_payoffs(game, i, p) for i in range(game.num_players)]
        equals = [np.abs(m[:, None] - m) <= tol for m in means]
    else:
        equals = [verdict == DominanceVerdict.EQUAL for verdict, _ in _fosd_by_player(game, p)]
    violations = []
    instances = 0
    for i, (dist, equal) in enumerate(zip(p.distributions, equals)):
        instances += dist.size * (dist.size - 1) // 2
        for a, b in np.argwhere(np.triu(equal & (np.abs(dist[:, None] - dist) > tol), 1)).tolist():
            violations.append(_pair_violation(game, i, a, b, abs(dist[a] - dist[b])))
    return AxiomReport(f"{mode}-neutrality", instances, violations)


def check_rationality(game: Game, p: MixedProfile, tol: float = 1e-7) -> AxiomReport:
    """Strictly dominant actions must receive positive probability."""
    _check_tol(tol)
    _check_profile(game, p)
    violations = []
    dominant_found = 0
    for i in range(game.num_players):
        table = action_payoff_matrix(game, i)
        for a in range(game.action_counts[i]):
            others = [b for b in range(game.action_counts[i]) if b != a]
            if not others:
                continue
            if all(np.all(table[a] > table[b]) for b in others):
                dominant_found += 1
                if p.distributions[i][a] <= tol:
                    violations.append(
                        {
                            "game": _describe(game),
                            "player": i,
                            "action": a,
                            "magnitude": float(p.distributions[i][a]),
                        }
                    )
    return AxiomReport(
        "rationality",
        dominant_found,
        violations,
        vacuous=dominant_found == 0,
        notes="no strictly dominant actions" if dominant_found == 0 else "",
    )


# ---------------------------------------------------------------------------
# axioms that quantify over solved games
# ---------------------------------------------------------------------------


def _non_members(
    spec: ConceptSpec, target: Game, profiles: Sequence[MixedProfile], tol: float, **where
) -> list[dict]:
    """One violation, tagged with where, per profile that is not a member of spec on target."""
    violations = []
    for p in profiles:
        report = spec.membership_report(target, p, tol=tol)
        if not report["member"]:
            residual = report.get("residual")
            violations.append({**where, "residual": residual, "magnitude": float(residual or 1.0)})
    return violations


def check_bracketing(spec: ConceptSpec, g: Game, h: Game, tol: float = 1e-8) -> AxiomReport:
    """Products of component solutions must solve the composite game."""
    sols_g = spec.solve(g)
    sols_h = spec.solve(h)
    products = [product_profile(p, q) for p in sols_g.profiles for q in sols_h.profiles]
    violations = _non_members(spec, compose(g, h), products, tol, game=f"{_describe(g)} (x) {_describe(h)}")
    return AxiomReport("bracketing", len(products), violations, vacuous=not products)


def check_anonymity(
    spec: ConceptSpec, game: Game, pi: PlayerPermutation, tol: float = 1e-8
) -> AxiomReport:
    """Permuting player names must permute the solution set."""
    permuted = [permute_profile(p, pi) for p in spec.solve(game).profiles]
    violations = _non_members(
        spec, permute_players(game, pi), permuted, tol, game=_describe(game), permutation=list(pi.mapping)
    )
    return AxiomReport("anonymity", len(permuted), violations)


def check_scale_invariance(
    spec: ConceptSpec,
    game: Game,
    alphas: Sequence[float] = (0.25, 0.5, 0.75),
    tol: float = 1e-8,
) -> AxiomReport:
    """Uniform solutions must stay solutions when all payoffs shrink by alpha."""
    if len(alphas) == 0:
        raise ValueError("alphas must not be empty")
    for alpha in alphas:
        if not 0 < alpha < 1:
            raise ValueError("alphas must lie in (0, 1)")
    uniform_sols = [p for p in spec.solve(game).profiles if p.is_uniform(1e-9)]
    if not uniform_sols:
        return AxiomReport(
            "scale-invariance",
            0,
            vacuous=True,
            notes="no uniform solution found; check is vacuous",
        )
    violations = []
    for alpha in alphas:
        scaled = scale_game(game, alpha)
        violations += _non_members(spec, scaled, uniform_sols, tol, game=_describe(game), alpha=alpha)
    return AxiomReport("scale-invariance", len(alphas) * len(uniform_sols), violations)


def check_strategic_invariance(
    spec: ConceptSpec, game: Game, shifts: Sequence[np.ndarray], tol: float = 1e-8
) -> AxiomReport:
    """Opponent-dependent payoff shifts must not change the solution set."""
    shifted = strategic_shift(game, shifts)
    violations = []
    instances = 0
    for source, target, direction in ((game, shifted, "forward"), (shifted, game, "backward")):
        sols = spec.solve(source).profiles
        instances += len(sols)
        violations += _non_members(spec, target, sols, tol, game=_describe(game), direction=direction)
    return AxiomReport("strategic-invariance", instances, violations)


def check_consistency(
    spec: ConceptSpec,
    game_u: Game,
    game_v: Game,
    alphas: Sequence[float] = (0.25, 0.5, 0.75),
    tol: float = 1e-8,
) -> AxiomReport:
    """Common solutions of two games must solve every convex payoff blend."""
    if game_u.action_counts != game_v.action_counts:
        raise ValueError("consistency needs games on the same action sets")
    if len(alphas) == 0:
        raise ValueError("alphas must not be empty")
    if not all(0 <= alpha <= 1 for alpha in alphas):  # written so that NaN fails too
        raise ValueError("alphas must lie in [0, 1]")
    sols_u = spec.solve(game_u).profiles
    sols_v = spec.solve(game_v).profiles
    common = []
    for p in sols_u:
        if any(p.sup_distance(q) <= 1e-6 for q in sols_v):
            common.append(p)
    if not common:
        return AxiomReport(
            "consistency",
            0,
            vacuous=True,
            notes="solution sets do not intersect; check is vacuous",
        )
    violations = []
    for alpha in alphas:
        blended = blend_games(game_u, game_v, alpha)
        violations += _non_members(spec, blended, common, tol, game=f"blend({_describe(game_u)}, alpha={alpha})")
    return AxiomReport("consistency", len(alphas) * len(common), violations)


def _lifts(q: MixedProfile, maps: Sequence[Sequence[int]]) -> list[MixedProfile]:
    """Two canonical lifts of a base-game profile onto a blow-up.

    The definition quantifies over every split of duplicated mass, which is
    infinite; mass-on-first-preimage and even-split give a sound falsifier
    and a deliberately incomplete certifier.
    """
    first, even = [], []
    for i, f in enumerate(maps):
        arr = np.asarray(f, dtype=int)
        vec_first = np.zeros(len(arr))
        vec_even = np.zeros(len(arr))
        for b in range(int(arr.max()) + 1):
            pre = np.flatnonzero(arr == b)
            vec_first[pre[0]] = q.distributions[i][b]
            vec_even[pre] = q.distributions[i][b] / pre.size
        first.append(vec_first)
        even.append(vec_even)
    return [MixedProfile(tuple(first)), MixedProfile(tuple(even))]


def check_consequentialism(
    spec: ConceptSpec, base: Game, maps: Sequence[Sequence[int]], tol: float = 1e-8
) -> AxiomReport:
    """Duplicating actions must only split probabilities, in both directions."""
    blown = blow_up(base, maps)
    pushed = [push_profile(p, maps, base) for p in spec.solve(blown).profiles]
    lifted = [lift for q in spec.solve(base).profiles for lift in _lifts(q, maps)]
    violations = _non_members(spec, base, pushed, tol, game=_describe(blown), direction="push")
    violations += _non_members(spec, blown, lifted, tol, game=_describe(blown), direction="lift")
    return AxiomReport("consequentialism", len(pushed) + len(lifted), violations)
