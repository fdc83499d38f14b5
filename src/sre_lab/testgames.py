"""Named game and lottery fixtures, random corpora, and statistic elicitation.

The card and sure-thing families put one player in front of a choice between
a (nearly) sure amount r and a lottery generated endogenously by another
player's mixing; the threshold r at which that player turns indifferent
recovers the statistic a solution concept responds to.  Logit play gives
log-odds that are linear in r, read off play and stepped to their root inside
a bracket; best-response play gives only a yes/no verdict, found by
bisection.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .games import Game, MixedProfile
from .lotteries import Lottery
from .solvers import ConceptSpec, solve_lqre, solve_nash_phi

MAX_CARD_VALUES = 5
MAX_ELICIT_CARD_VALUES = 3
# Only a guarantee that elicit_qre's root-finder ends; it stops on its log-odds or its
# bracket width first.
ELICIT_MAX_PROBES = 100


# ---------------------------------------------------------------------------
# named games
# ---------------------------------------------------------------------------


def make_matching_pennies(stake: float = 1.0) -> Game:
    u1 = np.array([[stake, -stake], [-stake, stake]])
    return Game((2, 2), np.stack([u1, -u1], axis=-1), (("h", "t"), ("h", "t")))


def _one_chooser(u1: np.ndarray, u2: np.ndarray, labels1, labels2, n_players: int) -> Game:
    """Player 1's (k x m) payoffs u1 and player 2's u2, plus one-action dummies labelled "c" who earn zero."""
    if n_players < 2:
        raise ValueError("need at least two players")
    counts = u1.shape + (1,) * (n_players - 2)
    tensor = np.zeros(counts + (n_players,))
    tensor[..., 0] = u1.reshape(counts)
    tensor[..., 1] = u2.reshape(counts)
    return Game(counts, tensor, (tuple(labels1), tuple(labels2)) + (("c",),) * (n_players - 2))


def make_test_game_gx(x: float, n_players: int = 2) -> Game:
    """Player 1 picks between a sure payoff of x and 0; everyone else is a dummy."""
    return _one_chooser(np.array([[x], [0.0]]), np.zeros((2, 1)), ("h", "l"), ("c",), n_players)


def make_card_game(r: float, x: Sequence[float], epsilon: float, n_players: int = 2) -> Game:
    """Shuffled-cards game: player 1 picks keep-the-card vs take-r plus a shuffle.

    Player 1 chooses (choice, permutation) where choice 0 keeps the drawn
    card value and choice 1 takes r plus epsilon times the card value;
    player 2 picks a card position and pays its value.  Player 2's payoff is
    minus the card value; players beyond the second are dummies.
    """
    xs = np.asarray(x, dtype=float)
    m = xs.size
    if not 2 <= m <= MAX_CARD_VALUES:
        raise ValueError(f"need between 2 and {MAX_CARD_VALUES} card values")
    if not 0 < epsilon < math.inf:  # NaN fails the test too
        raise ValueError("epsilon must be positive and finite")
    if np.ptp(xs) == 0:
        raise ValueError("card values must not be constant")
    perms = list(itertools.permutations(range(m)))
    drawn = xs[np.array(perms)]  # one row per permutation: the card value at each position
    u1 = np.concatenate([drawn, r + epsilon * drawn])
    u2 = np.concatenate([-drawn, -drawn])
    labels1 = [f"{choice}|{''.join(map(str, perm))}" for choice in ("a_x", "a_r") for perm in perms]
    return _one_chooser(u1, u2, labels1, map(str, range(m)), n_players)


def card_keep_actions(game: Game) -> np.ndarray:
    """Indices of the keep-the-card (a_x) actions of player 1 in a card game."""
    assert game.labels is not None
    return np.array([k for k, lab in enumerate(game.labels[0]) if lab.startswith("a_x")])


def make_sure_thing_game(r: float, x: Sequence[float], n_players: int = 2) -> Game:
    """Player 1 picks r for sure or the value of player 2's action; others earn zero."""
    xs = np.asarray(x, dtype=float)
    m = xs.size
    if m < 1:
        raise ValueError("need at least one outcome")
    u1 = np.empty((2, m))
    u1[0], u1[1] = float(r), xs
    return _one_chooser(u1, np.zeros_like(u1), ("b_r", "b_x"), map(str, range(m)), n_players)


def _pennies_variant(u1: np.ndarray) -> Game:
    """A 2x2 game on actions (a, b) whose player 2 earns 1 for mismatching player 1 and 0 for matching."""
    u2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    return Game((2, 2), np.stack([u1, u2], axis=-1), (("a", "b"), ("a", "b")))


def make_vmp() -> Game:
    """Matching-pennies variant whose row action is both max- and min-dominant."""
    return _pennies_variant(np.array([[2.0, 0.0], [-1.0, 1.0]]))


def make_no_extremal_eq_game(epsilon: float) -> Game:
    """Matching-pennies variant that defeats best-response play under extreme-weighted statistics."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return _pennies_variant(np.array([[1.0 + 1.0 / epsilon, 0.0], [-1.0 / epsilon, 1.0]]))


def make_incomparable_mp() -> Game:
    """Variant where the designated profile ranks no action pair by strict dominance.

    At player 1 uniform and player 2 playing (1/3, 2/3) every pair of action
    lotteries crosses, so distribution-monotonicity holds vacuously.
    """
    return _pennies_variant(np.array([[1.5, 0.0], [0.0, 1.0]]))


def incomparable_mp_profile() -> MixedProfile:
    return MixedProfile((np.array([0.5, 0.5]), np.array([1.0 / 3.0, 2.0 / 3.0])))


def make_iia_game(beta: float = 1.0, delta: float = 0.0, alpha: float = 0.0, gamma: float = 0.0) -> Game:
    """Three-action extension showing added actions shift logit play elsewhere."""
    u1 = np.array([[0.0, 2.0], [1.0, 1.0], [alpha, gamma]])
    u2 = np.array([[0.0, 0.0], [0.0, 0.0], [beta, delta]])
    return Game((3, 2), np.stack([u1, u2], axis=-1), (("a", "b", "c"), ("a", "b")))


def make_allais_lotteries() -> dict[str, Lottery]:
    """Four money lotteries over outcomes {0, 10, 11} with weights .89/.01/.10."""
    probs = np.array([0.89, 0.01, 0.10])
    rows = {
        "a": np.array([10.0, 10.0, 10.0]),
        "b": np.array([10.0, 0.0, 11.0]),
        "c": np.array([0.0, 10.0, 10.0]),
        "d": np.array([0.0, 0.0, 11.0]),
    }
    return {name: Lottery(vals, probs) for name, vals in rows.items()}


def make_table2_lotteries() -> dict[str, Lottery]:
    """Three equal-weight money lotteries separating extreme-weighted from mean rankings."""
    probs = np.full(3, 1.0 / 3.0)
    rows = {
        "a": np.array([10.0, 10.0, 10.0]),
        "b": np.array([5.0, 5.0, 18.0]),
        "c": np.array([0.0, 10.0, 20.0]),
    }
    return {name: Lottery(vals, probs) for name, vals in rows.items()}


# ---------------------------------------------------------------------------
# random corpus
# ---------------------------------------------------------------------------


def random_game(
    rng: np.random.Generator,
    players: tuple[int, int] = (2, 3),
    actions: tuple[int, int] = (2, 4),
    payoff_range: tuple[float, float] = (-2.0, 2.0),
) -> Game:
    n = int(rng.integers(players[0], players[1] + 1))
    counts = tuple(int(k) for k in rng.integers(actions[0], actions[1] + 1, size=n))
    tensor = rng.uniform(payoff_range[0], payoff_range[1], size=counts + (n,))
    return Game(counts, tensor)


def random_shifts(rng: np.random.Generator, game: Game, scale: float = 1.0) -> list[np.ndarray]:
    shifts = []
    for i in range(game.num_players):
        shape = tuple(k for j, k in enumerate(game.action_counts) if j != i)
        shifts.append(rng.uniform(-scale, scale, size=shape))
    return shifts


# ---------------------------------------------------------------------------
# statistic elicitation
# ---------------------------------------------------------------------------


def _outcomes(x: Sequence[float]) -> np.ndarray:
    """The card or lottery values x as a float array, refused when empty."""
    xs = np.asarray(x, dtype=float)
    if xs.size == 0:
        raise ValueError("x must hold at least one value")
    return xs


@dataclass
class ElicitationResult:
    """Per-epsilon thresholds and their limit estimate."""

    estimates: list[tuple[float, float]]
    extrapolated: float
    converged: bool
    iterations: int
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "estimates": [[float(e), float(r)] for e, r in self.estimates],
            "extrapolated": float(self.extrapolated),
            "converged": self.converged,
            "iterations": int(self.iterations),
            "notes": self.notes,
        }


def elicit_qre(spec: ConceptSpec, x: Sequence[float]) -> float:
    """Recover the statistic value of the uniform lottery over x from logit play.

    Under logit play player 1's log-odds between its two choices are lambda
    times their value difference (McKelvey & Palfrey, GEB 10, 1995), so at
    the fixed point of the sure-thing game
    h(r) = (log p_1(b_x) - log p_1(b_r)) / lambda = phi(X) - r,
    and the threshold is the root of h on [min x, max x].  The two ends are
    probed first; g(r) = p_1(b_x) - 1/2 must not have the wrong sign there,
    and a statistic equal to min x or max x (the minimum or the maximum,
    say) puts the root on an end of the bracket, which is then returned as
    it stands.  Otherwise each probe steps r to r + h(r) when that point is
    finite and lies strictly inside the bracket, and to the bracket's
    midpoint when it does not; a choice probability of 0 is saturated play,
    with h = +-inf.  It stops once |h(r)| <= 1e-12 max(1, |r|) and returns
    r + h(r), or once the bracket is narrower than 1e-12 max(1, |lo|, |hi|)
    and returns its midpoint.  As h is linear in r, one step from an end
    whose play is not saturated lands on the root to rounding, and the next
    probe confirms it.

    Each probe solves from the uniform start alone.  Player 2 earns zero
    whatever happens, so it mixes uniformly; player 1 then answers a fixed
    lottery, and the game has a single logit fixed point, reached from the
    uniform start in at most one Newton step: at the threshold itself the
    uniform profile already is the fixed point, and no step is taken.  The
    estimate is read from play at that fixed point alone, never from the
    statistic or the action values.
    """
    if spec.family != "logit":
        raise ValueError("elicit_qre needs an lqre concept")
    if not 0 < spec.lam < math.inf:
        raise ValueError("lambda must be finite and positive to elicit anything")
    xs = _outcomes(x)
    cfg = replace(spec.solver, multistarts=0)

    def probe(r: float) -> tuple[float, float]:
        """g(r) and h(r) from player 1's play at the logit fixed point."""
        game = make_sure_thing_game(r, xs)
        p_r, p_x = solve_lqre(game, spec.phi, spec.lam, cfg).profiles[0].distributions[0]
        g = float(p_x) - 0.5
        if p_r == 0.0:
            return g, math.inf
        if p_x == 0.0:
            return g, -math.inf
        return g, (math.log(p_x) - math.log(p_r)) / spec.lam

    lo, hi = float(xs.min()), float(xs.max())
    if hi - lo <= 0:
        return lo
    g_lo, h_lo = probe(lo)
    g_hi, h_hi = probe(hi)
    if g_lo < -1e-9 or g_hi > 1e-9:
        raise ValueError("bracket failure: g(r) has the wrong sign at an end of [min x, max x]")
    if g_lo <= 0.0:
        return lo
    if g_hi >= 0.0:
        return hi
    r, h = (lo, h_lo) if abs(h_lo) <= abs(h_hi) else (hi, h_hi)
    for _ in range(ELICIT_MAX_PROBES):
        if abs(h) <= 1e-12 * max(1.0, abs(r)):
            return r + h
        if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            break
        step = r + h
        r = step if lo < step < hi else 0.5 * (lo + hi)
        _, h = probe(r)
        if h > 0.0:
            lo = r
        else:
            hi = r
    return 0.5 * (lo + hi)


def elicit_fosd(
    spec: ConceptSpec,
    x: Sequence[float],
    eps_schedule: Sequence[float] = (1e-1, 1e-2, 1e-3),
    bisection_iters: int = 30,
) -> ElicitationResult:
    """Recover the statistic from best-response play in card games.

    For each epsilon the threshold r*(eps) is the largest r at which some
    found solution still plays a keep-the-card action; the found solution
    set is a lower-bound stand-in for the full solution set, so estimates
    carry that caveat.  Estimates are listed by decreasing epsilon and the
    extrapolated value is the last (smallest-epsilon) one.  Each probe
    solves under the caller's solver config with max_enum_supports and
    homotopy_steps replaced by 64 and 24, so the support enumeration of a
    12x3 card game (three card values) is truncated and the logit trace
    runs, on a grid of 24 points.
    """
    if spec.family != "best-response":
        raise ValueError("elicit_fosd needs a best-response concept")
    if spec.phi.has_extreme_atoms:
        raise ValueError("statistics with atoms at -inf/+inf need not admit equilibria")
    try:
        positive = operator.index(bisection_iters) > 0
    except TypeError:
        positive = False
    if not positive:
        raise ValueError("bisection_iters must be a positive integer")
    # Written so that NaN fails too.
    if len(eps_schedule) == 0 or not all(0 < eps < math.inf for eps in eps_schedule):
        raise ValueError("eps_schedule must list at least one positive, finite epsilon")
    xs = _outcomes(x)
    if xs.size > MAX_ELICIT_CARD_VALUES:
        raise ValueError(f"elicitation caps card vectors at {MAX_ELICIT_CARD_VALUES} values")
    cfg = replace(spec.solver, homotopy_steps=24, max_enum_supports=64)
    pad = 1.0 + float(np.max(np.abs(xs)))
    probes = 0

    def plays_keep(r: float, eps: float) -> Optional[bool]:
        nonlocal probes
        probes += 1
        game = make_card_game(r, xs, eps)
        result = solve_nash_phi(game, spec.phi, cfg)
        if not result.profiles:
            return None
        keep = card_keep_actions(game)
        return any(
            float(p.distributions[0][keep].sum()) > cfg.support_tol for p in result.profiles
        )

    estimates: list[tuple[float, float]] = []
    notes = ""
    for eps in sorted(eps_schedule, reverse=True):
        lo = float(xs.min()) - eps * pad
        hi = float(xs.max()) + eps * pad
        verdict_lo = plays_keep(lo, eps)
        verdict_hi = plays_keep(hi, eps)
        if verdict_lo is None or verdict_hi is None or not verdict_lo or verdict_hi:
            notes = f"inconclusive probe at eps={eps:g}"
            break
        stalled = False
        for _ in range(bisection_iters):
            mid = 0.5 * (lo + hi)
            verdict = plays_keep(mid, eps)
            if verdict is None:
                notes = f"inconclusive probe at eps={eps:g}"
                stalled = True
                break
            if verdict:
                lo = mid
            else:
                hi = mid
        if stalled:
            break
        estimates.append((float(eps), 0.5 * (lo + hi)))
    converged = (
        len(estimates) == len(eps_schedule)
        and len(estimates) >= 2
        and abs(estimates[-1][1] - estimates[-2][1]) < 1e-3
    )
    extrapolated = estimates[-1][1] if estimates else math.nan
    return ElicitationResult(estimates, extrapolated, converged, probes, notes)


def vector_from_lottery(x: Lottery, max_m: int = 360) -> np.ndarray:
    """Express a rational-weight lottery as a uniform draw over vector coordinates."""
    for m in range(1, max_m + 1):
        counts = np.rint(x.weights * m)
        if np.all(np.abs(x.weights * m - counts) <= 1e-6) and int(counts.sum()) == m and np.all(counts > 0):
            return np.repeat(x.outcomes, counts.astype(int))
    raise ValueError(f"no uniform representation with at most {max_m} coordinates")


# ---------------------------------------------------------------------------
# fixture registry
# ---------------------------------------------------------------------------


_FIXTURES = {
    "mp": make_matching_pennies,
    "vmp": make_vmp,
    "incomparable_mp": make_incomparable_mp,
    "iia": make_iia_game,
    "g_x:1": lambda: make_test_game_gx(1.0),
    "card:r=.6,x=0,1,eps=.1": lambda: make_card_game(0.6, [0.0, 1.0], 0.1),
    "sure_thing:r=.5,x=0,1": lambda: make_sure_thing_game(0.5, [0.0, 1.0]),
    "no_extremal:eps=.25": lambda: make_no_extremal_eq_game(0.25),
    "allais": make_allais_lotteries,
    "table2": make_table2_lotteries,
}


def fixture_ids() -> list[str]:
    return list(_FIXTURES)


def fixture(fixture_id: str):
    """Resolve one of the ids fixture_ids() lists to a Game or a dict of named Lotteries."""
    if fixture_id not in _FIXTURES:
        raise KeyError(f"unknown fixture {fixture_id!r}")
    return _FIXTURES[fixture_id]()
