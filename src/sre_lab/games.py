"""Finite normal-form games and mixed strategy profiles.

Payoffs live in a dense tensor of shape (|A_1|, ..., |A_N|, N): entry
[a_1, ..., a_N, i] is player i's payoff at that pure action profile.  The
flat JSON order enumerates profiles lexicographically with the last player's
action varying fastest, which is exactly C order over the leading axes.

All values are immutable after construction and every operation here is a
pure function, so games and profiles can be shared freely across threads.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lotteries import CDF_TOL, Lottery, _fosd_blocks

PROFILE_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Game:
    """An N-player finite normal-form game."""

    action_counts: tuple[int, ...]
    payoffs: np.ndarray
    labels: Optional[tuple[tuple[str, ...], ...]] = None

    def __post_init__(self):
        counts = tuple(map(int, self.action_counts))
        if not counts or min(counts) < 1:
            raise ValueError("every player needs at least one action")
        arr = np.asarray(self.payoffs, dtype=float)
        expected = counts + (len(counts),)
        if arr.shape != expected:
            raise ValueError(f"payoff tensor shape {arr.shape} != {expected}")
        if not np.isfinite(arr).all():
            raise ValueError("payoffs must be finite")
        if self.labels is not None:
            labels = tuple([tuple(map(str, per)) for per in self.labels])
            if tuple(map(len, labels)) != counts:
                raise ValueError("labels must list one name per action per player")
            object.__setattr__(self, "labels", labels)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "payoffs", arr)

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    @property
    def num_profiles(self) -> int:
        return int(np.prod(self.action_counts))

    def player_payoffs(self, i: int) -> np.ndarray:
        """Payoff tensor of player i, shape = action_counts."""
        return self.payoffs[..., i]

    def __repr__(self) -> str:
        return f"Game(players={self.num_players}, actions={list(self.action_counts)})"

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        flat = self.payoffs.reshape(self.num_profiles, self.num_players)
        obj = {
            "players": self.num_players,
            "actions": list(self.action_counts),
            "payoffs": [[float(v) for v in row] for row in flat],
        }
        if self.labels is not None:
            obj["labels"] = [list(per) for per in self.labels]
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Game":
        n = int(obj["players"])
        counts = tuple(int(k) for k in obj["actions"])
        if len(counts) != n:
            raise ValueError("'actions' must list one count per player")
        flat = np.asarray(obj["payoffs"], dtype=float)
        if flat.shape != (int(np.prod(counts)), n):
            raise ValueError("payoff list has the wrong shape")
        labels = None
        if obj.get("labels") is not None:
            labels = tuple(tuple(per) for per in obj["labels"])
        return cls(counts, flat.reshape(counts + (n,)), labels)

    @classmethod
    def load(cls, path: str) -> "Game":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def game_from_payoff_lists(per_player: Sequence[np.ndarray]) -> Game:
    """Build a game from one payoff tensor per player (each shaped action_counts)."""
    tensors = [np.asarray(t, dtype=float) for t in per_player]
    counts = tensors[0].shape
    for t in tensors:
        if t.shape != counts:
            raise ValueError("per-player tensors must share a shape")
    return Game(counts, np.stack(tensors, axis=-1))


def two_player_game(u1: Sequence[Sequence[float]], u2: Sequence[Sequence[float]]) -> Game:
    return game_from_payoff_lists([np.asarray(u1, float), np.asarray(u2, float)])


@dataclass(frozen=True, eq=False)
class MixedProfile:
    """One probability vector per player over that player's actions."""

    distributions: tuple[np.ndarray, ...]

    def __post_init__(self):
        dists = []
        for vec in self.distributions:
            arr = np.asarray(vec, dtype=float).ravel()
            if arr.size == 0:
                raise ValueError("empty distribution")
            if np.fmin.reduce(arr) < 0.0:  # fmin skips NaN, so this is "some weight < 0"
                raise ValueError("probabilities must be nonnegative")
            total = np.add.reduce(arr)
            if not abs(total - 1.0) <= PROFILE_SUM_TOL:  # NaN fails the test too
                raise ValueError(f"probabilities sum to {total!r}, expected 1")
            arr = arr / total
            arr.setflags(write=False)
            dists.append(arr)
        object.__setattr__(self, "distributions", tuple(dists))

    @classmethod
    def uniform(cls, game: Game) -> "MixedProfile":
        return cls(tuple(np.full(k, 1.0 / k) for k in game.action_counts))

    @classmethod
    def pure(cls, game: Game, actions: Sequence[int]) -> "MixedProfile":
        dists = []
        for k, a in zip(game.action_counts, actions):
            vec = np.zeros(k)
            vec[a] = 1.0
            dists.append(vec)
        return cls(tuple(dists))

    def __len__(self) -> int:
        return len(self.distributions)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.distributions[i]

    def matches(self, game: Game) -> bool:
        return tuple(len(d) for d in self.distributions) == game.action_counts

    def sup_distance(self, other: "MixedProfile") -> float:
        return max(
            float(np.max(np.abs(a - b))) for a, b in zip(self.distributions, other.distributions)
        )

    def is_uniform(self, tol: float = 1e-9) -> bool:
        return all(np.max(np.abs(d - 1.0 / d.size)) <= tol for d in self.distributions)

    def __repr__(self) -> str:
        parts = "; ".join(np.array2string(d, precision=4, separator=",") for d in self.distributions)
        return f"MixedProfile({parts})"

    def to_json(self) -> dict:
        return {"distributions": [[float(p) for p in d] for d in self.distributions]}

    @classmethod
    def from_json(cls, obj: dict) -> "MixedProfile":
        return cls(tuple(np.asarray(d, float) for d in obj["distributions"]))

    @classmethod
    def load(cls, path: str) -> "MixedProfile":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class PlayerPermutation:
    """A bijection on player slots; mapping[i] is the old index of new player i."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(v) for v in self.mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError("mapping must be a bijection on 0..N-1")
        object.__setattr__(self, "mapping", mapping)

    def inverse(self) -> "PlayerPermutation":
        inv = [0] * len(self.mapping)
        for new, old in enumerate(self.mapping):
            inv[old] = new
        return PlayerPermutation(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "PlayerPermutation":
        return cls(tuple(range(n)))

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> "PlayerPermutation":
        mapping = list(range(n))
        mapping[i], mapping[j] = mapping[j], mapping[i]
        return cls(tuple(mapping))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def _compose(g: Game, h: Game, combine: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Game:
    """Simultaneous play of g and h, with payoffs combine(u, v) over paired actions.

    Player i's composite actions pair an action from each component; the
    composite index is a_i * |B_i| + b_i.  u and v are the components'
    payoff tensors with axes placed to broadcast against each other.
    """
    if g.num_players != h.num_players:
        raise ValueError("games must have the same number of players")
    n = g.num_players
    u = g.payoffs.reshape(tuple(d for k in g.action_counts for d in (k, 1)) + (n,))
    v = h.payoffs.reshape(tuple(d for k in h.action_counts for d in (1, k)) + (n,))
    counts = tuple(a * b for a, b in zip(g.action_counts, h.action_counts))
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = tuple(
            tuple(f"{la}+{lb}" for la in g.labels[i] for lb in h.labels[i]) for i in range(n)
        )
    return Game(counts, np.asarray(combine(u, v), dtype=float).reshape(counts + (n,)), labels)


def compose(g: Game, h: Game) -> Game:
    """Simultaneous play of two unrelated games: payoffs add.

    The composite index a_i * |B_i| + b_i makes composition associative at
    the tensor level under the canonical index bijection.
    """
    return _compose(g, h, np.add)


def compose_generalized(
    g: Game,
    h: Game,
    phi: Callable[[np.ndarray], np.ndarray],
    phi_inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    bracket: Optional[tuple[float, float]] = None,
) -> Game:
    """``compose`` with payoffs combined as phi^{-1}(phi(u) + phi(v)).

    phi must be strictly increasing and continuous over the payoff range.  If
    no inverse is supplied, it is computed by bisection on ``bracket`` (the
    bracket is expanded automatically when omitted).  With phi and its
    inverse the identity this is ``compose``, payoffs and labels alike.
    """
    lo = min(g.payoffs.min(), h.payoffs.min())
    hi = max(g.payoffs.max(), h.payoffs.max())
    span = max(hi - lo, 1.0)
    probe = np.linspace(lo - 0.01 * span, hi + 0.01 * span, 257)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(phi(probe), dtype=float)
    if not np.isfinite(vals).all():
        raise ValueError("phi is not finite on the payoff range")
    if not np.all(np.diff(vals) > 0):
        raise ValueError("phi is not strictly increasing on the payoff range")
    if phi_inverse is None:
        phi_inverse = functools.partial(_bisect_inverse, phi, bracket=bracket, lo=lo, hi=hi)
    return _compose(g, h, lambda u, v: phi_inverse(np.asarray(phi(u) + phi(v), dtype=float)))


def _bisect_inverse(phi, target: np.ndarray, bracket, lo: float, hi: float) -> np.ndarray:
    if bracket is None:
        ends = []
        for side, end, step, covers in (
            ("below", lo, -1.0, lambda y: y <= target.min()),
            ("above", hi, 1.0, lambda y: y >= target.max()),
        ):
            width = max(hi - lo, 1.0)
            defined, end = end, end + step * width  # phi is defined on the payoff range
            for _ in range(200):
                with np.errstate(invalid="ignore", divide="ignore"):
                    y = phi(np.array([end]))[0]
                if np.isnan(y):  # outside phi's domain: back halfway to where it was defined
                    end = 0.5 * (defined + end)
                    continue
                if covers(y):
                    break
                defined, end = end, end + step * width
                width *= 2
            else:
                raise ValueError(f"could not bracket phi inverse from {side}")
            ends.append(end)
        b_lo, b_hi = ends
    else:
        b_lo, b_hi = bracket
        probe = phi(np.array([b_lo, b_hi], dtype=float))
        if probe[0] > target.min() or probe[1] < target.max():
            raise ValueError("supplied bracket does not cover the required inverse range")
    lo_arr = np.full(target.shape, float(b_lo))
    hi_arr = np.full(target.shape, float(b_hi))
    for _ in range(100):
        mid = 0.5 * (lo_arr + hi_arr)
        below = np.asarray(phi(mid)) < target
        lo_arr = np.where(below, mid, lo_arr)
        hi_arr = np.where(below, hi_arr, mid)
    return 0.5 * (lo_arr + hi_arr)


def product_profile(p: MixedProfile, q: MixedProfile) -> MixedProfile:
    """Independent play of two profiles on a composite game (per-player outer product)."""
    if len(p) != len(q):
        raise ValueError("profiles must cover the same players")
    return MixedProfile(tuple(np.outer(a, b).ravel() for a, b in zip(p.distributions, q.distributions)))


def marginal_profiles(p: MixedProfile, g: Game, h: Game) -> tuple[MixedProfile, MixedProfile]:
    """Split a profile on compose(g, h) into its component marginals."""
    left, right = [], []
    for i, vec in enumerate(p.distributions):
        block = vec.reshape(g.action_counts[i], h.action_counts[i])
        left.append(block.sum(axis=1))
        right.append(block.sum(axis=0))
    return MixedProfile(tuple(left)), MixedProfile(tuple(right))


# ---------------------------------------------------------------------------
# relabeling and transforms
# ---------------------------------------------------------------------------


def permute_players(g: Game, pi: PlayerPermutation) -> Game:
    """Game with player slots renamed: new player i plays old player pi(i)'s role."""
    if len(pi.mapping) != g.num_players:
        raise ValueError("permutation arity does not match the game")
    axes = tuple(pi.mapping) + (g.num_players,)
    tensor = np.transpose(g.payoffs, axes)
    tensor = np.take(tensor, pi.mapping, axis=-1)
    counts = tuple(g.action_counts[old] for old in pi.mapping)
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[old] for old in pi.mapping)
    return Game(counts, tensor, labels)


def permute_profile(p: MixedProfile, pi: PlayerPermutation) -> MixedProfile:
    if len(pi.mapping) != len(p):
        raise ValueError("permutation arity does not match the profile")
    return MixedProfile(tuple(p.distributions[old] for old in pi.mapping))


def strategic_shift(g: Game, shifts: Sequence[np.ndarray]) -> Game:
    """Add to each player's payoff a term that depends only on opponents' actions.

    shifts[i] must have shape action_counts with axis i removed.  Marginal
    payoff differences between any two own actions are preserved exactly.
    """
    if len(shifts) != g.num_players:
        raise ValueError("need one shift per player")
    tensor = g.payoffs.copy()
    for i, shift in enumerate(shifts):
        arr = np.asarray(shift, dtype=float)
        expected = tuple(k for j, k in enumerate(g.action_counts) if j != i)
        if arr.shape != expected:
            raise ValueError(f"shift for player {i} has shape {arr.shape}, expected {expected}")
        tensor[..., i] += np.expand_dims(arr, axis=i)
    return Game(g.action_counts, tensor, g.labels)


def is_strategically_equivalent(g: Game, h: Game, tol: float = 1e-9) -> bool:
    """True when all marginal utilities of switching own actions coincide within tol."""
    if not 0 <= tol < math.inf:  # NaN fails the test too
        raise ValueError("tol must be nonnegative and finite")
    if g.action_counts != h.action_counts:
        raise ValueError("games must share action sets")
    for i in range(g.num_players):
        diff = g.player_payoffs(i) - h.player_payoffs(i)
        spread = diff.max(axis=i) - diff.min(axis=i)
        if np.max(spread) > tol:
            return False
    return True


def scale_game(g: Game, alpha: float) -> Game:
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return Game(g.action_counts, alpha * g.payoffs, g.labels)


def blend_games(g: Game, h: Game, alpha: float) -> Game:
    """Convex combination alpha*u + (1-alpha)*v of two games on the same action sets."""
    if g.action_counts != h.action_counts:
        raise ValueError("games must share action sets")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return Game(g.action_counts, alpha * g.payoffs + (1 - alpha) * h.payoffs, g.labels)


def blow_up(h: Game, maps: Sequence[Sequence[int]]) -> Game:
    """Duplicate actions: new action a of player i behaves like maps[i][a] in h.

    Every maps[i] must be total and surjective onto h's action set.
    """
    if len(maps) != h.num_players:
        raise ValueError("need one map per player")
    index_maps = []
    for i, f in enumerate(maps):
        arr = np.asarray(f, dtype=int)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"map for player {i} must be a nonempty index list")
        if arr.min() < 0 or arr.max() >= h.action_counts[i]:
            raise ValueError(f"map for player {i} hits actions outside the base game")
        if set(arr.tolist()) != set(range(h.action_counts[i])):
            raise ValueError(f"map for player {i} is not surjective")
        index_maps.append(arr)
    tensor = h.payoffs[np.ix_(*index_maps, np.arange(h.num_players))]
    labels = None
    if h.labels is not None:
        labels = tuple(
            tuple(h.labels[i][old] for old in index_maps[i]) for i in range(h.num_players)
        )
    return Game(tuple(len(f) for f in index_maps), tensor, labels)


def push_profile(p: MixedProfile, maps: Sequence[Sequence[int]], base: Game) -> MixedProfile:
    """Push a blow-up profile down to the base game by summing duplicate mass."""
    dists = []
    for i, f in enumerate(maps):
        arr = np.asarray(f, dtype=int)
        if arr.size != len(p.distributions[i]):
            raise ValueError(f"map for player {i} does not match the profile")
        vec = np.zeros(base.action_counts[i])
        np.add.at(vec, arr, p.distributions[i])
        dists.append(vec)
    return MixedProfile(tuple(dists))


# ---------------------------------------------------------------------------
# payoff lotteries
# ---------------------------------------------------------------------------


def opponent_weights(dists: Sequence[np.ndarray], i: int) -> np.ndarray:
    """Joint probability over player i's opponents' pure profiles, flattened in axis order.

    With a single opponent this is that opponent's distribution itself, not a copy.
    """
    joint = None
    for j, v in enumerate(dists):
        if j != i:
            joint = v if joint is None else np.multiply.outer(joint, v).ravel()
    return np.ones(1) if joint is None else joint


def action_payoff_matrix(g: Game, i: int) -> np.ndarray:
    """Player i's payoffs as a matrix (own action) x (flattened opponent profile)."""
    axes = [i] + [j for j in range(g.num_players) if j != i]
    return g.player_payoffs(i).transpose(axes).reshape(g.action_counts[i], -1)


def action_lottery(g: Game, i: int, a: int, p: MixedProfile) -> Lottery:
    """Payoff lottery faced by player i when playing action a against p's opponents."""
    if not 0 <= i < g.num_players:
        raise ValueError("player index out of range")
    if not 0 <= a < g.action_counts[i]:
        raise ValueError("action index out of range")
    if not p.matches(g):
        raise ValueError("profile does not match the game")
    outcomes = action_payoff_matrix(g, i)[a]
    weights = opponent_weights(p.distributions, i)
    keep = weights > 0
    return Lottery(outcomes[keep], weights[keep])


def _fosd_by_player(g: Game, p: MixedProfile) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each player's (verdict, weak) of lotteries.fosd_table on their action lotteries against p's opponents.

    Every player's rows go into one table, compared once; each row is
    compared only with its own player's rows.
    """
    tables = [(action_payoff_matrix(g, i), opponent_weights(p.distributions, i)) for i in range(g.num_players)]
    return _fosd_blocks(tables, CDF_TOL)


def expected_payoffs(g: Game, i: int, p: MixedProfile) -> np.ndarray:
    """Expected payoff of each of player i's actions against p's opponents."""
    return action_payoff_matrix(g, i) @ opponent_weights(p.distributions, i)
