"""Equilibrium solvers and membership checks.

Logit response uses a continuity-preserving payoff functional: finite-kernel
atoms evaluate the normalized CGF of the realized action lottery, while atoms
at -inf/+inf use the pure-strategy minimum and maximum over all opponent
profiles (independent of the mixing).  The two coincide whenever opponents
are totally mixed, which every logit fixed point is.

Best-response (Nash-type) membership instead evaluates the statistic of the
realized lottery itself, extremes included, so that profiles with boundary
opponents are judged by the payoffs they can actually reach.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .games import (
    Game,
    MixedProfile,
    _fosd_by_player,
    action_payoff_matrix,
    opponent_weights,
)
from . import symmetry
from .lotteries import DominanceVerdict
from .statistics import MIN_TOTAL, MAStatistic, cgf_branches, cgf_grids, normalized_cgf, taylor_terms, tilt_terms

DEDUP_TOL = 1e-6
# How far a played action may fall below its player's best value in a best response.
GAP_TOL = 1e-9
# The weight above which the membership checks count an action as played.
SUPPORT_TOL = 1e-7
# The weight every support action of a solved support profile keeps above; a
# weight at or below it is a boundary case that a smaller support covers.
INTERIOR_TOL = 1e-9
# The damped warm-up's step size, and the number of damped steps a start takes
# once Newton from it fails, before Newton is retried from the best iterate.
DAMPING = 0.5
WARM_UP = 16
# A start's homotopy path is corrected to CORRECTOR_TOL and handed to Newton on
# p - T(p) where it ends, if that is at t >= END_GAME.
CORRECTOR_TOL = 1e-4
END_GAME = 0.9
# The least |det(I - dT/dp)| at which a fixed point counts as regular, so that
# its index, the sign of that determinant, is read (see _index_sum).
REGULAR_DET = 1e-8
# _continue's step control: the first step length and its bounds, the
# corrector's Newton steps, and the first-step contraction and tangent turn
# (radians) at which the step length is kept.
INITIAL_STEP = 0.1
MIN_STEP = 1e-8
MAX_STEP = 1.0
MAX_CORRECTOR_STEPS = 3
NOMINAL_CONTRACTION = 0.1
NOMINAL_TURN = 0.3
# The largest lambda of the continuation that proposes best-response candidates.
HOMOTOPY_LAMBDA_MAX = 200.0
# The largest total support size of the trace's prefix-product candidates.
# Without the bound, the card games and small random games kept every
# solution set, but the K_PAIR elicitation on 12x3 card games took about 40%
# longer, in Newton solves of 13-15-action supports.
_CANDIDATE_CAP = 12
# The most entries one chunk's arrays hold: reached opponent profiles and
# counts in _dominated_actions, and the padded blocks of _linear_roots.
_MARGIN_CHUNK = 1 << 16
# Stage 2 lists at most this many times max_enum_supports support profiles.
# The whole 12x3 card game, 28,665 profiles of which 3,819 survive dismissal,
# fits under the default limit's 32,768.
_LISTING_FACTOR = 8
# The multipliers of a rejected Newton step's seven halvings, powers of two so
# that each is exactly the step halved that many times.
_HALVINGS = np.ldexp(1.0, -np.arange(1, 8))[:, None]


class SolverError(RuntimeError):
    """No start converged, or a continuation could not be completed."""


class HomotopyBreakdown(SolverError):
    def __init__(self, message: str, trace: list, last_lambda: float):
        super().__init__(message)
        self.trace = trace
        self.last_lambda = last_lambda


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the fixed-point and enumeration machinery."""

    tol_fixed_point: float = 1e-10
    # The continuation steps, accepted or rejected, one start's homotopy path
    # may take in solve_lqre and in each point of homotopy_trace.  A start
    # takes its path only when Newton, the warm-up and the retry leave it and
    # the fixed points already reached fail the index check (_solve_fixed_point).
    max_iters: int = 100_000
    multistarts: int = 16
    homotopy_steps: int = 160
    support_tol: float = SUPPORT_TOL
    seed: int = 0
    # Enumeration limit: at most max_enum_supports support profiles that
    # survive dismissal by dominance are solved, smallest total size first.
    # The listing they are drawn from stops at a fixed multiple of the limit.
    max_enum_supports: int = 4096

    def __post_init__(self):
        for name in ("max_iters", "multistarts", "homotopy_steps", "max_enum_supports", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        # Written so that NaN fails too.
        if not 0 < self.tol_fixed_point < math.inf or self.max_iters <= 0 or self.multistarts < 0:
            raise ValueError("tolerances must be positive and finite, and iteration budgets positive")
        if self.homotopy_steps < 2:
            raise ValueError("homotopy grid is too small")
        if not 0 < self.support_tol < math.inf:
            raise ValueError("support_tol must be positive and finite")
        if self.max_enum_supports < 0:
            raise ValueError("max_enum_supports must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class SolveResult:
    """Converged profiles with their fixed-point or argmax residuals."""

    profiles: list[MixedProfile]
    residuals: list[float]
    diagnostics: dict

    def __len__(self) -> int:
        return len(self.profiles)

    def to_json(self) -> dict:
        return {
            "profiles": [p.to_json() for p in self.profiles],
            "residuals": [float(r) for r in self.residuals],
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# payoff functional
# ---------------------------------------------------------------------------


# The branches of the normalized CGF that have grids, in the order of the grid sums' rows.
_BRANCHES = ("mean", "taylor", "exp")
# The work a PhiEvaluator's counts hold.
_COUNTS = ("evaluator_calls", "iterations", "newton_steps", "continuation_steps", "jacobians")
_ZERO = np.zeros(1)


def _layout(grid: np.ndarray, others: Sequence[int], j: int) -> np.ndarray:
    """A player's grids laid out for the pair (i, j): (profiles of the players other than i and j x (a, b, g)).

    grid is (grids, actions of i, *actions of each opponent), the opponents
    being others, in player order.  Column (a, b, g) is grid g at i's action
    a against j's action b, and each row one profile of the players other
    than i and j, flattened in player order, as the outer product of their
    mixes is.
    """
    rest = [2 + t for t, l in enumerate(others) if l != j]
    at_j = 2 + others.index(j)
    return grid.transpose(*rest, 1, at_j, 0).reshape(-1, grid.shape[1] * grid.shape[at_j] * len(grid))


@dataclass(frozen=True)
class _Layout:
    """Where everything of a PhiEvaluator's plan goes, for one shape of game and of grids (see _plan_layout)."""

    rows: int
    sizes: dict
    plan_from: np.ndarray
    pair_rows: dict
    coef_cols: np.ndarray
    blocks_at: np.ndarray
    group_starts: Optional[np.ndarray]
    sum_cols: np.ndarray
    sum_mixes: np.ndarray
    sum_starts: np.ndarray
    sum_plan_from: Optional[np.ndarray]
    entries: dict
    taylor_rows: np.ndarray
    taylor_gather: np.ndarray
    owner: np.ndarray
    exp_owner: np.ndarray
    complements: list
    identity: np.ndarray


@functools.lru_cache(maxsize=256)
def _plan_layout(counts: tuple[int, ...], branches: tuple[tuple[tuple[str, int], ...], ...]) -> _Layout:
    """The index arrays of PhiEvaluator's plan for games of these action counts and branch sizes.

    branches lists, per player, each branch its atoms take, in _BRANCHES
    order, with the number of its atoms, 0 for the mean, whose grid carries
    its atoms' total weight.  They fix everything but the payoffs and the
    atoms themselves (see _plan_tags):
    - owner, the player of each place in the concatenated profile, and
      identity, the (actions x actions) identity of _logit_system's Jacobians;
    - the rows of the grid sums: place[i][g, a] is the row that player i's
      grid g gives at action a, the mean rows of every player first, then
      the Taylor band's moments, then the tilts; rows of them in all,
      sizes[branch] of each branch;
    - complements, the sets of n - 2 players whose mixes' outer products
      make q, in the order q concatenates them;
    - the plan: the pairs (i, j) in player order, each pair's block of
      columns as _layout lays player i's grids out, in the rows of q that
      hold the players other than i and j (pair_rows); plan_from, shaped
      as the plan, picks each entry from the players' grids raveled and
      concatenated, or the zero after them outside the blocks;
    - coef_cols, the row of the grid sums each column of T goes with;
      group_starts, where each (a, b)'s grid rows start (None when each is
      one column); blocks_at, where each (a, b) of each pair goes in dv/dp,
      raveled;
    - the grid sums read off T: row r is T's columns sum_cols times p at
      sum_mixes, summed from sum_starts[r], against player i's first
      opponent; for two players the matrix sum_plan, (actions x rows),
      does it, its entries picked by sum_plan_from as the plan's are, and
      for one player sum_plan_from picks the sums themselves;
    - entries[branch], the places of the branch's entries in the
      concatenated actions: one entry per atom and action, player by player
      and atom by atom.  A mean entry is a mean row; a tilt entry is a tilt
      row, whose player exp_owner holds; a Taylor entry reads its action's
      three moment rows, taylor_rows (3 x entries), and the 0/1 matrix
      taylor_gather takes its three coefficients, (3 * entries), back to
      those rows.
    Cached per (counts, branches), so every statistic whose branches have
    these sizes shares the arrays; they are read-only.
    """
    n = len(counts)
    starts = list(itertools.accumulate(counts, initial=0))
    size = starts[-1]
    owner = np.repeat(np.arange(n), counts)
    # Per player and branch: (branch, grid count, atom count), a mean grid standing for one atom.
    grids = [[(b, 3 if b == "taylor" else atoms or 1, atoms or 1) for b, atoms in player] for player in branches]
    heights = [sum(g for _, g, _ in player) for player in grids]
    place = [np.empty((h, k), dtype=np.intp) for h, k in zip(heights, counts)]
    sizes, row = dict.fromkeys(_BRANCHES, 0), 0
    for name in _BRANCHES:
        for i, player in enumerate(grids):
            first = 0
            for b, g, _ in player:
                if b == name:
                    place[i][first : first + g] = np.arange(row, row + g * counts[i]).reshape(g, -1)
                    row += g * counts[i]
                    sizes[name] += g * counts[i]
                first += g
    # The plan, pair by pair, from an index grid in place of each player's grids.
    others = [[j for j in range(n) if j != i] for i in range(n)]
    offsets = list(itertools.accumulate((h * math.prod(counts) for h in heights), initial=0))
    index = [
        offsets[i] + np.arange(offsets[i + 1] - offsets[i]).reshape(h, counts[i], *(counts[j] for j in others[i]))
        for i, h in enumerate(heights)
    ]
    complements = list(itertools.combinations(range(n), max(n - 2, 0)))
    heights_q = [math.prod(counts[l] for l in rest) for rest in complements]
    tops = dict(zip(complements, itertools.accumulate(heights_q, initial=0)))
    pairs = [(i, j) for i in range(n) for j in others[i] if heights[i]]
    ends = list(itertools.accumulate(heights[i] * counts[i] * counts[j] for i, j in pairs))
    plan_shape = (sum(heights_q), ends[-1] if ends else 0)
    empty = np.zeros(0, dtype=np.intp)
    plan_at, plan_from, coef_cols, blocks_at, group_rows, reads = [empty], [empty], [empty], [empty], [empty], []
    pair_rows = {}
    for (i, j), end in zip(pairs, ends):
        block = _layout(index[i], others[i], j)
        top = tops[tuple(l for l in others[i] if l != j)]
        pair_rows[i, j] = (top, top + len(block))
        cols = end - block.shape[1] + np.arange(block.shape[1])
        plan_at.append(((top + np.arange(len(block)))[:, None] * plan_shape[1] + cols).ravel())
        plan_from.append(block.ravel())
        k_i, k_j, h = counts[i], counts[j], heights[i]
        coef_cols.append(np.broadcast_to(place[i].T[:, None, :], (k_i, k_j, h)).ravel())
        blocks_at.append(((starts[i] + np.arange(k_i))[:, None] * size + starts[j] + np.arange(k_j)).ravel())
        group_rows.append(np.full(k_i * k_j, h))
        if j == others[i][0]:  # the pair whose T the grid sums are read off
            mixes = starts[j] + np.arange(k_j)[:, None]
            reads.append((place[i].T[:, None, :], cols.reshape(k_i, k_j, h), mixes))
    # Each place of the plan picks a grid entry, or the zero after the last one.
    placed = np.full(plan_shape, offsets[-1])
    placed.ravel()[np.concatenate(plan_at)] = np.concatenate(plan_from)
    group_rows = np.concatenate(group_rows)
    rows = np.concatenate([empty, *(np.broadcast_to(r, c.shape).ravel() for r, c, _ in reads)])
    order = np.argsort(rows, kind="stable")
    sum_cols = np.concatenate([empty, *(c.ravel() for _, c, _ in reads)])[order]
    sum_mixes = np.concatenate([empty, *(np.broadcast_to(m, c.shape).ravel() for _, c, m in reads)])[order]
    sum_plan_from = None
    if n == 2:  # each row's sums as a matrix product: p @ sum_plan
        sum_plan_from = np.full((size, row), offsets[-1])
        sum_plan_from[sum_mixes, rows[order]] = placed[0, sum_cols]
    elif n == 1:  # no opponent: the sums are the grids themselves
        sum_plan_from = np.arange(row)
    # Each branch's entries: one per atom and action, player by player.
    entries, taylor_rows, taylor_gather, exp_owner = {}, np.zeros((3, 0), dtype=np.intp), np.zeros((0, 0)), empty
    for name in _BRANCHES:
        places, moments = [], []
        for i, player in enumerate(grids):
            first = 0
            for b, g, atoms in player:
                if b == name:
                    places.append(np.tile(np.arange(starts[i], starts[i + 1]), atoms))
                    moments.append(np.tile(place[i][first : first + 3], atoms))
                first += g
        if places:
            places = entries[name] = np.concatenate(places)
            if name == "taylor":
                taylor_rows = np.concatenate(moments, axis=1)
                taylor_gather = np.zeros((taylor_rows.size, sizes[name]))
                taylor_gather[np.arange(taylor_rows.size), taylor_rows.ravel() - sizes["mean"]] = 1.0
            if name == "exp":
                exp_owner = owner[places]
    layout = _Layout(
        rows=row,
        sizes=sizes,
        plan_from=placed,
        pair_rows=pair_rows,
        coef_cols=np.concatenate(coef_cols),
        blocks_at=np.concatenate(blocks_at),
        group_starts=None if (group_rows == 1).all() else np.cumsum(group_rows) - group_rows,
        sum_cols=sum_cols,
        sum_mixes=sum_mixes,
        sum_starts=np.searchsorted(rows[order], np.arange(row)),
        sum_plan_from=sum_plan_from,
        entries=entries,
        taylor_rows=taylor_rows,
        taylor_gather=taylor_gather,
        owner=owner,
        exp_owner=exp_owner,
        complements=complements,
        identity=np.eye(size),
    )
    shared = (layout.coef_cols, layout.blocks_at, layout.group_starts, layout.sum_starts, sum_plan_from, layout.identity)
    for array in (placed, sum_cols, sum_mixes, taylor_rows, taylor_gather, owner, exp_owner, *shared, *entries.values()):
        if array is not None:
            array.flags.writeable = False
    return layout


@functools.lru_cache(maxsize=256)
def _plan_tags(counts: tuple[int, ...], branches: tuple[tuple[tuple[str, tuple], ...], ...]) -> tuple[_Layout, dict]:
    """The plan's layout for games of these action counts and branches, and the atoms its entries are tagged with.

    branches is _plan_layout's, with each branch's atoms' (location,
    weight) pairs in place of their number, none for the mean.  Returns
    (layout, tags): the layout of these branches' sizes, which _plan_layout
    caches apart, so a new statistic on a known shape shares it, and
    tags[branch] = (atoms, weights, scatter), each entry's atom location
    and weight, a mean entry's being (0, 1), and a matrix (entries x
    actions) that sums the entries, weighted, into their actions.  Cached
    per (counts, branches): the arrays are shared, and read-only.
    """
    layout = _plan_layout(counts, tuple(tuple((b, len(atoms)) for b, atoms in player) for player in branches))
    tags = {}
    for name, places in layout.entries.items():
        tagged = [  # (location, weight) per entry
            pair
            for player, k in zip(branches, counts)
            for b, pairs in player
            if b == name
            for pair in pairs or ((0.0, 1.0),)
            for _ in range(k)
        ]
        atoms, weights = np.array([a for a, _ in tagged]), np.array([w for _, w in tagged])
        scatter = np.zeros((len(places), sum(counts)))
        scatter[np.arange(len(places)), places] = weights
        for array in (atoms, weights, scatter):
            array.flags.writeable = False
        tags[name] = (atoms, weights, scatter)
    return layout, tags


class PhiEvaluator:
    """Per-(game, statistic) evaluation plan: every player's action values and their derivatives from one product.

    Built once per (game, phi), for every evaluation on that pair: each
    player's table (tables), its row minima, maxima and spread, its finite
    atoms grouped by the branch of the normalized CGF they take on that
    table (statistics.cgf_branches, kept per player in self.branches), and
    the grids below, gathered into plan and sum_plan.  Only the layout's
    index arrays, which the action counts and the branch sizes fix, are
    shared between games (_plan_layout).  Each group of atoms is folded
    into fixed grids over player i's actions x each
    opponent's actions (statistics.cgf_grids): the mean branch's table times
    its total weight, the raw moments of T - lo shared by the Taylor band,
    and exp(a(T - shift)) with the pure shift for each exponential tilt.
    Player i's grids are stacked, (grids, actions of i, *actions of each
    opponent in self.others[i] order).

    The plan works on the concatenated profile p.  For each ordered pair (i,
    j) of players it lays player i's grids out with the axes of the other
    n - 2 players first (_layout), as a block of one matrix, self.plan,
    filled by one gather from every player's grids (_plan_layout keeps
    where each entry goes, per shape of game and statistic), so
    that one product q @ plan gives T_ij, player i's grids contracted with
    every mix but i's and j's, for every pair at once.  q is p itself for
    three players, and the outer products of the other n - 2 mixes,
    concatenated, for four or more; with two players T_ij is the grid
    itself, and there is no product.  Player i's grid sums are T_ij times
    p_j, summed, for its first opponent j.  The sums' rows are tagged with
    their branch, atom, weight and bounds, the mean rows of every player
    first, then the Taylor band's moments, then the tilts, so that each
    branch of every player is finished in one vectorised step
    (statistics.taylor_terms and tilt_terms, the tilts' shifts computed
    once, in the tags).  Each derivative block dv_i/dp_j is the finish's
    coefficients times T_ij, summed over the grid rows.
    What does not move with the mixes is kept read-only: pure_extremes, the
    -inf/+inf term at the pure extremes, concatenated over the players'
    actions (None without such atoms), and constant_dv, dv/dp on the
    concatenated profile when it does not move with the mixes (one player;
    two players with every finite atom in the mean branch; no finite atom),
    else None.  counts, a dict of the _COUNTS from 0, holds the work done
    with the plan, for diagnostics: "evaluator_calls", n per profile that
    values evaluated, kept by values itself, and "iterations",
    "newton_steps", "continuation_steps" and "jacobians", kept by the logit
    solver's stages (see _solve_fixed_point).
    """

    def __init__(self, game: Game, phi: MAStatistic):
        self.game = game
        self.phi = phi
        self.n = n = game.num_players
        counts = game.action_counts
        self.tables = [action_payoff_matrix(game, i) for i in range(n)]
        self.starts = starts = list(itertools.accumulate(counts, initial=0))
        self.spans = list(zip(starts[:-1], starts[1:]))  # each player's (start, end) in the concatenated profile
        # Every player's row minima and maxima, concatenated; each player's own are views of them.
        lo = np.concatenate([np.minimum.reduce(t, axis=1) for t in self.tables])
        hi = np.concatenate([np.maximum.reduce(t, axis=1) for t in self.tables])
        self.pure_min, self.pure_max = [lo[a:b] for a, b in self.spans], [hi[a:b] for a, b in self.spans]
        self.spread = np.maximum.reduceat(hi - lo, starts[:-1]).tolist()
        self.w_min = phi.weight_at(-math.inf)
        self.w_max = phi.weight_at(math.inf)
        self.kernel_atoms = [(a, w) for a, w in phi.atoms if math.isfinite(a)]
        self.others = [[j for j in range(n) if j != i] for i in range(n)]
        self.counts = dict.fromkeys(_COUNTS, 0)
        self.pure_extremes = self._extremes(lo, hi)
        if self.pure_extremes is not None:
            self.pure_extremes.flags.writeable = False
        # Every player's grids, raveled and concatenated, then a zero for the plan's empty places.
        self.branches, grids, shape = [], [], []
        for i, table in enumerate(self.tables):
            branches = cgf_branches(self.kernel_atoms, self.spread[i])
            for branch, (a, w) in branches.items():
                grids.append(cgf_grids(branch, table, a, w, self.pure_min[i], self.pure_max[i]).ravel())
            self.branches.append(branches)
            # The mean grid carries its atoms' total weight: only its branch enters the shape.
            atoms = ((b, () if b == "mean" else tuple(zip(a.tolist(), w.tolist()))) for b, (a, w) in branches.items())
            shape.append(tuple(atoms))
        layout, tags = _plan_tags(tuple(counts), tuple(shape))
        self.layout = layout
        flat = np.concatenate([*grids, _ZERO])
        self.plan = flat[layout.plan_from]
        self.sum_plan = None if layout.sum_plan_from is None else flat[layout.sum_plan_from]
        # Each branch's entries tagged with atoms, weights, what its finish reads of the row bounds and
        # scatter (see _plan_tags): nothing for the mean, lo and hi for the Taylor band, the shift for the tilts.
        self.tags = {}
        for name, (atoms, weights, scatter) in tags.items():
            places = layout.entries[name]
            if name == "mean":
                bounds = ()
            elif name == "taylor":
                bounds = (lo[places], hi[places])
            else:  # the tilts' shift: hi where a > 0, lo where a < 0
                bounds = (np.where(atoms > 0, hi[places], lo[places]),)
            self.tags[name] = (atoms, weights, *bounds, scatter)
        self.constant_dv = None
        if n == 1 or not self.plan.size or (n == 2 and layout.rows == layout.sizes["mean"]):
            self.constant_dv = self._dv(self.plan[0], np.ones(layout.rows))
            self.constant_dv.flags.writeable = False

    def _extremes(self, lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
        """The -inf/+inf atoms' term with these row minima and maxima; None without such atoms."""
        if self.w_min and self.w_max:
            return self.w_min * lo + self.w_max * hi
        if self.w_min or self.w_max:
            return self.w_min * lo if self.w_min else self.w_max * hi
        return None

    def _complements(self, p: np.ndarray) -> Optional[np.ndarray]:
        """q, what the plan is multiplied by: None for two players or one, p for three, else the outer products."""
        if self.n < 3:
            return None
        if self.n == 3:
            return p
        parts = []
        for rest in self.layout.complements:
            outer = p[..., self.starts[rest[0]] : self.starts[rest[0] + 1]]
            for l in rest[1:]:  # the width is spelled out: a stack of no profiles leaves none to infer
                mix = p[..., self.starts[l] : self.starts[l + 1]]
                outer = (outer[..., :, None] * mix[..., None, :]).reshape(*p.shape[:-1], outer.shape[-1] * mix.shape[-1])
            parts.append(outer)
        return np.concatenate(parts, axis=-1)

    def values(self, p: np.ndarray, boundary_pure: bool = True, grad: bool = False):
        """Every player's action values at the concatenated profile p, concatenated likewise.

        p is one profile, (actions,), or a stack of them, (B x actions), one
        row per profile; the values come in its shape, and
        counts["evaluator_calls"] counts n per profile.
        boundary_pure=True evaluates the -inf/+inf atoms as pure-strategy
        min/max over all opponent profiles (the continuous logit functional);
        False restricts them to the support actually reached, i.e. the raw
        statistic of the realized lottery, player by player where an
        opponent leaves an action unplayed.  One product q @ plan gives every
        T_ij (see the class), the grid sums are read off them, and the
        mean rows, the Taylor band and the tilts are each finished for every
        player and profile at once.  Where some tilt's total underflowed at
        the pure shift, that player's tilts are finished for that profile
        alone by _reshift, atom by atom by normalized_cgf, which re-shifts to
        the reached support.
        grad=True returns (values, jacobian).  jacobian(rows=None) gives
        dv/dp for the given rows of the stack (all of them by default),
        (rows x actions x actions), or for one profile (actions x actions):
        player i's derivatives in row block i and column block j, exact along
        every direction that keeps j's mix on the simplex, and zero in the
        diagonal blocks.  Block (i, j) is the finish's coefficients times
        T_ij, summed over the grid rows, so a caller that never calls
        jacobian pays for the values only.  When dv/dp does not move with
        the mixes, jacobian() returns the plan's own read-only constant_dv,
        without a batch axis.  The -inf/+inf atoms add nothing to dv/dp in
        either mode, as the reached support is constant wherever the weights
        stay positive.
        """
        stack = p.ndim > 1
        self.counts["evaluator_calls"] += self.n * (len(p) if stack else 1)
        q = self._complements(p)
        pair_sums = self.plan[0] if q is None else q @ self.plan
        out = self.pure_extremes
        if out is not None and not boundary_pure:
            out = self._reached(p, out)
        if out is not None and stack and out.ndim == 1:
            out = np.broadcast_to(out, p.shape)
        coefs, underflowed = [], []
        layout = self.layout
        sums = self._grid_sums(p, pair_sums)
        mean, taylor = layout.sizes["mean"], layout.sizes["mean"] + layout.sizes["taylor"]
        if mean:
            *_, scatter = self.tags["mean"]
            value = sums[..., :mean] @ scatter
            out = value if out is None else out + value
            if grad:  # a mean row's value is its sum
                coefs.append(np.ones(value.shape[:-1] + (mean,)))
        if taylor > mean:
            atoms, weights, lo, hi, scatter = self.tags["taylor"]
            moments = np.moveaxis(sums[..., layout.taylor_rows], -2, 0)
            finished = taylor_terms(moments, atoms, lo, hi, grad)
            value, coef = finished if grad else (finished, None)
            out = value @ scatter if out is None else out + value @ scatter
            if grad:
                coefs.append(np.moveaxis(coef * weights, 0, -2).reshape(*p.shape[:-1], -1) @ layout.taylor_gather)
        if layout.rows > taylor:
            value, coef, underflowed = self._tilts(p, sums[..., taylor:], grad)
            out = value if out is None else out + value
            if grad:
                coefs.append(coef)
        if underflowed:
            out = np.array(out)
            for at, i, v, _ in underflowed:
                out[at][self.starts[i] : self.starts[i + 1]] += v
        if not grad:
            return out
        if self.constant_dv is not None:
            return out, lambda rows=None: self.constant_dv
        coefs = np.concatenate(coefs, axis=-1)

        def jacobian(rows=None) -> np.ndarray:
            if rows is None:
                dv = self._dv(pair_sums, coefs)
                picked = {at: at for at, *_ in underflowed}
            else:
                dv = self._dv(pair_sums if q is None else pair_sums[rows], coefs[rows])
                picked = {(r,): (t,) for t, r in enumerate(rows.tolist())}
            for at, i, _, slope in underflowed:
                if at in picked:
                    self._add_blocks(dv[picked[at]], i, slope, None if q is None else q[at])
            return dv

        return out, jacobian

    def _grid_sums(self, p: np.ndarray, pair_sums: np.ndarray) -> np.ndarray:
        """Every player's grid sums, (... x rows): T_ij times p_j, summed, for player i's first opponent j."""
        layout = self.layout
        if self.n == 2:
            return p @ self.sum_plan
        if self.n == 1:
            return np.broadcast_to(self.sum_plan, (*p.shape[:-1], layout.rows))
        terms = pair_sums[..., layout.sum_cols] * p[..., layout.sum_mixes]
        return np.add.reduceat(terms, layout.sum_starts, axis=-1) if layout.rows else terms

    def _tilts(self, p: np.ndarray, totals: np.ndarray, grad: bool):
        """The tilts' part of the values, with their coefficients, and the profiles finished alone.

        totals holds the tilt rows of the grid sums.  Returns (values,
        coefficients or None, underflowed), where underflowed lists, for
        each profile and player whose tilts underflowed, (place in the
        stack, player, its tilts' values, their slope grid or None); those
        players' rows add nothing to the values or coefficients returned.
        """
        atoms, weights, shift, scatter = self.tags["exp"]
        underflowed, dropped = [], None
        if np.fmin.reduce(totals, axis=None, initial=math.inf) < MIN_TOTAL:  # fmin passes over NaN
            low, dropped = totals < MIN_TOTAL, np.zeros(totals.shape, dtype=bool)
            owner = self.layout.exp_owner
            for *at, i in sorted({(*place[:-1], int(owner[place[-1]])) for place in np.argwhere(low).tolist()}):
                at = tuple(at)
                dropped[at][owner == i] = True
                underflowed.append((at, i, *self._reshift(i, p[at], grad)))
            totals = np.where(dropped, 1.0, totals)
        finished = tilt_terms(totals, atoms, shift, grad)
        value, coef = finished if grad else (finished, None)
        if dropped is not None:
            value = np.where(dropped, 0.0, value)
            coef = None if coef is None else np.where(dropped, 0.0, coef)
        return value @ scatter, None if coef is None else coef * weights, underflowed

    def _reshift(self, i: int, p: np.ndarray, grad: bool):
        """Player i's tilts finished for one profile alone, atom by atom by normalized_cgf.

        normalized_cgf re-shifts an atom whose terms underflowed to the
        support the profile p reaches.  Returns (their weighted values, and
        with grad their slope grid, (actions of i, *opponent actions), else
        None).
        """
        a, w = self.branches[i]["exp"]
        joint = opponent_weights([p[s:e] for s, e in self.spans], i)
        lo, hi, spread = self.pure_min[i], self.pure_max[i], self.spread[i]
        parts = [normalized_cgf(self.tables[i], joint, at, lo, hi, spread, grad) for at in a.tolist()]
        if not grad:
            return w @ np.array(parts), None
        shape = (len(lo), *(self.game.action_counts[j] for j in self.others[i]))
        slope = sum(wt * s.reshape(shape) for wt, (_, s) in zip(w.tolist(), parts))
        return w @ np.array([v for v, _ in parts]), slope

    def _reached(self, p: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The -inf/+inf term, over the payoffs reached for each player whose opponents leave an action unplayed."""
        unplayed = np.logical_or.reduceat(~(p > 0), self.starts[:-1], axis=-1)
        fixed = None
        for *at, i in np.argwhere(unplayed.sum(axis=-1, keepdims=True) > unplayed).tolist():
            at = tuple(at)
            joint = opponent_weights([p[at][s:e] for s, e in self.spans], i)
            reached = self.tables[i][:, joint > 0]
            fixed = np.array(np.broadcast_to(out, p.shape)) if fixed is None else fixed
            fixed[at][self.starts[i] : self.starts[i + 1]] = self._extremes(reached.min(axis=1), reached.max(axis=1))
        return out if fixed is None else fixed

    def _dv(self, pair_sums: np.ndarray, coefs: np.ndarray) -> np.ndarray:
        """dv/dp from T and the finish's coefficients on the grid sums' rows, for one profile or a stack."""
        layout = self.layout
        weighted = pair_sums * coefs[..., layout.coef_cols]
        if layout.group_starts is not None:  # several grid rows per (a, b): sum them
            weighted = np.add.reduceat(weighted, layout.group_starts, axis=-1)
        size = self.starts[-1]
        dv = np.zeros((*weighted.shape[:-1], size * size))
        dv[..., layout.blocks_at] = weighted
        return dv.reshape(*weighted.shape[:-1], size, size)

    def _add_blocks(self, dv: np.ndarray, i: int, slope: np.ndarray, q: Optional[np.ndarray]) -> None:
        """Add to one profile's dv/dp player i's blocks from a slope grid, laid out and contracted as the plan is."""
        rows = slice(self.starts[i], self.starts[i + 1])
        for j in self.others[i]:
            top, bottom = self.layout.pair_rows[i, j]
            laid = _layout(slope[None], self.others[i], j)
            block = laid[0] if q is None else q[top:bottom] @ laid
            dv[rows, self.starts[j] : self.starts[j + 1]] += block.reshape(len(slope), -1)


def _logit(values: np.ndarray, lam: float, starts: Sequence[int], owner: np.ndarray) -> np.ndarray:
    """Each player's logit response to its action values, concatenated.

    starts are a PhiEvaluator's, and owner its layout's.  One softmax runs
    over the concatenated values: each player's max by np.maximum.reduceat,
    each player's total by its own sum (np.add.reduceat rounds differently
    on slices of three or more).  A stack of values, (B x actions), gives a
    stack of responses; it is worked on transposed, one column per
    profile, so that both take the same indexing.
    """
    stack = values.ndim > 1
    z = lam * (values.T if stack else values)
    z -= np.maximum.reduceat(z, starts[:-1])[owner]
    e = np.exp(z)
    s = e / np.array([np.add.reduce(e[a:b], axis=0) for a, b in zip(starts[:-1], starts[1:])])[owner]
    return s.T if stack else s


def _profile(evaluator: PhiEvaluator, point: np.ndarray) -> MixedProfile:
    """The MixedProfile of one concatenated profile, each player's mix sliced off by the evaluator's spans."""
    return MixedProfile(tuple(point[a:b] for a, b in evaluator.spans))


def logit_response(game: Game, phi: MAStatistic, lam: float, p: MixedProfile) -> MixedProfile:
    """One application of the logit better-response operator (totally mixed output)."""
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be finite and nonnegative")
    if not p.matches(game):
        raise ValueError("profile does not match the game")
    evaluator = PhiEvaluator(game, phi)
    values = evaluator.values(np.concatenate(p.distributions))
    return _profile(evaluator, _logit(values, lam, evaluator.starts, evaluator.layout.owner))


def verify_lqre(game: Game, phi: MAStatistic, lam: float, p: MixedProfile) -> float:
    """Sup-norm fixed-point residual of p under the logit response operator."""
    response = logit_response(game, phi, lam, p)
    return p.sup_distance(response)


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------


def _cut(p: np.ndarray, starts: Sequence[int]) -> np.ndarray:
    """p with each player's negative weights cut to zero and that player's mix renormalized.

    p is one concatenated profile, (actions,), or a stack of them, (B x
    actions); starts are where each player's mix starts in it.  Returns p
    itself when no weight is negative, else a copy in which each row with a
    negative weight is cut alone, mix by mix, so every row equals its own
    cut, bit for bit.  A mix whose weights sum to one keeps a total of at
    least one after the cut.
    """
    if not p.min(initial=0.0) < 0.0:
        return p
    cut = np.array(p)
    rows = np.atleast_2d(cut)  # a view of cut
    for r in np.flatnonzero(rows.min(axis=1) < 0.0).tolist():
        for a, b in zip(starts[:-1], starts[1:]):
            vec = rows[r, a:b]
            if vec.min() < 0.0:
                np.maximum(vec, 0.0, out=vec)
                vec /= vec.sum()
    return cut


def _newton(
    system: Callable[[np.ndarray], tuple[np.ndarray, Callable]],
    theta: np.ndarray,
    tol: float,
    max_steps: int,
):
    """Backtracking Newton on f(theta) = 0 with an exact Jacobian, from one start or a stack of them.

    theta is one start, (n,), or a stack of starts, (B x n) or a list of
    (n,), run in lockstep.  system(theta) at one point returns f(theta) and
    a function that gives the Jacobian at theta from what evaluating f
    computed.  A system given a stack must also take a stack of points,
    (b x n), and return f at each, (b x n), and a function jacobian(rows)
    that gives the Jacobians of the given rows of that stack, (len(rows) x
    n x n), or of all of them for rows=None; a lone point is always
    evaluated as one point, as the unstacked kernels cost less.  A
    Jacobian is built only where a step starts.  Every row keeps its own
    step, halvings and stop, so it follows the trajectory it follows alone;
    a row leaves the stack when it converges, stalls or uses up its
    max_steps rounds.  Each pass evaluates the trial points of every row
    still stepping by one system call, builds the Jacobians of the rows
    that start a step there by one jacobian call and solves them by one
    _linear_step.  The rows are kept as lists of points, so a row that
    moves is rebound, never written in place.
    Returns (theta, sup |f(theta)|, steps taken): for a stack, three lists
    with one entry per start.  The stop test and step acceptance use that
    sup norm of f, the residual returned.
    Every system has as many equations as unknowns, so every Jacobian is
    square.  Steps solve the linearisation: exactly when the Jacobian is
    nonsingular, and in the least-squares sense when a solve finds it
    singular.  They are capped at 0.5 in the sup norm, and a step is taken
    only if it lowers the residual, halving it up to seven times: far from
    a root a full step can overshoot into the region where a weight is cut.
    Both pay on criterion 03's 600 logit solves (two Dirichlet starts
    each): with the full step kept only when it lowers the residual, they
    find 610 fixed points instead of 625, and the starts that reach their
    homotopy paths take 838 continuation steps instead of 268; with every
    full step kept, 618 and 470, and 8,613 Newton steps on p - T(p) instead
    of 5,851 (counted before the index check of _solve_fixed_point kept
    most of those starts off their paths).
    A stack's halvings are evaluated together: a row whose full step is
    rejected has all seven of its halvings evaluated by the next pass's
    system call, beside the other rows' trial points, and takes the first
    that lowers its residual, the point that trying them one at a time
    takes.  A stall then costs two calls instead of eight, and the halvings
    past the one taken are evaluated for nothing.  One start, (n,), still
    tries one halving at a time, as _solve_supports and _bordered_newton
    pass: their systems take one point only.
    """
    single = isinstance(theta, np.ndarray) and theta.ndim == 1
    points = [theta] if single else list(theta)  # each row's accepted point, replaced as it moves
    count = len(points)
    steps, rounds, halvings = [0] * count, [0] * count, [0] * count
    res, f, step = [math.inf] * count, [None] * count, [None] * count  # each row's f and step there
    # Each pass evaluates the trial points of the rows in `pending`, the starts at first, and
    # then the halvings of the rows in `halving`, seven points each.
    pending, cand, first, halving = list(range(count)), points, True, []
    while pending or halving:
        if halving:
            cand = cand + [x for r in halving for x in points[r] + _HALVINGS * step[r]]
        if len(cand) == 1:  # a lone point: the unstacked kernels cost less
            f_one, jacobian = system(cand[0])
            f_cand, res_cand = [f_one], [float(np.abs(f_one).max(initial=0.0))]
            jacobians = lambda places, jacobian=jacobian: jacobian()[None]
        else:
            f_stack, jacobian = system(np.array(cand))
            f_cand, res_cand = list(f_stack), np.abs(f_stack).max(axis=1, initial=0.0).tolist()
            jacobians = lambda places, jacobian=jacobian, size=len(cand): jacobian(
                None if len(places) == size else np.array(places)
            )
        tried = enumerate(pending)  # (place in the stack, row) of each trial point to accept or reject
        if halving:  # each row offers its first halving that lowers its residual; with none, it stalls
            tried, q = list(tried), len(pending)
            for r in halving:
                h = next((h for h in range(7) if res_cand[q + h] < res[r]), None)
                if h is not None:
                    tried.append((q + h, r))
                q += 7
        starting, rows, following, halving = [], [], [], []  # places and rows that start a step
        for q, r in tried:
            if first or res_cand[q] < res[r]:
                points[r], f[r], res[r] = cand[q], f_cand[q], res_cand[q]
                steps[r] += not first
                # A new point starts a step unless it has converged or its rounds are used up.
                if not res[r] <= tol and rounds[r] < max_steps:
                    starting.append(q)
                    rows.append(r)
            elif single:
                halvings[r] += 1
                if halvings[r] < 8:  # else no halving lowered this row's residual
                    step[r] = 0.5 * step[r]
                    following.append(r)
            else:  # a full step, rejected: the next pass tries all its halvings
                halving.append(r)
        first = False
        if starting:
            jac = jacobians(starting)
            for r in rows:
                rounds[r] += 1
            new = _linear_step(jac, -np.array([f[r] for r in rows]))
            for q, norm in enumerate(np.abs(new).max(axis=1).tolist()):
                if not 0.0 < norm < math.inf:  # NaN fails the test too
                    continue
                step[rows[q]] = new[q] * (0.5 / norm) if norm > 0.5 else new[q]
                halvings[rows[q]] = 0
                following.append(rows[q])
        pending = sorted(following)
        cand = [points[r] + step[r] for r in pending]
    if single:
        return points[0], res[0], steps[0]
    return points, res, steps


def _linear_step(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The solution of jac @ step = rhs for each row of a stack, jac (b x n x n), square, and rhs (b x n).

    The whole stack takes one LU solve, kept when it succeeds and jac and
    rhs are all finite.  Otherwise a row whose jac or rhs is not all finite
    gets a NaN step without a LAPACK call: LAPACK's least squares would
    print its complaint about the NaN to standard output.  Each other row
    is solved alone: by LU, unless it is the lone row whose LU just failed,
    so that it is factorised once; in the least-squares sense when its jac
    is singular; and as NaN when least squares fails too.  A row's LU step
    is the same bit for bit whether it is solved alone or in the stack.
    """
    try:
        step = np.linalg.solve(jac, rhs[..., None])[..., 0]
        if np.isfinite(jac).all() and np.isfinite(rhs).all():
            return step
    except np.linalg.LinAlgError:
        pass  # some row is singular, or not finite
    step = np.full(rhs.shape, np.nan)
    for r in np.flatnonzero(np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)).tolist():
        if len(jac) > 1:
            try:
                step[r] = np.linalg.solve(jac[r], rhs[r])
                continue
            except np.linalg.LinAlgError:  # singular
                pass
        try:
            step[r] = np.linalg.lstsq(jac[r], rhs[r], rcond=None)[0]
        except np.linalg.LinAlgError:
            step[r] = np.nan
    return step


def _logit_system(evaluator: PhiEvaluator, lam: float):
    """f(p) = p - T(p^), the fixed-point residual on the concatenated profile p, with its exact Jacobian.

    p^ is p with negative weights cut (_cut), and T the logit response.
    The profile is evaluated once: one values call at p^ gives every
    player's values, concatenated, and their dv/dp, and _logit runs over
    them.  Player i's response s = logit(lam v_i) moves with opponent j's
    mix by lam (diag s - s s^T) dv_i/dd_j; its own mix does not enter it.
    The Jacobian is I - dT/dp, (actions x actions).  Each player's response
    sums to one, so 1_i^T dT/dp = 0 and 1_i^T f = sum(p_i) - 1 is linear:
    a Newton step from a point whose mixes sum to one keeps them there, up
    to rounding, and on the simplex product it equals the step on the
    chart of each player's free weights, whose Jacobian has the same
    determinant.  The residual is p - T(p^), not p^ - T(p^), so that this
    holds where a weight is cut too.  The evaluator's counts["jacobians"]
    counts the Jacobians built.
    The system takes one point, (actions,), or a stack of them, (B x
    actions), as _newton does.  A stack is cut row by row, evaluated by one
    values call and one softmax, and its jacobian(rows=None) builds the
    Jacobians of the given rows (all by default) together, (rows x actions
    x actions), counting one per row.
    """
    starts, owner, identity = evaluator.starts, evaluator.layout.owner, evaluator.layout.identity

    def system(p: np.ndarray):
        v, dv_dp = evaluator.values(_cut(p, starts), boundary_pure=True, grad=True)
        s = _logit(v, lam, starts, owner)

        def jacobian(rows=None) -> np.ndarray:
            dv = dv_dp(rows)
            sc = (s if rows is None else s[rows])[..., :, None]
            evaluator.counts["jacobians"] += len(sc) if p.ndim > 1 else 1
            weighted = sc * dv
            mean = np.add.reduceat(weighted, starts[:-1], axis=-2)  # s_i @ dv_i, one row per player
            return identity - lam * (weighted - sc * mean[..., owner, :])

        return p - s, jacobian

    return system


def _newton_polish(
    evaluator: PhiEvaluator,
    lam: float,
    points: np.ndarray,
    tol: float,
    max_steps: int = 40,
) -> tuple[np.ndarray, list[float]]:
    """Newton iteration on f(p) = p - T(p^) = 0 from a stack of profiles in lockstep; works at unstable fixed points too.

    points is (B x actions), one concatenated profile per row, and runs as
    one stack through _newton on _logit_system, which stops a row at
    sup |f| <= tol.  Returns (p^, sup |f|): each row's p with negative
    weights cut, (B x actions), and its residual, one per row; the Newton
    steps taken are counted in the evaluator's counts["newton_steps"] and
    the Jacobians built in its counts["jacobians"] (see _logit_system).
    """
    points, res, steps = _newton(_logit_system(evaluator, lam), points, tol, max_steps)
    evaluator.counts["newton_steps"] += sum(steps)
    return _cut(np.array(points), evaluator.starts), res


def _continue(
    system: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
    y0: np.ndarray,
    t_end: float,
    max_steps: int,
    tol: float,
    visit: Optional[Callable[[np.ndarray], bool]] = None,
) -> tuple[np.ndarray, bool, int]:
    """Pseudo-arclength continuation of the zero set of H: R^(n+1) -> R^n from y0 up to t = t_end.

    y's last coordinate is the parameter t, and t_end lies above y0's.
    system(y) returns H(y) and a function giving its n x (n+1) Jacobian, as
    for _newton; y0 is a zero of H.
    Each step, after Allgower & Georg, Introduction to Numerical Continuation
    Methods (SIAM, 2003), ch. 6:
    - predictor: a step of length h along the unit tangent, the null vector of
      the Jacobian (see _tangent), oriented as at y0, where t increases;
    - corrector: _newton on H = 0 bordered by the hyperplane through the
      predicted point normal to the tangent, to tol in the sup norm;
    - step length: h shrinks or grows with the contraction of the corrector's
      first step and the turn of the tangent.  A step is rejected and retried
      at h / 2 when its corrector fails, contracts too slowly or turns too
      far, or when the tangent turns by a right angle or more: the corrector
      then landed on another stretch of path, or on this one the wrong way.
    The step that crosses t_end is corrected with t held at t_end instead.
    At every accepted point, visit(y), when given, may end the path by
    returning True.  Returns (last accepted point, ended, accepted steps):
    ended is True when the path reached t_end or visit ended it, and False
    when max_steps predictor-corrector steps, accepted or rejected, ran out or
    h fell below MIN_STEP.  The path may turn back in t at a fold.
    """
    y = np.asarray(y0, dtype=float)
    _, jacobian = system(y)
    tangent = _tangent(jacobian())
    orientation = 1.0 if tangent[-1] >= 0 else -1.0
    tangent = orientation * tangent
    h = INITIAL_STEP
    accepted = 0
    for _ in range(max_steps):
        if h < MIN_STEP:
            break
        pred = y + h * tangent
        crossing = pred[-1] >= t_end
        if crossing:
            # Land on t = t_end: start from where the predictor line meets it.
            pred = y + ((t_end - y[-1]) / tangent[-1]) * tangent
            border = np.zeros_like(y)
            border[-1] = 1.0
        else:
            border = tangent
        z, ok, kappa, jac_z = _bordered_newton(system, pred, border, tol)
        if not ok:
            h *= 0.5
            continue
        new_tangent = orientation * _tangent(jac_z)
        cos_turn = float(np.clip(tangent @ new_tangent, -1.0, 1.0))
        factor = max(math.sqrt(kappa / NOMINAL_CONTRACTION), math.acos(cos_turn) / NOMINAL_TURN)
        if cos_turn <= 0 or (factor > 2.0 and not crossing):
            h *= 0.5
            continue
        y, tangent = z, new_tangent
        accepted += 1
        stop = visit is not None and visit(y)
        if stop or crossing:
            return y, True, accepted
        h = min(h / max(factor, 0.5), MAX_STEP)
    return y, False, accepted


def _tangent(jac: np.ndarray) -> np.ndarray:
    """The unit null vector t of an n x (n+1) Jacobian, signed so that det([jac; t]) > 0.

    It comes from a complete QR factorisation of the transpose.  The sign of
    that determinant is the same all along a regular path, folds included,
    so it keeps the path's orientation from step to step.
    """
    q, _ = np.linalg.qr(jac.T, mode="complete")
    tangent = q[:, -1]
    return -tangent if np.linalg.det(np.vstack([jac, tangent])) < 0 else tangent


def _bordered_newton(system, pred: np.ndarray, border: np.ndarray, tol: float):
    """_newton from pred on H(z) = 0 and border . (z - pred) = 0.

    Returns (z, converged, contraction, H's Jacobian at z).  The contraction
    is the sup-norm residual after the first Newton step over the residual at
    pred (0 when pred already meets tol).
    """
    trail = []  # the residual at each point where _newton takes a step
    last = {}  # the point evaluated last, which is z when _newton converges

    def bordered(z: np.ndarray):
        f, jacobian = system(z)
        g = np.concatenate((f, [border @ (z - pred)]))
        last["z"], last["jacobian"] = z, jacobian

        def jac() -> np.ndarray:
            trail.append(float(abs(g).max()))
            return np.concatenate((jacobian(), border[None]))

        return g, jac

    z, res, _ = _newton(bordered, pred, tol, MAX_CORRECTOR_STEPS)
    if not res <= tol:
        return z, False, math.inf, None
    contraction = (trail[1] if len(trail) > 1 else res) / trail[0] if trail else 0.0
    jacobian = last["jacobian"] if last["z"] is z else system(z)[1]
    return z, True, contraction, jacobian()


def _fixed_point_homotopy(evaluator: PhiEvaluator, lam: float, p0: np.ndarray):
    """The fixed-point homotopy on the concatenated profile, with its exact Jacobian.

    H(p, t) = (1 - t)(p - p0) + t f(p), where f(p) = p - T(p^) is
    _logit_system's residual, whose Jacobians the evaluator counts.  Its
    Jacobian is [(1 - t)I + tJ | f - (p - p0)], J being f's.  Each
    player's block of H sums to sum(p_i) - 1, as f's does, so a path from
    p0 on the simplex product stays on it.
    """
    logit = _logit_system(evaluator, lam)

    def system(y: np.ndarray):
        p, t = y[:-1], y[-1]
        f, jacobian = logit(p)
        shift = p - p0

        def jac() -> np.ndarray:
            block = t * jacobian()
            block.flat[:: len(block) + 1] += 1.0 - t  # the diagonal
            return np.column_stack([block, f - shift])

        return (1.0 - t) * shift + t * f, jac

    return system


def _solve_fixed_point(
    evaluator: PhiEvaluator,
    lam: float,
    starts: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, list[float]]:
    """Fixed points of the logit response reached from a stack of starts, (starts x actions), lam > 0.

    Returns (points, residuals): each start's point, (starts x actions),
    and its sup-norm residual |p - T(p^)|; a start has converged exactly
    when its residual is within cfg.tol_fixed_point, and one that has not
    keeps its best damped iterate.  The work is counted
    in the evaluator's counts: the damped steps in "iterations", the Newton
    steps on p - T(p) in "newton_steps", the path's accepted steps in
    "continuation_steps" and the Jacobians of p - T(p) built in
    "jacobians", beside the profiles evaluated in "evaluator_calls".  Each
    stage runs only for the starts that the one before leaves unconverged:
    1. Newton from the start (12 steps), every start in lockstep: one
       _newton_polish on the stack of starts, so each round of it evaluates
       all the starts still stepping by one values call.  Unstable
       fixed points trap damped iteration in limit cycles but are reachable
       for Newton from nearby.
    2. WARM_UP damped steps at DAMPING from where Newton left each start
       (from the start itself where Newton's residual is not finite), then
       Newton from each start's best iterate, the starts in lockstep
       again: one _warm_up and one _newton_polish on the stack of starts
       left.  A few damped steps carry most starts into Newton's basin.
    3. The start's fixed-point homotopy path (Chow, Mallet-Paret & Yorke,
       Math. Comp. 32, 1978), one start at a time: the zeros of
       H(p, t) = (1 - t)(p - p0) + t(p - T(p)) through (p0, 0), p0 being
       the start, followed by _continue towards t = 1
       in at most cfg.max_iters steps.  At a zero, p is a convex mix of the
       start and T(p), both interior, so the path stays inside the simplex
       product, and for almost every start it reaches t = 1.  Newton on
       p - T(p) finishes from where the path ends, if that is at
       t >= END_GAME: the corrector stops at CORRECTOR_TOL, and near
       weights of ~1e-8 a corrector step that cuts a weight could stall it
       short of t = 1.
       Stage 3 runs only when the fixed points stages 1 and 2 reached fail to
       certify the solve: no start has converged, or _index_sum over the
       distinct converged points (the rows _dedup keeps) is None or not 1.
       A sum other than 1 proves that a fixed point is missing; a sum of 1
       certifies nothing, but then the stuck starts are left unconverged,
       with their best damped iterates.  The check costs one stacked
       evaluation and one Jacobian per point, counted like any other, and
       is made only when some start is left after stage 2.
    Each start's outcome through stage 2 is the one it reaches when solved
    alone; whether a start left after stage 2 takes its path depends on
    the others.  The evaluator counts every profile evaluated, the
    halvings of a rejected Newton step that _newton evaluates together
    included, past the one taken too; its counts add up over calls, so a
    caller that solves on one evaluator more than once reads the total.
    """
    tol = cfg.tol_fixed_point
    points, res = _newton_polish(evaluator, lam, starts, tol, max_steps=12)
    left = [r for r, x in enumerate(res) if not x <= tol]
    if not left:
        return points, res
    froms = np.array([points[r] if res[r] < math.inf else starts[r] for r in left])
    points[left], warmed = _warm_up(evaluator, lam, froms, tol)
    for r, x in zip(left, warmed):
        res[r] = x
    left = [r for r in left if not res[r] <= tol]
    if left:
        polished, retried = _newton_polish(evaluator, lam, points[left], tol)
        for q, r in enumerate(left):
            if retried[q] <= tol:
                points[r], res[r] = polished[q], retried[q]
        left = [r for r in left if not res[r] <= tol]
    if left:
        found = points[[r for r, x in enumerate(res) if x <= tol]]
        if not len(found) or _index_sum(evaluator, lam, found[_dedup(found)]) != 1:
            for r in left:
                points[r], res[r] = _finish_start(evaluator, lam, starts[r], points[r], res[r], cfg)
    return points, res


def _index_sum(evaluator: PhiEvaluator, lam: float, points: np.ndarray) -> Optional[int]:
    """The sum of the indices sign det(I - dT/dp) over distinct fixed points, (B x actions), or None.

    I - dT/dp is _logit_system's Jacobian, built for the whole stack from one
    stacked evaluation and counted in the evaluator's counts; its
    determinant equals the simplex chart's (test_determinant_is_the_charts).
    T maps the product of simplices into its interior, so at regular fixed
    points the indices of all of them sum to +1 (McKelvey & Palfrey, GEB 10,
    1995; Demichelis & Germano, JET 94, 2000): a sum other than 1 over the
    points given proves that some fixed point is not among them, while a sum
    of 1 proves nothing.  None when some point's |det| is below REGULAR_DET,
    as the index of a point that is not regular is not read off its sign.
    """
    det = np.linalg.det(_logit_system(evaluator, lam)(points)[1]())
    return int(np.sign(det).sum()) if (np.abs(det) >= REGULAR_DET).all() else None


def _warm_up(
    evaluator: PhiEvaluator,
    lam: float,
    points: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, list[float]]:
    """WARM_UP damped steps at DAMPING from a stack of profiles, (B x actions), in lockstep.

    Each step evaluates the logit response of every row still stepping by
    one values call and one softmax; a lone row is evaluated as one
    profile, not as a stack of one.
    A row stops at its first iterate within tol of its response.
    Returns each row's best iterate, the one of least sup-norm residual
    |p - T(p)|, (B x actions), and that residual; the steps taken are
    counted in the evaluator's counts["iterations"].
    """
    starts, owner = evaluator.starts, evaluator.layout.owner
    points = np.array(points)  # each row's iterate
    best, best_res = points.copy(), [math.inf] * len(points)
    live = list(range(len(points)))
    for _ in range(WARM_UP):
        if not live:
            break
        evaluator.counts["iterations"] += len(live)
        p = points[live]
        t = _logit(evaluator.values(p if len(live) > 1 else p[0]), lam, starts, owner)
        res = np.abs(p - t).max(axis=1).tolist()
        damped = (1 - DAMPING) * p + DAMPING * t
        stepping = []
        for q, r in enumerate(live):
            if res[q] < best_res[r]:
                best[r], best_res[r] = p[q], res[q]
            if not res[q] <= tol:
                points[r] = damped[q]
                stepping.append(r)
        live = stepping
    return best, best_res


def _finish_start(
    evaluator: PhiEvaluator,
    lam: float,
    start: np.ndarray,
    point: np.ndarray,
    res: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, float]:
    """Stage 3 of _solve_fixed_point for one start, whose best point so far, point, has residual res.

    _solve_fixed_point calls it only for a start that stages 1 and 2 leave,
    and only when no start has converged or the converged starts' distinct
    fixed points fail the index check (_index_sum is None or not 1).
    Returns Newton's point and residual from the end of the start's path
    when they are within tol, else (point, res).
    """
    tol = cfg.tol_fixed_point
    # The path cannot come back to t = 0, where H's only zero is the start, so
    # reaching t < 0 means the corrector jumped to another path: give up.
    y, _, accepted = _continue(
        _fixed_point_homotopy(evaluator, lam, start),
        np.append(start, 0.0),
        1.0,
        cfg.max_iters,
        CORRECTOR_TOL,
        visit=lambda y: y[-1] < 0.0,
    )
    evaluator.counts["continuation_steps"] += accepted
    if y[-1] >= END_GAME:
        [end], [end_res] = _newton_polish(evaluator, lam, y[None, :-1], tol)
        if end_res <= tol:
            return end, end_res
    return point, res


@functools.lru_cache(maxsize=64)
def _interior_starts(counts: tuple[int, ...], seed: int, multistarts: int) -> np.ndarray:
    """The uniform start and multistarts Dirichlet starts drawn from seed, as concatenated profiles, (starts x actions).

    Cached per (counts, seed, multistarts), so the array is shared, and
    read-only.
    """
    starts = [np.concatenate([np.full(k, 1.0 / k) for k in counts])]
    if multistarts:  # a lone start draws nothing, so it builds no generator
        rng = np.random.default_rng(seed)
        starts.extend(np.concatenate([rng.dirichlet(np.ones(k)) for k in counts]) for _ in range(multistarts))
    starts = np.array(starts)
    starts.flags.writeable = False
    return starts


def _dedup(points: np.ndarray) -> list[int]:
    """The places of the rows of points, concatenated profiles, kept, in the order of those rows rounded to 9 decimals.

    A row is kept unless it is within DEDUP_TOL of one kept before it.
    """
    if len(points) < 2:  # nothing to compare
        return list(range(len(points)))
    kept: list[int] = []
    for r in np.lexsort(np.round(points, 9).T[::-1]).tolist():
        if not kept or (np.abs(points[kept] - points[r]).max(axis=1) > DEDUP_TOL).all():
            kept.append(r)
    return kept


def solve_lqre(game: Game, phi: MAStatistic, lam: float, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """The logit fixed points reached from the uniform start and cfg.multistarts Dirichlet starts.

    The starts, drawn from cfg.seed, each run Newton on the concatenated
    profile (see _logit_system), then WARM_UP damped steps and a Newton
    retry.  The starts these leave follow their fixed-point homotopy path
    (see _solve_fixed_point) only when no start has converged or the
    distinct fixed points reached fail the index check: some is not
    regular (|det(I - dT/dp)| < REGULAR_DET), or the signs of those
    determinants do not sum to +1, which proves that one is missing
    (_index_sum).  Otherwise they are left unconverged, and count so in
    starts_converged.  A sum of 1 certifies nothing either: nothing
    certifies that no fixed point was missed, and one that no start
    reaches is not returned.
    Newton, the warm-up and the Newton retry run the starts in lockstep, one
    values call per round for every start still stepping, and each start
    reaches the point it reaches alone; only the homotopy paths run one
    start at a time, and whether a start takes its path depends on the
    others.  A start has converged when its residual is within
    cfg.tol_fixed_point, and the converged starts' points are deduplicated
    (_dedup) before their MixedProfiles are built.  At lam = 0 the response
    ignores the payoffs, so the uniform profile, the first start, is the
    only fixed point (McKelvey & Palfrey, GEB 10, 1995): every start
    converges to it, the solve returns it with residual 0, and no
    PhiEvaluator is built.
    diagnostics: iterations, the damped steps (at most WARM_UP per start);
    newton_steps, the Newton steps on p - T(p); continuation_steps, the
    accepted predictor-corrector steps of the homotopy paths; starts and
    starts_converged; evaluator_calls, the profiles PhiEvaluator.values
    evaluated, times the number of players (a stacked call counting each
    profile in it, so the halvings of a rejected step that are evaluated
    but not taken count too, and so does the index check's evaluation of
    the fixed points it checks); and jacobians, the Jacobians of p - T(p)
    built, by Newton, the index check and the homotopy paths alike, one
    per start or point each time.  All but starts and starts_converged are
    read off the counts of the solve's own PhiEvaluator, and are 0 at
    lam = 0.

    At least one fixed point exists for every game and lambda >= 0; if no
    start converges a SolverError is raised rather than returning an empty
    result.
    """
    if not 0 <= lam < math.inf:
        raise ValueError("lambda must be finite and nonnegative")
    cfg = cfg or SolverConfig()
    starts = _interior_starts(tuple(game.action_counts), cfg.seed, cfg.multistarts)
    if lam == 0:  # every start converges to the first, the uniform profile, and nothing is evaluated
        counts, converged = dict.fromkeys(_COUNTS, 0), len(starts)
        profiles, residuals = [MixedProfile.uniform(game)], [0.0]
    else:
        evaluator = PhiEvaluator(game, phi)
        counts = evaluator.counts
        points, res = _solve_fixed_point(evaluator, lam, starts, cfg)
        found = [r for r, x in enumerate(res) if x <= cfg.tol_fixed_point]
        if not found:
            raise SolverError(f"no start converged within {cfg.max_iters} continuation steps (lambda={lam})")
        converged = len(found)
        kept = [found[q] for q in _dedup(points[found])]
        profiles, residuals = [_profile(evaluator, points[r]) for r in kept], [res[r] for r in kept]
    diagnostics = {
        "iterations": counts["iterations"],
        "newton_steps": counts["newton_steps"],
        "continuation_steps": counts["continuation_steps"],
        "starts": len(starts),
        "starts_converged": converged,
        "evaluator_calls": counts["evaluator_calls"],
        "jacobians": counts["jacobians"],
    }
    return SolveResult(profiles, residuals, diagnostics)


def homotopy_lambda_grid(lambda_max: float, steps: int) -> np.ndarray:
    """Zero followed by a geometric ramp spanning four decades up to lambda_max.

    A ramp of one point is lambda_max alone, so every grid ends at lambda_max.
    """
    positive = np.geomspace(lambda_max / 1e4, lambda_max, steps - 1) if steps > 2 else [lambda_max]
    return np.concatenate([[0.0], positive])


def homotopy_trace(
    game: Game,
    phi: MAStatistic,
    lambda_max: float,
    steps: int,
    cfg: Optional[SolverConfig] = None,
) -> list[tuple[float, MixedProfile]]:
    """Warm-started continuation of logit fixed points along increasing lambda.

    The trace opens with lambda = 0 and the uniform profile, exactly, the
    only fixed point there, which is not solved for.  Each later grid point
    is solved from the previous point's fixed point by _solve_fixed_point,
    as one start of solve_lqre is, and is kept when its residual is within
    cfg.tol_fixed_point.  Past a fold of the
    branch no fixed point is near; the damped warm-up or the start's
    homotopy path, which a lone start left by stages 1 and 2 always takes,
    then reaches one on another branch, and the trace jumps there.  Raises HomotopyBreakdown (carrying the partial trace and last
    good lambda) if some point cannot be converged.  solve_nash_phi's
    docstring says when it skips the trace.  The trace reports no counts:
    its evaluator keeps them, over every grid point, and is dropped with
    them.
    """
    try:
        operator.index(steps)
    except TypeError:
        raise ValueError("steps must be an integer") from None
    if not 0 < lambda_max < math.inf or steps < 2:
        raise ValueError("need a finite lambda_max > 0 and steps >= 2")
    cfg = cfg or SolverConfig()
    evaluator = PhiEvaluator(game, phi)
    current = _interior_starts(tuple(game.action_counts), cfg.seed, 0)  # the uniform profile alone, (1 x actions)
    trace = [(0.0, _profile(evaluator, current[0]))]
    for lam in homotopy_lambda_grid(lambda_max, steps)[1:]:
        current, [res] = _solve_fixed_point(evaluator, lam, current, cfg)
        if not res <= cfg.tol_fixed_point:
            last = trace[-1][0]
            raise HomotopyBreakdown(f"continuation stalled at lambda={lam:g} (last good {last:g})", trace, last)
        trace.append((float(lam), _profile(evaluator, current[0])))
    return trace


# ---------------------------------------------------------------------------
# best-response (Nash-type) equilibria
# ---------------------------------------------------------------------------


def verify_nash_phi(
    game: Game,
    phi: MAStatistic,
    p: MixedProfile,
    tol: float = GAP_TOL,
    support_tol: float = SUPPORT_TOL,
) -> bool:
    """True when every action played above support_tol is within tol of the best value."""
    if not p.matches(game):
        raise ValueError("profile does not match the game")
    if not (0 <= tol < math.inf and 0 < support_tol < math.inf):
        raise ValueError("tol must be nonnegative and finite, and support_tol positive and finite")
    return not np.isnan(_best_response_gap(PhiEvaluator(game, phi), np.concatenate(p.distributions), tol, support_tol))


def _best_response_gap(evaluator: PhiEvaluator, p: np.ndarray, tol: float, support_tol: float) -> np.ndarray:
    """The largest shortfall of an action played above support_tol below its player's best value.

    p is one concatenated profile, (actions,), or a stack of them, (B x
    actions); the gaps come one per profile, in p's shape less its last
    axis.  Values are the raw statistic of each action's realized lottery,
    every player's and every profile's from one values call.  A profile
    where some player's shortfall exceeds tol gets NaN.
    """
    values = evaluator.values(p, boundary_pure=False)
    starts = evaluator.starts[:-1]
    best = np.maximum.reduceat(values, starts, axis=-1)
    # A player with no action above support_tol falls short by nothing.
    worst = np.minimum(np.minimum.reduceat(np.where(p > support_tol, values, np.inf), starts, axis=-1), best)
    return np.where((worst < best - tol).any(axis=-1), np.nan, (best - worst).max(axis=-1))


def _dominated_actions(evaluator: PhiEvaluator, i: int, opponents: Sequence[np.ndarray]) -> np.ndarray:
    """Player i's actions beaten by more than GAP_TOL against every opponent profile, for a stack of supports.

    opponents holds the other players' supports in player order, each as a
    stack of bool masks (G x actions), row g of each making up entry g of the
    stack.  Returns (G x actions of i) bool.  The beating action may be any
    of player i's actions.  fails[(a, b), c] is 1 where b's payoff exceeds
    a's by at most GAP_TOL at opponent profile c, and an entry's reached
    profiles are the outer product of its opponents' masks, so one count
    product, reached @ fails.T, gives for every entry and pair (a, b) the
    reached profiles where b fails to beat a by more than GAP_TOL: a is
    dominated when some b's count is 0, that is when every margin exceeds
    GAP_TOL.  A chunk of the stack holds at most _MARGIN_CHUNK reached
    profiles and counts, so the scratch memory is bounded however large
    the stack.
    """
    table = evaluator.tables[i]  # (own actions) x (opponent profiles, flattened in player order)
    k, profiles = table.shape
    fails = (table[None, :, :] - table[:, None, :] <= GAP_TOL).reshape(k * k, profiles).T.astype(float)
    stack = len(opponents[0]) if opponents else 1
    step = max(1, _MARGIN_CHUNK // (k * k + profiles))
    out = np.empty((stack, k), dtype=bool)
    for lo in range(0, stack, step):
        reached = np.ones((min(step, stack - lo), 1))
        for masks in opponents:
            m = masks[lo : lo + step]
            reached = (reached[:, :, None] * m[:, None, :]).reshape(len(m), -1)
        out[lo : lo + step] = ((reached @ fails).reshape(-1, k, k) == 0.0).any(axis=2)
    return out


def _dismissed(evaluator: PhiEvaluator, ids: np.ndarray, masks: Sequence[np.ndarray]) -> np.ndarray:
    """For each support profile of a stack, whether some player's support holds an action _dominated_actions finds.

    A stack of support profiles is (ids, masks): masks[i] holds supports of
    player i as bool rows, (supports x actions of i), and ids (profiles x
    players) indexes each profile's supports there.  For each player the
    profiles are grouped by the opponents' supports, keyed by one integer, and
    the dominated actions of every group are found by one _dominated_actions
    call over the stack of groups, one count product per chunk of groups.
    """
    out = np.zeros(len(ids), dtype=bool)
    for i in range(evaluator.n):
        # group[r]: profile r's row in stack, the groups' opponent supports as masks, one stack per opponent.
        group, stack = np.zeros(len(ids), dtype=np.intp), []
        for j in evaluator.others[i]:
            if not stack:  # one group per support of the first opponent
                group, stack = ids[:, j], [masks[j]]
                continue
            width = len(masks[j])
            keys, group = np.unique(group * width + ids[:, j], return_inverse=True)
            stack = [m[keys // width] for m in stack] + [masks[j][keys % width]]
        dominated = _words(_dominated_actions(evaluator, i, stack))
        out |= (dominated[group] & _words(masks[i])[ids[:, i]]).any(axis=1)
    return out


def _words(masks: np.ndarray) -> np.ndarray:
    """Bool rows packed into 64-bit words, (rows x ceil(columns / 64)): two rows meet where some word's AND is not 0."""
    packed = np.packbits(masks, axis=1)
    words = np.zeros((len(masks), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def _indexed(profiles: Sequence[Sequence[tuple]], counts: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Support profiles, tuples of action tuples, as a stack (ids, masks) (see _dismissed), each support once."""
    ids = np.zeros((len(profiles), len(counts)), dtype=np.intp)
    masks = []
    for i, k in enumerate(counts):
        index: dict = {}
        ids[:, i] = [index.setdefault(sups[i], len(index)) for sups in profiles]
        masks.append(np.zeros((len(index), k), dtype=bool))
        for row, sup in zip(masks[-1], index):
            row[list(sup)] = True
    return ids, masks


def _support_system(evaluator: PhiEvaluator, supports: Sequence[Sequence[int]]):
    """Within-support indifference on the support weights, with its exact Jacobian.

    x holds the weights of the support actions, player by player, each
    support in increasing order.  It is placed into the concatenated
    profile p, zeros elsewhere, and p is cut (_cut).  Player i's residuals
    are v_i[sup_i[:-1]] - v_i[sup_i[-1]] under the raw statistic
    (boundary_pure=False), one matrix diff over the concatenated values,
    and then one row sum(x_i) - 1 per player: f = [diff @ v ; S x - 1], S
    being the 0/1 player-sum matrix.  Players with one support action have
    no difference row.  The Jacobian is [diff @ dv/dp @ lift ; S], square,
    where lift places the per-player centred part of x,
    (I - S^T diag(1/|S_i|) S) x, into p.  Those directions keep every
    mix's sum, and dv/dp is exact along them.  The centring makes the upper
    rows orthogonal to S's, so even a least-squares step on a singular
    Jacobian, as every two-player profile with |S_0| != |S_1| has off the
    linear path, solves the sum rows exactly: a step from weights that sum
    to one per player keeps them there, up to rounding.  The product is
    taken as the differences' moves at the support places, each player's
    taken relative to their last support action and then less their mean;
    the first subtraction changes nothing in exact arithmetic and leaves
    exact zeros where a player's weights move no difference, so that a
    system whose differences do not move has the Jacobian [0 ; S] exactly.
    """
    starts = evaluator.starts
    places = [starts[i] + a for i, sup in enumerate(supports) for a in sup]
    sizes = np.array([len(sup) for sup in supports])
    ends = np.cumsum(sizes)  # where each player's weights end in x
    owner = np.repeat(np.arange(len(sizes)), sizes)
    sums = (owner == np.arange(len(sizes))[:, None]).astype(float)
    pairs = [(starts[i] + a, starts[i] + sup[-1]) for i, sup in enumerate(supports) for a in sup[:-1]]
    diff = np.zeros((len(pairs), starts[-1]))
    diff[np.arange(len(pairs)), [a for a, _ in pairs]] = 1.0
    diff[np.arange(len(pairs)), [b for _, b in pairs]] = -1.0

    def system(x: np.ndarray):
        p = np.zeros(starts[-1])
        p[places] = x
        v, dv_dp = evaluator.values(_cut(p, starts), boundary_pure=False, grad=True)

        def jacobian() -> np.ndarray:
            moves = (diff @ dv_dp())[:, places]
            moves = moves - moves[:, ends - 1][:, owner]  # 0 exactly where a player's weights move no difference
            return np.concatenate([moves - (np.add.reduceat(moves, ends - sizes, axis=1) / sizes)[:, owner], sums])

        return np.concatenate([diff @ v, np.add.reduceat(x, ends - sizes) - 1.0]), jacobian

    return system


def _solve_supports(
    evaluator: PhiEvaluator,
    ids: np.ndarray,
    masks: Sequence[np.ndarray],
    seed: int,
    scale: float,
) -> tuple[list[int], np.ndarray]:
    """Find within-support indifference, zeros of the value differences, for each profile of a stack.

    The stack is (ids, masks), as _dismissed takes it.  Returns (places,
    roots): the places in the stack, in increasing order, of the profiles
    solved, and their roots as concatenated profiles, (places x actions),
    zero off the supports, each mix summing to one within the solve's
    tolerance.  A solution keeps every support weight above INTERIOR_TOL; a
    weight at zero is a boundary case that a smaller support covers.  On
    the linear path (_linear_supports) the stack, its supports gathered as
    bool rows whatever their sizes, is solved by _linear_roots, whose root
    is the projection of the uniform mix onto each half's solutions, in
    chunks of at most _MARGIN_CHUNK entries of (actions of 0 x actions of
    1) blocks, so the scratch memory is bounded however large the stack; a
    profile's root does not depend on its chunk, and that path draws
    nothing.
    Elsewhere each profile, its supports read off the masks as action
    lists, is solved on its own by Newton on its support weights
    (_support_system) from _newton_starts: the uniform mix on each support,
    then, while no start has given a root with every weight above
    INTERIOR_TOL, two Dirichlet draws from seed and the profile's supports
    alone, so that no root depends on the stack.  A start whose value
    differences do not move stops after one evaluation: its Jacobian is
    [0 ; S], whose minimum-norm step is 0.  A profile of single actions is
    solved at its start, every weight 1.
    """
    starts = evaluator.starts
    tol = 1e-10 * scale
    places, roots = [], [np.zeros((0, starts[-1]))]
    if _linear_supports(evaluator):
        step = max(1, _MARGIN_CHUNK // math.prod(evaluator.game.action_counts))
        for lo in range(0, len(ids), step):
            rows, found = _linear_roots(evaluator, [m[col] for m, col in zip(masks, ids[lo : lo + step].T)], tol)
            places += (lo + rows).tolist()
            roots.append(found)
        return places, np.concatenate(roots)
    for r, row in enumerate(ids.tolist()):
        support = [m[t] for m, t in zip(masks, row)]
        sups = [np.flatnonzero(m).tolist() for m in support]
        system = _support_system(evaluator, sups)
        for x in _newton_starts(sups, seed):
            x, res, _ = _newton(system, x, tol, 24)
            if res <= tol and x.min() > INTERIOR_TOL:
                root = np.zeros((1, starts[-1]))
                root[:, np.concatenate(support)] = x
                places.append(r)
                roots.append(root)
                break
    return places, np.concatenate(roots)


def _newton_starts(sups: Sequence[Sequence[int]], seed: int) -> Iterator[np.ndarray]:
    """Support weights of the uniform mix, then of two Dirichlet draws from a generator of seed and the supports alone.

    A one-action support draws nothing and keeps its weight at 1.
    """
    yield np.concatenate([np.full(len(s), 1.0 / len(s)) for s in sups])
    rng = np.random.default_rng([seed, *(sum(1 << a for a in s) for s in sups)])
    for _ in range(2):
        yield np.concatenate([rng.dirichlet(np.ones(len(s))) if len(s) > 1 else np.ones(1) for s in sups])


def _linear_roots(
    evaluator: PhiEvaluator, supports: Sequence[np.ndarray], tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Interior roots of a stack of two-player support profiles on the linear path, whatever their shapes.

    supports[i] holds player i's supports, (B x actions of i) bool rows.
    Player i's value differences depend on the opponent's weights alone, so
    the system splits into two halves, each solved by _linear_half as the
    projection of the uniform mix onto its solutions; no start is drawn.
    The profiles are split by which half goes first: the one with more
    equations than unknowns, player 0's when |S_0| >= |S_1|, else player
    1's.  Each part's first half is one _linear_half call, and only its
    profiles where that half is consistent go on to the other half, one
    more call, made only when some profile is.  Returns (rows, roots):
    the places in the stack, in increasing order, of the profiles
    consistent in both halves whose every support weight is above
    INTERIOR_TOL, and their roots as concatenated profiles, (rows x
    actions), as the projections give them: each mix sums to one up to
    its half's residual.
    """
    first = supports[0].sum(axis=1) >= supports[1].sum(axis=1)
    mixes = [np.zeros(m.shape) for m in supports]
    solved = np.zeros(len(first), dtype=bool)
    for i, rows in enumerate((np.flatnonzero(first), np.flatnonzero(~first))):
        if not len(rows):
            continue
        j = 1 - i
        mixes[j][rows], consistent = _linear_half(evaluator, i, supports[i][rows], supports[j][rows], tol)
        rows = rows[consistent]
        if len(rows):
            mixes[i][rows], solved[rows] = _linear_half(evaluator, j, supports[j][rows], supports[i][rows], tol)
    for mix, sup in zip(mixes, supports):
        solved &= ((mix > INTERIOR_TOL) | ~sup).all(axis=1)
    rows = np.flatnonzero(solved)
    return rows, np.concatenate(mixes, axis=1)[rows]


def _linear_supports(evaluator: PhiEvaluator) -> bool:
    """True when _solve_supports uses _linear_roots: two players, every finite atom at 0."""
    return evaluator.n == 2 and all(a == 0.0 for a, _ in evaluator.kernel_atoms)


def _linear_half(
    evaluator: PhiEvaluator, i: int, own: np.ndarray, opponent: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Player i's indifference on a stack of two-player supports, solved for the opponent's mix.

    own and opponent hold the supports S_i and S_j, (B x actions of i) and
    (B x actions of j) bool rows.  Every finite atom sits at 0, so on the
    interior of the supports v_i[S_i[:-1]] - v_i[S_i[-1]] is affine in the
    opponent's mix s on S_j: the mean's part is read off player i's
    constant derivative block, and the -inf/+inf atoms' part is the
    extremes of player i's payoffs over S_i x S_j, which
    values(boundary_pure=False) gives at an interior point.  Those
    differences at zero and one row for the weights' sum at one make the
    system A s = c.  The sum row is weighted like player i's payoffs, by
    max |u_i| (1 when every payoff is 0), so that tol means the same on it
    as on the differences and A's rows keep one scale whatever the payoffs'
    scale.  Each profile's system sits at the front of one (actions of i x
    actions of j) block: S_i's actions, in increasing order, fill the first
    |S_i| rows, the sum row last among them, S_j's the first |S_j| columns,
    and zeros the rest, so a profile's block depends on its own supports
    alone and the whole stack is one array.  The root is the projection of
    the uniform mix u onto the solutions, u - A^+ (A u - c) by one
    np.linalg.pinv on the stack, so it does not depend on how either
    support orders its actions.  Returns the roots as the opponent's mixes,
    (B x actions of j), zero off S_j, and for each profile whether the half
    is consistent: A s within tol of c at the root.  The pinv is taken only
    on the profiles that pass _may_be_consistent, and not at all when none
    does; the others keep u and are not consistent.
    """
    j = evaluator.others[i][0]
    # Each profile's actions, its support's first, in increasing order: its block's rows and columns.
    rows = np.argsort(~own, axis=1, kind="stable")
    cols = np.argsort(~opponent, axis=1, kind="stable")
    m, n = own.sum(axis=1), opponent.sum(axis=1)
    at, last = np.arange(len(own)), m - 1
    live = np.arange(opponent.shape[1]) < n[:, None]  # the columns S_j fills
    below = np.arange(own.shape[1]) > last[:, None]  # the rows past the sum row
    starts = evaluator.starts
    dv = evaluator.constant_dv[starts[i] : starts[i + 1], starts[j] : starts[j + 1]]
    block = dv[rows[:, :, None], cols[:, None, :]]
    weight = float(np.abs(evaluator.tables[i]).max()) or 1.0
    jac = np.where(live[:, None, :], block - block[at, last][:, None, :], 0.0)
    jac[below] = 0.0
    jac[at, last] = np.where(live, weight, 0.0)
    rhs = np.zeros(own.shape)
    if evaluator.pure_extremes is not None:
        reached = evaluator.tables[i][rows[:, :, None], cols[:, None, :]]
        lo = np.where(live[:, None, :], reached, np.inf).min(axis=2)
        hi = np.where(live[:, None, :], reached, -np.inf).max(axis=2)
        extremes = evaluator._extremes(lo, hi)
        rhs = np.where(below, 0.0, extremes[at, last][:, None] - extremes)
    rhs[at, last] = weight
    front = np.where(live, 1.0 / n[:, None], 0.0)
    consistent = _may_be_consistent(jac, -rhs, m, n, tol)
    if consistent.any():
        jac, rhs = jac[consistent], rhs[consistent, :, None]
        mix = front[consistent, :, None]
        mix = mix - np.linalg.pinv(jac) @ (jac @ mix - rhs)
        front[consistent] = mix[..., 0]
        consistent[consistent] = np.abs(jac @ mix - rhs).max(axis=(1, 2)) <= tol
    roots = np.zeros(opponent.shape)
    np.put_along_axis(roots, cols, np.where(live, front, 0.0), axis=1)
    return roots, consistent


def _may_be_consistent(jac: np.ndarray, const: np.ndarray, m: np.ndarray, n: np.ndarray, tol: float) -> np.ndarray:
    """False for the rows of a stack of systems jac @ theta + const = 0 that no theta solves within tol.

    A conservative test for _linear_half, whose row r's system has m[r]
    equations and n[r] unknowns at the front of its block, zeros
    elsewhere.  On an overdetermined row (m > n) it takes the residual of
    const off the first n columns of Q from a QR of jac, one QR for the
    stack; the later columns, made for the zero columns, are masked off.
    Those first n columns hold range(jac), so that residual's 2-norm is
    at most the least-squares one, which is at most sqrt(m) times its
    largest entry; so a row whose least-squares gap is within tol passes,
    with a factor of 2 to spare for rounding.  Every other row passes, and
    no QR is taken when every row is one.
    """
    over = m > n
    if not over.any():
        return np.ones(len(jac), dtype=bool)
    q = np.linalg.qr(jac)[0]
    q = q * (np.arange(q.shape[2]) < n[:, None])[:, None, :]
    residual = const - (q @ (q.transpose(0, 2, 1) @ const[..., None]))[..., 0]
    return ~over | (np.sqrt((residual * residual).sum(axis=1)) <= 2.0 * np.sqrt(m) * tol)


def _support_listing(counts: Sequence[int], limit: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The first limit support profiles, in Stage 2's order, as a stack (ids, masks) (see _dismissed).

    The order: by increasing total size; within a total, lexicographic over
    the players' subset indices, where each player's subsets are listed by
    (size, combination), as itertools.product over those lists would give
    them.  masks[i] holds the supports of player i that the listing made,
    as bool rows in the order they were made.

    The profiles of one total and one size s of player p's support are each
    of p's first size-s subsets followed by every profile of the later
    players with the rest of the total, so each such block is a repeat of
    those heads and a tile of the rest's listing.  Only as many heads and
    rest profiles are made as the limit needs, so the work and memory are
    O(limit) profiles, however many profiles the game has.  The listing
    depends on the action counts and the limit alone, so it is cached per
    (shape, limit): the arrays are shared, and read-only.
    """
    return _listing(tuple(counts), limit)


@functools.lru_cache(maxsize=16)
def _listing(counts: tuple[int, ...], limit: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """_support_listing for a tuple of counts."""
    n = len(counts)
    masks = [np.zeros((0, k), dtype=bool) for k in counts]
    made: dict = {}  # (player, size) -> ids of the player's first subsets of that size, in combination order

    def heads(p: int, size: int, h: int) -> np.ndarray:
        have = made.get((p, size), np.zeros(0, dtype=np.intp))
        if len(have) < h:
            combos = itertools.islice(itertools.combinations(range(counts[p]), size), len(have), h)
            new = np.fromiter(itertools.chain.from_iterable(combos), dtype=np.intp).reshape(-1, size)
            have = np.concatenate([have, np.arange(len(masks[p]), len(masks[p]) + len(new))])
            block = np.zeros((len(new), counts[p]), dtype=bool)
            np.put_along_axis(block, new, True, axis=1)
            masks[p] = np.concatenate([masks[p], block])
            made[p, size] = have
        return have[:h]

    @functools.cache
    def count(p: int, total: int) -> int:
        """The number of profiles of players p and later with this total size."""
        if p == n:
            return int(total == 0)
        return sum(math.comb(counts[p], s) * count(p + 1, total - s) for s in range(1, min(counts[p], total) + 1))

    def listing(p: int, total: int, need: int) -> np.ndarray:
        """The first need profiles of players p and later with this total size, (rows x players - p)."""
        if p == n - 1:
            return heads(p, total, need)[:, None]
        blocks = []
        for size in range(1, min(counts[p], total) + 1):
            rest = count(p + 1, total - size)
            if not rest:
                continue
            h = min(math.comb(counts[p], size), -(-need // rest))
            tail = listing(p + 1, total - size, min(need, rest))  # all of it whenever h > 1
            block = np.empty((h, len(tail), n - p), dtype=np.intp)
            block[:, :, 0] = heads(p, size, h)[:, None]
            block[:, :, 1:] = tail
            block = block.reshape(-1, n - p)[:need]
            blocks.append(block)
            need -= len(block)
            if not need:
                break
        return np.concatenate(blocks)

    parts, need = [], limit
    for total in range(n, sum(counts) + 1):
        if not need:
            break
        parts.append(listing(0, total, need))
        need -= len(parts[-1])
    ids = np.concatenate(parts) if parts else np.zeros((0, n), dtype=np.intp)
    for array in (ids, *masks):
        array.flags.writeable = False
    return ids, tuple(masks)


def _enumeration(evaluator: PhiEvaluator, limit: int) -> tuple[np.ndarray, tuple[np.ndarray, ...], int, bool]:
    """Stage 2 of solve_nash_phi before solving: the survivors' stack, examined and complete, as defined there."""
    listed = _LISTING_FACTOR * limit
    # One profile past the listing's end shows that the game holds more.
    ids, masks = _support_listing(evaluator.game.action_counts, listed + 1)
    complete = len(ids) <= listed
    ids = ids[:listed]
    alive = np.flatnonzero(~_dismissed(evaluator, ids, masks))
    examined = len(ids) if len(alive) <= limit else int(alive[limit])
    return ids[alive[:limit]], masks, examined, complete and len(alive) <= limit


def _candidate_supports(points: Sequence[Sequence[np.ndarray]]) -> set:
    """Support profiles suggested by the points of a logit trace.

    At each point: the actions above 1e-2 and 1e-4 of each player's largest
    weight, the argmax profile and, when there are at most 256 of them,
    every product of probability-ranked prefixes within _CANDIDATE_CAP; the
    prefixes catch near-tied classes that a fixed threshold splits the wrong
    way.  These depend on the point only through each player's ranking and
    threshold sets, so each distinct combination is expanded once.
    """
    rankings, above = [], []  # per player: one row per point
    for i in range(len(points[0])):
        mixes = np.array([p[i] for p in points])
        top = mixes.max(axis=1, keepdims=True)
        rankings.append(np.argsort(-mixes, axis=1, kind="stable"))
        above.append([mixes > cut * top for cut in (1e-2, 1e-4)])
    keys = np.hstack(rankings + [mask for masks in above for mask in masks])
    _, first = np.unique(keys, axis=0, return_index=True)
    out = set()
    for t in first.tolist():
        orders = [ranking[t].tolist() for ranking in rankings]
        for c in range(2):
            out.add(tuple(tuple(np.flatnonzero(masks[c][t]).tolist()) for masks in above))
        out.add(tuple((order[0],) for order in orders))
        prefix_lists = [
            [tuple(sorted(order[:size])) for size in range(1, min(len(order), _CANDIDATE_CAP) + 1)] for order in orders
        ]
        if math.prod(len(choices) for choices in prefix_lists) <= 256:
            for sups in itertools.product(*prefix_lists):
                if sum(len(s) for s in sups) <= _CANDIDATE_CAP:
                    out.add(sups)
    return out


def solve_nash_phi(game: Game, phi: MAStatistic, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Best-response equilibria for a monotone additive statistic.

    Two stages: candidates from a logit continuation in lambda, then support
    enumeration with within-support indifference solving.  An empty result is
    a legitimate outcome (equilibria can fail to exist when the statistic
    weights the extremes) and is reported, not raised.

    Stage 2's profiles are listed first, by increasing total size and,
    within a total, lexicographically over the players' subset indices,
    each player's subsets ordered by (size, combination); _support_listing
    makes them in array blocks, at most _LISTING_FACTOR times
    cfg.max_enum_supports of them.  The listed profiles are dismissed or
    kept (below), and the first cfg.max_enum_supports survivors are solved.
    The enumeration is complete when the listing holds every profile of the
    game and no more than cfg.max_enum_supports of them survive: then every
    profile is dismissed or solved, exactly on the linear path and from up
    to three starts on the Newton path (below).  Whether it is depends on
    the payoffs, through dismissal, and not only on the game's action counts.

    Stage 1 (homotopy_trace, then _candidate_supports on every point of the
    trace) is skipped when the enumeration was complete.  Stage 2 then
    solves every profile Stage 1 could propose, as Stage 1 would: a
    profile's root depends on the profile, cfg.seed and the statistic, not
    on which stage hands it to _solve_supports.

    The profiles that are not dismissed, Stage 1's in sorted order and then
    Stage 2's in enumeration order, go to _solve_supports as one stack
    (ids, masks), each player's supports as bool rows (see _dismissed), and
    the solutions that are best responses are kept in stack order.  On the
    linear path (_linear_supports: two players, every finite atom at 0) the
    profiles are solved as one stack, whatever their shapes, in chunks of
    bounded memory, half by half, the half with more equations than
    unknowns first, and each root is
    the projection of the uniform mix onto the half's solutions: it
    draws nothing, so cfg.seed does not matter there, and relabeling a
    player's actions relabels the roots.  So there an automorphism of the
    game, action permutations (s_0, s_1) with u(s_0 a, s_1 b) = u(a, b)
    (symmetry.automorphisms), maps each profile's root to its image's:
    when the stack holds more than one profile, only the first profile of
    each orbit (symmetry.orbits) is solved, and the others take its root
    mapped to them, the image x' of a mix x being x'[s(a)] = x[a].  The gap
    test is also taken once per orbit, on the representative's profile, and
    each image keeps that gap as its residual: under an automorphism the
    image's action s(a) meets the lottery that a meets in the representative,
    so each player's values are permuted with the actions, and the image's gap
    is the representative's up to rounding.  On either path the solver
    returns one stack of roots, each player's mixes in it are normalized
    once, every root is gap-tested by one values call on that stack
    (_best_response_gap), the accepted profiles' rows, orbit images mapped,
    are deduplicated on that stack (_dedup), and a MixedProfile is made
    only for each row kept.  The accepted profiles are taken in stack
    order, so the result is the unreduced solve's up to rounding.
    On the Newton path (three or more players, or a finite atom off 0) the
    profiles are solved one by one, on their support weights, each from the
    uniform mix and, until one gives a root inside the support, two starts
    drawn from cfg.seed and its supports.  Each gives at most one root, so
    an equilibrium can be missed: of a 2x2x2 game's two totally mixed
    equilibria, a solve returns one.  Those draws follow the action order,
    so there a relabeling can move a root on a continuum of roots.

    A support profile S is dismissed unsolved when some player i has an
    action a in S_i and an action b (in S_i or not) whose payoff exceeds a's
    by more than GAP_TOL against every opponent profile in the product of
    the S_j, j != i.  Every MAStatistic is monotone and translation-invariant,
    so against any opponent mix that reaches exactly that product, b's value
    is at least a's plus that margin.  A solved profile keeps every support
    weight above INTERIOR_TOL, so it reaches exactly that product, and the gap test
    would reject it.  Dismissed Stage-2 profiles count as examined and are
    reported as enumeration_pruned.  Each stage's profiles are dismissed
    together (_dismissed): for each player, the profiles are grouped by the
    opponents' supports, and every group's verdicts come from one count
    product, the opponent profiles each group's supports reach times a 0/1
    table of the pairs of actions that fail to clear GAP_TOL at each
    (_dominated_actions).

    diagnostics: homotopy_skipped, whether Stage 1 was skipped, always the
    negation of enumeration_truncated;
    homotopy_candidates, the Stage-1 candidates accepted (0 when skipped);
    homotopy_breakdown_lambda, present only when the trace broke down, its
    last good lambda; supports_solved, the profiles handed to the support
    solver in both stages, one per orbit on the linear path; automorphisms,
    the number of automorphisms whose orbits were used, 1 when none were
    (on the Newton path, or a stack of one profile); enumeration_examined,
    the listed profiles before the first survivor left unsolved (all of
    them when none is); enumeration_pruned, those of them dismissed;
    enumeration_truncated, the enumeration was not complete, so the result
    need not hold every equilibrium.

    The game is solved with each player's payoffs centred at their midrange,
    u_i - (max u_i + min u_i) / 2: every MAStatistic is translation-invariant,
    so that leaves the equilibrium set as it is, and Newton's stop, which grows
    with max |u|, then does not grow with a constant added to a player's
    payoffs.  Everything below, the trace and the automorphisms included, sees
    the centred game.
    """
    cfg = cfg or SolverConfig()
    flat = game.payoffs.reshape(-1, game.num_players)
    game = Game(game.action_counts, game.payoffs - (flat.max(axis=0) + flat.min(axis=0)) / 2, game.labels)
    counts = game.action_counts
    evaluator = PhiEvaluator(game, phi)
    scale = 1.0 + float(np.max(np.abs(game.payoffs)))

    survivors, survivor_masks, examined, complete = _enumeration(evaluator, cfg.max_enum_supports)

    # Stage 1, when Stage 2 is not complete: limit candidates along the logit continuation.
    diagnostics: dict = {}
    candidates, candidate_masks = _indexed([], counts)
    if not complete:
        try:
            trace = homotopy_trace(game, phi, HOMOTOPY_LAMBDA_MAX, cfg.homotopy_steps, cfg)
        except HomotopyBreakdown as breakdown:
            trace = breakdown.trace
            diagnostics["homotopy_breakdown_lambda"] = breakdown.last_lambda
        # Every point of the trace proposes supports, not only its end: where
        # the continuation passes near a best-response point is not known ahead.
        if trace:
            proposed = sorted(_candidate_supports([p.distributions for _, p in trace]))
            candidates, candidate_masks = _indexed(proposed, counts)
            candidates = candidates[~_dismissed(evaluator, candidates, candidate_masks)]

    # One stack, the candidates in front of the survivors: each player's supports of both in one table.
    ids = np.concatenate([candidates, survivors + [len(m) for m in candidate_masks]])
    masks = [np.concatenate(pair) for pair in zip(candidate_masks, survivor_masks)]
    # One profile per orbit is solved, and its root mapped to the rest of its orbit.
    group = symmetry.automorphisms(game) if len(ids) > 1 and _linear_supports(evaluator) else []
    lead, move = symmetry.orbits(group, ids, masks)
    reps = np.flatnonzero(lead == np.arange(len(ids)))
    # Each root's mixes are normalized once, for the gap test and for the accepted profiles.  The gap
    # is taken once per orbit, on the representative's profile: an automorphism permutes each
    # player's values as it permutes the actions, so the images share it.  Every representative's
    # root is tested by one values call on their stack.
    places, solved = _solve_supports(evaluator, ids[reps], masks, cfg.seed, scale)
    totals = np.hstack([solved[:, a:b].sum(axis=1, keepdims=True) for a, b in evaluator.spans])
    roots = solved / totals[:, evaluator.layout.owner]
    gaps = _best_response_gap(evaluator, roots, GAP_TOL, cfg.support_tol)
    # Each profile's representative's row in roots, -1 where that root is not a best response.
    row = np.full(len(ids), -1)
    good = ~np.isnan(gaps)
    row[reps[places][good]] = np.flatnonzero(good)
    accepted = np.flatnonzero(row[lead] >= 0)  # in stack order
    taken = row[lead[accepted]]
    points, gaps = roots[taken], gaps[taken]
    if group:  # the image x' of a root x under a permutation s: x'[s(a)] = x[a], on the concatenated actions
        perms = np.array([np.concatenate([s + perm for s, perm in zip(evaluator.starts, g)]) for g in group])
        image = np.take_along_axis(np.argsort(perms, axis=1)[move[lead[accepted]]], perms[move[accepted]], axis=1)
        points = np.take_along_axis(points, image, axis=1)
    diagnostics["homotopy_skipped"] = complete
    diagnostics["homotopy_candidates"] = int(np.count_nonzero(row[lead[: len(candidates)]] >= 0))
    diagnostics["supports_solved"] = len(reps)
    diagnostics["automorphisms"] = max(len(group), 1)
    diagnostics["enumeration_examined"] = examined
    diagnostics["enumeration_pruned"] = examined - len(survivors)
    diagnostics["enumeration_truncated"] = not complete

    kept = _dedup(points)
    return SolveResult([_profile(evaluator, points[r]) for r in kept], gaps[kept].tolist(), diagnostics)


# ---------------------------------------------------------------------------
# ordinal membership checks
# ---------------------------------------------------------------------------


def verify_fosd_nash(game: Game, p: MixedProfile, support_tol: float = SUPPORT_TOL) -> list[dict]:
    """Violations of 'never play a strictly dominated lottery'; empty means member."""
    if not p.matches(game):
        raise ValueError("profile does not match the game")
    if not 0 < support_tol < math.inf:  # NaN fails the test too
        raise ValueError("support_tol must be positive and finite")
    violations = []
    for i, (dist, (verdict, _)) in enumerate(zip(p.distributions, _fosd_by_player(game, p))):
        for a, b in np.argwhere(verdict.T == DominanceVerdict.STRICT_FOSD).tolist():
            if dist[a] > support_tol:
                violations.append(
                    {
                        "kind": "dominated_action_played",
                        "player": i,
                        "action": a,
                        "dominated_by": b,
                        "probability": float(dist[a]),
                    }
                )
    return violations


def verify_fosd_qre(game: Game, p: MixedProfile, tol: float = SUPPORT_TOL) -> list[dict]:
    """Violations of interiority or of weak-dominance-respecting probabilities."""
    if not p.matches(game):
        raise ValueError("profile does not match the game")
    if not 0 < tol < math.inf:  # NaN fails the test too
        raise ValueError("tol must be positive and finite")
    violations = []
    for i, (dist, (_, weak)) in enumerate(zip(p.distributions, _fosd_by_player(game, p))):
        for a in np.flatnonzero(dist <= tol).tolist():
            violations.append({"kind": "interiority", "player": i, "action": a, "probability": float(dist[a])})
        for a, b in np.argwhere(weak & (dist[:, None] < dist - tol)).tolist():
            if a != b:
                violations.append(
                    {"kind": "monotonicity", "player": i, "action": a, "below": b, "gap": float(dist[b] - dist[a])}
                )
    return violations


# ---------------------------------------------------------------------------
# solution concepts
# ---------------------------------------------------------------------------

# Each kind's family decides how it is solved and how membership is checked.
CONCEPT_FAMILIES = {
    "nash": "best-response",
    "nash-phi": "best-response",
    "lqre": "logit",
    "fosd-nash": "ordinal",
    "fosd-qre": "ordinal",
}
CONCEPT_KINDS = tuple(CONCEPT_FAMILIES)


@dataclass(frozen=True)
class ConceptSpec:
    """A solution concept plus the solver configuration used to compute it."""

    kind: str
    phi: MAStatistic = field(default_factory=MAStatistic.expectation)
    lam: float = 1.0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.kind not in CONCEPT_KINDS:
            raise ValueError(f"unknown concept kind {self.kind!r}")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be finite and nonnegative")
        if self.kind == "nash" and not self.phi.is_expectation:
            raise ValueError("plain nash responds to the expectation; use nash-phi")

    # -- constructors ------------------------------------------------------

    @classmethod
    def nash(cls, solver: Optional[SolverConfig] = None) -> "ConceptSpec":
        return cls("nash", solver=solver or SolverConfig())

    @classmethod
    def nash_phi(cls, phi: MAStatistic, solver: Optional[SolverConfig] = None) -> "ConceptSpec":
        return cls("nash-phi", phi=phi, solver=solver or SolverConfig())

    @classmethod
    def lqre(
        cls,
        lam: float,
        phi: Optional[MAStatistic] = None,
        solver: Optional[SolverConfig] = None,
    ) -> "ConceptSpec":
        return cls("lqre", phi=phi or MAStatistic.expectation(), lam=lam, solver=solver or SolverConfig())

    @classmethod
    def fosd_nash(cls) -> "ConceptSpec":
        return cls("fosd-nash")

    @classmethod
    def fosd_qre(cls) -> "ConceptSpec":
        return cls("fosd-qre")

    @property
    def family(self) -> str:
        """The kind's family: logit, best-response or ordinal (check-only)."""
        return CONCEPT_FAMILIES[self.kind]

    def label(self) -> str:
        if self.family == "logit":
            return f"lqre(lambda={self.lam:g}, phi={self.phi.describe()})"
        if self.family == "best-response":
            return f"nash(phi={self.phi.describe()})"
        return self.kind

    # -- behavior ----------------------------------------------------------

    def solve(self, game: Game) -> SolveResult:
        if self.family == "logit":
            return solve_lqre(game, self.phi, self.lam, self.solver)
        if self.family == "best-response":
            return solve_nash_phi(game, self.phi, self.solver)
        raise ValueError(f"{self.kind} is check-only and cannot be solved for")

    def membership_report(self, game: Game, p: MixedProfile, tol: float = 1e-8) -> dict:
        """Whether p is a member, with the tolerance applied: tol, or for the ordinal kinds solver.support_tol."""
        if not 0 <= tol < math.inf:  # NaN fails the test too
            raise ValueError("tol must be nonnegative and finite")
        applied = self.solver.support_tol if self.family == "ordinal" else tol
        report: dict = {"concept": self.label(), "tolerance": applied}
        if self.family == "logit":
            residual = verify_lqre(game, self.phi, self.lam, p)
            report["residual"] = residual
            report["member"] = residual <= tol
        elif self.family == "best-response":
            report["member"] = verify_nash_phi(
                game, self.phi, p, tol=tol, support_tol=self.solver.support_tol
            )
        else:
            verify = verify_fosd_nash if self.kind == "fosd-nash" else verify_fosd_qre
            violations = verify(game, p, applied)
            report["violations"] = violations
            report["member"] = not violations
        return report
