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

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .games import (
    Game,
    MixedProfile,
    action_payoff_matrix,
    opponent_weights,
)
from .statistics import MAStatistic, normalized_cgf

DEDUP_TOL = 1e-6


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
    max_iters: int = 100_000
    damping: float = 0.5
    multistarts: int = 16
    homotopy_lambda_max: float = 200.0
    homotopy_steps: int = 400
    support_tol: float = 1e-7
    seed: int = 0
    # Enumeration limits: supports larger than support_cap in total size are
    # skipped, and at most max_enum_supports support profiles are examined.
    support_cap: int = 12
    max_enum_supports: int = 4096

    def __post_init__(self):
        if self.tol_fixed_point <= 0 or self.max_iters <= 0 or self.multistarts < 0:
            raise ValueError("tolerances and iteration budgets must be positive")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")
        if self.homotopy_lambda_max <= 0 or self.homotopy_steps < 2:
            raise ValueError("homotopy grid is too small")
        if self.support_tol <= 0:
            raise ValueError("support_tol must be positive")


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


class PhiEvaluator:
    """Per-(game, statistic) cache for evaluating action values quickly."""

    def __init__(self, game: Game, phi: MAStatistic):
        self.game = game
        self.phi = phi
        self.n = game.num_players
        self.tables = [action_payoff_matrix(game, i) for i in range(self.n)]
        self.pure_min = [t.min(axis=1) for t in self.tables]
        self.pure_max = [t.max(axis=1) for t in self.tables]
        self.spread = [float(np.max(hi - lo)) for lo, hi in zip(self.pure_min, self.pure_max)]
        self.w_min = phi.weight_at(-math.inf)
        self.w_max = phi.weight_at(math.inf)
        self.kernel_atoms = [(a, w) for a, w in phi.atoms if math.isfinite(a)]

    def values(self, i: int, dists: Sequence[np.ndarray], boundary_pure: bool, grad: bool = False):
        """Action values for player i against the given opponent mixes.

        boundary_pure=True evaluates the -inf/+inf atoms as pure-strategy
        min/max over all opponent profiles (the continuous logit functional);
        False restricts them to the support actually reached, i.e. the raw
        statistic of the realized lottery.  grad=True returns (values,
        slopes), slopes being the derivative with respect to the joint
        opponent weights (see normalized_cgf); the -inf/+inf atoms add
        nothing to it in either mode, as the reached support is constant
        wherever the weights stay positive.
        """
        table = self.tables[i]
        joint = opponent_weights(dists, i)
        lo, hi = self.pure_min[i], self.pure_max[i]
        out = np.zeros(table.shape[0])
        slopes = np.zeros(table.shape) if grad else None
        if self.w_min or self.w_max:
            ext_lo, ext_hi = lo, hi
            if not boundary_pure:
                reached = table[:, joint > 0]
                ext_lo, ext_hi = reached.min(axis=1), reached.max(axis=1)
            if self.w_min:
                out += self.w_min * ext_lo
            if self.w_max:
                out += self.w_max * ext_hi
        for a, w in self.kernel_atoms:
            if grad:
                value, slope = normalized_cgf(table, joint, a, lo, hi, self.spread[i], grad=True)
                slopes += w * slope
            else:
                value = normalized_cgf(table, joint, a, lo, hi, self.spread[i])
            out += w * value
        return (out, slopes) if grad else out

    def mix_slopes(self, i: int, dists: Sequence[np.ndarray], slopes: np.ndarray) -> dict[int, np.ndarray]:
        """Player i's value derivatives with respect to each opponent j's own mix.

        slopes is values(..., grad=True)'s derivative with respect to the
        joint opponent weights; block j contracts it with every other
        opponent's mix, so it has shape (actions of i) x (actions of j).
        """
        others = [j for j in range(self.n) if j != i]
        if len(others) == 1:
            return {others[0]: slopes}
        grid = slopes.reshape((slopes.shape[0], *(dists[j].size for j in others)))
        blocks = {}
        for keep, j in enumerate(others):
            block = grid
            # Contract from the last axis down, so the axes still to go keep their places.
            for pos in reversed(range(len(others))):
                if pos != keep:
                    block = np.tensordot(block, dists[others[pos]], axes=([pos + 1], [0]))
            blocks[j] = block
        return blocks


def _logit(values: np.ndarray, lam: float) -> np.ndarray:
    z = lam * values
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def _response(evaluator: PhiEvaluator, lam: float, dists: Sequence[np.ndarray]) -> list[np.ndarray]:
    return [
        _logit(evaluator.values(i, dists, boundary_pure=True), lam) for i in range(evaluator.n)
    ]


def logit_response(game: Game, phi: MAStatistic, lam: float, p: MixedProfile) -> MixedProfile:
    """One application of the logit better-response operator (totally mixed output)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not p.matches(game):
        raise ValueError("profile does not match the game")
    evaluator = PhiEvaluator(game, phi)
    return MixedProfile(tuple(_response(evaluator, lam, list(p.distributions))))


def verify_lqre(game: Game, phi: MAStatistic, lam: float, p: MixedProfile) -> float:
    """Sup-norm fixed-point residual of p under the logit response operator."""
    response = logit_response(game, phi, lam, p)
    return p.sup_distance(response)


# ---------------------------------------------------------------------------
# fixed-point iteration
# ---------------------------------------------------------------------------


def _flatten(dists: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate(dists)


def _sup_residual(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> float:
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


def _dists_from_theta(
    theta: np.ndarray, supports: Sequence[Sequence[int]], counts: Sequence[int]
) -> list[np.ndarray]:
    """The simplex chart: one mixed strategy per player from free coordinates.

    Each player takes len(support) - 1 coordinates as the weights of all but
    the last support action; the last gets one minus their sum.  Negative
    weights are cut to zero and the vector is renormalized (the weights sum
    to one before the cut, so the total is never below one).
    """
    dists = []
    pos = 0
    for sup, k in zip(supports, counts):
        idx = list(sup)
        head = theta[pos : pos + len(idx) - 1]
        pos += len(idx) - 1
        vec = np.zeros(k)
        vec[idx[:-1]] = head
        vec[idx[-1]] = 1.0 - head.sum()
        np.maximum(vec, 0.0, out=vec)
        vec /= vec.sum()
        dists.append(vec)
    return dists


def _chart_columns(cols: np.ndarray) -> np.ndarray:
    """A derivative with respect to the weights of a support, taken to the chart's free weights.

    cols holds one column per support action.  Inside the chart, raising
    free weight t raises that action's weight and lowers the last support
    action's by as much.
    """
    return cols[:, :-1] - cols[:, -1:]


def _newton(
    system: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
    theta: np.ndarray,
    tol: float,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Backtracking Newton on f(theta) = 0 with an exact Jacobian.

    system(theta) returns f(theta) and a function that gives the Jacobian at
    theta from what evaluating f computed; it is called only where a step
    starts.  Returns (theta, f(theta), flat, steps taken); flat is True when
    the Jacobian is identically zero, i.e. the residual does not react to
    theta at all.  The stop test and step acceptance use the sup norm of f.
    Steps are least-squares solves capped at 0.5 in the sup norm, and a step
    is taken only if it lowers the residual, halving it up to eight times:
    far from a root a full step can overshoot into the chart's clipped
    region.
    """
    f, jacobian = system(theta)
    res = float(np.max(np.abs(f), initial=0.0))
    steps = 0
    for _ in range(max_steps):
        if res <= tol:
            break
        jac = jacobian()
        if not jac.any():
            return theta, f, True, steps
        try:
            step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        except np.linalg.LinAlgError:
            break
        norm = float(np.max(np.abs(step)))
        if not math.isfinite(norm) or norm == 0.0:
            break
        if norm > 0.5:
            step = step * (0.5 / norm)
        for _ in range(8):
            cand = theta + step
            f_cand, jacobian_cand = system(cand)
            res_cand = float(np.max(np.abs(f_cand)))
            if res_cand < res:
                theta, f, jacobian, res = cand, f_cand, jacobian_cand, res_cand
                steps += 1
                break
            step = 0.5 * step
        else:
            break  # no halving lowered the residual
    return theta, f, False, steps


def _logit_system(evaluator: PhiEvaluator, lam: float):
    """p - T(p) on the free coordinates of the full-support chart, with its exact Jacobian.

    Player i's response s = logit(lam v_i) moves with opponent j's mix by
    lam (diag s - s s^T) dv_i/dd_j; its own mix does not enter it.
    """
    counts = evaluator.game.action_counts
    supports = [range(k) for k in counts]
    offsets = list(itertools.accumulate((k - 1 for k in counts), initial=0))

    def system(theta: np.ndarray):
        dists = _dists_from_theta(theta, supports, counts)
        parts = [evaluator.values(i, dists, boundary_pure=True, grad=True) for i in range(evaluator.n)]
        resp = [_logit(v, lam) for v, _ in parts]
        f = np.concatenate([(d - s)[:-1] for d, s in zip(dists, resp)])

        def jacobian() -> np.ndarray:
            jac = np.eye(theta.size)  # inside the chart, the free coordinates of p are theta
            for i, ((_, slopes), s) in enumerate(zip(parts, resp)):
                rows = slice(offsets[i], offsets[i + 1])
                for j, block in evaluator.mix_slopes(i, dists, slopes).items():
                    ds = lam * s[:-1, None] * (block[:-1] - s @ block)
                    jac[rows, offsets[j] : offsets[j + 1]] -= _chart_columns(ds)
            return jac

        return f, jacobian

    return system


def _newton_polish(
    evaluator: PhiEvaluator,
    lam: float,
    dists: list[np.ndarray],
    tol: float,
    max_steps: int = 40,
) -> tuple[list[np.ndarray], float, int]:
    """Newton iteration on p - T(p) = 0; works at unstable fixed points too.

    Each player's last coordinate is eliminated (it equals one minus the
    rest), which removes the normalization null space from the
    least-squares step.  Returns (dists, sup-norm residual, Newton steps).
    """
    counts = evaluator.game.action_counts
    # Both p and T(p) sum to one, so the eliminated coordinate's residual is
    # minus the block sum of the free ones: drive the free residual below
    # tol / max block size, and read the sup-norm residual off it.
    theta = np.concatenate([d[:-1] for d in dists])
    theta, f, _, steps = _newton(_logit_system(evaluator, lam), theta, tol / max(counts), max_steps)
    res = float(np.max(np.abs(f), initial=0.0))
    pos = 0
    for k in counts:
        res = max(res, abs(float(f[pos : pos + k - 1].sum())))
        pos += k - 1
    return _dists_from_theta(theta, [range(k) for k in counts], counts), res, steps


def _solve_fixed_point(
    evaluator: PhiEvaluator,
    lam: float,
    start: list[np.ndarray],
    cfg: SolverConfig,
    first_polish: int = 16,
) -> tuple[Optional[list[np.ndarray]], float, int, int]:
    """Newton from the start, then damped iteration with stall-adaptive damping.

    Returns (dists or None, residual, damped iterations, Newton steps).
    Newton first makes each start a root-finding attempt: unstable fixed
    points trap the damped map in limit cycles but are reachable for a
    Newton step from a nearby start.  Fixed damping alone can orbit cycling
    fixed points once the response becomes stiff, so the step size shrinks
    on stall.  Newton is retried from the best iterate after first_polish
    damped iterations and again each time their count doubles, since a few
    damped steps often carry a start into Newton's basin; it finishes from
    the best iterate when the budget runs out.
    """
    p = [d.copy() for d in start]
    polished, pres, steps = _newton_polish(evaluator, lam, p, cfg.tol_fixed_point, max_steps=12)
    if pres <= cfg.tol_fixed_point:
        return polished, pres, 0, steps
    p = polished if pres < math.inf else p
    alpha = cfg.damping
    best = p
    best_res = math.inf
    stall = 0
    iters = 0
    next_polish = min(cfg.max_iters, first_polish)
    while iters < cfg.max_iters:
        t = _response(evaluator, lam, p)
        res = _sup_residual(p, t)
        iters += 1
        if res < best_res * 0.95:
            stall = 0
        else:
            stall += 1
        if res < best_res:
            best, best_res = p, res
        if res <= cfg.tol_fixed_point:
            return p, res, iters, steps
        if stall >= 60:
            alpha = max(alpha * 0.5, 1e-3)
            stall = 0
        p = [(1 - alpha) * a + alpha * b for a, b in zip(p, t)]
        if iters >= next_polish:
            polished, pres, taken = _newton_polish(evaluator, lam, best, cfg.tol_fixed_point)
            steps += taken
            if pres <= cfg.tol_fixed_point:
                return polished, pres, iters, steps
            if pres < best_res:
                best, best_res = polished, pres
                p = [d.copy() for d in polished]
            next_polish = min(cfg.max_iters, next_polish * 2)
    polished, res, taken = _newton_polish(evaluator, lam, best, cfg.tol_fixed_point)
    steps += taken
    if res <= cfg.tol_fixed_point:
        return polished, res, iters, steps
    return None, best_res, iters, steps


def _interior_starts(game: Game, cfg: SolverConfig) -> list[list[np.ndarray]]:
    rng = np.random.default_rng(cfg.seed)
    starts = [[np.full(k, 1.0 / k) for k in game.action_counts]]
    for _ in range(cfg.multistarts):
        starts.append([rng.dirichlet(np.ones(k)) for k in game.action_counts])
    return starts


def _dedup(
    found: list[tuple[list[np.ndarray], float]], tol: float = DEDUP_TOL
) -> list[tuple[list[np.ndarray], float]]:
    keyed = sorted(found, key=lambda item: tuple(np.round(_flatten(item[0]), 9)))
    kept: list[tuple[list[np.ndarray], float]] = []
    for dists, res in keyed:
        dup = False
        for other, other_res in kept:
            if _sup_residual(dists, other) <= tol:
                dup = True
                break
        if not dup:
            kept.append((dists, res))
    return kept


def solve_lqre(game: Game, phi: MAStatistic, lam: float, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """All logit fixed points found from multiple starts.

    The uniform start and cfg.multistarts Dirichlet starts drawn from
    cfg.seed each run Newton, then damped iteration with early and
    repeated Newton retries (see _solve_fixed_point).

    At least one fixed point exists for every game and lambda >= 0; if no
    start converges a SolverError is raised rather than returning an empty
    result.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    cfg = cfg or SolverConfig()
    evaluator = PhiEvaluator(game, phi)
    starts = _interior_starts(game, cfg)
    outcomes = [_solve_fixed_point(evaluator, lam, start, cfg) for start in starts]

    found = [(dists, res) for dists, res, _, _ in outcomes if dists is not None]
    if not found:
        raise SolverError(
            f"no start converged within {cfg.max_iters} iterations (lambda={lam})"
        )
    kept = _dedup(found)
    profiles = [MixedProfile(tuple(d)) for d, _ in kept]
    residuals = [res for _, res in kept]
    diagnostics = {
        "iterations": sum(iters for _, _, iters, _ in outcomes),
        "newton_steps": sum(steps for _, _, _, steps in outcomes),
        "starts": len(starts),
        "starts_converged": len(found),
    }
    return SolveResult(profiles, residuals, diagnostics)


def homotopy_lambda_grid(lambda_max: float, steps: int) -> np.ndarray:
    """Zero followed by a geometric ramp spanning four decades up to lambda_max."""
    positive = np.geomspace(lambda_max / 1e4, lambda_max, steps - 1)
    return np.concatenate([[0.0], positive])


def homotopy_trace(
    game: Game,
    phi: MAStatistic,
    lambda_max: float,
    steps: int,
    cfg: Optional[SolverConfig] = None,
) -> list[tuple[float, MixedProfile]]:
    """Warm-started continuation of logit fixed points along increasing lambda.

    Raises HomotopyBreakdown (carrying the partial trace and last good
    lambda) if some step cannot be re-converged.
    """
    if lambda_max <= 0 or steps < 2:
        raise ValueError("need lambda_max > 0 and steps >= 2")
    cfg = cfg or SolverConfig()
    evaluator = PhiEvaluator(game, phi)
    trace: list[tuple[float, MixedProfile]] = []
    current = [np.full(k, 1.0 / k) for k in game.action_counts]
    for lam in homotopy_lambda_grid(lambda_max, steps):
        dists, _, _, _ = _solve_fixed_point(evaluator, lam, current, cfg, first_polish=80)
        if dists is None:
            last = trace[-1][0] if trace else 0.0
            raise HomotopyBreakdown(
                f"continuation stalled at lambda={lam:g} (last good {last:g})", trace, last
            )
        current = dists
        trace.append((float(lam), MixedProfile(tuple(dists))))
    return trace


# ---------------------------------------------------------------------------
# best-response (Nash-type) equilibria
# ---------------------------------------------------------------------------


def verify_nash_phi(
    game: Game,
    phi: MAStatistic,
    p: MixedProfile,
    tol: float = 1e-9,
    support_tol: float = 1e-7,
) -> bool:
    """True when every action played above support_tol is within tol of the best value."""
    if not p.matches(game):
        raise ValueError("profile does not match the game")
    evaluator = PhiEvaluator(game, phi)
    dists = list(p.distributions)
    for i in range(game.num_players):
        vals = evaluator.values(i, dists, boundary_pure=False)
        ceiling = vals.max() - tol
        for a in range(game.action_counts[i]):
            if p.distributions[i][a] > support_tol and vals[a] < ceiling:
                return False
    return True


def _support_system(evaluator: PhiEvaluator, supports: Sequence[Sequence[int]]):
    """The within-support value differences on the chart of the supports, with their exact Jacobian.

    Player i's residual is v_i[sup_i[:-1]] - v_i[sup_i[-1]] under the raw
    statistic (boundary_pure=False); players with one support action have
    none.  Its derivative comes from the same dv_i/dd_j as the logit's.
    """
    counts = evaluator.game.action_counts
    offsets = list(itertools.accumulate((len(s) - 1 for s in supports), initial=0))
    movers = [i for i, sup in enumerate(supports) if len(sup) > 1]

    def system(theta: np.ndarray):
        dists = _dists_from_theta(theta, supports, counts)
        parts = {i: evaluator.values(i, dists, boundary_pure=False, grad=True) for i in movers}
        f = np.concatenate([v[list(supports[i][:-1])] - v[supports[i][-1]] for i, (v, _) in parts.items()])

        def jacobian() -> np.ndarray:
            jac = np.zeros((offsets[-1], offsets[-1]))
            for i, (_, slopes) in parts.items():
                sup_i = list(supports[i])
                for j, block in evaluator.mix_slopes(i, dists, slopes).items():
                    if len(supports[j]) > 1:
                        diff = block[sup_i[:-1]] - block[sup_i[-1]]
                        jac[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = _chart_columns(
                            diff[:, list(supports[j])]
                        )
            return jac

        return f, jacobian

    return system


def _solve_support(
    evaluator: PhiEvaluator,
    supports: Sequence[Sequence[int]],
    rng: np.random.Generator,
    scale: float,
) -> Optional[list[np.ndarray]]:
    """Find within-support indifference: zeros of the value differences."""
    counts = evaluator.game.action_counts
    dim = sum(len(s) - 1 for s in supports)
    if dim == 0:
        return _dists_from_theta(np.zeros(0), supports, counts)
    tol = 1e-10 * scale
    starts = [np.concatenate([np.full(len(s) - 1, 1.0 / len(s)) for s in supports if len(s) > 1])]
    for _ in range(2):
        starts.append(
            np.concatenate([rng.dirichlet(np.ones(len(s)))[:-1] for s in supports if len(s) > 1])
        )
    system = _support_system(evaluator, supports)
    if evaluator.n == 2 and all(a == 0.0 for a, _ in evaluator.kernel_atoms):
        roots = _linear_support_roots(system, starts, tol)
    else:
        roots = _newton_support_roots(system, starts, tol)
    for theta in roots:
        dists = _dists_from_theta(theta, supports, counts)
        # A support weight at zero is a boundary case; a smaller support covers it.
        if all(vec[list(sup)].min() > 1e-9 for sup, vec in zip(supports, dists)):
            return dists
    return None


def _newton_support_roots(system, starts: list[np.ndarray], tol: float):
    """Newton on the value differences from each start, yielding every point within tol."""
    for theta in starts:
        theta, f, flat, _ = _newton(system, theta, tol, 24)
        if flat:
            return  # values do not react to this support's mixing
        if np.max(np.abs(f)) <= tol:
            yield theta


def _linear_support_roots(system, starts: list[np.ndarray], tol: float) -> Sequence[np.ndarray]:
    """Exact roots of the value differences of a two-player game whose finite atoms sit at 0.

    Player i's value differences depend on the opponent's mix alone: through
    the mean, linearly, and through the -inf/+inf atoms only by the reached
    support, which is constant inside it.  So the residual is affine in theta
    on the support's interior, and one least-squares solve from each start
    gives the point Newton reaches along its interior path.  Returns one root
    per start, or none: the least-squares gap is the same from every start,
    so an inconsistent system has no root from any of them.
    """
    # The uniform start is interior, so the reached support is the whole support.
    theta0 = starts[0]
    f0, jacobian = system(theta0)
    jac = jacobian()
    const = f0 - jac @ theta0
    thetas = np.stack(starts, axis=1)
    step, *_ = np.linalg.lstsq(jac, -(jac @ thetas + const[:, None]), rcond=None)
    thetas = thetas + step
    if np.max(np.abs(jac @ thetas[:, 0] + const)) > tol:
        return []
    return thetas.T


def _support_profiles(counts: Sequence[int]):
    """Every support profile, by increasing total size.

    Profiles of one total size come in the order of itertools.product over
    each player's supports listed by (size, combination).  They are made
    lazily, so a large game can start enumerating without listing them all.
    """

    def with_total(players: Sequence[int], total: int):
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


def _candidate_supports(points: Sequence[Sequence[np.ndarray]], support_cap: int) -> set:
    """Support profiles suggested by the points of a logit trace.

    At each point: the actions above 1e-2 and 1e-4 of each player's largest
    weight, the argmax profile and, when there are at most 256 of them,
    every product of probability-ranked prefixes within support_cap; the
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
            [tuple(sorted(order[:size])) for size in range(1, min(len(order), support_cap) + 1)] for order in orders
        ]
        if math.prod(len(choices) for choices in prefix_lists) <= 256:
            for sups in itertools.product(*prefix_lists):
                if sum(len(s) for s in sups) <= support_cap:
                    out.add(sups)
    return out


def solve_nash_phi(game: Game, phi: MAStatistic, cfg: Optional[SolverConfig] = None) -> SolveResult:
    """Best-response equilibria for a monotone additive statistic.

    Two stages: candidates from a logit continuation in lambda, then support
    enumeration with within-support indifference solving.  An empty result is
    a legitimate outcome (equilibria can fail to exist when the statistic
    weights the extremes) and is reported, not raised.
    """
    cfg = cfg or SolverConfig()
    evaluator = PhiEvaluator(game, phi)
    scale = 1.0 + float(np.max(np.abs(game.payoffs)))
    rng = np.random.default_rng(cfg.seed + 1)
    found: list[tuple[list[np.ndarray], float]] = []
    diagnostics: dict = {}

    # Stage 1: limit candidates along the logit continuation.
    homotopy_candidates = 0
    trace: list[tuple[float, MixedProfile]] = []
    try:
        trace = homotopy_trace(
            game, phi, cfg.homotopy_lambda_max, min(cfg.homotopy_steps, 160), cfg
        )
    except HomotopyBreakdown as breakdown:
        trace = breakdown.trace
        diagnostics["homotopy_breakdown_lambda"] = breakdown.last_lambda
    # Every point of the trace proposes supports, not only its end: where
    # the continuation passes near a best-response point is not known ahead.
    candidate_supports = set()
    if trace:
        candidate_supports = _candidate_supports([p.distributions for _, p in trace], cfg.support_cap)
    for sups in sorted(candidate_supports):
        dists = _solve_support(evaluator, sups, rng, scale)
        if dists is None:
            continue
        profile = MixedProfile(tuple(dists))
        if verify_nash_phi(game, phi, profile, support_tol=cfg.support_tol):
            found.append((dists, 0.0))
            homotopy_candidates += 1
    diagnostics["homotopy_candidates"] = homotopy_candidates

    # Stage 2: support enumeration.
    examined = 0
    skipped_by_cap = 0
    truncated = False
    if cfg.max_enum_supports > 0:
        for sups in _support_profiles(game.action_counts):
            if sum(len(s) for s in sups) > cfg.support_cap:
                # Profiles come by increasing total size: every later one is over the cap too.
                skipped_by_cap = math.prod(2**k - 1 for k in game.action_counts) - examined
                break
            if examined >= cfg.max_enum_supports:
                truncated = True
                break
            examined += 1
            dists = _solve_support(evaluator, sups, rng, scale)
            if dists is None:
                continue
            profile = MixedProfile(tuple(dists))
            if verify_nash_phi(game, phi, profile, support_tol=cfg.support_tol):
                found.append((dists, 0.0))
    diagnostics["enumeration_examined"] = examined
    diagnostics["enumeration_truncated"] = truncated or skipped_by_cap > 0
    diagnostics["enumeration_skipped_by_cap"] = skipped_by_cap
    diagnostics["support_cap"] = cfg.support_cap

    kept = _dedup(found)
    profiles = [MixedProfile(tuple(d)) for d, _ in kept]
    residuals = []
    for prof in profiles:
        gaps = []
        for i in range(game.num_players):
            vals = evaluator.values(i, list(prof.distributions), boundary_pure=False)
            played = prof.distributions[i] > cfg.support_tol
            gaps.append(float(vals.max() - vals[played].min()) if played.any() else 0.0)
        residuals.append(max(gaps))
    return SolveResult(profiles, residuals, diagnostics)


# ---------------------------------------------------------------------------
# ordinal membership checks
# ---------------------------------------------------------------------------


def verify_fosd_nash(game: Game, p: MixedProfile, support_tol: float = 1e-7) -> list[dict]:
    """Violations of 'never play a strictly dominated lottery'; empty means member."""
    from .games import action_lottery
    from .lotteries import DominanceVerdict, fosd_compare

    if not p.matches(game):
        raise ValueError("profile does not match the game")
    violations = []
    for i in range(game.num_players):
        lotteries = [action_lottery(game, i, a, p) for a in range(game.action_counts[i])]
        for a in range(game.action_counts[i]):
            if p.distributions[i][a] <= support_tol:
                continue
            for b in range(game.action_counts[i]):
                if b == a:
                    continue
                if fosd_compare(lotteries[b], lotteries[a]) is DominanceVerdict.STRICT_FOSD:
                    violations.append(
                        {
                            "kind": "dominated_action_played",
                            "player": i,
                            "action": a,
                            "dominated_by": b,
                            "probability": float(p.distributions[i][a]),
                        }
                    )
    return violations


def verify_fosd_qre(game: Game, p: MixedProfile, tol: float = 1e-7) -> list[dict]:
    """Violations of interiority or of weak-dominance-respecting probabilities."""
    from .games import action_lottery
    from .lotteries import weakly_dominates

    if not p.matches(game):
        raise ValueError("profile does not match the game")
    violations = []
    for i in range(game.num_players):
        dist = p.distributions[i]
        for a in range(game.action_counts[i]):
            if dist[a] <= tol:
                violations.append(
                    {"kind": "interiority", "player": i, "action": a, "probability": float(dist[a])}
                )
        lotteries = [action_lottery(game, i, a, p) for a in range(game.action_counts[i])]
        for a in range(game.action_counts[i]):
            for b in range(game.action_counts[i]):
                if a == b:
                    continue
                if weakly_dominates(lotteries[a], lotteries[b]) and dist[a] < dist[b] - tol:
                    violations.append(
                        {
                            "kind": "monotonicity",
                            "player": i,
                            "action": a,
                            "below": b,
                            "gap": float(dist[b] - dist[a]),
                        }
                    )
    return violations


# ---------------------------------------------------------------------------
# solution concepts
# ---------------------------------------------------------------------------

CONCEPT_KINDS = ("nash", "nash-phi", "lqre", "fosd-nash", "fosd-qre")


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
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
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

    def label(self) -> str:
        if self.kind == "lqre":
            return f"lqre(lambda={self.lam:g}, phi={self.phi.describe()})"
        if self.kind in ("nash", "nash-phi"):
            return f"nash(phi={self.phi.describe()})"
        return self.kind

    @property
    def solvable(self) -> bool:
        return self.kind in ("nash", "nash-phi", "lqre")

    # -- behavior ----------------------------------------------------------

    def solve(self, game: Game) -> SolveResult:
        if self.kind == "lqre":
            return solve_lqre(game, self.phi, self.lam, self.solver)
        if self.kind in ("nash", "nash-phi"):
            return solve_nash_phi(game, self.phi, self.solver)
        raise ValueError(f"{self.kind} is check-only and cannot be solved for")

    def membership_report(self, game: Game, p: MixedProfile, tol: float = 1e-8) -> dict:
        report: dict = {"concept": self.label(), "tolerance": tol}
        if self.kind == "lqre":
            residual = verify_lqre(game, self.phi, self.lam, p)
            report["residual"] = residual
            report["member"] = residual <= tol
        elif self.kind in ("nash", "nash-phi"):
            report["member"] = verify_nash_phi(
                game, self.phi, p, tol=tol, support_tol=self.solver.support_tol
            )
        elif self.kind == "fosd-nash":
            violations = verify_fosd_nash(game, p, support_tol=self.solver.support_tol)
            report["violations"] = violations
            report["member"] = not violations
        else:
            violations = verify_fosd_qre(game, p, tol=self.solver.support_tol)
            report["violations"] = violations
            report["member"] = not violations
        return report
