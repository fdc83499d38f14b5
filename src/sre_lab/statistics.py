"""Monotone additive statistics over finitely supported lotteries.

The kernel is the normalized cumulant generating function

    k_a[X] = (1/a) log E[exp(a X)],

whose limits at a -> -inf, 0, +inf are the minimum, expectation, and maximum
of X.  A finite-atom statistic is a convex combination of these kernels; the
three-atom family supported on {-inf, 0, +inf} weights worst case, average
case, and best case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .lotteries import Lottery

NEG_INF = -math.inf
POS_INF = math.inf

# Below this |a| * (max - min) the log-sum-exp loses its precision to
# cancellation; switch to the cumulant expansion through the third cumulant.
# The switch is dimensionless so that it holds at every payoff scale.
TAYLOR_CUTOFF = 1e-4

ATOM_WEIGHT_SUM_TOL = 1e-12

# The smallest normal float.  A log-sum-exp total below it has lost digits to
# underflow, and 1 / (a total) may overflow.
MIN_TOTAL = float(np.finfo(float).tiny)


def _branch(a: float, spread: float) -> str:
    """Which formula the normalized CGF takes at parameter a on rows of the given spread."""
    if math.isinf(a):
        return "extreme"
    if a == 0.0 or spread == 0.0:  # a constant row is its own mean, whatever a is
        return "mean"
    # In Python floats, where |a| * spread overflows to inf without a warning.
    return "taylor" if abs(float(a)) * float(spread) < TAYLOR_CUTOFF else "exp"


def cgf_branches(atoms, spread: float) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The finite atoms grouped by the branch their normalized CGF takes on rows of this spread.

    Returns {branch: (locations, weights)} for "mean", "taylor" and "exp",
    in that order, with only the branches that have atoms; atoms at -inf /
    +inf are left out.  Each group is what cgf_grids takes as one.
    """
    groups: dict[str, tuple[list, list]] = {"mean": ([], []), "taylor": ([], []), "exp": ([], [])}
    for a, w in atoms:
        branch = _branch(a, spread)
        if branch != "extreme":
            locations, weights = groups[branch]
            locations.append(a)
            weights.append(w)
    return {branch: (np.array(a), np.array(w)) for branch, (a, w) in groups.items() if a}


def cgf_grids(
    branch: str, table: np.ndarray, a: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """The grids whose weighted row sums the normalized CGF is finished from.

    table is an (actions x opponent profiles) table; lo and hi are as for
    normalized_cgf.  a and w hold the locations and weights of finite atoms
    that all take this branch (see cgf_branches).  Returns the grids
    stacked, (grids x actions x opponent profiles).  They depend on the
    table alone, not on the weights of the columns, so a caller evaluating
    many weight vectors builds them once:
    - "mean": the table times the atoms' total weight, whose row sums are
      their weighted value;
    - "taylor": the raw moments (T - lo)^1, ^2, ^3, shared by every atom of
      the band;
    - "exp": exp(a(T - shift)) for each atom, shifted by hi (a > 0) or lo
      (a < 0).  The exponent is capped at 0: after a re-shift to the
      support's extremes, columns outside the support can lie beyond the
      shift, where exp would overflow and inf * 0 turn a total into NaN;
      their weight is zero, so the cap leaves the values alone.
    """
    if branch == "mean":
        total = float(w.sum())
        return (table if total == 1.0 else total * table)[None]
    if branch == "taylor":
        x = table - lo[:, None]
        x2 = x * x
        return np.stack([x, x2, x2 * x])
    shift = np.where(a[:, None] > 0, hi, lo)
    # An exponent that overflows is -inf, a term of exactly 0, or is capped on a column of weight 0.
    with np.errstate(over="ignore"):
        return np.exp(np.minimum(a[:, None, None] * (table - shift[:, :, None]), 0.0))


def taylor_terms(moments, a, lo, hi, grad: bool = False):
    """Each atom's Taylor-band term from the weighted raw moments (m1, m2, m3) of T - lo, before the atoms are weighted.

    a, lo, hi and each moment broadcast against one another, one term per
    atom and row, so a caller may tag every row with its own atom and
    bounds.  The term is E + a Var/2 + a^2 kappa3/6, clamped to [lo, hi].
    With grad, the coefficients on the three moments come too, (3 x terms),
    zero where the clamp holds.
    """
    m1, m2, m3 = moments
    square = m1 * m1
    var = m2 - square
    kappa3 = m3 - m1 * (3.0 * m2 - 2.0 * square)
    raw = lo + m1 + (a / 2.0) * var + (a * a / 6.0) * kappa3
    value = np.minimum(np.maximum(raw, lo), hi)
    if not grad:
        return value
    # d raw / d w_c for X = T - lo, from d m_k / d w_c = X_c^k.
    coefs = np.empty((3, *raw.shape))
    coefs[0] = 1.0 - a * m1 + (a * a) * (square - m2 / 2.0)
    coefs[1] = a / 2.0 - (a * a / 2.0) * m1
    coefs[2] = a * a / 6.0
    coefs[:, (raw < lo) | (raw > hi)] = 0.0
    return value, coefs


def tilt_terms(totals, a, shift, grad: bool = False):
    """Each exponential tilt's term, shift + log(total) / a, from the weighted totals of exp(a(T - shift)).

    a, shift and the totals broadcast against one another, as taylor_terms'
    arguments do; the shift is hi where a > 0 and lo where a < 0, which a
    caller that finishes many rows with the same atoms and bounds computes
    once.  With grad, the coefficient 1 / (a total) on the tilted grid
    comes too.  No total may have underflowed below MIN_TOTAL: a caller
    re-shifts those rows to the extremes of the support they reach first,
    as normalized_cgf does.
    """
    value = shift + np.log(totals) / a
    return (value, 1.0 / (a * totals)) if grad else value


_ONE = np.ones(1)


def normalized_cgf(
    table: np.ndarray,
    weights: np.ndarray,
    a: float,
    lo: np.ndarray,
    hi: np.ndarray,
    spread: float,
    grad: bool = False,
):
    """Normalized CGF of each row of an (actions x opponent profiles) table.

    Row r is the lottery paying table[r, c] with probability weights[c];
    zero weights are allowed.  lo and hi hold each row's minimum and maximum
    over a set of columns that contains the support, and spread is
    max(hi - lo), passed in so that a caller evaluating many weight vectors
    on one table computes it once.  a = 0 returns the means, and so does
    every a when spread = 0 (each row is constant); a = -inf / +inf return
    lo / hi.  Finite nonzero a uses the cumulant expansion
    E + a Var/2 + a^2 kappa3/6, clamped to [lo, hi], when
    |a| * spread < TAYLOR_CUTOFF (taylor_terms).  Otherwise it uses a
    log-sum-exp shifted by hi (a > 0) or lo (a < 0) (tilt_terms), which
    stays inside the support up to rounding; when the terms of some row
    underflow (its total falls below MIN_TOTAL), the shifts move to the
    extremes of the support itself.  The row sums are taken of cgf_grids'
    grids, which PhiEvaluator builds once per table and finishes for many
    weight vectors and atoms.

    grad=True returns (values, slopes) instead, where slopes[r, c] is the
    derivative of row r's value with respect to weights[c] along the
    simplex (up to a constant per row, which no direction inside it sees),
    made from the same grids as the values: the table itself at a = 0,
    zero at -inf / +inf (lo and hi do not move with the weights), a cubic
    in T - lo in the Taylor band (zero where the clamp holds), and the
    tilted weights exp(a(T - shift)) / (a E[exp(a(T - shift))]).
    """
    branch = _branch(a, spread)
    if branch == "extreme":
        value = hi if a > 0 else lo
        return (value, np.zeros(table.shape)) if grad else value
    atom = np.array([a], dtype=float)
    grids = cgf_grids(branch, table, atom, _ONE, lo, hi)
    sums = grids @ weights
    if branch == "exp" and sums.min() < MIN_TOTAL:
        reached = table[:, weights > 0]
        lo, hi = reached.min(axis=1), reached.max(axis=1)
        grids = cgf_grids(branch, table, atom, _ONE, lo, hi)
        sums = grids @ weights  # each total now holds the term exp(0) times a positive weight
    if branch == "mean":  # the grid carries the weight: a row's value is its sum, with coefficient one
        finished = (sums[0], np.ones(sums.shape)) if grad else sums[0]
    elif branch == "taylor":
        finished = taylor_terms(sums, a, lo, hi, grad)
    else:
        finished = tilt_terms(sums[0], a, hi if a > 0 else lo, grad)
    value, coefs = finished if grad else (finished, None)
    if branch != "mean":  # a zero comes out as 0.0, never -0.0, as from a weighted sum (the mean's, PhiEvaluator's)
        value = value + 0.0
    if not grad:
        return value
    slopes = np.zeros(table.shape)
    for coef, grid in zip(coefs.reshape(len(grids), -1), grids):
        slopes += coef[:, None] * grid
    return value, slopes


def k_a(x: Lottery, a: float) -> float:
    """Normalized CGF of the lottery at parameter a (extended real).

    a = 0 returns the expectation; a = -inf / +inf return the minimum and
    maximum of the support.  This is ``normalized_cgf`` on a one-row table.
    The result always lies in [min(x), max(x)].
    """
    if math.isnan(a):
        raise ValueError("a must not be NaN")
    lo, hi = x.outcomes[:1], x.outcomes[-1:]
    val = float(normalized_cgf(x.outcomes[None, :], x.weights, a, lo, hi, x.max() - x.min())[0])
    # Clamp float noise at the edges of the support.
    return min(max(val, x.min()), x.max())


@dataclass(frozen=True)
class MAStatistic:
    """Finite-atom mixture of normalized-CGF kernels.

    atoms: tuple of (location, weight) with distinct locations on the
    extended real line, positive weights summing to one.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("statistic needs at least one atom")
        cleaned = []
        seen = set()
        total = 0.0
        for a, w in self.atoms:
            a = float(a)
            w = float(w)
            if math.isnan(a):
                raise ValueError("atom location must not be NaN")
            if w <= 0:
                raise ValueError("atom weights must be positive")
            if a in seen:
                raise ValueError(f"duplicate atom location {a!r}")
            seen.add(a)
            cleaned.append((a, w))
            total += w
        if not abs(total - 1.0) <= ATOM_WEIGHT_SUM_TOL:  # NaN fails the test too
            raise ValueError(f"atom weights sum to {total!r}, expected 1")
        object.__setattr__(self, "atoms", tuple(sorted(cleaned)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def expectation(cls) -> "MAStatistic":
        return cls(((0.0, 1.0),))

    @classmethod
    def single(cls, a: float) -> "MAStatistic":
        return cls(((float(a), 1.0),))

    @classmethod
    def min_max_mean(cls, w_min: float, w_mean: float, w_max: float) -> "MAStatistic":
        """Worst/average/best-case mixture; zero weights are dropped."""
        atoms = [(NEG_INF, w_min), (0.0, w_mean), (POS_INF, w_max)]
        return cls(tuple((a, w) for a, w in atoms if w > 0))

    # -- queries -----------------------------------------------------------

    @property
    def has_extreme_atoms(self) -> bool:
        return any(math.isinf(a) for a, _ in self.atoms)

    @property
    def is_expectation(self) -> bool:
        return self.atoms == ((0.0, 1.0),)

    def weight_at(self, a: float) -> float:
        for loc, w in self.atoms:
            if loc == a:
                return w
        return 0.0

    def describe(self) -> str:
        def loc(a: float) -> str:
            if a == NEG_INF:
                return "-inf"
            if a == POS_INF:
                return "+inf"
            return f"{a:g}"

        return "{" + ", ".join(f"{loc(a)}: {w:g}" for a, w in self.atoms) + "}"

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        def loc(a: float):
            if a == NEG_INF:
                return "-inf"
            if a == POS_INF:
                return "+inf"
            return float(a)

        return {"atoms": [{"a": loc(a), "w": float(w)} for a, w in self.atoms]}

    @classmethod
    def from_json(cls, obj: dict) -> "MAStatistic":
        atoms = []
        for entry in obj["atoms"]:
            raw = entry["a"]
            if raw == "-inf":
                a = NEG_INF
            elif raw in ("+inf", "inf"):
                a = POS_INF
            else:
                a = float(raw)
            atoms.append((a, float(entry["w"])))
        return cls(tuple(atoms))

    @classmethod
    def load(cls, path: str) -> "MAStatistic":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


EXPECTATION = MAStatistic.expectation()


def evaluate(phi: MAStatistic, x: Lottery) -> float:
    """Value of the statistic on a lottery: the atom-weighted sum of kernels."""
    return float(sum(w * k_a(x, a) for a, w in phi.atoms))


def cara_certainty_equivalent(x: Lottery, a: float) -> float:
    """Certainty equivalent under constant-absolute-risk-aversion utility.

    Uses the utility f(t) = exp(a t) for a > 0 and f(t) = -exp(a t) for
    a < 0 (both strictly increasing) and returns f^{-1}(E[f(X)]).  Serves as
    an independent cross-check of ``k_a``: the two agree to high precision.
    Outcome shifting guards overflow for large |a| * outcome.
    """
    if a == 0.0 or not math.isfinite(a):
        raise ValueError("a must be finite and nonzero")
    shift = 0.0
    if np.max(np.abs(a * x.outcomes)) > 700.0:
        shift = x.max() if a > 0 else x.min()
    if a > 0:
        f_vals = np.exp(a * (x.outcomes - shift))
        mean_f = float(x.weights @ f_vals)
        return math.log(mean_f) / a + shift
    f_vals = -np.exp(a * (x.outcomes - shift))
    mean_f = float(x.weights @ f_vals)
    return math.log(-mean_f) / a + shift


def is_positively_homogeneous(
    phi: MAStatistic,
    trials: int = 64,
    tol: float = 1e-9,
    seed: int = 20240,
) -> bool:
    """Sampled test of phi[beta X] == beta phi[X].

    Guaranteed true when all atoms sit in {-inf, 0, +inf}; expected false on
    generic samples otherwise.  Sampling cannot prove the property, only
    certify the structural case and expose generic failures.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        outcomes = rng.uniform(-2.0, 2.0, size=n)
        weights = rng.dirichlet(np.ones(n))
        x = Lottery(outcomes, weights)
        beta = float(rng.uniform(0.05, 0.95))
        scaled = Lottery(beta * x.outcomes, x.weights)
        if abs(evaluate(phi, scaled) - beta * evaluate(phi, x)) > tol:
            return False
    return True
