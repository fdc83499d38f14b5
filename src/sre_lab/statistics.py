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
    on one table computes it once.  a = 0 returns the means and a = -inf /
    +inf return lo / hi.  Finite nonzero a uses the cumulant expansion
    E + a Var/2 + a^2 kappa3/6, clamped to [lo, hi], when
    |a| * spread < TAYLOR_CUTOFF.  Otherwise it uses a log-sum-exp shifted
    by hi (a > 0) or lo (a < 0), which stays inside the support up to
    rounding; when every term of some row underflows, the shifts move to
    the extremes of the support itself.

    grad=True returns (values, slopes) instead, where slopes[r, c] is the
    derivative of row r's value with respect to weights[c] at weights that
    sum to one, made from the same intermediates as the values: the table
    itself at a = 0, zero at -inf / +inf (lo and hi do not move with the
    weights), the derivative of the clamped expansion (zero where the clamp
    holds), and the tilted weights exp(a(T - shift)) / (a E[exp(a(T - shift))]).
    """
    if a == 0.0:
        value = table @ weights
        return (value, table) if grad else value
    if math.isinf(a):
        value = hi if a > 0 else lo
        return (value, np.zeros(table.shape)) if grad else value
    if abs(a) * spread < TAYLOR_CUTOFF:
        m1 = table @ weights
        centered = table - m1[:, None]
        squared = centered * centered
        cubed = squared * centered
        var = squared @ weights
        kappa3 = cubed @ weights
        raw = m1 + a * var / 2.0 + a * a * kappa3 / 6.0
        value = np.minimum(np.maximum(raw, lo), hi)
        if not grad:
            return value
        # On the simplex, dVar/dw_c = (T_c - E)^2 and dkappa3/dw_c = (T_c - E)^3 - 3 T_c Var.
        slopes = table + a * squared / 2.0 + a * a * (cubed - 3.0 * table * var[:, None]) / 6.0
        slopes[(raw < lo) | (raw > hi)] = 0.0
        return value, slopes
    shift = hi if a > 0 else lo
    tilted = np.exp(a * (table - shift[:, None]))
    total = tilted @ weights
    if (total <= 0).any():
        reached = table[:, weights > 0]
        shift = reached.max(axis=1) if a > 0 else reached.min(axis=1)
        # Columns outside the support can lie beyond the new shift, where exp
        # overflows and inf * 0 would turn the total into NaN; their weight is
        # zero, so capping the exponent at 0 leaves the values alone.
        tilted = np.exp(np.minimum(a * (table - shift[:, None]), 0.0))
        total = tilted @ weights
    value = shift + np.log(total) / a
    return (value, tilted / (a * total)[:, None]) if grad else value


def k_a(x: Lottery, a: float) -> float:
    """Normalized CGF of the lottery at parameter a (extended real).

    a = 0 returns the expectation; a = -inf / +inf return the minimum and
    maximum of the support.  This is ``normalized_cgf`` on a one-row table.
    The result always lies in [min(x), max(x)].
    """
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
        if abs(total - 1.0) > ATOM_WEIGHT_SUM_TOL:
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
