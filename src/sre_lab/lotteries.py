"""Finitely supported lotteries on the real line.

A lottery is a finite list of (outcome, weight) atoms with positive weights
summing to one.  This module provides construction, convolution (sums of
independent draws), first-order stochastic dominance comparison, grid
approximations of the CDF, probability mixtures, affine rescaling, and a
brute-force scan for dominance of iterated independent sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

# Outcomes closer than this are merged into a single atom.
MERGE_TOL = 1e-12
# Atoms lighter than this are dropped and the rest renormalized.
WEIGHT_FLOOR = 1e-15
# Total weight must be within this of 1 on construction.
WEIGHT_SUM_TOL = 1e-12
# CDF comparison tolerance for Equal / weak verdicts.
CDF_TOL = 1e-10
# Gap beyond which a CDF difference counts as a strict dominance margin.
CDF_STRICT_TOL = 10 * CDF_TOL
# The most CDF differences fosd_table forms at once.
FOSD_BLOCK = 1 << 20


def _canonical(outcomes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of an outcome table in the canonical form of a Lottery.

    outcomes and weights are (rows, atoms); atoms of weight 0 are left out.
    Each row is sorted, and every outcome within MERGE_TOL of the lowest
    outcome of its group is merged onto it: a group starts at a row's
    lowest outcome and at each outcome more than MERGE_TOL above the start
    of the group before.  Groups lighter than WEIGHT_FLOOR are dropped as
    dust, and each row is renormalized.  Returns (sorted outcomes, weights)
    of the input's shape: a group's weight sits on its lowest outcome, every
    other atom has weight 0, and left-out atoms take the row's largest
    outcome, so they start no group.
    """
    present = weights > 0
    if not present.any(axis=1).all():  # a row with no atom to sort: its outcomes would all read -inf
        raise ValueError("lottery has no atoms left after filtering")
    xs = np.where(present, outcomes, np.where(present, outcomes, -np.inf).max(axis=1, keepdims=True))
    rows = np.arange(len(xs))[:, None]
    order = np.argsort(xs, axis=1, kind="stable")
    xs, ws = xs[rows, order], weights[rows, order]
    gaps = xs[:, 1:] - xs[:, :-1]
    starts = np.ones(xs.shape, dtype=bool)
    starts[:, 1:] = gaps > MERGE_TOL
    # Between two such gaps the first outcome starts the only group, unless
    # the smaller gaps add up to more than MERGE_TOL: walk the rows where they can.
    for r in np.flatnonzero(np.where(starts[:, 1:], 0.0, gaps).sum(axis=1) > MERGE_TOL).tolist():
        low = xs[r, 0]
        for c in range(1, xs.shape[1]):
            starts[r, c] = xs[r, c] - low > MERGE_TOL
            if starts[r, c]:
                low = xs[r, c]
    first = np.flatnonzero(starts)
    merged = np.zeros(ws.shape)
    merged.flat[first] = np.add.reduceat(ws.ravel(), first)
    merged[merged < WEIGHT_FLOOR] = 0.0
    total = merged.sum(axis=1, keepdims=True)
    if not (total > 0).all():  # NaN fails the test too
        raise ValueError("lottery has no atoms left after filtering")
    return xs, merged / total


@dataclass(frozen=True, eq=False)
class Lottery:
    """A finitely supported probability distribution over the reals.

    Atoms are kept sorted with strictly increasing outcomes; constructing a
    Lottery leaves out atoms of weight 0, merges each outcome within
    ``MERGE_TOL`` of the lowest outcome of its group onto it, and
    renormalizes after dropping weights below ``WEIGHT_FLOOR``.
    """

    outcomes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.outcomes, dtype=float).ravel()
        ws = np.asarray(self.weights, dtype=float).ravel()
        if xs.size == 0:
            raise ValueError("a lottery needs at least one atom")
        if xs.shape != ws.shape:
            raise ValueError("outcomes and weights must have equal length")
        if not np.all(np.isfinite(xs)):
            raise ValueError("outcomes must be finite")
        if np.any(ws < 0):
            raise ValueError("weights must be nonnegative")
        if not abs(ws.sum() - 1.0) <= WEIGHT_SUM_TOL:  # NaN fails the test too
            raise ValueError(f"weights sum to {ws.sum()!r}, expected 1")
        xs, ws = _canonical(xs[None], ws[None])
        keep = ws[0] > 0
        xs, ws = xs[0, keep], ws[0, keep]
        xs.setflags(write=False)
        ws.setflags(write=False)
        object.__setattr__(self, "outcomes", xs)
        object.__setattr__(self, "weights", ws)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_vector(cls, values: Sequence[float]) -> "Lottery":
        """Uniform lottery over the coordinates of a vector (duplicates merge)."""
        xs = np.asarray(values, dtype=float).ravel()
        if xs.size == 0:
            raise ValueError("empty vector")
        return cls(xs, np.full(xs.size, 1.0 / xs.size))

    @classmethod
    def degenerate(cls, value: float) -> "Lottery":
        return cls(np.array([float(value)]), np.array([1.0]))

    @classmethod
    def from_pairs(cls, atoms: Iterable[tuple[float, float]]) -> "Lottery":
        pairs = list(atoms)
        return cls(np.array([x for x, _ in pairs]), np.array([w for _, w in pairs]))

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return int(self.outcomes.size)

    def __repr__(self) -> str:
        atoms = ", ".join(f"{x:g}: {w:.6g}" for x, w in zip(self.outcomes, self.weights))
        return f"Lottery({{{atoms}}})"

    def mean(self) -> float:
        return float(self.weights @ self.outcomes)

    def min(self) -> float:
        return float(self.outcomes[0])

    def max(self) -> float:
        return float(self.outcomes[-1])

    def cdf(self, thresholds: np.ndarray) -> np.ndarray:
        """P(X <= t) for each t, treating outcomes within MERGE_TOL of t as <= t."""
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        idx = np.searchsorted(self.outcomes, np.asarray(thresholds, dtype=float) + MERGE_TOL)
        return cum[idx]

    def is_close(self, other: "Lottery", tol: float = 1e-9) -> bool:
        return (
            len(self) == len(other)
            and np.allclose(self.outcomes, other.outcomes, atol=tol, rtol=0)
            and np.allclose(self.weights, other.weights, atol=tol, rtol=0)
        )

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        return {"atoms": [{"x": float(x), "p": float(w)} for x, w in zip(self.outcomes, self.weights)]}

    @classmethod
    def from_json(cls, obj: dict) -> "Lottery":
        atoms = obj["atoms"]
        return cls.from_pairs((a["x"], a["p"]) for a in atoms)

    @classmethod
    def load(cls, path: str) -> "Lottery":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


class DominanceVerdict(Enum):
    """Outcome of a CDF comparison between two lotteries.

    STRICT_FOSD means the left lottery first-order dominates the right with a
    margin above ``CDF_STRICT_TOL``.  WEAK_ONLY means one-sided dominance was
    detected but the largest gap sits between the equality tolerance and the
    strictness threshold, so neither Equal nor a strict call is safe.
    """

    EQUAL = "equal"
    STRICT_FOSD = "strict_fosd"
    STRICT_FOSD_REVERSED = "strict_fosd_reversed"
    WEAK_ONLY = "weak_only"
    INCOMPARABLE = "incomparable"


def fosd_table(outcomes: np.ndarray, weights: np.ndarray, tol: float = CDF_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Compare every ordered pair of rows of an outcome table by CDF.

    Row a is the lottery that pays outcomes[a, c] with probability
    weights[c], or weights[a, c] when each row has its own weights; columns
    of weight 0 are left out.  Returns (verdict, weak), both k x k:
    verdict[a, b] is fosd_compare(row a, row b) and weak[a, b] is
    weakly_dominates(row a, row b).  Each row is first put in a Lottery's
    canonical form, near ties merged, by the same code as Lottery itself.
    All CDFs then come from one cumulative sum: each row's weights are
    placed on the table's sorted distinct outcomes and summed along them.
    A row holds each outcome at most once and adding 0 is exact, so each
    sum is the row's own running sum of its weights.  The CDFs are read at
    every outcome + MERGE_TOL, as Lottery.cdf reads them, and F_a - F_b is
    compared over the outcomes of rows a and b only, as fosd_compare
    compares it: an outcome of a third row within 2 * MERGE_TOL of theirs
    can fall where neither row's outcomes read.  The differences are formed
    for a block of rows a at a time, at most FOSD_BLOCK numbers at once.  A
    table with no rows gives 0 x 0 results.
    """
    return _fosd_blocks([(outcomes, weights)], tol)[0]


def _fosd_blocks(tables: Sequence[tuple[np.ndarray, np.ndarray]], tol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """fosd_table of each (outcomes, weights) table, all from one canonical form and one cumulative sum.

    The tables are stacked into one, the narrower ones padded with columns
    of weight 0, and each row is compared only with the rows of its own
    table.  A pair reads only its own rows' outcomes, so another table's
    outcomes change no verdict.  Padding can move a row's renormalized
    weights by an ulp, as numpy's pairwise sum groups a row's terms by its
    width; a Lottery of the row's held atoms differs from the table's row
    by the same rounding.
    """
    sizes = [len(o) for o, _ in tables]
    blocks = [slice(end - k, end) for end, k in zip(np.cumsum(sizes).tolist(), sizes)]
    outcomes = np.zeros((sum(sizes), max(np.shape(o)[1] for o, _ in tables)))
    weights = np.zeros(outcomes.shape)
    for (o, w), rows in zip(tables, blocks):
        outcomes[rows, : np.shape(o)[1]] = o
        weights[rows, : np.shape(o)[1]] = w
    xs, ws = _canonical(outcomes, weights)
    held = ws > 0
    atoms = xs[held]
    values = np.unique(atoms)
    # mass[a, 1 + j]: the weight row a holds at values[j]; column 0 is the 0 below every outcome.
    mass = np.zeros((len(xs), len(values) + 1))
    mass[np.nonzero(held)[0], np.searchsorted(values, atoms) + 1] = ws[held]
    own = mass[:, 1:] > 0
    # cdfs[a, j]: the weight of row a's outcomes below values[j] + MERGE_TOL.
    cdfs = np.cumsum(mass, axis=1)[:, np.searchsorted(values, values + MERGE_TOL)]
    # F_a - F_b at the outcomes of row a, then at those of row b: other points read -inf.
    left = np.concatenate([np.where(own, cdfs, -np.inf), cdfs], axis=1)
    right = np.concatenate([cdfs, np.where(own, cdfs, np.inf)], axis=1)
    # hi[a, b] = max F_a - F_b for rows a and b of one table, 0 elsewhere; the min is
    # -hi[b, a], as x - y = -(y - x) exactly.
    hi = np.zeros((len(xs), len(xs)))
    for rows, k in zip(blocks, sizes):
        step = max(1, FOSD_BLOCK // max(1, k * left.shape[1]))
        for a in range(rows.start, rows.stop, step):
            block = slice(a, min(a + step, rows.stop))
            np.max(left[block, None] - right[rows], axis=2, out=hi[block, rows])
    verdict, weak = _verdicts(hi, tol)
    return [(verdict[rows, rows], weak[rows, rows]) for rows in blocks]


def _verdicts(hi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """fosd_table's verdict and weak-dominance matrices from hi[a, b] = max F_a - F_b.

    The min of F_a - F_b is -hi[b, a].
    """
    if not 0 <= tol < math.inf:  # NaN fails the test too
        raise ValueError("tol must be nonnegative and finite")
    lo = -hi.T
    strict = max(CDF_STRICT_TOL, 10 * tol)
    below, above = hi <= tol, lo >= -tol
    # A gap beyond the strict threshold on the dominated side; it cannot occur when both hold.
    margin = (below & (lo < -strict)) | (above & (hi > strict))
    return _VERDICTS[4 * margin + 2 * below + above], below


# The verdict of a pair by 4 * margin + 2 * below + above (see _verdicts): equal
# when both F_a <= F_b + tol and F_a >= F_b - tol hold, strict when one of them
# holds with a margin, weak only when one holds without, incomparable when neither.
_VERDICTS = np.array(
    [
        DominanceVerdict.INCOMPARABLE,
        DominanceVerdict.WEAK_ONLY,
        DominanceVerdict.WEAK_ONLY,
        DominanceVerdict.EQUAL,
        DominanceVerdict.INCOMPARABLE,  # a margin without either: cannot occur
        DominanceVerdict.STRICT_FOSD_REVERSED,
        DominanceVerdict.STRICT_FOSD,
        DominanceVerdict.EQUAL,  # a margin with both: cannot occur
    ],
    dtype=object,
)


def _pair_gaps(left: Lottery, right: Lottery) -> np.ndarray:
    """fosd_table's hi for the two-row table of left and right, read off the lotteries themselves.

    A Lottery's atoms are already in the canonical form fosd_table puts each
    row in, so the CDFs are read by Lottery.cdf at every outcome of either,
    the only outcomes that pair's comparison reads.
    """
    grid = np.concatenate([left.outcomes, right.outcomes])
    gap = left.cdf(grid) - right.cdf(grid)
    return np.array([[0.0, gap.max()], [-gap.min(), 0.0]])


def fosd_compare(left: Lottery, right: Lottery, tol: float = CDF_TOL) -> DominanceVerdict:
    """Compare CDFs on the merged outcome grid.

    Dominance is lower-CDF: left dominates when F_left <= F_right everywhere
    and is strictly below somewhere.  This is fosd_table's verdict on the
    two lotteries as rows.
    """
    return _verdicts(_pair_gaps(left, right), tol)[0][0, 1]


def weakly_dominates(left: Lottery, right: Lottery, tol: float = CDF_TOL) -> bool:
    """True when F_left <= F_right + tol everywhere (left >= right in FOSD)."""
    return bool(_verdicts(_pair_gaps(left, right), tol)[1][0, 1])


def convolve(x: Lottery, y: Lottery) -> Lottery:
    """Distribution of the sum of independent draws from x and y."""
    sums = np.add.outer(x.outcomes, y.outcomes).ravel()
    wts = np.multiply.outer(x.weights, y.weights).ravel()
    return Lottery(sums, wts)


def iid_sum(x: Lottery, m: int) -> Lottery:
    """Sum of m independent copies of x, computed by iterated doubling."""
    if m < 1:
        raise ValueError("m must be >= 1")
    result: Optional[Lottery] = None
    base = x
    while m:
        if m & 1:
            result = base if result is None else convolve(result, base)
        m >>= 1
        if m:
            base = convolve(base, base)
    assert result is not None
    return result


def mix(x: Lottery, beta: float, z: Lottery) -> Lottery:
    """Compound lottery equal to x with probability beta and z otherwise."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if beta == 1.0:
        return x
    if beta == 0.0:
        return z
    return Lottery(
        np.concatenate([x.outcomes, z.outcomes]),
        np.concatenate([beta * x.weights, (1.0 - beta) * z.weights]),
    )


def scale_shift(x: Lottery, alpha: float, shift: float = 0.0) -> Lottery:
    """Lottery of alpha * X + shift; alpha = 0 collapses to the point mass at shift."""
    if alpha == 0.0:
        return Lottery.degenerate(shift)
    return Lottery(alpha * x.outcomes + shift, x.weights)


def _grid_cdf(x: Lottery, n: int, round_up: bool) -> Lottery:
    if n < 1 or n > 20:
        raise ValueError("n must be in 1..20 so that n! stays representable")
    fact = math.factorial(n)
    cdf = np.cumsum(x.weights)
    scaled = cdf * fact
    # Snap to integers before rounding: float noise must not flip ceil/floor.
    snapped = np.rint(scaled)
    near = np.abs(scaled - snapped) <= 1e-6
    rounded = np.where(near, snapped, np.ceil(scaled) if round_up else np.floor(scaled))
    rounded[-1] = fact
    rounded = np.maximum.accumulate(np.clip(rounded, 0, fact))
    new_cdf = rounded / fact
    wts = np.diff(np.concatenate([[0.0], new_cdf]))
    keep = wts > 0
    return Lottery(x.outcomes[keep], wts[keep])


def grid_lower(x: Lottery, n: int) -> Lottery:
    """FOSD lower approximation: CDF rounded up to the 1/n! grid on x's support."""
    return _grid_cdf(x, n, round_up=True)


def grid_upper(x: Lottery, n: int) -> Lottery:
    """FOSD upper approximation: CDF rounded down to the 1/n! grid on x's support."""
    return _grid_cdf(x, n, round_up=False)


# Probe locations standing in for "all a in the extended reals".  A finite
# grid can miss a violation, so the scan below stays the ground truth.
PROBE_GRID: tuple[float, ...] = tuple(
    [0.0]
    + [s * (2.0**k) * 0.01 for k in range(15) for s in (1.0, -1.0)]
    + [math.inf, -math.inf]
)

MAX_LARGE_NUMBERS_CAP = 512


@dataclass(frozen=True)
class LargeNumbersResult:
    """Outcome of a dominance-in-large-numbers scan.

    verdict is one of "found" (m holds the least threshold), "cap_exceeded"
    (hypothesis probe passed but no dominance run reached the cap), or
    "hypothesis_violated" (the CGF probe found a failure; probe_failures
    lists the offending locations).
    """

    verdict: str
    m: Optional[int] = None
    probe_failures: tuple[float, ...] = ()

    @property
    def found(self) -> bool:
        return self.verdict == "found"


def dominates_in_large_numbers(x: Lottery, y: Lottery, cap: int = MAX_LARGE_NUMBERS_CAP) -> LargeNumbersResult:
    """Scan for the least M with X^m strictly dominating Y^m for all m in [M, cap].

    Precondition: the normalized CGF of x strictly exceeds that of y on the
    probe grid (a heuristic stand-in for all extended reals).  The scan uses
    brute-force convolution and is the actual certificate; not finding M by
    the cap is reported, not raised.
    """
    from .statistics import k_a

    if cap < 1 or cap > MAX_LARGE_NUMBERS_CAP:
        raise ValueError(f"cap must be in 1..{MAX_LARGE_NUMBERS_CAP}")
    failures = tuple(a for a in PROBE_GRID if not k_a(x, a) > k_a(y, a))
    if failures:
        return LargeNumbersResult("hypothesis_violated", probe_failures=failures)
    x_m, y_m = x, y
    dominant = np.zeros(cap, dtype=bool)
    for m in range(1, cap + 1):
        if m > 1:
            x_m = convolve(x_m, x)
            y_m = convolve(y_m, y)
        dominant[m - 1] = fosd_compare(x_m, y_m) is DominanceVerdict.STRICT_FOSD
    run_start = None
    for i in range(cap - 1, -1, -1):
        if dominant[i]:
            run_start = i + 1
        else:
            break
    if run_start is None:
        return LargeNumbersResult("cap_exceeded")
    return LargeNumbersResult("found", m=run_start)
