"""Exact long-run analysis of memory-one pairs and tournament-level sweeps.

A pair of memory-one strategies induces a 4-state Markov chain over the
joint outcomes (CC, CD, DC, DD) in the first player's orientation.  The chain
is held in integers, each row as weights over a row total, built from the
strategies' probabilities as numerator/denominator pairs.  Its long-run law
from a uniform start is solved in integers: each closed class's stationary
law (Markov chain tree theorem), weighted by the chance of ending in that
class (Kemeny & Snell, *Finite Markov Chains*, 1960, ch. III).  Payoffs and
ZD residuals are scored on that law in integers and rounded to a float once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction
from typing import Sequence

from .core import DEFAULT_PAYOFFS, MIRROR_CODE, PayoffMatrix
from .engine import MatchConfig, PlayerSpec, PredictorSpec, run_round_robin
from .strategies import MemoryOneStrategy

DIRECT_SOLVE = "direct-solve"
CLASS_MIXTURE = "class-mixture"
#: Former name of the multi-class method; perfbench/selftest.py still uses it.
SIMULATION_FALLBACK = CLASS_MIXTURE


def _scaled(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """A row of fractions as integers over the lcm of its denominators."""
    ratios = [v.as_integer_ratio() for v in row]
    total = math.lcm(*[d for _, d in ratios])
    return [n * (total // d) for n, d in ratios], total


@dataclass(frozen=True, eq=False)
class JointChain:
    """Exact 4x4 transition matrix over joint outcomes, held in integers: from
    state i the chain moves to state j with chance ``weights[i][j] / totals[i]``."""

    weights: tuple[tuple[int, ...], ...]
    totals: tuple[int, ...]

    def __post_init__(self):
        weights, totals = self.weights, self.totals
        if len(weights) != 4 or len(totals) != 4 or set(map(len, weights)) != {4}:
            raise ValueError("transition matrix must be 4x4")
        if min(map(min, weights)) < 0:
            raise ValueError("transition entries must lie in [0, 1]")
        if min(totals) <= 0 or tuple(map(sum, weights)) != tuple(totals):
            raise ValueError("transition rows must sum to 1")

    @classmethod
    def from_transition(cls, transition: Sequence[Sequence]) -> JointChain:
        """The chain of a matrix of exact numbers: anything ``Fraction`` takes,
        floats by their binary value."""
        scaled = [_scaled([Fraction(v) for v in row]) for row in transition]
        return cls(tuple(tuple(row) for row, _ in scaled), tuple(total for _, total in scaled))

    @property
    def transition(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as fractions, built on each access."""
        return tuple(tuple(Fraction(w, total) for w in row)
                     for row, total in zip(self.weights, self.totals))


@dataclass(frozen=True)
class StationaryResult:
    distribution: tuple[Fraction, ...]
    method: str  # DIRECT_SOLVE (one closed class) or CLASS_MIXTURE
    ergodic: bool  # one closed class, so the stationary law is unique


@dataclass(frozen=True)
class LongRunPayoffs:
    payoff_x: float
    payoff_y: float
    method: str
    ergodic: bool


@dataclass(frozen=True)
class ZdCheck:
    """Residual of a candidate linear payoff relation Px = slope*Py + intercept."""

    residual: float
    payoff_x: float
    payoff_y: float
    method: str
    ergodic: bool


def build_chain(x: MemoryOneStrategy, y: MemoryOneStrategy) -> JointChain:
    """Joint transition matrix of the pair, in x's orientation.  From state i,
    x cooperates with chance a/b and y with chance c/d, so the row's weights
    over the total b*d are (a*c, a*(d-c), (b-a)*c, (b-a)*(d-c))."""
    weights, totals = [], []
    for (a, b), k in zip(x.ratios, MIRROR_CODE):
        c, d = y.ratios[k]
        weights.append((a * c, a * (d - c), (b - a) * c, (b - a) * (d - c)))
        totals.append(b * d)
    return JointChain(tuple(weights), tuple(totals))


def _minor(m: list[list[int]], idx: Sequence[int]) -> int:
    """Determinant of the integer matrix m restricted to the rows and columns
    ``idx`` (0 to 3 of them)."""
    if len(idx) == 3:
        p, q, r = idx
        mp, mq, mr = m[p], m[q], m[r]
        return (mp[p] * (mq[q] * mr[r] - mq[r] * mr[q])
                - mp[q] * (mq[p] * mr[r] - mq[r] * mr[p])
                + mp[r] * (mq[p] * mr[q] - mq[q] * mr[p]))
    if len(idx) == 2:
        p, q = idx
        return m[p][p] * m[q][q] - m[p][q] * m[q][p]
    return m[idx[0]][idx[0]] if idx else 1


def _tree_weights(lap, totals, states) -> list[int]:
    """Markov chain tree theorem: w_j = D_j * det(L on ``states`` without j) is
    proportional to the stationary law if ``states`` hold one closed class."""
    return [totals[j] * _minor(lap, [k for k in states if k != j]) for j in states]


def stationary(chain: JointChain) -> StationaryResult:
    """Exact long-run distribution of the chain from a uniform start."""
    weights, totals = chain.weights, chain.totals
    lap = [[-w for w in row] for row in weights]  # L = diag(D) - W
    for i, total in enumerate(totals):
        lap[i][i] += total
    tree = _tree_weights(lap, totals, range(4))
    total = sum(tree)
    if total:  # one closed class: the same law as the mixture below, at half the cost
        return StationaryResult(tuple([Fraction(w, total) for w in tree]), DIRECT_SOLVE, True)
    # several closed classes.  reach[i] is the bitmask of the states i reaches;
    # i is recurrent iff each of them reaches i back, and its class is reach[i]
    reach = [1 << i for i in range(4)]
    for i, row in enumerate(weights):
        for j, w in enumerate(row):
            if w:
                reach[i] |= 1 << j
    for k in range(4):  # transitive closure (Warshall)
        for i in range(4):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    classes = []
    recurrent = 0
    for i, mask in enumerate(reach):
        members = [j for j in range(4) if mask >> j & 1]
        # each class once, at its first member
        if members[0] == i and all(reach[j] == mask for j in members):
            classes.append(members)
            recurrent |= mask
    transient = [i for i in range(4) if not recurrent >> i & 1]
    lap_t = [[lap[i][j] for j in transient] for i in transient]
    det = _minor(lap_t, range(len(transient)))
    dist = [Fraction(0)] * 4
    for members in classes:
        # 4 det times the chance of ending in the class: its start mass plus the
        # absorption chances x of L_TT x = (weight into it), by Cramer's rule
        into = [sum(weights[i][j] for j in members) for i in transient]
        ending = len(members) * det + sum(
            _minor([row[:k] + [b] + row[k + 1:] for row, b in zip(lap_t, into)],
                   range(len(transient)))
            for k in range(len(transient)))
        tree = _tree_weights(lap, totals, members)
        for j, w in zip(members, tree):
            dist[j] = Fraction(ending * w, 4 * det * sum(tree))
    return StationaryResult(tuple(dist), CLASS_MIXTURE, False)


def _exact_payoffs(x, y, pm: PayoffMatrix) -> tuple[int, int, int, StationaryResult]:
    """Both players' long-run payoffs as integers over one denominator."""
    result = stationary(build_chain(x, y))
    masses, mass_total = _scaled(result.distribution)
    return (*pm.totals(masses), mass_total * pm.scale, result)


def long_run_payoffs(
    x: MemoryOneStrategy,
    y: MemoryOneStrategy,
    pm: PayoffMatrix = DEFAULT_PAYOFFS,
) -> LongRunPayoffs:
    """Per-turn payoffs of both players under the chain's long-run distribution;
    each an int/int division, so rounded once, as ``float(Fraction)`` is."""
    px, py, den, result = _exact_payoffs(x, y, pm)
    return LongRunPayoffs(px / den, py / den, result.method, result.ergodic)


def zd_residual(
    x: MemoryOneStrategy,
    y: MemoryOneStrategy,
    slope: float,
    intercept: float,
    pm: PayoffMatrix = DEFAULT_PAYOFFS,
) -> ZdCheck:
    """How far the pair's long-run payoffs sit from Px = slope*Py + intercept,
    computed exactly and rounded once."""
    px, py, den, result = _exact_payoffs(x, y, pm)
    sn, sd = Fraction(slope).as_integer_ratio()
    cn, cd = Fraction(intercept).as_integer_ratio()
    residual = (px * sd * cd - sn * py * cd - cn * sd * den) / (den * sd * cd)
    return ZdCheck(residual, px / den, py / den, result.method, result.ergodic)


def simulate_long_run(
    x: MemoryOneStrategy,
    y: MemoryOneStrategy,
    pm: PayoffMatrix = DEFAULT_PAYOFFS,
    steps: int = 10**6,
    seed: int = 0,
) -> tuple[float, float]:
    """Single-trajectory empirical payoffs; independent check on the solver."""
    chain = build_chain(x, y)
    thresholds = [(a / total, (a + b) / total, (a + b + c) / total)
                  for (a, b, c, _), total in zip(chain.weights, chain.totals)]
    pay_x = [float(v) for v in pm.focal]
    pay_y = [pay_x[MIRROR_CODE[k]] for k in range(4)]
    rng = random.Random(seed)
    state = rng.randrange(4)
    total_x = 0.0
    total_y = 0.0
    rnd = rng.random
    for _ in range(steps):
        u = rnd()
        t0, t1, t2 = thresholds[state]
        state = (u > t0) + (u > t1) + (u > t2)
        total_x += pay_x[state]
        total_y += pay_y[state]
    return total_x / steps, total_y / steps


@dataclass(frozen=True)
class SweepRow:
    p_exp: float
    average: float
    delta_vs_zdgtft2: float
    place: int
    wins: int


def exploration_sweep(
    roster: Sequence[PlayerSpec],
    cfg: MatchConfig,
    n_iter: int,
    p_exp_grid: Sequence[float],
    master_seed: int,
) -> list[SweepRow]:
    """One full round robin per grid point, identical seeds throughout;
    only the learning agent's exploration window changes."""
    if not any(isinstance(spec, PredictorSpec) for spec in roster):
        raise ValueError("exploration sweep needs a learning-agent roster entry")
    rows = []
    for p_exp in p_exp_grid:
        if not 0 <= p_exp <= 1:
            raise ValueError(f"p_exp grid value {p_exp} outside [0, 1]")
        point_roster = [
            dc_replace(spec, p_exp=p_exp) if isinstance(spec, PredictorSpec) else spec
            for spec in roster
        ]
        result = run_round_robin(point_roster, cfg, n_iter, master_seed)
        name = PredictorSpec.name
        avg = result.averages[name]
        zd = result.averages.get("ZDGTFT-2", float("nan"))
        rows.append(
            SweepRow(
                p_exp=p_exp,
                average=avg,
                delta_vs_zdgtft2=avg - zd,
                place=result.ranking.index(name) + 1,
                wins=result.wins[name],
            )
        )
    return rows


def fit_inverse_sqrt(series: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Least squares fit of value ~ a + b / sqrt(n); returns (a, b, rms residual).

    The normal equations are solved exactly over the float inputs and the
    results rounded once; with a single n, b is 0 and a is the mean."""
    if not series:
        raise ValueError("series must not be empty")
    if any(n < 1 for n, _ in series):
        raise ValueError("all n values must be >= 1")
    xs = [Fraction(1.0 / math.sqrt(n)) for n, _ in series]
    vs = [Fraction(v) for _, v in series]
    m, sx, sv = len(xs), sum(xs), sum(vs)
    sxx, sxv = sum(x * x for x in xs), sum(x * v for x, v in zip(xs, vs))
    det = m * sxx - sx * sx
    b = (m * sxv - sx * sv) / det if det else Fraction(0)
    a = (sv - b * sx) / m
    mean_square = sum((v - a - b * x) ** 2 for x, v in zip(xs, vs)) / m
    return float(a), float(b), math.sqrt(mean_square)
