"""Exact long-run analysis of memory-one pairs and tournament-level sweeps.

A pair of memory-one strategies induces a 4-state Markov chain over the
joint outcomes (CC, CD, DC, DD) in the first player's orientation.  Its
long-run law from a uniform start is solved exactly, in integers: each closed
class's stationary law (Markov chain tree theorem), weighted by the chance of
ending in that class (Kemeny & Snell, *Finite Markov Chains*, 1960, ch. III).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction
from itertools import combinations
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
    total = math.lcm(*(v.denominator for v in row))
    return [v.numerator * (total // v.denominator) for v in row], total


@dataclass(frozen=True)
class JointChain:
    """Exact row-stochastic 4x4 transition matrix over joint outcomes; also
    held as integers, ``transition[i][j] == weights[i][j] / totals[i]``."""

    transition: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(v if isinstance(v, Fraction) else Fraction(v) for v in row)
                     for row in self.transition)
        if len(rows) != 4 or any(len(row) != 4 for row in rows):
            raise ValueError("transition matrix must be 4x4")
        weights, totals = zip(*(_scaled(row) for row in rows))
        if any(w < 0 for row in weights for w in row):
            raise ValueError("transition entries must lie in [0, 1]")
        if any(sum(row) != total for row, total in zip(weights, totals)):
            raise ValueError("transition rows must sum to 1")
        object.__setattr__(self, "transition", rows)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "totals", totals)


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
    """Joint transition matrix of the pair, in x's orientation."""
    xv, yv = x.vector(), y.vector()
    rows = []
    for i in range(4):
        a, b = xv[i].numerator, xv[i].denominator
        c, d = yv[MIRROR_CODE[i]].numerator, yv[MIRROR_CODE[i]].denominator
        rows.append((Fraction(a * c, b * d), Fraction(a * (d - c), b * d),
                     Fraction((b - a) * c, b * d), Fraction((b - a) * (d - c), b * d)))
    return JointChain(tuple(rows))


def _det(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix of order 0 to 3."""
    if len(m) == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return m[0][0] if m else 1


def _block(m: list[list[int]], states: Sequence[int]) -> list[list[int]]:
    return [[m[i][j] for j in states] for i in states]


def _tree_weights(lap, totals, states) -> list[int]:
    """Markov chain tree theorem: w_j = D_j * det(L on ``states`` without j) is
    proportional to the stationary law if ``states`` hold one closed class."""
    return [totals[j] * _det(_block(lap, [k for k in states if k != j])) for j in states]


def stationary(chain: JointChain) -> StationaryResult:
    """Exact long-run distribution of the chain from a uniform start."""
    weights, totals = chain.weights, chain.totals
    lap = [[(totals[i] if i == j else 0) - weights[i][j] for j in range(4)]
           for i in range(4)]  # L = diag(D) - W
    tree = _tree_weights(lap, totals, range(4))
    total = sum(tree)
    if total:  # one closed class: the same law as the mixture below, at half the cost
        return StationaryResult(tuple(Fraction(w, total) for w in tree), DIRECT_SOLVE, True)
    # several closed classes: the minimal sets of states no transition leaves
    closed = [set(c) for n in range(1, 4) for c in combinations(range(4), n)
              if not any(weights[i][j] for i in c for j in range(4) if j not in c)]
    classes = [sorted(c) for c in closed if not any(other < c for other in closed)]
    transient = [i for i in range(4) if not any(i in c for c in classes)]
    lap_t = _block(lap, transient)
    det = _det(lap_t)
    dist = [Fraction(0)] * 4
    for members in classes:
        # 4 det times the chance of ending in the class: its start mass plus the
        # absorption chances x of L_TT x = (weight into it), by Cramer's rule
        into = [sum(weights[i][j] for j in members) for i in transient]
        ending = len(members) * det + sum(
            _det([row[:k] + [b] + row[k + 1:] for row, b in zip(lap_t, into)])
            for k in range(len(transient)))
        tree = _tree_weights(lap, totals, members)
        for j, w in zip(members, tree):
            dist[j] = Fraction(ending * w, 4 * det * sum(tree))
    return StationaryResult(tuple(dist), CLASS_MIXTURE, False)


def _exact_payoffs(x, y, pm: PayoffMatrix) -> tuple[Fraction, Fraction, StationaryResult]:
    result = stationary(build_chain(x, y))
    mass, mass_total = _scaled(result.distribution)
    pay, pay_total = _scaled(pm.focal)
    den = mass_total * pay_total
    return (Fraction(sum(m * pay[k] for k, m in enumerate(mass)), den),
            Fraction(sum(m * pay[MIRROR_CODE[k]] for k, m in enumerate(mass)), den), result)


def long_run_payoffs(
    x: MemoryOneStrategy,
    y: MemoryOneStrategy,
    pm: PayoffMatrix = DEFAULT_PAYOFFS,
) -> LongRunPayoffs:
    """Per-turn payoffs of both players under the chain's long-run distribution."""
    px, py, result = _exact_payoffs(x, y, pm)
    return LongRunPayoffs(float(px), float(py), result.method, result.ergodic)


def zd_residual(
    x: MemoryOneStrategy,
    y: MemoryOneStrategy,
    slope: float,
    intercept: float,
    pm: PayoffMatrix = DEFAULT_PAYOFFS,
) -> ZdCheck:
    """How far the pair's long-run payoffs sit from Px = slope*Py + intercept,
    computed exactly and rounded once."""
    px, py, result = _exact_payoffs(x, y, pm)
    residual = px - (Fraction(slope) * py + Fraction(intercept))
    return ZdCheck(float(residual), float(px), float(py), result.method, result.ergodic)


def simulate_long_run(
    x: MemoryOneStrategy,
    y: MemoryOneStrategy,
    pm: PayoffMatrix = DEFAULT_PAYOFFS,
    steps: int = 10**6,
    seed: int = 0,
) -> tuple[float, float]:
    """Single-trajectory empirical payoffs; independent check on the solver."""
    thresholds = [(float(a), float(a + b), float(a + b + c))
                  for a, b, c, _ in build_chain(x, y).transition]
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
        predictor_names = [s.name for s in point_roster if isinstance(s, PredictorSpec)]
        name = predictor_names[0]
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
