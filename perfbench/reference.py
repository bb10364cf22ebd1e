"""Exact long-run distribution of a memory-one pair, in rational arithmetic.

A pair of memory-one strategies induces a 4-state chain over the joint
outcomes (CC, CD, DC, DD) in the first player's orientation.  The chain may
have several closed communicating classes (TFT against itself has three).
Its long-run (Cesaro) distribution from a uniform start is the mixture of
each closed class's stationary law, weighted by the probability of ending
in that class: the start mass already inside it plus the absorption
probabilities of the transient states, from the fundamental matrix of the
transient part (Kemeny & Snell, *Finite Markov Chains*, 1960, ch. III).

This module is the benchmark's reference for the ``longrun`` workload.  It
does not import predipd, so it stays independent of the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

#: The CD and DC states swap when the chain is seen from the second player.
MIRROR = (0, 2, 1, 3)


def transition(px: Sequence[Fraction], py: Sequence[Fraction]) -> list[list[Fraction]]:
    """Exact 4x4 transition matrix, states in (CC, CD, DC, DD) order.

    ``px`` and ``py`` are each player's cooperation probabilities after
    (CC, CD, DC, DD) in that player's own orientation.
    """
    rows = []
    for i in range(4):
        a = Fraction(px[i])
        b = Fraction(py[MIRROR[i]])
        rows.append([a * b, a * (1 - b), (1 - a) * b, (1 - a) * (1 - b)])
    return rows


def _solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve the nonsingular system a x = b by Gauss-Jordan elimination."""
    n = len(b)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _closed_classes(t: list[list[Fraction]]) -> list[tuple[int, ...]]:
    reach = [[i == j or t[i][j] > 0 for j in range(4)] for i in range(4)]
    for k in range(4):
        for i in range(4):
            if reach[i][k]:
                for j in range(4):
                    reach[i][j] = reach[i][j] or reach[k][j]
    classes = {tuple(j for j in range(4) if reach[i][j] and reach[j][i]) for i in range(4)}
    return sorted(
        c for c in classes
        if all(j in c for i in c for j in range(4) if t[i][j] > 0)
    )


def _class_stationary(t: list[list[Fraction]], members: tuple[int, ...]) -> list[Fraction]:
    """Stationary law of an irreducible closed class: pi P = pi, sum pi = 1."""
    rows = [
        [t[i][j] - (1 if i == j else 0) for i in members]
        for j in members[:-1]
    ]
    rows.append([Fraction(1)] * len(members))
    return _solve(rows, [Fraction(0)] * (len(members) - 1) + [Fraction(1)])


@dataclass(frozen=True)
class LongRun:
    transition: tuple[tuple[Fraction, ...], ...]
    distribution: tuple[Fraction, ...]
    closed_classes: tuple[tuple[int, ...], ...]

    @property
    def ergodic(self) -> bool:
        """One closed class, so the stationary distribution is unique."""
        return len(self.closed_classes) == 1

    def payoffs(self, r, s, t, p) -> tuple[Fraction, Fraction]:
        """Per-turn long-run payoffs of the first and the second player."""
        d = self.distribution
        return (
            d[0] * r + d[1] * s + d[2] * t + d[3] * p,
            d[0] * r + d[1] * t + d[2] * s + d[3] * p,
        )


def long_run(px: Sequence[Fraction], py: Sequence[Fraction]) -> LongRun:
    """Long-run distribution of the pair from a uniform start over the 4 states."""
    t = transition(px, py)
    closed = _closed_classes(t)
    recurrent = {i for c in closed for i in c}
    transient = [i for i in range(4) if i not in recurrent]
    quarter = Fraction(1, 4)
    dist = [Fraction(0)] * 4
    for members in closed:
        weight = quarter * len(members)
        if transient:
            # absorption probabilities into this class: (I - Q) x = R 1_class
            i_minus_q = [
                [(1 if i == j else 0) - t[i][j] for j in transient] for i in transient
            ]
            into = [sum(t[i][j] for j in members) for i in transient]
            weight += quarter * sum(_solve(i_minus_q, into))
        for k, pi in zip(members, _class_stationary(t, members)):
            dist[k] += weight * pi
    return LongRun(
        transition=tuple(tuple(row) for row in t),
        distribution=tuple(dist),
        closed_classes=tuple(closed),
    )
