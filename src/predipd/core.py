"""Stage-game primitives: actions, joint outcomes and the payoff matrix.

Payoff values are kept as exact rationals so that every expected-payoff
comparison downstream is reproducible regardless of summation order or
platform; only reported averages are converted to floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from numbers import Rational


class Action(Enum):
    """One player's move in a single turn: cooperate or defect."""

    C = "C"
    D = "D"

    @property
    def other(self) -> "Action":
        return Action.D if self is Action.C else Action.C

    def __str__(self) -> str:
        return self.value


class JointOutcome(IntEnum):
    """Ordered pair of moves in one turn, focal player's move first; its value
    is the outcome code 2 * (focal player defected) + (opponent defected)."""

    CC = 0
    CD = 1
    DC = 2
    DD = 3

    @classmethod
    def from_actions(cls, self_action: Action, opponent_action: Action) -> "JointOutcome":
        return OUTCOMES[2 * (self_action is Action.D) + (opponent_action is Action.D)]

    @property
    def self_action(self) -> Action:
        return Action.D if self & 2 else Action.C

    @property
    def opponent_action(self) -> Action:
        return Action.D if self & 1 else Action.C

    @property
    def mirror(self) -> "JointOutcome":
        """The same turn seen from the opponent's side."""
        return OUTCOMES[MIRROR_CODE[self]]

    def __str__(self) -> str:
        return self.name

    def __format__(self, spec: str) -> str:
        return format(self.name, spec)


#: Canonical state order used for vectors and transition matrices.
OUTCOMES = tuple(JointOutcome)

#: Pseudo-code standing for "no previous turn" on the opening turn.
OPENING = 4

#: The one mirroring rule: the code of the same turn seen from the other side.
MIRROR_CODE = (0, 2, 1, 3, OPENING)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    # a float becomes the nearest fraction with denominator <= 1e9: 0.1 is 1/10
    return Fraction(x).limit_denominator(10**9)


@dataclass(frozen=True)
class PayoffMatrix:
    """Symmetric stage-game payoffs (reward, sucker, temptation, punishment).

    The dilemma requires sucker < punishment < reward < temptation and
    2*reward > temptation + sucker.  ``focal`` holds the focal player's
    payoff for each joint outcome, indexed by outcome: (R, S, T, P).
    ``scaled`` is ``focal`` times ``scale``, the lcm of its denominators: the
    same payoffs as integers in the same ratios.
    """

    reward: Fraction = Fraction(3)
    sucker: Fraction = Fraction(0)
    temptation: Fraction = Fraction(5)
    punishment: Fraction = Fraction(1)

    def __post_init__(self):
        for field in ("reward", "sucker", "temptation", "punishment"):
            object.__setattr__(self, field, _as_fraction(getattr(self, field)))
        focal = (self.reward, self.sucker, self.temptation, self.punishment)
        scale = math.lcm(*(v.denominator for v in focal))
        object.__setattr__(self, "focal", focal)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled", tuple(int(v * scale) for v in focal))

    def payoff(self, outcome: JointOutcome) -> tuple[Fraction, Fraction]:
        """Focal player's and opponent's payoff for one joint outcome."""
        return self.focal[outcome], self.focal[MIRROR_CODE[outcome]]

    def violations(self) -> list[str]:
        """Names of every ordering constraint that fails; empty means valid."""
        out = []
        if not self.sucker < self.punishment:
            out.append("S < P fails")
        if not self.punishment < self.reward:
            out.append("P < R fails")
        if not self.reward < self.temptation:
            out.append("R < T fails")
        if not 2 * self.reward > self.temptation + self.sucker:
            out.append("2R > T + S fails")
        return out

    @property
    def is_valid(self) -> bool:
        return not self.violations()


DEFAULT_PAYOFFS = PayoffMatrix()
