"""Stage-game primitives: actions, joint outcomes and the payoff matrix.

Payoff values are kept as exact rationals so that every expected-payoff
comparison downstream is reproducible regardless of summation order or
platform; only reported averages are converted to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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


class JointOutcome(Enum):
    """Ordered pair of moves in one turn, focal player's move first."""

    CC = (Action.C, Action.C)
    CD = (Action.C, Action.D)
    DC = (Action.D, Action.C)
    DD = (Action.D, Action.D)

    @classmethod
    def from_actions(cls, self_action: Action, opponent_action: Action) -> "JointOutcome":
        return _OUTCOME_BY_PAIR[(self_action, opponent_action)]

    @property
    def self_action(self) -> Action:
        return self.value[0]

    @property
    def opponent_action(self) -> Action:
        return self.value[1]

    @property
    def mirror(self) -> "JointOutcome":
        """The same turn seen from the opponent's side."""
        return JointOutcome.from_actions(self.opponent_action, self.self_action)

    def __str__(self) -> str:
        return self.name


_OUTCOME_BY_PAIR = {(o.value[0], o.value[1]): o for o in JointOutcome}

#: Canonical state order used for vectors and transition matrices.
OUTCOMES = (JointOutcome.CC, JointOutcome.CD, JointOutcome.DC, JointOutcome.DD)

#: Integer code of each joint outcome: its index in OUTCOMES, which is
#: 2 * (focal player defected) + (opponent defected).
OUTCOME_CODE = {o: i for i, o in enumerate(OUTCOMES)}

#: Pseudo-code standing for "no previous turn" on the opening turn.
OPENING = 4

#: Code of the same turn seen from the other side, indexed by code.
MIRROR_CODE = (0, 2, 1, 3, OPENING)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Rational):
        return Fraction(x)
    # floats go through their exact binary value; fine for config input
    return Fraction(x).limit_denominator(10**9)


@dataclass(frozen=True)
class PayoffMatrix:
    """Symmetric stage-game payoffs (reward, sucker, temptation, punishment).

    The dilemma requires sucker < punishment < reward < temptation and
    2*reward > temptation + sucker.  ``focal`` holds the focal player's
    payoff for each joint outcome, indexed by outcome code: (R, S, T, P).
    """

    reward: Fraction = Fraction(3)
    sucker: Fraction = Fraction(0)
    temptation: Fraction = Fraction(5)
    punishment: Fraction = Fraction(1)

    def __post_init__(self):
        for field in ("reward", "sucker", "temptation", "punishment"):
            object.__setattr__(self, field, _as_fraction(getattr(self, field)))
        object.__setattr__(
            self, "focal", (self.reward, self.sucker, self.temptation, self.punishment)
        )

    def payoff(self, outcome: JointOutcome) -> tuple[Fraction, Fraction]:
        """Focal player's and opponent's payoff for one joint outcome."""
        code = OUTCOME_CODE[outcome]
        return self.focal[code], self.focal[MIRROR_CODE[code]]

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
