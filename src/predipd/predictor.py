"""Opponent-modeling agent with a two-turn expected-payoff lookahead.

The agent keeps per-state cooperation counters for its opponent, smoothed
with an add-one prior so the estimated probabilities never saturate.  At
each turn it compares the expected payoff of the course "cooperate now,
defect on the fictive final turn" against "defect now, defect again" and
plays the better one; ties go to defection.  The comparison has a closed
form (:func:`cooperates`) that is decided in exact integer arithmetic, so it
never depends on summation order or platform rounding; the course
enumeration in exact rationals (:func:`course_value`) is kept as its
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .core import Action, JointOutcome, OUTCOMES, PayoffMatrix
from .strategies import RngStream



@dataclass(frozen=True)
class OpponentModel:
    """Per-state observation and cooperation counters.

    counts[i] = (n, c) for the i-th state in canonical order, where n is
    the number of times the opponent acted after that state and c how many
    of those actions were cooperation.  The estimated cooperation
    probability is (1 + c) / (2 + n): exactly 1/2 when nothing has been
    seen, and strictly inside (0, 1) forever.
    """

    counts: tuple[tuple[int, int], ...] = ((0, 0),) * 4

    def __post_init__(self):
        for (n, c) in self.counts:
            if not 0 <= c <= n:
                raise ValueError(f"invalid counters (n={n}, c={c})")

    @classmethod
    def fresh(cls) -> "OpponentModel":
        return cls()

    def obs_count(self, state: JointOutcome) -> int:
        return self.counts[state][0]

    def coop_count(self, state: JointOutcome) -> int:
        return self.counts[state][1]

    def probability(self, state: JointOutcome) -> Fraction:
        n, c = self.counts[state]
        return Fraction(1 + c, 2 + n)

    def observe(self, prev_state: JointOutcome, observed: Action) -> "OpponentModel":
        """Counters after seeing the opponent play `observed` following `prev_state`."""
        n, c = self.counts[prev_state]
        updated = (n + 1, c + 1 if observed is Action.C else c)
        counts = self.counts[:prev_state] + (updated,) + self.counts[prev_state + 1:]
        return OpponentModel(counts)


@dataclass(frozen=True)
class FixedModel:
    """Opponent model with directly specified cooperation probabilities.

    The learning agent always uses counter-backed :class:`OpponentModel`
    instances; this variant exists for analysis and worked examples, where
    probabilities of exactly 0 or 1 are meaningful.
    """

    probs: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        probs = tuple(Fraction(p) for p in self.probs)
        for p in probs:
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")
        object.__setattr__(self, "probs", probs)

    def probability(self, state: JointOutcome) -> Fraction:
        return self.probs[state]


def _one_turn(model: OpponentModel, x0: JointOutcome, pm: PayoffMatrix, own: Action) -> Fraction:
    """Expected payoff of playing `own` this turn, opponent drawn from the model at x0."""
    p = model.probability(x0)
    coop = pm.payoff(JointOutcome.from_actions(own, Action.C))[0]
    defect = pm.payoff(JointOutcome.from_actions(own, Action.D))[0]
    return coop * p + defect * (1 - p)


def _second_turn(
    model: OpponentModel, x0: JointOutcome, pm: PayoffMatrix, first: Action, second: Action
) -> Fraction:
    """Expected payoff of the second move of a course, given the first.

    The opponent's first reply is drawn from the model at x0; its second
    reply from the model at the intermediate state (first, reply).
    """
    p = model.probability(x0)
    total = Fraction(0)
    for reply, weight in ((Action.C, p), (Action.D, 1 - p)):
        mid = JointOutcome.from_actions(first, reply)
        total += weight * _one_turn(model, mid, pm, second)
    return total


def course_value(
    model: OpponentModel, x0: JointOutcome, pm: PayoffMatrix, actions: Sequence[Action]
) -> Fraction:
    """Total expected payoff of a fixed course of own moves.

    For a memory-one opponent each added turn only couples to the previous
    own move, so the total is the first-turn term plus one two-turn term
    per subsequent move.
    """
    total = _one_turn(model, x0, pm, actions[0])
    for a, b in zip(actions, actions[1:]):
        total += _second_turn(model, x0, pm, a, b)
    return total


def expected_payoff_coop(model: OpponentModel, x0: JointOutcome, pm: PayoffMatrix) -> Fraction:
    """Two-turn expected payoff of cooperating now, then the fictive final defection."""
    return course_value(model, x0, pm, (Action.C, Action.D))


def expected_payoff_defect(model: OpponentModel, x0: JointOutcome, pm: PayoffMatrix) -> Fraction:
    """Two-turn expected payoff of defecting now and again on the fictive final turn."""
    return course_value(model, x0, pm, (Action.D, Action.D))


def cooperates(num: Sequence[int], den: Sequence[int], x0: int, payoffs: Sequence[int]) -> bool:
    """The two-turn decision in closed form, in integers.

    The opponent cooperates after the state with code i with probability
    ``num[i] / den[i]`` (``den[i] > 0``); ``x0`` is the current state's code
    and ``payoffs`` are R, S, T, P as the integers :attr:`PayoffMatrix.scaled`.
    Cooperating now beats defecting now (both followed by the final defection) by

        (R-T) p0 + (S-P)(1-p0) + (T-P) [p0 (pCC - pDC) + (1-p0) (pCD - pDD)]

    with p0 the probability at x0 and pXY the one at state XY.  Multiplying
    by the positive den[x0] * den[CC] * den[CD] * den[DC] * den[DD] keeps the
    sign and clears every fraction.  Cooperate iff the margin is positive;
    ties go to defection.
    """
    r, s, t, p = payoffs
    a0 = num[x0]
    b0 = den[x0]
    after_c = den[0] * den[2]   # states reached when the opponent cooperates
    after_d = den[1] * den[3]   # ... and when it defects
    margin = after_c * after_d * ((r - t) * a0 + (s - p) * (b0 - a0)) + (t - p) * (
        a0 * (num[0] * den[2] - num[2] * den[0]) * after_d
        + (b0 - a0) * (num[1] * den[3] - num[3] * den[1]) * after_c
    )
    return margin > 0


@lru_cache(maxsize=1 << 16)
def decide(model: OpponentModel, x0: JointOutcome, pm: PayoffMatrix) -> Action:
    """Cooperate iff the cooperation course strictly beats the defection course.

    Decided by :func:`cooperates`; :func:`expected_payoff_coop` and
    :func:`expected_payoff_defect` give the two course values themselves.
    """
    probs = [model.probability(o) for o in OUTCOMES]
    num = [p.numerator for p in probs]
    den = [p.denominator for p in probs]
    return Action.C if cooperates(num, den, x0, pm.scaled) else Action.D


def decide_at_depth(model: OpponentModel, x0: JointOutcome, pm: PayoffMatrix, depth: int) -> Action:
    """Decision with the planning horizon extended to `depth` turns.

    Every move after the current one is the dominant final-turn defection,
    so each extra turn adds the same defect-after-defect term to both
    candidate courses and the choice collapses to the two-turn rule.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    tail = (Action.D,) * (depth - 1)
    coop = course_value(model, x0, pm, (Action.C,) + tail)
    defect = course_value(model, x0, pm, (Action.D,) + tail)
    return Action.C if coop > defect else Action.D


@dataclass(frozen=True)
class PredictorState:
    """Per-match agent state: model, last outcome, turn and exploration window."""

    model: OpponentModel
    prev_outcome: Optional[JointOutcome]
    turn_index: int
    explore_until: int

    @classmethod
    def fresh(cls, n_turns: int, p_exp: float) -> "PredictorState":
        return cls(
            model=OpponentModel.fresh(),
            prev_outcome=None,
            turn_index=0,
            explore_until=exploration_turns(n_turns, p_exp),
        )


def exploration_turns(n_turns: int, p_exp: float) -> int:
    """Length of the random exploration window: the first p_exp of the match."""
    if not 0 <= p_exp <= 1:
        raise ValueError(f"p_exp = {p_exp} outside [0, 1]")
    return round(p_exp * n_turns)


def act(state: PredictorState, rng: RngStream, pm: PayoffMatrix) -> Action:
    """Current move: random bootstrap on turn 0, random during exploration,
    otherwise the exact two-turn decision.  Random branches consume one
    draw; the exploit branch consumes none."""
    if state.turn_index == 0 or state.turn_index < state.explore_until:
        return Action.C if rng.bernoulli(Fraction(1, 2)) else Action.D
    assert state.prev_outcome is not None
    return decide(state.model, state.prev_outcome, pm)


def observe(state: PredictorState, own: Action, opp: Action) -> PredictorState:
    """Fold one finished turn into the state.

    The model is updated at the previous outcome (the conditioning state of
    the opponent's move just seen); there is nothing to update after the
    very first turn.  Updates happen during exploration too.
    """
    model = state.model
    if state.prev_outcome is not None:
        model = model.observe(state.prev_outcome, opp)
    return replace(
        state,
        model=model,
        prev_outcome=JointOutcome.from_actions(own, opp),
        turn_index=state.turn_index + 1,
    )
