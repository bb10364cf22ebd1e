"""The match loop as it was before the integer-coded kernel.

One player object per side, queried with enums each turn: memory-one
players sample through ``next_action`` and ``initial_action`` (exact
``float < Fraction`` draws), the learner through ``predictor.act`` and
``predictor.observe``, and payoffs come from ``PayoffMatrix.payoff``.
``tests/test_kernel.py`` holds ``engine.play_match`` to this loop.
"""

from __future__ import annotations

from predipd import predictor
from predipd.core import JointOutcome
from predipd.engine import MatchConfig, PredictorSpec, mix_seed
from predipd.strategies import RngStream, initial_action, next_action


class MemoryOnePlayer:
    def __init__(self, strategy, rng, randomize_initial=False):
        self.strategy = strategy
        self.rng = rng
        self.randomize_initial = randomize_initial
        self.prev = None

    def act(self, turn):
        if turn == 0:
            return initial_action(self.strategy, self.rng, self.randomize_initial)
        return next_action(self.strategy, self.prev, self.rng)

    def observe(self, own, opp):
        self.prev = JointOutcome.from_actions(own, opp)


class PredictorPlayer:
    def __init__(self, p_exp, n_turns, payoff, rng):
        self.payoff = payoff
        self.rng = rng
        self.state = predictor.PredictorState.fresh(n_turns, p_exp)

    def act(self, turn):
        return predictor.act(self.state, self.rng, self.payoff)

    def observe(self, own, opp):
        self.state = predictor.observe(self.state, own, opp)


def _player(spec, opponent, rng, cfg: MatchConfig):
    if isinstance(spec, PredictorSpec):
        return PredictorPlayer(spec.p_exp, cfg.n_turns, cfg.payoff, rng)
    randomize = cfg.randomize_opponent_initial and isinstance(opponent, PredictorSpec)
    return MemoryOnePlayer(spec.strategy, rng, randomize)


def reference_match(spec_a, spec_b, cfg: MatchConfig) -> dict:
    """Actions, payoffs, means and draw counts of one match."""
    rng_a = RngStream(mix_seed(cfg.seed, 0))
    rng_b = RngStream(mix_seed(cfg.seed, 1))
    player_a = _player(spec_a, spec_b, rng_a, cfg)
    player_b = _player(spec_b, spec_a, rng_b, cfg)

    actions = []
    payoffs = []
    total_a = 0.0
    total_b = 0.0
    for turn in range(cfg.n_turns):
        # both moves are fixed before either is revealed
        move_a = player_a.act(turn)
        move_b = player_b.act(turn)
        player_a.observe(move_a, move_b)
        player_b.observe(move_b, move_a)
        pay_a, pay_b = cfg.payoff.payoff(JointOutcome.from_actions(move_a, move_b))
        actions.append((move_a, move_b))
        payoffs.append((float(pay_a), float(pay_b)))
        total_a += float(pay_a)
        total_b += float(pay_b)

    return {
        "actions": tuple(actions),
        "payoffs": tuple(payoffs),
        "mean_a": total_a / cfg.n_turns,
        "mean_b": total_b / cfg.n_turns,
        "draws": (rng_a.position, rng_b.position),
    }
