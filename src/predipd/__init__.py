"""Iterated prisoner's dilemma engine with an opponent-modeling lookahead agent.

Library layers:

- :mod:`predipd.core` -- actions, joint outcomes, payoff matrix
- :mod:`predipd.strategies` -- memory-one strategy library and seeded RNG streams
- :mod:`predipd.predictor` -- opponent model, two-turn lookahead, decision rule
- :mod:`predipd.engine` -- matches and round-robin tournaments
- :mod:`predipd.analysis` -- Markov-chain payoffs, ZD relations, sweeps, fits
- :mod:`predipd.cli` -- command-line front end
"""

import importlib

from .core import Action, DEFAULT_PAYOFFS, JointOutcome, OUTCOMES, PayoffMatrix
from .strategies import (
    BUILTIN_STRATEGIES,
    InitialPolicy,
    MemoryOneStrategy,
    RngStream,
    UnknownStrategyError,
    as_model_view,
    builtin,
    initial_action,
    next_action,
)
from .predictor import (
    FixedModel,
    OpponentModel,
    PredictorState,
    course_value,
    decide,
    decide_at_depth,
    expected_payoff_coop,
    expected_payoff_defect,
)
from .engine import (
    MatchConfig,
    MatchRecord,
    MemoryOneSpec,
    PredictorSpec,
    TournamentResult,
    default_roster,
    play_match,
    run_round_robin,
    time_series,
)
#: Names re-exported from :mod:`predipd.analysis`, which loads on first use:
#: a tournament never needs it.
_ANALYSIS_EXPORTS = frozenset({
    "JointChain",
    "LongRunPayoffs",
    "StationaryResult",
    "ZdCheck",
    "build_chain",
    "exploration_sweep",
    "fit_inverse_sqrt",
    "long_run_payoffs",
    "simulate_long_run",
    "stationary",
    "zd_residual",
})


def __getattr__(name: str):
    if name == "analysis" or name in _ANALYSIS_EXPORTS:
        analysis = importlib.import_module(".analysis", __name__)
        return analysis if name == "analysis" else getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
