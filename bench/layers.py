"""Per-layer timings of predipd, measured with pytest-benchmark.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/layers.py -q -p no:cacheprovider \\
        --benchmark-json=layers.json

Each benchmark's median (``stats.median`` in the JSON, seconds) is one
layer's cost:

- one PREDICTOR decision: ``decide`` without its cache, over 1,000 random
  counter-backed models (so each call is a cold decision, as in a match),
  and, where the package has it, the closed-form ``predictor.cooperates``
  on the same models' counters, which is what the match kernel calls;
- one PREDICTOR match: PREDICTOR (p_exp 0.1) against TFT, 200 turns;
- one memory-one match: JOSS against RANDOM, 200 turns;
- one default round robin: the ten-player default roster, 5 iterations of
  200-turn matches (275 matches, 55,000 turns);
- one stationary solve: ``analysis.stationary`` on a prebuilt chain, for
  the ergodic GTFT-JOSS pair and for WSLS-ALLC, whose chain has two closed
  classes;
- one long-run solve: ``analysis.long_run_payoffs`` on the same two pairs,
  so building the chain and scoring its law are timed with the solve;
- one exploration sweep: ``analysis.exploration_sweep`` on the default
  roster over the 21-point grid 0, 0.05, ..., 1, one 200-turn round robin
  (5 iterations) per point, 3 rounds.

The ``decide`` cache is emptied before every round, so that a round costs
what it costs in a fresh process.  The same file runs against any version
of the package that keeps these public names and has
``PayoffMatrix.scaled``.
"""

import random

import pytest

from predipd import predictor
from predipd.analysis import build_chain, exploration_sweep, long_run_payoffs, stationary
from predipd.cli import DEFAULT_GRID
from predipd.core import DEFAULT_PAYOFFS, OUTCOMES
from predipd.engine import (
    MatchConfig,
    MemoryOneSpec,
    PredictorSpec,
    default_roster,
    play_match,
    run_round_robin,
)
from predipd.predictor import OpponentModel, decide
from predipd.strategies import builtin


def _models(n: int, seed: int = 0):
    rng = random.Random(seed)
    models = []
    for _ in range(n):
        counts = []
        for _ in OUTCOMES:
            obs = rng.randint(0, 200)
            counts.append((obs, rng.randint(0, obs)))
        models.append((OpponentModel(tuple(counts)), rng.choice(OUTCOMES)))
    return models


def test_predictor_decision(benchmark):
    models = _models(1000)
    uncached = decide.__wrapped__

    def run():
        for model, x0 in models:
            uncached(model, x0, DEFAULT_PAYOFFS)

    benchmark.extra_info["calls_per_round"] = len(models)
    benchmark.pedantic(run, rounds=20, iterations=1, warmup_rounds=1)


def test_kernel_decision(benchmark):
    cooperates = getattr(predictor, "cooperates", None)
    if cooperates is None:
        pytest.skip("this version of predipd has no closed-form decision")
    payoffs = DEFAULT_PAYOFFS.scaled
    cases = [([1 + c for _, c in model.counts], [2 + n for n, _ in model.counts], x0)
             for model, x0 in _models(1000)]

    def run():
        for coops, seen, x0 in cases:
            cooperates(coops, seen, x0, payoffs)

    benchmark.extra_info["calls_per_round"] = len(cases)
    benchmark.pedantic(run, rounds=20, iterations=1, warmup_rounds=1)


def test_predictor_match(benchmark):
    cfg = MatchConfig(n_turns=200, seed=3)
    learner, tft = PredictorSpec(p_exp=0.1), MemoryOneSpec(builtin("TFT"))
    benchmark.pedantic(play_match, args=(learner, tft, cfg), setup=predictor.decide.cache_clear,
                       rounds=50, iterations=1, warmup_rounds=1)


def test_memory_one_match(benchmark):
    cfg = MatchConfig(n_turns=200, seed=3)
    joss, rand = MemoryOneSpec(builtin("JOSS")), MemoryOneSpec(builtin("RANDOM"))
    benchmark.pedantic(play_match, args=(joss, rand, cfg), rounds=50, iterations=1,
                       warmup_rounds=1)


@pytest.mark.parametrize("master_seed", [0])
def test_default_round_robin(benchmark, master_seed):
    roster = default_roster(0.1)
    cfg = MatchConfig(n_turns=200)
    benchmark.pedantic(run_round_robin, args=(roster, cfg, 5, master_seed),
                       setup=predictor.decide.cache_clear, rounds=5, iterations=1)


@pytest.mark.parametrize("pair", [("GTFT", "JOSS"), ("WSLS", "ALLC")],
                         ids=["GTFT-JOSS", "WSLS-ALLC"])
def test_stationary_solve(benchmark, pair):
    chain = build_chain(*(builtin(name) for name in pair))
    benchmark.pedantic(stationary, args=(chain,), rounds=200, iterations=1)


@pytest.mark.parametrize("pair", [("GTFT", "JOSS"), ("WSLS", "ALLC")],
                         ids=["GTFT-JOSS", "WSLS-ALLC"])
def test_long_run_solve(benchmark, pair):
    benchmark.pedantic(long_run_payoffs, args=tuple(builtin(name) for name in pair),
                       rounds=200, iterations=1)


def test_exploration_sweep(benchmark):
    args = (default_roster(0.1), MatchConfig(n_turns=200), 5, DEFAULT_GRID, 0)
    benchmark.pedantic(exploration_sweep, args=args, setup=predictor.decide.cache_clear,
                       rounds=3, iterations=1)
