from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from predipd.core import Action, JointOutcome, OUTCOMES
from predipd.engine import MemoryOneSpec, PredictorSpec
from predipd.strategies import (
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

EXPECTED_VECTORS = {
    "TFT": (1, 0, 1, 0),
    "GTFT": (1, Fraction(1, 3), 1, Fraction(1, 3)),
    "WSLS": (1, 0, 0, 1),
    "ALLD": (0, 0, 0, 0),
    "ALLC": (1, 1, 1, 1),
    "JOSS": (Fraction(9, 10), 0, Fraction(9, 10), 0),
    "ZDGTFT-2": (1, Fraction(1, 8), 1, Fraction(1, 4)),
    "ZDEXTORT-2": (Fraction(8, 9), Fraction(1, 2), Fraction(1, 3), 0),
    "RANDOM": (Fraction(1, 2),) * 4,
}


def test_registry_vectors_exact():
    assert set(BUILTIN_STRATEGIES) == set(EXPECTED_VECTORS)
    for name, vec in EXPECTED_VECTORS.items():
        assert builtin(name).vector() == tuple(Fraction(v) for v in vec)
        assert builtin(name).vector() is builtin(name).coop_prob


def test_registry_initial_policies():
    cooperators = {"TFT", "GTFT", "WSLS", "ALLC", "ZDGTFT-2"}
    defectors = {"ALLD", "JOSS", "ZDEXTORT-2"}
    for name in cooperators:
        assert builtin(name).initial_policy is InitialPolicy.ALWAYS_COOPERATE
    for name in defectors:
        assert builtin(name).initial_policy is InitialPolicy.ALWAYS_DEFECT
    assert builtin("RANDOM").initial_policy is InitialPolicy.UNIFORM_RANDOM


def test_builtin_accepts_hyphenated_aliases():
    assert builtin("ZD-GTFT-2") is builtin("ZDGTFT-2")
    assert builtin("ZD-EXTORT-2") is builtin("ZDEXTORT-2")


def test_builtin_unknown_name_lists_valid_ones():
    with pytest.raises(UnknownStrategyError) as exc:
        builtin("GRIM")
    assert "GRIM" in str(exc.value)
    assert "TFT" in str(exc.value)


def test_strategy_rejects_out_of_range_probability():
    with pytest.raises(ValueError, match="outside"):
        MemoryOneStrategy("BAD", dict(zip(OUTCOMES, (Fraction(3, 2), 0, 0, 0))))


@pytest.mark.parametrize("coop_prob", [
    (1, 0, Fraction(1, 3), 0),
    [1, 0, Fraction(1, 3), 0],
    dict(zip(OUTCOMES, (1, 0, Fraction(1, 3), 0))),
    {3: 0, 2: Fraction(1, 3), 1: 0, 0: 1},
], ids=["tuple", "list", "outcome-keys", "int-keys"])
def test_every_spelling_of_the_probabilities_gives_one_strategy(coop_prob):
    strategy = MemoryOneStrategy("X", coop_prob)
    reference = MemoryOneStrategy("X", (Fraction(1), Fraction(0), Fraction(1, 3), Fraction(0)))
    assert strategy == reference and hash(strategy) == hash(reference)
    assert type(strategy.coop_prob) is tuple
    assert all(type(p) is Fraction for p in strategy.coop_prob)
    assert strategy.coop_prob[JointOutcome.DC] == Fraction(1, 3)


@pytest.mark.parametrize("coop_prob", [
    (1, 0, 1),
    (1, 0, 1, 0, 0),
    dict(zip(OUTCOMES[:3], (1, 0, 1))),
    {0: 1, 1: 0, 2: 1, 3: 0, 4: 0},
], ids=["3-tuple", "5-tuple", "3-key-dict", "5-key-dict"])
def test_strategy_needs_exactly_four_probabilities(coop_prob):
    with pytest.raises(ValueError, match="not 4"):
        MemoryOneStrategy("BAD", coop_prob)


def test_strategies_and_specs_are_hashable():
    for name in BUILTIN_STRATEGIES:
        strategy = builtin(name)
        rebuilt = MemoryOneStrategy(name, strategy.vector(), strategy.initial_policy)
        assert rebuilt == strategy and hash(rebuilt) == hash(strategy)
        assert hash(MemoryOneSpec(rebuilt)) == hash(MemoryOneSpec(strategy))
    assert len({PredictorSpec(p_exp=0.1), PredictorSpec(), PredictorSpec(p_exp=0.5)}) == 2


def test_the_learner_has_one_fixed_name():
    assert PredictorSpec().name == PredictorSpec.name == "PREDICTOR"
    with pytest.raises(TypeError):
        PredictorSpec(name="X")


def test_rng_stream_is_reproducible():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_rng_stream_counts_every_draw():
    rng = RngStream(7)
    rng.bernoulli(Fraction(0))
    rng.bernoulli(Fraction(1))
    rng.bernoulli(Fraction(1, 2))
    assert rng.position == 3


def test_degenerate_bernoulli_is_deterministic():
    rng = RngStream(11)
    assert all(rng.bernoulli(Fraction(1)) for _ in range(100))
    assert not any(rng.bernoulli(Fraction(0)) for _ in range(100))


def test_tft_is_deterministic_but_still_draws():
    tft = builtin("TFT")
    rng = RngStream(5)
    for _ in range(20):
        assert next_action(tft, JointOutcome.CC, rng) is Action.C
        assert next_action(tft, JointOutcome.CD, rng) is Action.D
        assert next_action(tft, JointOutcome.DC, rng) is Action.C
        assert next_action(tft, JointOutcome.DD, rng) is Action.D
    assert rng.position == 80


def test_same_seed_same_action_sequence():
    joss = builtin("JOSS")
    seq = []
    for _ in range(2):
        rng = RngStream(99)
        seq.append([next_action(joss, JointOutcome.CC, rng) for _ in range(200)])
    assert seq[0] == seq[1]


@pytest.mark.parametrize(
    "name, state, expected",
    [("RANDOM", JointOutcome.CC, 0.5), ("GTFT", JointOutcome.CD, 1 / 3),
     ("JOSS", JointOutcome.CC, 0.9)],
)
def test_stochastic_frequencies(name, state, expected):
    strategy = builtin(name)
    rng = RngStream(2024)
    n = 100_000
    hits = sum(next_action(strategy, state, rng) is Action.C for _ in range(n))
    assert abs(hits / n - expected) < 0.01


def test_initial_action_policies():
    rng = RngStream(0)
    assert all(initial_action(builtin("ALLD"), rng) is Action.D for _ in range(20))
    assert all(initial_action(builtin("TFT"), rng) is Action.C for _ in range(20))


def test_initial_action_randomize_override():
    rng = RngStream(314)
    n = 20_000
    hits = sum(initial_action(builtin("ALLD"), rng, randomize_override=True) is Action.C
               for _ in range(n))
    assert abs(hits / n - 0.5) < 0.01


def test_as_model_view_swaps_cd_dc():
    assert as_model_view(builtin("TFT")) == (1, 1, 0, 0)
    view = as_model_view(builtin("ZDEXTORT-2"))
    assert view == (Fraction(8, 9), Fraction(1, 3), Fraction(1, 2), 0)


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=64),
                min_size=4, max_size=4))
def test_as_model_view_is_an_involution(vec):
    strategy = MemoryOneStrategy("X", vec)
    once = as_model_view(strategy)
    twice = as_model_view(MemoryOneStrategy("X2", once))
    assert twice == strategy.coop_prob


@given(st.fractions(min_value=0, max_value=1, max_denominator=20), st.integers(0, 2**32))
def test_empirical_frequency_converges(p, seed):
    strategy = MemoryOneStrategy("P", (p,) * 4)
    rng = RngStream(seed)
    n = 2_000
    hits = sum(next_action(strategy, JointOutcome.DD, rng) is Action.C for _ in range(n))
    # 4-sigma bound plus slack for tiny p(1-p)
    assert abs(hits / n - float(p)) <= 4 * (float(p * (1 - p)) / n) ** 0.5 + 0.01
