import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_model, random_state
from predipd.core import Action, DEFAULT_PAYOFFS, JointOutcome, OUTCOMES
from predipd.predictor import (
    FixedModel,
    OpponentModel,
    PredictorState,
    act,
    course_value,
    decide,
    decide_at_depth,
    expected_payoff_coop,
    expected_payoff_defect,
    observe,
)
from predipd.strategies import RngStream

PM = DEFAULT_PAYOFFS
C, D = Action.C, Action.D


def test_fresh_model_is_maximally_uncertain():
    model = OpponentModel.fresh()
    for state in OUTCOMES:
        assert model.probability(state) == Fraction(1, 2)
        assert model.obs_count(state) == 0


def test_observe_updates_only_the_conditioning_state():
    model = OpponentModel.fresh().observe(JointOutcome.CC, C)
    assert model.probability(JointOutcome.CC) == Fraction(2, 3)
    for state in OUTCOMES[1:]:
        assert model.probability(state) == Fraction(1, 2)
    assert model.obs_count(JointOutcome.CC) == 1
    assert model.coop_count(JointOutcome.CC) == 1


def test_probability_formula_spot_values():
    model = OpponentModel(((8, 1), (0, 0), (0, 0), (99, 99)))
    assert model.probability(JointOutcome.CC) == Fraction(1, 5)
    assert model.probability(JointOutcome.DD) == Fraction(100, 101)
    assert model.probability(JointOutcome.CD) == Fraction(1, 2)


def test_probabilities_never_saturate():
    model = OpponentModel(((10**6, 0), (10**6, 10**6), (0, 0), (0, 0)))
    assert 0 < model.probability(JointOutcome.CC) < 1
    assert 0 < model.probability(JointOutcome.CD) < 1


def test_invalid_counters_rejected():
    with pytest.raises(ValueError):
        OpponentModel(((1, 2), (0, 0), (0, 0), (0, 0)))
    with pytest.raises(ValueError):
        OpponentModel(((-1, 0), (0, 0), (0, 0), (0, 0)))


def test_fixed_model_validation_and_lookup():
    model = FixedModel((Fraction(1), Fraction(0), Fraction(1, 8), Fraction(1, 4)))
    assert model.probability(JointOutcome.CC) == 1
    assert model.probability(JointOutcome.DC) == Fraction(1, 8)
    with pytest.raises(ValueError):
        FixedModel((Fraction(2), Fraction(0), Fraction(0), Fraction(0)))


def test_worked_lookahead_example():
    # generous opponent model, previous turn CD: cooperating recovers the
    # relationship and is worth strictly more than defecting twice
    model = FixedModel((Fraction(1), Fraction(1), Fraction(1, 8), Fraction(1, 4)))
    assert expected_payoff_coop(model, JointOutcome.CD, PM) == 8
    assert expected_payoff_defect(model, JointOutcome.CD, PM) == Fraction(13, 2)
    assert decide(model, JointOutcome.CD, PM) is C


def test_uniform_model_defects_everywhere():
    model = OpponentModel.fresh()
    assert expected_payoff_coop(model, JointOutcome.DD, PM) == Fraction(9, 2)
    assert expected_payoff_defect(model, JointOutcome.DD, PM) == 6
    for state in OUTCOMES:
        assert decide(model, state, PM) is D


def test_fully_cooperative_model_is_exploited():
    model = FixedModel((Fraction(1),) * 4)
    for state in OUTCOMES:
        assert decide(model, state, PM) is D


def test_exact_tie_goes_to_defection():
    model = FixedModel((Fraction(3, 4), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    assert expected_payoff_coop(model, JointOutcome.CD, PM) == \
        expected_payoff_defect(model, JointOutcome.CD, PM) == 5
    assert decide(model, JointOutcome.CD, PM) is D


def _course_value_reference(model, x0, pm, first, second):
    """Independent two-turn expectation: enumerate opponent reply pairs."""
    total = Fraction(0)
    p1 = model.probability(x0)
    for r1, w1 in ((C, p1), (D, 1 - p1)):
        mid = JointOutcome.from_actions(first, r1)
        p2 = model.probability(mid)
        for r2, w2 in ((C, p2), (D, 1 - p2)):
            pay = pm.payoff(mid)[0] + pm.payoff(JointOutcome.from_actions(second, r2))[0]
            total += w1 * w2 * pay
    return total


def test_expected_payoffs_are_exact_fractions():
    rng = random.Random(8)
    for _ in range(200):
        model = random_model(rng)
        state = random_state(rng)
        coop = expected_payoff_coop(model, state, PM)
        defect = expected_payoff_defect(model, state, PM)
        assert isinstance(coop, Fraction) and isinstance(defect, Fraction)
        assert coop == _course_value_reference(model, state, PM, C, D)
        assert defect == _course_value_reference(model, state, PM, D, D)


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.sampled_from(OUTCOMES))
def test_final_defection_dominates_final_cooperation(seed, state):
    model = random_model(random.Random(seed))
    for first in (C, D):
        assert course_value(model, state, PM, (first, D)) >= \
            course_value(model, state, PM, (first, C))


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.sampled_from(OUTCOMES), st.integers(3, 6))
def test_longer_horizons_do_not_change_the_decision(seed, state, depth):
    model = random_model(random.Random(seed))
    assert decide_at_depth(model, state, PM, depth) is decide(model, state, PM)


def test_decide_at_depth_validates_depth():
    with pytest.raises(ValueError):
        decide_at_depth(OpponentModel.fresh(), JointOutcome.CC, PM, 1)


def test_fresh_state_and_exploration_window():
    state = PredictorState.fresh(n_turns=200, p_exp=0.1)
    assert state.explore_until == 20
    assert state.turn_index == 0
    assert state.prev_outcome is None
    assert PredictorState.fresh(200, 0.0).explore_until == 0
    assert PredictorState.fresh(200, 1.0).explore_until == 200
    assert PredictorState.fresh(10, 0.25).explore_until == 2
    with pytest.raises(ValueError):
        PredictorState.fresh(200, 1.5)


def test_act_draws_once_on_random_turns_and_never_on_exploit():
    rng = RngStream(4)
    state = PredictorState.fresh(200, 0.1)
    act(state, rng, PM)
    assert rng.position == 1  # opening move is random
    exploring = PredictorState.fresh(200, 0.1)
    exploring = observe(exploring, C, C)
    act(exploring, rng, PM)
    assert rng.position == 2  # still inside the exploration window
    exploiting = PredictorState(model=OpponentModel.fresh(),
                                prev_outcome=JointOutcome.CC,
                                turn_index=50, explore_until=20)
    assert act(exploiting, rng, PM) is D  # uniform model: defect
    assert rng.position == 2  # no draw consumed


def test_opening_move_is_uniform():
    hits = 0
    n = 4_000
    state = PredictorState.fresh(200, 0.0)
    for seed in range(n):
        hits += act(state, RngStream(seed), PM) is C
    assert abs(hits / n - 0.5) < 0.02


def test_observe_updates_model_at_previous_outcome():
    state = PredictorState.fresh(200, 0.1)
    state = observe(state, C, D)  # first turn: nothing to condition on
    assert state.model == OpponentModel.fresh()
    assert state.prev_outcome is JointOutcome.CD
    assert state.turn_index == 1
    state = observe(state, D, C)
    assert state.model.probability(JointOutcome.CD) == Fraction(2, 3)
    assert state.prev_outcome is JointOutcome.DC
    assert state.turn_index == 2


def test_model_updates_continue_during_exploration():
    state = PredictorState.fresh(200, 1.0)
    state = observe(state, C, C)
    state = observe(state, C, C)
    assert state.model.probability(JointOutcome.CC) == Fraction(2, 3)


def test_trace_recount_matches_model():
    rng = random.Random(17)
    state = PredictorState.fresh(500, 0.1)
    expected = {s: [0, 0] for s in OUTCOMES}
    prev = None
    for _ in range(500):
        own = rng.choice((C, D))
        opp = rng.choice((C, D))
        if prev is not None:
            expected[prev][0] += 1
            expected[prev][1] += opp is C
        state = observe(state, own, opp)
        prev = JointOutcome.from_actions(own, opp)
    for s in OUTCOMES:
        assert state.model.obs_count(s) == expected[s][0]
        assert state.model.coop_count(s) == expected[s][1]
