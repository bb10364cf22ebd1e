"""The integer-coded match kernel against the loop it replaced, and the
exactness of its two primitives: the draw thresholds and the closed-form
decision."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from predipd import engine
from predipd.core import Action, DEFAULT_PAYOFFS, OUTCOMES, PayoffMatrix
from predipd.engine import MatchConfig, PredictorSpec, default_roster, play_match
from predipd.predictor import (
    FixedModel,
    OpponentModel,
    cooperates,
    course_value,
    decide,
)
from predipd.strategies import BUILTIN_STRATEGIES, InitialPolicy, coop_threshold
from reference_loop import reference_match

C, D = Action.C, Action.D
NON_INTEGER = PayoffMatrix(Fraction(7, 2), Fraction(1, 3), Fraction(9, 2), Fraction(4, 3))
PAYOFF_MATRICES = {
    "default": DEFAULT_PAYOFFS,
    "non-integer": NON_INTEGER,
    "non-integer-2": PayoffMatrix(Fraction(11, 4), Fraction(1, 5), Fraction(19, 5), Fraction(2, 3)),
}
ROSTER = default_roster(0.1)


@pytest.fixture
def kernel_match(monkeypatch):
    """play_match, also returning the draw count of each player's stream."""
    streams = []

    class CountingStream(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.position = 0
            streams.append(self)

        def random(self):
            self.position += 1
            return super().random()

    monkeypatch.setattr(engine, "_stream", CountingStream)

    def run(spec_a, spec_b, cfg):
        streams.clear()
        rec = play_match(spec_a, spec_b, cfg)
        return rec, tuple(s.position for s in streams)

    return run


def assert_same_as_reference(kernel_match, pairs, cfg):
    for spec_a, spec_b in pairs:
        rec, draws = kernel_match(spec_a, spec_b, cfg)
        ref = reference_match(spec_a, spec_b, cfg)
        context = (spec_a.name, spec_b.name, cfg)
        assert rec.actions == ref["actions"], context
        assert rec.payoffs == ref["payoffs"], context
        assert rec.mean_a == ref["mean_a"] and rec.mean_b == ref["mean_b"], context
        assert draws == ref["draws"], context


@pytest.mark.parametrize("payoffs", ["default", "non-integer"])
@pytest.mark.parametrize("n_turns", [1, 7, 200])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_ordered_pair_matches_the_reference_loop(kernel_match, seed, n_turns, payoffs):
    cfg = MatchConfig(n_turns=n_turns, payoff=PAYOFF_MATRICES[payoffs], seed=seed)
    pairs = [(a, b) for a in ROSTER for b in ROSTER]
    assert len(pairs) == 100
    assert_same_as_reference(kernel_match, pairs, cfg)


@pytest.mark.parametrize("payoffs", ["default", "non-integer"])
@pytest.mark.parametrize("randomize", [False, True])
@pytest.mark.parametrize("p_exp", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("n_turns", [1, 7, 200])
def test_learner_settings_match_the_reference_loop(kernel_match, n_turns, p_exp, randomize,
                                                   payoffs):
    # exploration and the randomized opening only act on pairings with the learner
    learner = PredictorSpec(p_exp=p_exp)
    others = [spec for spec in ROSTER if not isinstance(spec, PredictorSpec)]
    pairs = [(learner, learner)] + [(learner, s) for s in others] + [(s, learner) for s in others]
    for seed in range(3):
        cfg = MatchConfig(n_turns=n_turns, payoff=PAYOFF_MATRICES[payoffs],
                          randomize_opponent_initial=randomize, seed=seed)
        assert_same_as_reference(kernel_match, pairs, cfg)


@pytest.mark.parametrize("n_turns", [1, 7, 200])
def test_fused_memory_one_loop_matches_the_reference_loop(kernel_match, n_turns):
    # the fused loop reads b's thresholds mirrored into a's orientation; JOSS
    # and ZDEXTORT-2 (p(C|CD) != p(C|DC)) catch an unmirrored table
    memory_one = [spec for spec in ROSTER if not isinstance(spec, PredictorSpec)]
    pairs = [(a, b) for a in memory_one for b in memory_one]
    assert len(pairs) == 81
    for seed in range(3):
        cfg = MatchConfig(n_turns=n_turns, payoff=NON_INTEGER, randomize_opponent_initial=True,
                          seed=seed)
        assert_same_as_reference(kernel_match, pairs, cfg)


def test_kernel_keeps_the_learner_validation():
    with pytest.raises(ValueError, match="p_exp"):
        play_match(PredictorSpec(p_exp=1.5), ROSTER[0], MatchConfig())


# draw thresholds --------------------------------------------------------------

def _builtin_probabilities():
    probs = {p for s in BUILTIN_STRATEGIES.values() for p in s.vector()}
    probs |= {policy.coop_prob for policy in InitialPolicy}
    return probs | {Fraction(k, 16) for k in range(17)}


def _assert_threshold_exact(p):
    t = coop_threshold(p)
    x = float(p)
    for u in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)):
        assert (u < t) == (u < p), (p, u, t)


def test_thresholds_are_exact_for_every_builtin_and_sixteenth():
    probs = _builtin_probabilities()
    assert Fraction(1, 3) in probs and Fraction(9, 10) in probs and Fraction(5, 16) in probs
    for p in probs:
        _assert_threshold_exact(p)


@settings(max_examples=500)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**12))
def test_thresholds_are_exact_for_random_rationals(p):
    _assert_threshold_exact(p)


def test_strategy_thresholds_follow_the_code_order():
    joss = BUILTIN_STRATEGIES["JOSS"]
    assert joss.thresholds == (coop_threshold(Fraction(9, 10)), 0.0,
                               coop_threshold(Fraction(9, 10)), 0.0, 0.0)
    assert BUILTIN_STRATEGIES["RANDOM"].thresholds == (0.5,) * 5


# closed-form decision ---------------------------------------------------------

def _brute_force(model, x0, pm):
    coop = course_value(model, x0, pm, (C, D))
    defect = course_value(model, x0, pm, (D, D))
    return C if coop > defect else D


@pytest.mark.parametrize("payoffs", sorted(PAYOFF_MATRICES))
def test_integer_decision_matches_course_enumeration(payoffs):
    pm = PAYOFF_MATRICES[payoffs]
    rng = random.Random(payoffs)
    for k in range(1500):
        max_obs = 8 if k % 3 == 0 else 10**4
        counts = []
        for _ in OUTCOMES:
            n = rng.randint(0, max_obs)
            counts.append((n, rng.randint(0, n)))
        model = OpponentModel(tuple(counts))
        x0 = rng.choice(OUTCOMES)
        want = _brute_force(model, x0, pm)
        # the kernel's unreduced counters and decide's reduced fractions
        coops = [1 + c for _, c in counts]
        seen = [2 + n for n, _ in counts]
        assert cooperates(coops, seen, x0, pm.scaled) is (want is C)
        assert decide.__wrapped__(model, x0, pm) is want


def test_integer_decision_sends_exact_ties_to_defection():
    # no cooperation seen in six turns after CC and after DD: the two
    # courses are worth exactly the same at CC and at DD
    model = OpponentModel(((6, 0), (0, 0), (0, 0), (6, 0)))
    coops, seen = [1, 1, 1, 1], [8, 2, 2, 8]
    for x0 in (OUTCOMES[0], OUTCOMES[3]):
        assert course_value(model, x0, DEFAULT_PAYOFFS, (C, D)) == \
            course_value(model, x0, DEFAULT_PAYOFFS, (D, D))
        assert not cooperates(coops, seen, x0, (3, 0, 5, 1))


def test_integer_decision_handles_certain_probabilities():
    rng = random.Random(5)
    for _ in range(500):
        model = FixedModel(tuple(Fraction(rng.randint(0, 4), 4) for _ in OUTCOMES))
        for x0 in OUTCOMES:
            for pm in PAYOFF_MATRICES.values():
                assert decide.__wrapped__(model, x0, pm) is _brute_force(model, x0, pm)


def test_scaled_payoff_matrix_is_integers_in_the_same_ratios():
    assert DEFAULT_PAYOFFS.scaled == (3, 0, 5, 1)
    assert NON_INTEGER.scaled == (21, 2, 27, 8)


@st.composite
def dilemmas(draw):
    """Valid rational matrices: S < P < R < T and 2R > T + S."""
    fractions = st.fractions(min_value=-10, max_value=10, max_denominator=60)
    steps = st.fractions(min_value=Fraction(1, 60), max_value=10, max_denominator=60)
    shares = st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60),
                          max_denominator=60)
    sucker = draw(fractions)
    punishment = sucker + draw(steps)
    reward = punishment + draw(steps)
    # T - R < R - S is 2R > T + S
    temptation = reward + (reward - sucker) * draw(shares)
    return PayoffMatrix(reward, sucker, temptation, punishment)


@settings(max_examples=60, deadline=None)
@given(pm=dilemmas(), pairing=st.sampled_from(["memory-one", "learner", "self-play"]),
       name=st.sampled_from(sorted(BUILTIN_STRATEGIES)), seed=st.integers(0, 2**32),
       n_turns=st.integers(1, 200))
@example(pm=NON_INTEGER, pairing="memory-one", name="ALLD", seed=0, n_turns=200)
def test_match_means_are_the_exact_totals_rounded_once(pm, pairing, name, seed, n_turns):
    # memory-one pairs play TFT against `name`
    spec_a = PredictorSpec(p_exp=0.1) if pairing != "memory-one" else BUILTIN_STRATEGIES["TFT"]
    spec_b = spec_a if pairing == "self-play" else BUILTIN_STRATEGIES[name]
    rec = play_match(spec_a, spec_b, MatchConfig(n_turns=n_turns, payoff=pm, seed=seed))
    total_a = total_b = Fraction(0)
    running = []
    for code in rec.outcomes:
        pay_a, pay_b = pm.payoff(OUTCOMES[code])
        total_a += pay_a
        total_b += pay_b
        running.append((total_a, total_b))
    assert rec.mean_a == float(total_a / n_turns)
    assert rec.mean_b == float(total_b / n_turns)
    for role in (0, 1):
        assert rec.cumulative_means(role, 1) == [
            (t, float(totals[role] / t)) for t, totals in enumerate(running, start=1)]
