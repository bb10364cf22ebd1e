from fractions import Fraction

import pytest

from predipd.core import (
    Action,
    DEFAULT_PAYOFFS,
    JointOutcome,
    MIRROR_CODE,
    OUTCOMES,
    PayoffMatrix,
)


def test_action_other():
    assert Action.C.other is Action.D
    assert Action.D.other is Action.C
    assert str(Action.C) == "C"


def test_joint_outcome_roundtrip():
    for outcome in OUTCOMES:
        rebuilt = JointOutcome.from_actions(outcome.self_action, outcome.opponent_action)
        assert rebuilt is outcome


def test_mirror_swaps_roles():
    assert JointOutcome.CD.mirror is JointOutcome.DC
    assert JointOutcome.DC.mirror is JointOutcome.CD
    assert JointOutcome.CC.mirror is JointOutcome.CC
    assert JointOutcome.DD.mirror is JointOutcome.DD
    for outcome in OUTCOMES:
        assert outcome.mirror.mirror is outcome


def test_canonical_order():
    assert [o.name for o in OUTCOMES] == ["CC", "CD", "DC", "DD"]


def test_an_outcome_is_its_code():
    assert [int(o) for o in OUTCOMES] == [0, 1, 2, 3]
    for a in Action:
        for b in Action:
            code = 2 * (a is Action.D) + (b is Action.D)
            assert JointOutcome.from_actions(a, b) is OUTCOMES[code]
    for o in OUTCOMES:
        assert o.mirror is OUTCOMES[MIRROR_CODE[o]]
        assert f"{o}" == str(o) == o.name


@pytest.mark.parametrize(
    "pm, scaled, scale",
    [
        (DEFAULT_PAYOFFS, (3, 0, 5, 1), 1),
        (PayoffMatrix(Fraction(7, 2), Fraction(1, 3), Fraction(9, 2), Fraction(4, 3)),
         (21, 2, 27, 8), 6),
        (PayoffMatrix(3.1, 0, 5, 1), (31, 0, 50, 10), 10),
    ],
)
def test_scaled_is_the_payoffs_over_the_lcm_of_their_denominators(pm, scaled, scale):
    assert (pm.scaled, pm.scale) == (scaled, scale)
    assert all(isinstance(v, int) for v in pm.scaled)


def test_default_payoff_values():
    pm = DEFAULT_PAYOFFS
    assert (pm.reward, pm.sucker, pm.temptation, pm.punishment) == (3, 0, 5, 1)
    assert pm.payoff(JointOutcome.CC) == (3, 3)
    assert pm.payoff(JointOutcome.CD) == (0, 5)
    assert pm.payoff(JointOutcome.DC) == (5, 0)
    assert pm.payoff(JointOutcome.DD) == (1, 1)


def test_payoffs_are_exact_rationals():
    pm = PayoffMatrix(Fraction(7, 2), 0, 5, 1)
    mine, theirs = pm.payoff(JointOutcome.CC)
    assert isinstance(mine, Fraction)
    assert mine == Fraction(7, 2) == theirs


def test_float_input_converts_cleanly():
    pm = PayoffMatrix(3.0, 0.0, 5.0, 1.0)
    assert pm == DEFAULT_PAYOFFS


def test_default_matrix_is_valid():
    assert DEFAULT_PAYOFFS.is_valid
    assert DEFAULT_PAYOFFS.violations() == []


@pytest.mark.parametrize(
    "values, expected_fragments",
    [
        ((3, 1, 5, 0), ["S < P fails", "2R > T + S fails"]),
        ((2, 0, 5, 1), ["2R > T + S fails"]),
        ((3, 0, 3, 1), ["R < T fails"]),
        ((1, 0, 5, 1), ["P < R fails", "2R > T + S fails"]),
    ],
)
def test_violations_name_each_failed_constraint(values, expected_fragments):
    pm = PayoffMatrix(*values)
    assert not pm.is_valid
    assert pm.violations() == expected_fragments


def test_payoff_matrix_is_hashable_and_frozen():
    pm = PayoffMatrix()
    assert hash(pm) == hash(PayoffMatrix())
    assert repr(pm) == ("PayoffMatrix(reward=Fraction(3, 1), sucker=Fraction(0, 1),"
                        " temptation=Fraction(5, 1), punishment=Fraction(1, 1))")
    with pytest.raises(AttributeError):
        pm.reward = Fraction(4)
