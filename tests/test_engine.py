import math
from collections import Counter
from fractions import Fraction

import pytest

from predipd.core import Action, DEFAULT_PAYOFFS, OUTCOMES, PayoffMatrix
from predipd.engine import (
    MatchConfig,
    PredictorSpec,
    UnknownPlayerError,
    default_roster,
    mix_seed,
    play_match,
    run_round_robin,
    time_series,
)
from predipd.strategies import builtin

C, D = Action.C, Action.D


def test_mix_seed_is_stable_and_order_sensitive():
    # frozen values: changing the mixing function silently would invalidate
    # every recorded seed, so pin it here
    assert mix_seed(0) == 1786884285633530058
    assert mix_seed(1, 2, 3) == 13041116711478803063
    assert mix_seed(1, 2) != mix_seed(2, 1)
    assert 0 <= mix_seed(2**63, 5) < 2**64
    assert mix_seed(7) == mix_seed(7)


def test_match_config_validation():
    with pytest.raises(ValueError):
        MatchConfig(n_turns=0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_deterministic_pairings_are_exact(seed):
    cfg = MatchConfig(n_turns=200, seed=seed)
    rec = play_match(builtin("ALLD"), builtin("ALLC"), cfg)
    assert rec.mean_a == 5.0 and rec.mean_b == 0.0
    assert all(pair == (D, C) for pair in rec.actions)

    rec = play_match(builtin("TFT"), builtin("TFT"), cfg)
    assert rec.mean_a == rec.mean_b == 3.0
    assert all(pair == (C, C) for pair in rec.actions)

    rec = play_match(builtin("WSLS"), builtin("TFT"), cfg)
    assert rec.mean_a == rec.mean_b == 3.0

    rec = play_match(builtin("ALLD"), builtin("ALLD"), cfg)
    assert rec.mean_a == rec.mean_b == 1.0


def test_match_is_deterministic_given_seed():
    cfg = MatchConfig(n_turns=100, seed=42)
    rec1 = play_match(builtin("JOSS"), builtin("RANDOM"), cfg)
    rec2 = play_match(builtin("JOSS"), builtin("RANDOM"), cfg)
    assert rec1 == rec2
    rec3 = play_match(builtin("JOSS"), builtin("RANDOM"), MatchConfig(n_turns=100, seed=43))
    assert rec1 != rec3


def test_turn_payoffs_are_consistent():
    cfg = MatchConfig(n_turns=100, seed=9)
    rec = play_match(builtin("RANDOM"), builtin("JOSS"), cfg)
    assert rec.n_turns == 100
    for (a, b), (pa, pb) in zip(rec.actions, rec.payoffs):
        assert pa + pb in (6.0, 5.0, 2.0)
        if a is C and b is C:
            assert (pa, pb) == (3.0, 3.0)
        if a is D and b is D:
            assert (pa, pb) == (1.0, 1.0)


def test_predictor_exploits_unconditional_cooperation():
    means = []
    for seed in range(10):
        cfg = MatchConfig(n_turns=200, seed=seed)
        rec = play_match(PredictorSpec(p_exp=0.1), builtin("ALLC"), cfg)
        means.append(rec.mean_a)
    assert abs(sum(means) / len(means) - 4.87) < 0.1


def test_randomized_opening_applies_only_against_the_learner():
    cfg = MatchConfig(n_turns=5, randomize_opponent_initial=True, seed=0)
    # fixed-strategy pairings keep their scripted openings
    for seed in range(10):
        rec = play_match(builtin("ALLC"), builtin("TFT"),
                         MatchConfig(n_turns=5, randomize_opponent_initial=True, seed=seed))
        assert rec.actions[0] == (C, C)
    # against the learner the opening becomes a coin flip
    openings = set()
    for seed in range(30):
        rec = play_match(builtin("ALLC"), PredictorSpec(p_exp=0.0),
                         MatchConfig(n_turns=5, randomize_opponent_initial=True, seed=seed))
        openings.add(rec.actions[0][0])
    assert openings == {C, D}


def test_cumulative_means_windowing():
    cfg = MatchConfig(n_turns=20, seed=0)
    rec = play_match(builtin("ALLD"), builtin("ALLC"), cfg)
    series = rec.cumulative_means(0, window=5)
    assert series == [(5, 5.0), (10, 5.0), (15, 5.0), (20, 5.0)]
    assert rec.cumulative_means(1, window=20) == [(20, 0.0)]


def test_round_robin_rejects_bad_rosters():
    with pytest.raises(ValueError):
        run_round_robin([], MatchConfig())
    with pytest.raises(ValueError, match="duplicate"):
        run_round_robin([builtin("TFT"), builtin("TFT")], MatchConfig())


def test_round_robin_shape_and_aggregates():
    roster = [builtin("TFT"), builtin("ALLD"), builtin("ALLC"), builtin("RANDOM")]
    n_iter = 3
    result = run_round_robin(roster, MatchConfig(n_turns=50), n_iter, master_seed=7)
    k = len(roster)
    assert len(result.records) == k * (k + 1) // 2 * n_iter
    assert set(result.roster) == {"TFT", "ALLD", "ALLC", "RANDOM"}
    assert len(result.ranking) == k

    # recompute every average from the raw records
    recomputed = {name: [] for name in result.roster}
    for rec in result.records:
        if rec.player_a == rec.player_b:
            recomputed[rec.player_a].append((rec.mean_a + rec.mean_b) / 2)
        else:
            recomputed[rec.player_a].append(rec.mean_a)
            recomputed[rec.player_b].append(rec.mean_b)
    for name, means in recomputed.items():
        assert result.averages[name] == pytest.approx(sum(means) / len(means))

    # the pairing matrix holds aggregated per-role means
    for name in result.roster:
        assert (name, name) in result.pair_means


def test_round_robin_is_deterministic():
    roster = [builtin("JOSS"), builtin("RANDOM"), PredictorSpec(p_exp=0.1)]
    cfg = MatchConfig(n_turns=60)
    r1 = run_round_robin(roster, cfg, n_iter=2, master_seed=11)
    r2 = run_round_robin(roster, cfg, n_iter=2, master_seed=11)
    assert r1.averages == r2.averages
    assert r1.records == r2.records
    r3 = run_round_robin(roster, cfg, n_iter=2, master_seed=12)
    assert r1.averages != r3.averages


def test_pairing_win_and_tie_counting():
    roster = [builtin("ALLD"), builtin("ALLC"), builtin("TFT")]
    result = run_round_robin(roster, MatchConfig(n_turns=100), n_iter=2, master_seed=0)
    # ALLD beats both cooperators; TFT and ALLC tie at mutual cooperation
    assert result.wins == {"ALLD": 2, "ALLC": 0, "TFT": 0}
    assert result.ties == {"ALLD": 0, "ALLC": 1, "TFT": 1}
    assert result.ranking[0] == "ALLD"


WIN_MATRICES = {
    "default": DEFAULT_PAYOFFS,
    "non-integer": PayoffMatrix(Fraction(7, 2), Fraction(1, 3), Fraction(9, 2), Fraction(4, 3)),
}
_FLOAT_TIE = pytest.mark.xfail(
    strict=True,
    reason="RANDOM and WSLS tie at 1127/500 exactly, but the float sums of their match means"
    " credit RANDOM with a win; perfbench/golden.json pins that win, so the integer win"
    " rule (ROADMAP item 2) waits on the benchmark update (ROADMAP item 1)")


@pytest.mark.parametrize("matrix, master_seed", [
    pytest.param(matrix, seed, id=f"{matrix}-{seed}",
                 marks=_FLOAT_TIE if (matrix, seed) == ("default", 2) else ())
    for matrix in WIN_MATRICES for seed in range(16)
])
def test_tournament_wins_follow_exact_pair_totals(matrix, master_seed):
    pm = WIN_MATRICES[matrix]
    result = run_round_robin(default_roster(), MatchConfig(payoff=pm), 5, master_seed)
    totals = Counter()  # (player, opponent) -> the player's exact total over the pairing
    for rec in result.records:
        if rec.player_a != rec.player_b:
            for code, n in Counter(rec.outcomes).items():
                pay_a, pay_b = pm.payoff(OUTCOMES[code])
                totals[rec.player_a, rec.player_b] += n * pay_a
                totals[rec.player_b, rec.player_a] += n * pay_b
    wins = dict.fromkeys(result.roster, 0)
    ties = dict.fromkeys(result.roster, 0)
    for (player, opponent), total in totals.items():
        wins[player] += total > totals[opponent, player]
        ties[player] += total == totals[opponent, player]
    assert (result.wins, result.ties) == (wins, ties)


def _per_player_means(result):
    """Each player's per-match means, in the order run_round_robin collects them."""
    means = {name: [] for name in result.roster}
    for rec in result.records:
        if rec.player_a == rec.player_b:
            means[rec.player_a].append((rec.mean_a + rec.mean_b) / 2)
        else:
            means[rec.player_a].append(rec.mean_a)
            means[rec.player_b].append(rec.mean_b)
    return means


def _textbook_standard_error(means):
    avg = sum(means) / len(means)
    var = sum((m - avg) ** 2 for m in means) / (len(means) - 1)
    return math.sqrt(var) / math.sqrt(len(means))


def test_standard_errors_of_huge_payoffs_are_finite():
    huge = PayoffMatrix(10**200, 0, 15 * 10**199, 10**100)
    result = run_round_robin(default_roster(), MatchConfig(n_turns=20, payoff=huge), 1, 0)
    means = _per_player_means(result)
    with pytest.raises(OverflowError):  # the squares of the deviations overflow
        [_textbook_standard_error(m) for m in means.values()]
    for name, player_means in means.items():
        se = result.standard_errors[name]
        assert math.isfinite(se) and se > 0, name
        # the textbook formula on the means scaled down by an exact power of two
        scaled = _textbook_standard_error([math.ldexp(m, -700) for m in player_means])
        assert se == pytest.approx(math.ldexp(scaled, 700), rel=1e-12), name


def test_standard_errors_keep_their_bits_for_the_default_matrix():
    result = run_round_robin(default_roster(), MatchConfig(n_turns=200), 5, 0)
    for name, player_means in _per_player_means(result).items():
        assert result.standard_errors[name] == _textbook_standard_error(player_means), name


def test_single_entry_roster():
    result = run_round_robin([builtin("TFT")], MatchConfig(n_turns=40), n_iter=2, master_seed=1)
    assert result.averages == {"TFT": 3.0}
    assert result.wins == {"TFT": 0}
    assert result.ranking == ("TFT",)


def test_time_series_degenerate_roster():
    result = run_round_robin([builtin("TFT")], MatchConfig(n_turns=40), n_iter=2, master_seed=1)
    series = time_series(result, "TFT", window=5)
    assert [turn for turn, _ in series] == [5, 10, 15, 20, 25, 30, 35, 40]
    assert all(mean == 3.0 for _, mean in series)
    # a window spanning the whole match collapses to the tournament average
    assert time_series(result, "TFT", window=40) == [(40, result.averages["TFT"])]


def test_time_series_unknown_subject():
    result = run_round_robin([builtin("TFT")], MatchConfig(n_turns=10), n_iter=1, master_seed=0)
    with pytest.raises(UnknownPlayerError):
        time_series(result, "GRIM")


def test_default_roster_contents():
    roster = default_roster()
    names = [s.name for s in roster]
    assert len(names) == 10
    assert "PREDICTOR" in names
    assert "ZDGTFT-2" in names and "ZDEXTORT-2" in names
    predictor_specs = [s for s in roster if isinstance(s, PredictorSpec)]
    assert len(predictor_specs) == 1 and predictor_specs[0].p_exp == 0.1
