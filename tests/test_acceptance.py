"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line before asserting, so the verdict
for every criterion survives in the captured output of a failing run.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_model, random_state
from predipd.analysis import (
    DIRECT_SOLVE,
    exploration_sweep,
    long_run_payoffs,
    simulate_long_run,
    zd_residual,
)
from predipd.cli import main as cli_main
from predipd.core import Action, DEFAULT_PAYOFFS, JointOutcome, OUTCOMES
from predipd.engine import (
    MatchConfig,
    PredictorSpec,
    default_roster,
    play_match,
    run_round_robin,
)
from predipd.predictor import (
    OpponentModel,
    PredictorState,
    decide,
    decide_at_depth,
    expected_payoff_coop,
    expected_payoff_defect,
    observe,
)
from predipd.strategies import BUILTIN_STRATEGIES, MemoryOneStrategy, builtin

C, D = Action.C, Action.D
PM = DEFAULT_PAYOFFS
N_SEEDS = 10


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


@pytest.fixture(scope="module")
def default_runs():
    """The default tournament at ten master seeds."""
    cfg = MatchConfig(n_turns=200)
    return [run_round_robin(default_roster(0.1), cfg, n_iter=5, master_seed=s)
            for s in range(N_SEEDS)]


def test_criterion_1_headline_tournament(default_runs):
    averages = [r.averages["PREDICTOR"] for r in default_runs]
    in_band = sum(2.40 <= a <= 2.65 for a in averages)
    first = sum(r.ranking[0] == "PREDICTOR" for r in default_runs)
    ok = in_band >= 8 and first >= 8
    detail = (f"PREDICTOR avg in [2.40, 2.65] in {in_band}/10 seeds, "
              f"ranked 1st in {first}/10 (mean avg {sum(averages)/len(averages):.3f})")
    assert report(1, ok, detail)


def test_criterion_2_exact_deterministic_cells():
    cells = [("TFT", "TFT", 3.0, 3.0), ("WSLS", "TFT", 3.0, 3.0),
             ("ALLD", "ALLC", 5.0, 0.0), ("ALLD", "ALLD", 1.0, 1.0)]
    ok = True
    for seed in range(5):
        cfg = MatchConfig(n_turns=200, seed=seed)
        for a, b, want_a, want_b in cells:
            rec = play_match(builtin(a), builtin(b), cfg)
            ok = ok and rec.mean_a == want_a and rec.mean_b == want_b
    assert report(2, ok, "TFT-TFT, WSLS-TFT, ALLD-ALLC, ALLD-ALLD exact at 5 seeds")


def test_criterion_3_win_counts(default_runs):
    wins = [r.wins["ALLD"] for r in default_runs]
    ties = [r.ties["ALLD"] for r in default_runs]
    tie_partners_ok = all(
        r.pair_means[("ALLD", opp)] == r.pair_means[(opp, "ALLD")]
        for r in default_runs for opp in ("ZDEXTORT-2", "JOSS")
    )
    ok = all(w == 7 for w in wins) and all(t == 2 for t in ties) and tie_partners_ok
    assert report(3, ok, f"ALLD wins {sorted(set(wins))}, ties {sorted(set(ties))} "
                         f"(ties vs ZDEXTORT-2 and JOSS)")


def test_criterion_4_zd_relations():
    ok = True
    worst = 0.0
    multi_class = 0
    for zd_name, slope, intercept in (("ZDGTFT-2", 2.0, -3.0), ("ZDEXTORT-2", 2.0, -1.0)):
        zd = builtin(zd_name)
        for opponent in BUILTIN_STRATEGIES.values():
            check = zd_residual(zd, opponent, slope, intercept)
            if check.ergodic:
                ok = ok and abs(check.residual) < 1e-9
                worst = max(worst, abs(check.residual))
            else:
                multi_class += 1
                ok = ok and abs(check.residual) < 1e-2
    assert report(4, ok, f"max ergodic residual {worst:.2e}, {multi_class} multi-class pairings")


def _self_play_without_exploration(seed, n_turns):
    cfg = MatchConfig(n_turns=n_turns, seed=seed)
    return play_match(PredictorSpec(p_exp=0.0), PredictorSpec(p_exp=0.0), cfg)


def test_criterion_5a_self_play_without_exploration():
    """With p_exp=0 the only draws are the two turn-0 coin flips, so the
    opening fixes the whole match.

    After an asymmetric opening (CD, DC) each agent has seen its lone
    cooperation answered by defection, and mutual defection never ends:
    the tail mean is the 1.0 landmark.  After a symmetric opening (CC, DD)
    both agents hold the same counters and move in lockstep, so CD and DC
    stay unseen at 1/2.  The decision then ties exactly when
    p(C|CC) = p(C|DD) = 1/8 and the cooperation rate settles there, which
    puts the long-run mean at 5/4, not 1.0.
    """
    CC, CD, DC, DD = OUTCOMES
    by_opening = {}
    for seed in range(N_SEEDS):
        rec = _self_play_without_exploration(seed, 200)
        by_opening.setdefault(JointOutcome.from_actions(*rec.actions[0]), []).append((seed, rec))
    all_openings = set(by_opening) == set(OUTCOMES)
    fixed_by_opening = all(len({rec.actions for _, rec in recs}) == 1
                           for recs in by_opening.values())

    asym_means = []
    asym_locked = True
    for opening in (CD, DC):
        for _, rec in by_opening.get(opening, ()):
            tail = rec.payoffs[10:]
            asym_means.append(sum(pa + pb for pa, pb in tail) / (2 * len(tail)))
            asym_locked = asym_locked and all(a == (D, D) for a in rec.actions[-100:])
    asym_ok = asym_locked and all(abs(m - 1.0) <= 0.05 for m in asym_means)

    cc_shares = []
    lockstep = True
    for opening in (CC, DD):
        for seed, _ in by_opening.get(opening, ())[:1]:
            rec = _self_play_without_exploration(seed, 2000)
            lockstep = lockstep and all(a == b for a, b in rec.actions)
            half = rec.actions[1000:]
            cc_shares.append(sum(a == (C, C) for a in half) / len(half))
    sym_ok = lockstep and all(abs(s - Fraction(1, 8)) <= 0.01 for s in cc_shares)

    # counters in canonical order CC, CD, DC, DD: p(C|CC) = p(C|DD) = 1/8
    at_rate = OpponentModel(((6, 0), (0, 0), (0, 0), (6, 0)))
    ties = all(expected_payoff_coop(at_rate, x, PM) == expected_payoff_defect(at_rate, x, PM)
               and decide(at_rate, x, PM) is D for x in (CC, DD))
    # one more defection seen at DD: p(C|DD) = 1/9 tips the decision to C
    below_rate = OpponentModel(((6, 0), (0, 0), (0, 0), (7, 0)))
    gap = expected_payoff_coop(below_rate, DD, PM) - expected_payoff_defect(below_rate, DD, PM)
    tips = gap == Fraction(17, 162) and decide(below_rate, DD, PM) is C

    ok = all_openings and fixed_by_opening and asym_ok and sym_ok and ties and tips
    counts = {str(o): len(by_opening.get(o, ())) for o in OUTCOMES}
    assert report("5a", ok, f"self-play p_exp=0, openings {counts}, one trace each: "
                            f"{fixed_by_opening}; CD/DC tail means after turn 10 "
                            f"{[round(m, 3) for m in asym_means]} (target 1.0 +/- 0.05), "
                            f"last 100 turns DD: {asym_locked}; CC/DD lockstep: {lockstep}, "
                            f"CC share of turns 1000-1999 {[round(s, 3) for s in cc_shares]} "
                            f"(target 1/8 +/- 0.01); exact tie at 1/8: {ties}, "
                            f"C at p(C|DD)=1/9: {tips}")


def test_criterion_5b_self_play_full_exploration():
    means = []
    for seed in range(N_SEEDS):
        cfg = MatchConfig(n_turns=200, seed=seed)
        rec = play_match(PredictorSpec(p_exp=1.0), PredictorSpec(p_exp=1.0), cfg)
        means.append((rec.mean_a + rec.mean_b) / 2)
    mean = sum(means) / len(means)
    ok = abs(mean - 2.25) <= 0.05
    assert report("5b", ok, f"self-play p_exp=1 mean payoff {mean:.3f} (target 2.25 +/- 0.05)")


def test_criterion_5c_random_self_play_analytic():
    lr = long_run_payoffs(builtin("RANDOM"), builtin("RANDOM"))
    ok = lr.method == DIRECT_SOLVE and abs(lr.payoff_x - 2.25) < 1e-12 \
        and abs(lr.payoff_y - 2.25) < 1e-12
    assert report("5c", ok, f"RANDOM-RANDOM stationary payoff {lr.payoff_x!r} ({lr.method})")


def test_criterion_6_exploration_sweep():
    low_grid = (0.05, 0.1, 0.15)
    high_grid = (0.9, 0.95, 1.0)
    cfg = MatchConfig(n_turns=200)
    separated = 0
    full_exploration = []
    for seed in range(N_SEEDS):
        rows = exploration_sweep(default_roster(), cfg, 5, low_grid + high_grid, seed)
        low = sum(r.average for r in rows[:3]) / 3
        high = sum(r.average for r in rows[3:]) / 3
        if low - high >= 0.15:
            separated += 1
        full_exploration.append(rows[-1].average)
    fe_mean = sum(full_exploration) / len(full_exploration)
    ok = separated >= 9 and 2.17 <= fe_mean <= 2.34
    assert report(6, ok, f"low/high exploration gap >= 0.15 in {separated}/10 seeds; "
                         f"p_exp=1.0 average {fe_mean:.3f}")


def test_criterion_7_late_game_traces():
    cooperative = {"TFT": 0, "WSLS": 0}
    for name in cooperative:
        for seed in range(N_SEEDS):
            cfg = MatchConfig(n_turns=200, seed=seed)
            rec = play_match(PredictorSpec(p_exp=0.1), builtin(name), cfg)
            if all(pair == (C, C) for pair in rec.actions[-50:]):
                cooperative[name] += 1
    defection_ok = True
    allc_means = []
    for seed in range(N_SEEDS):
        cfg = MatchConfig(n_turns=200, seed=seed)
        rec = play_match(PredictorSpec(p_exp=0.1), builtin("ALLC"), cfg)
        defections = sum(a is D for a, _ in rec.actions[-50:])
        defection_ok = defection_ok and defections >= 0.95 * 50
        allc_means.append(rec.mean_a)
    allc_mean = sum(allc_means) / len(allc_means)
    ok = (cooperative["TFT"] >= 9 and cooperative["WSLS"] >= 9
          and defection_ok and 4.7 <= allc_mean <= 5.0)
    assert report(7, ok, f"final-50 mutual C vs TFT {cooperative['TFT']}/10, "
                         f"vs WSLS {cooperative['WSLS']}/10; vs ALLC mean {allc_mean:.3f}")


def _brute_force_decision(model, x0, pm):
    """Argmax over all four two-turn courses by direct enumeration; ties to D."""
    def value(first, second):
        total = Fraction(0)
        p1 = model.probability(x0)
        for r1, w1 in ((C, p1), (D, 1 - p1)):
            mid = JointOutcome.from_actions(first, r1)
            p2 = model.probability(mid)
            for r2, w2 in ((C, p2), (D, 1 - p2)):
                last = JointOutcome.from_actions(second, r2)
                total += w1 * w2 * (pm.payoff(mid)[0] + pm.payoff(last)[0])
        return total

    best_coop = max(value(C, s) for s in (C, D))
    best_defect = max(value(D, s) for s in (C, D))
    return C if best_coop > best_defect else D


def test_criterion_8a_decision_matches_brute_force():
    rng = random.Random(81)
    mismatches = 0
    for _ in range(10_000):
        model = random_model(rng)
        state = random_state(rng)
        if decide(model, state, PM) is not _brute_force_decision(model, state, PM):
            mismatches += 1
    assert report("8a", mismatches == 0,
                  f"{mismatches}/10000 mismatches vs brute-force course enumeration")


def test_criterion_8b_counter_recount():
    rng = random.Random(82)
    state = PredictorState.fresh(500, 0.1)
    recount = {s: [0, 0] for s in OUTCOMES}
    prev = None
    for _ in range(500):
        own, opp = rng.choice((C, D)), rng.choice((C, D))
        if prev is not None:
            recount[prev][0] += 1
            recount[prev][1] += opp is C
        state = observe(state, own, opp)
        prev = JointOutcome.from_actions(own, opp)
    ok = all(state.model.obs_count(s) == recount[s][0]
             and state.model.coop_count(s) == recount[s][1] for s in OUTCOMES)
    assert report("8b", ok, "model counters equal independent recount of a 500-turn trace")


def test_criterion_8c_solver_vs_simulation():
    rng = random.Random(83)
    worst = 0.0
    for k in range(20):
        strategies = []
        for role in ("x", "y"):
            probs = {o: Fraction(rng.randint(1, 19), 20) for o in OUTCOMES}
            strategies.append(MemoryOneStrategy(f"{role}{k}", probs))
        x, y = strategies
        lr = long_run_payoffs(x, y)
        assert lr.method == DIRECT_SOLVE
        sim_x, sim_y = simulate_long_run(x, y, steps=10**6, seed=rng.randrange(2**32))
        worst = max(worst, abs(sim_x - lr.payoff_x), abs(sim_y - lr.payoff_y))
    ok = worst < 0.01
    assert report("8c", ok, f"max |analytic - simulated| payoff {worst:.4f} over 20 pairs")


def test_criterion_8d_depth_three_invariance():
    rng = random.Random(84)
    mismatches = 0
    for _ in range(1_000):
        model = random_model(rng)
        state = random_state(rng)
        if decide_at_depth(model, state, PM, 3) is not decide(model, state, PM):
            mismatches += 1
    assert report("8d", mismatches == 0,
                  f"{mismatches}/1000 decisions changed by a depth-3 horizon")


def test_criterion_9_byte_identical_outputs(tmp_path, capsys):
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        rc = cli_main(["--turns", "100", "--iters", "2", "--seed", "5",
                       "--out", str(out), "tournament"])
        assert rc == 0
        blobs.append((out / "summary.csv").read_bytes()
                     + (out / "matrix.csv").read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1]
    assert report(9, ok, "repeated runs with one master seed are byte-identical")
