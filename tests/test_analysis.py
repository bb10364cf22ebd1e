import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import predipd
from predipd import analysis
from predipd.analysis import (
    CLASS_MIXTURE,
    DIRECT_SOLVE,
    SIMULATION_FALLBACK,
    JointChain,
    StationaryResult,
    build_chain,
    exploration_sweep,
    fit_inverse_sqrt,
    long_run_payoffs,
    simulate_long_run,
    stationary,
    zd_residual,
)
from predipd.core import DEFAULT_PAYOFFS, OUTCOMES, PayoffMatrix
from predipd.engine import MatchConfig, PredictorSpec, run_round_robin
from predipd.strategies import MemoryOneStrategy, builtin

QUARTER = Fraction(1, 4)
NON_INTEGER = PayoffMatrix(Fraction(7, 2), Fraction(1, 3), Fraction(9, 2), Fraction(4, 3))


def _load_reference():
    """The benchmark's independent Gauss-Jordan solver, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


GRIM = MemoryOneStrategy("GRIM", (1, 0, 0, 0))


def test_joint_chain_validation():
    with pytest.raises(ValueError, match="4x4"):
        JointChain.from_transition([[1, 0, 0]] * 3)
    with pytest.raises(ValueError, match="sum to 1"):
        JointChain.from_transition([[Fraction(3, 10)] * 4] * 4)
    with pytest.raises(ValueError, match="sum to 1"):
        # floats are taken exactly: 0.1 + 0.2 + 0.3 + 0.4 is not 1 in binary
        JointChain.from_transition([[0.1, 0.2, 0.3, 0.4]] + [[QUARTER] * 4] * 3)
    with pytest.raises(ValueError, match="lie in"):
        JointChain.from_transition([[Fraction(6, 5), Fraction(-1, 5), 0, 0]] + [[QUARTER] * 4] * 3)
    # the integer form is held to the same checks
    with pytest.raises(ValueError, match="4x4"):
        JointChain(((1, 0, 0, 0),) * 4, (1, 1, 1))
    with pytest.raises(ValueError, match="lie in"):
        JointChain(((2, -1, 0, 0),) + ((1, 0, 0, 0),) * 3, (1, 1, 1, 1))
    with pytest.raises(ValueError, match="sum to 1"):
        JointChain(((0, 0, 0, 0),) + ((1, 0, 0, 0),) * 3, (0, 1, 1, 1))
    chain = JointChain.from_transition([[1, 0, 0, 0], [0.25] * 4, ["1/2", "1/2", 0, 0], [0, 0, 0, 1]])
    assert chain.totals == (1, 4, 2, 1) and chain.weights[1] == (1, 1, 1, 1)
    assert chain.transition[1] == (QUARTER,) * 4
    assert all(type(v) is Fraction for row in chain.transition for v in row)


def test_chain_alld_vs_alld():
    chain = build_chain(builtin("ALLD"), builtin("ALLD"))
    assert chain.transition == ((0, 0, 0, 1),) * 4


def test_chain_random_vs_random():
    chain = build_chain(builtin("RANDOM"), builtin("RANDOM"))
    assert chain.transition == ((QUARTER,) * 4,) * 4


def test_chain_orientation_hand_check():
    # from DC, TFT (saw opponent cooperate) cooperates; WSLS saw CD on its
    # side and switches to defect -- so the next state is CD with certainty
    chain = build_chain(builtin("TFT"), builtin("WSLS"))
    assert chain.transition[2] == (0, 1, 0, 0)


def test_chain_mirror_symmetry():
    x, y = builtin("JOSS"), builtin("GTFT")
    fwd = build_chain(x, y).transition
    rev = build_chain(y, x).transition
    mirror = [0, 2, 1, 3]  # CC, DC, CD, DD
    for i in range(4):
        for j in range(4):
            assert fwd[i][j] == rev[mirror[i]][mirror[j]]


def test_stationary_absorbing_chain():
    result = stationary(build_chain(builtin("ALLD"), builtin("ALLD")))
    assert result.method == DIRECT_SOLVE and result.ergodic
    assert result.distribution == (0, 0, 0, 1)


def test_stationary_uniform_chain():
    result = stationary(build_chain(builtin("RANDOM"), builtin("RANDOM")))
    assert result.method == DIRECT_SOLVE and result.ergodic
    assert result.distribution == (QUARTER,) * 4


def test_stationary_multi_class_chains_are_exact():
    # TFT against itself keeps CC and DD and swaps CD with DC: three closed
    # classes, each holding the uniform start's mass
    result = stationary(build_chain(builtin("TFT"), builtin("TFT")))
    assert result.method == CLASS_MIXTURE and not result.ergodic
    assert result.distribution == (QUARTER,) * 4
    # WSLS-ALLC: CC is absorbing and {DC} is closed; CD moves to DC and DD to CC
    lr = long_run_payoffs(builtin("WSLS"), builtin("ALLC"))
    assert (lr.payoff_x, lr.payoff_y) == (4.0, 1.5)
    assert lr.method == CLASS_MIXTURE and not lr.ergodic


def _seeded_pairs():
    """300 seeded pairs with k/16 entries, 0 and 1 drawn often so that chains
    have transient states and several closed classes."""
    rng = random.Random(41)
    for k in range(300):
        yield tuple(
            MemoryOneStrategy(f"{role}{k}", [rng.choice((0, 1, Fraction(rng.randint(0, 16), 16)))
                                             for _ in OUTCOMES])
            for role in "xy"
        )


def test_stationary_matches_the_reference_solver():
    reference = _load_reference()
    multi_class = 0
    for x, y in _seeded_pairs():
        result = stationary(build_chain(x, y))
        exact = reference.long_run(x.vector(), y.vector())
        assert result.distribution == exact.distribution
        assert all(type(v) is Fraction for v in result.distribution)
        assert result.ergodic == exact.ergodic
        assert result.method == (DIRECT_SOLVE if exact.ergodic else CLASS_MIXTURE)
        multi_class += not exact.ergodic
    assert multi_class >= 30


@pytest.mark.parametrize("pm", [DEFAULT_PAYOFFS, NON_INTEGER], ids=["default", "non-integer"])
def test_scores_match_the_reference_bit_for_bit(pm):
    reference = _load_reference()
    # 0.3 and 0.7 enter at their exact binary values, over 2**52-sized denominators
    relations = [(2.0, -3.0), (0.3, 0.7)]
    for x, y in _seeded_pairs():
        ex, ey = reference.long_run(x.vector(), y.vector()).payoffs(*pm.focal)
        lr = long_run_payoffs(x, y, pm)
        assert (lr.payoff_x, lr.payoff_y) == (float(ex), float(ey))
        for slope, intercept in relations:
            check = zd_residual(x, y, slope, intercept, pm)
            assert (check.payoff_x, check.payoff_y) == (float(ex), float(ey))
            assert check.residual == float(ex - (Fraction(slope) * ey + Fraction(intercept)))


def test_long_run_solve_calls_the_module_globals_once(monkeypatch):
    # perfbench/run.py and perfbench/tracer.py replace analysis.build_chain and
    # analysis.stationary, and check the distribution of the one solve each op makes
    calls = []

    def counted(name, function, wrap=lambda result: result):
        def call(*args):
            calls.append(name)
            return wrap(function(*args))
        monkeypatch.setattr(analysis, name, call)

    counted("build_chain", build_chain)
    counted("stationary", stationary,
            lambda result: StationaryResult(result.distribution, "captured", not result.ergodic))
    x, y = builtin("ZDGTFT-2"), builtin("JOSS")
    lr = long_run_payoffs(x, y)
    assert calls == ["build_chain", "stationary"]
    assert (lr.method, lr.ergodic) == ("captured", False)
    calls.clear()
    check = zd_residual(x, y, 2.0, -3.0)
    assert calls == ["build_chain", "stationary"]
    assert (check.method, check.ergodic) == ("captured", False)
    # perfbench/selftest.py builds results from float distributions
    result = StationaryResult([0.5, 0.5, 0.0, 0.0], SIMULATION_FALLBACK, False)
    assert result.distribution == [0.5, 0.5, 0.0, 0.0]


def test_simulate_long_run_is_pinned():
    # the thresholds are the chain's rows rounded once: these values pin them
    pair = builtin("ZDEXTORT-2"), builtin("GTFT")
    assert simulate_long_run(*pair, steps=20_000, seed=11) == (2.69775, 1.8395)
    pair = builtin("JOSS"), builtin("RANDOM")
    assert simulate_long_run(*pair, NON_INTEGER, steps=20_000, seed=11) == (
        2.4603416666669147, 2.2526333333335025)


def test_long_run_payoffs_landmarks():
    lr = long_run_payoffs(builtin("RANDOM"), builtin("RANDOM"))
    assert (lr.payoff_x, lr.payoff_y) == (2.25, 2.25)
    lr = long_run_payoffs(builtin("ALLD"), builtin("ALLC"))
    assert (lr.payoff_x, lr.payoff_y) == (5.0, 0.0)
    assert type(lr.payoff_x) is float and type(lr.payoff_y) is float


@pytest.mark.parametrize("opponent", ["ALLD", "RANDOM", "GTFT", "WSLS", "GRIM"])
def test_zd_linear_relations(opponent):
    # against GRIM, ZDGTFT-2 settles either in CC or in {CD, DD} (two closed
    # classes); ZDEXTORT-2 leaves CC, so DD is the one closed class
    y = GRIM if opponent == "GRIM" else builtin(opponent)
    for zd, intercept in (("ZDGTFT-2", -3.0), ("ZDEXTORT-2", -1.0)):
        check = zd_residual(builtin(zd), y, 2.0, intercept)
        assert check.residual == 0.0 and type(check.residual) is float
        multi_class = opponent == "GRIM" and zd == "ZDGTFT-2"
        assert check.ergodic == (not multi_class)
        assert check.method == (CLASS_MIXTURE if multi_class else DIRECT_SOLVE)


def test_simulation_cross_checks_the_solver():
    px, py = simulate_long_run(builtin("RANDOM"), builtin("ZDGTFT-2"), steps=200_000, seed=3)
    lr = long_run_payoffs(builtin("RANDOM"), builtin("ZDGTFT-2"))
    assert px == pytest.approx(lr.payoff_x, abs=0.02)
    assert py == pytest.approx(lr.payoff_y, abs=0.02)


def test_cli_import_leaves_numpy_out():
    env = dict(os.environ, PYTHONPATH=str(Path(predipd.__file__).resolve().parents[1]))
    code = ("import sys, predipd.cli; "
            "print('numpy' in sys.modules, 'yaml' in sys.modules, 'predipd.analysis' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    # PyYAML loads only with --config, the analysis module only for the
    # subcommands that use it
    assert proc.stdout.strip() == "False False False"


def test_package_re_exports_the_analysis_names():
    # in a fresh interpreter, so that the names resolve before predipd.analysis loads
    env = dict(os.environ, PYTHONPATH=str(Path(predipd.__file__).resolve().parents[1]))
    code = """if True:
        import sys, predipd
        assert "predipd.analysis" not in sys.modules
        analysis = predipd.analysis
        from predipd import (JointChain, LongRunPayoffs, StationaryResult, ZdCheck,
                             build_chain, exploration_sweep, fit_inverse_sqrt,
                             long_run_payoffs, simulate_long_run, stationary, zd_residual)
        exported = (JointChain, LongRunPayoffs, StationaryResult, ZdCheck, build_chain,
                    exploration_sweep, fit_inverse_sqrt, long_run_payoffs,
                    simulate_long_run, stationary, zd_residual)
        assert analysis is sys.modules["predipd.analysis"]
        assert all(obj is getattr(analysis, obj.__name__) for obj in exported)
        try:
            predipd.absent
        except AttributeError as exc:
            print(exc)
    """
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "module 'predipd' has no attribute 'absent'"


def test_sweep_single_point_matches_plain_tournament():
    roster = [builtin(n) for n in ("TFT", "ALLD", "ZDGTFT-2")]
    roster.append(PredictorSpec(p_exp=0.5))
    cfg = MatchConfig(n_turns=60)
    rows = exploration_sweep(roster, cfg, n_iter=2, p_exp_grid=[0.1], master_seed=5)
    assert len(rows) == 1
    direct_roster = roster[:-1] + [PredictorSpec(p_exp=0.1)]
    direct = run_round_robin(direct_roster, cfg, n_iter=2, master_seed=5)
    assert rows[0].average == direct.averages["PREDICTOR"]
    assert rows[0].place == direct.ranking.index("PREDICTOR") + 1
    assert rows[0].wins == direct.wins["PREDICTOR"]
    assert rows[0].delta_vs_zdgtft2 == pytest.approx(
        direct.averages["PREDICTOR"] - direct.averages["ZDGTFT-2"])


def test_sweep_validation():
    roster = [builtin("TFT"), PredictorSpec()]
    cfg = MatchConfig(n_turns=10)
    with pytest.raises(ValueError, match="outside"):
        exploration_sweep(roster, cfg, 1, [1.5], 0)
    with pytest.raises(ValueError, match="learning-agent"):
        exploration_sweep([builtin("TFT")], cfg, 1, [0.1], 0)


def test_fit_recovers_exact_coefficients():
    n = [1, 4, 9, 25, 100, 400]
    series = [(k, 2.0 - 1.0 / k**0.5) for k in n]
    a, b, rms = fit_inverse_sqrt(series)
    assert a == pytest.approx(2.0, abs=1e-9)
    assert b == pytest.approx(-1.0, abs=1e-9)
    assert rms == pytest.approx(0.0, abs=1e-9)


def test_fit_constant_series():
    a, b, rms = fit_inverse_sqrt([(k, 3.0) for k in (1, 2, 5, 10)])
    assert a == pytest.approx(3.0, abs=1e-9)
    assert b == pytest.approx(0.0, abs=1e-9)


def test_fit_degenerate_inputs():
    assert fit_inverse_sqrt([(10, 1.7)]) == (1.7, 0.0, 0.0)
    # one n only: b cannot be told apart from a, so the fit is the mean
    assert fit_inverse_sqrt([(4, 1.0), (4, 2.0)]) == (1.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        fit_inverse_sqrt([])
    with pytest.raises(ValueError):
        fit_inverse_sqrt([(0, 1.0), (4, 2.0)])
