"""Match execution and the round-robin tournament harness.

Matches are fully deterministic given their seed: each player owns one
seeded draw stream, both players are queried against the previous joint
outcome before either current move is revealed, and per-match seeds are a
fixed 64-bit mix of (master seed, pair indices, iteration), so results
survive refactors and may be recomputed match by match in any order.

The match kernel works on integer outcome codes, the values of
:class:`core.JointOutcome`: memory-one players compare each draw with a
precomputed exact threshold, the learner decides by the integer closed form
of :func:`predictor.cooperates` on :attr:`core.PayoffMatrix.scaled`, and
per-turn payoffs come from one row of floats, summed in turn order.  Each
player draws by the bound ``random`` method of its own :func:`_stream`.  A
pairing of two memory-one players runs one fused loop that indexes both
threshold tables by player a's outcome code (b's table mirrored once); a
pairing with the learner queries one policy closure per player.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Sequence, Union

from . import predictor
from .core import Action, DEFAULT_PAYOFFS, MIRROR_CODE, OPENING, OUTCOMES, PayoffMatrix
from .strategies import MemoryOneStrategy

PREDICTOR_NAME = "PREDICTOR"


def mix_seed(*values: int) -> int:
    """Stable 64-bit hash of a tuple of integers (order-sensitive)."""
    packed = struct.pack(f"<{len(values)}Q", *(v & (2**64 - 1) for v in values))
    return int.from_bytes(hashlib.blake2b(packed, digest_size=8).digest(), "little")


@dataclass(frozen=True)
class MatchConfig:
    n_turns: int = 200
    payoff: PayoffMatrix = DEFAULT_PAYOFFS
    randomize_opponent_initial: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_turns < 1:
            raise ValueError("n_turns must be at least 1")


@dataclass(frozen=True)
class MemoryOneSpec:
    """Roster entry backed by a fixed memory-one strategy."""

    strategy: MemoryOneStrategy

    @property
    def name(self) -> str:
        return self.strategy.name


@dataclass(frozen=True)
class PredictorSpec:
    """Roster entry for the learning agent, named PREDICTOR; state is rebuilt every match."""

    p_exp: float = 0.1
    name: ClassVar[str] = PREDICTOR_NAME


PlayerSpec = Union[MemoryOneSpec, PredictorSpec]

#: One player's draw: a uniform double in [0, 1).
Draw = Callable[[], float]

#: A player inside the match kernel: the code of the previous outcome in the
#: player's own orientation (OPENING on the first turn) -> 1 to defect, 0 to
#: cooperate.
Policy = Callable[[int], int]

#: (a's action, b's action) of each outcome code.
_ACTION_PAIRS = tuple((o.self_action, o.opponent_action) for o in OUTCOMES)


def _stream(seed: int) -> random.Random:
    """A player's seeded draw stream; the kernel draws by its ``random``."""
    return random.Random(seed)


def _memory_one_policy(strategy: MemoryOneStrategy, draw: Draw, random_opening: bool) -> Policy:
    """One draw per turn, compared with the strategy's exact threshold."""
    thresholds = strategy.thresholds
    if random_opening:
        thresholds = thresholds[:OPENING] + (0.5,)
    return lambda prev: draw() >= thresholds[prev]


def _predictor_policy(p_exp: float, draw: Draw, cfg: MatchConfig) -> Policy:
    """The learning agent of :mod:`predipd.predictor` on outcome codes.

    A random move (one draw) on the opening turn and inside the exploration
    window, :func:`predictor.cooperates` otherwise.  The opponent model is
    kept as Laplace-smoothed counters: after the state with code i the
    opponent cooperated ``coops[i] - 1`` times out of ``seen[i] - 2``.
    """
    explore_until = predictor.exploration_turns(cfg.n_turns, p_exp)
    payoffs = cfg.payoff.scaled
    cooperates = predictor.cooperates
    coops = [1] * 4
    seen = [2] * 4
    last = OPENING
    turn = 0

    def move(prev: int) -> int:
        nonlocal last, turn
        if last != OPENING:
            # the opponent's move in `prev` followed the state `last`
            seen[last] += 1
            coops[last] += 1 - (prev & 1)
        last = prev
        explore = prev == OPENING or turn < explore_until
        turn += 1
        if explore:
            return draw() >= 0.5
        return 0 if cooperates(coops, seen, prev, payoffs) else 1

    return move


def _policy(spec: PlayerSpec, opponent: PlayerSpec, draw: Draw, cfg: MatchConfig) -> Policy:
    if isinstance(spec, PredictorSpec):
        return _predictor_policy(spec.p_exp, draw, cfg)
    # the randomized opening applies only against the learner
    random_opening = cfg.randomize_opponent_initial and isinstance(opponent, PredictorSpec)
    return _memory_one_policy(spec.strategy, draw, random_opening)


@dataclass(frozen=True)
class MatchRecord:
    """Complete turn-by-turn trace of one match.

    ``outcomes`` holds one outcome code per turn in player a's orientation,
    and ``payoff_row`` player a's payoff for each code; the per-turn actions
    and payoffs are derived from them.
    """

    player_a: str
    player_b: str
    outcomes: bytes
    payoff_row: tuple[float, float, float, float]
    mean_a: float
    mean_b: float

    @property
    def n_turns(self) -> int:
        return len(self.outcomes)

    @property
    def actions(self) -> tuple[tuple[Action, Action], ...]:
        return tuple(_ACTION_PAIRS[code] for code in self.outcomes)

    @property
    def payoffs(self) -> tuple[tuple[float, float], ...]:
        row = self.payoff_row
        return tuple((row[code], row[MIRROR_CODE[code]]) for code in self.outcomes)

    def cumulative_means(self, role: int, window: int = 5) -> list[tuple[int, float]]:
        """(turn, mean payoff through that turn) at every `window` turns."""
        row = self.payoff_row if role == 0 else [self.payoff_row[MIRROR_CODE[c]] for c in range(4)]
        series = []
        total = 0.0
        for t, code in enumerate(self.outcomes, start=1):
            total += row[code]
            if t % window == 0:
                series.append((t, total / t))
        return series


def play_match(spec_a: PlayerSpec, spec_b: PlayerSpec, cfg: MatchConfig) -> MatchRecord:
    """Run one match; fully deterministic given cfg.seed."""
    draw_a = _stream(mix_seed(cfg.seed, 0)).random
    draw_b = _stream(mix_seed(cfg.seed, 1)).random
    mirror = MIRROR_CODE
    outcomes = bytearray(cfg.n_turns)
    code = OPENING
    # both moves are fixed before either is revealed; a draws first
    if isinstance(spec_a, MemoryOneSpec) and isinstance(spec_b, MemoryOneSpec):
        # no randomized opening between memory-one players
        ta = spec_a.strategy.thresholds
        tb = tuple(spec_b.strategy.thresholds[k] for k in mirror)  # indexed by a's code
        for turn in range(cfg.n_turns):
            code = 2 * (draw_a() >= ta[code]) + (draw_b() >= tb[code])
            outcomes[turn] = code
    else:
        move_a = _policy(spec_a, spec_b, draw_a, cfg)
        move_b = _policy(spec_b, spec_a, draw_b, cfg)
        for turn in range(cfg.n_turns):
            code = 2 * move_a(code) + move_b(mirror[code])
            outcomes[turn] = code

    row = tuple(float(v) for v in cfg.payoff.focal)
    total_a = 0.0
    total_b = 0.0
    for code in outcomes:
        total_a += row[code]
        total_b += row[mirror[code]]
    return MatchRecord(
        player_a=spec_a.name,
        player_b=spec_b.name,
        outcomes=bytes(outcomes),
        payoff_row=row,
        mean_a=total_a / cfg.n_turns,
        mean_b=total_b / cfg.n_turns,
    )


#: Deviations of magnitude below 2**_SQUARE_EXP are squared as they are.
_SQUARE_EXP = 480


def _standard_error(means: list[float], avg: float) -> float:
    """Standard error of the mean of ``means`` (0 for a single value).

    Larger deviations are first scaled below 2**_SQUARE_EXP by an exact power
    of two, so that their squares stay finite.  Every matrix the CLI accepts
    (payoffs up to 1e100) is squared unscaled, with the textbook formula's bits.
    """
    n = len(means)
    if n < 2:
        return 0.0
    deviations = [m - avg for m in means]
    shift = max(math.frexp(max(map(abs, deviations)))[1] - _SQUARE_EXP, 0)
    var = sum(math.ldexp(d, -shift) ** 2 for d in deviations) / (n - 1)
    return math.ldexp(math.sqrt(var) / math.sqrt(n), shift)


@dataclass(frozen=True)
class TournamentResult:
    roster: tuple[str, ...]
    pair_means: dict[tuple[str, str], float]  # aggregated mean of row player vs column player
    averages: dict[str, float]
    standard_errors: dict[str, float]
    wins: dict[str, int]
    ties: dict[str, int]
    ranking: tuple[str, ...]
    records: tuple[MatchRecord, ...]
    n_iter: int
    master_seed: int
    config: MatchConfig


def run_round_robin(
    roster: Sequence[PlayerSpec],
    cfg: MatchConfig,
    n_iter: int = 5,
    master_seed: int = 0,
) -> TournamentResult:
    """Every unordered pair (self-pairings included) plays n_iter matches.

    A strategy's average payoff is the mean of its per-match mean payoffs;
    a self-play match contributes the average of its two role means once.
    A pairing counts as a win when the aggregated mean payoff strictly
    exceeds the opponent's.
    """
    if not roster:
        raise ValueError("roster must not be empty")
    names = [spec.name for spec in roster]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate player names in roster: {names}")

    order = list(roster)
    random.Random(mix_seed(master_seed, 0x5348)).shuffle(order)

    per_match_means: dict[str, list[float]] = {spec.name: [] for spec in order}
    pair_totals: dict[tuple[str, str], float] = {}
    wins = {spec.name: 0 for spec in order}
    ties = {spec.name: 0 for spec in order}
    records: list[MatchRecord] = []

    for i, spec_i in enumerate(order):
        for j in range(i, len(order)):
            spec_j = order[j]
            sum_i = 0.0
            sum_j = 0.0
            for it in range(n_iter):
                seed = mix_seed(master_seed, i, j, it)
                rec = play_match(spec_i, spec_j, replace(cfg, seed=seed))
                records.append(rec)
                sum_i += rec.mean_a
                sum_j += rec.mean_b
                if i == j:
                    per_match_means[spec_i.name].append((rec.mean_a + rec.mean_b) / 2)
                else:
                    per_match_means[spec_i.name].append(rec.mean_a)
                    per_match_means[spec_j.name].append(rec.mean_b)
            if i == j:
                # symmetrized diagonal
                pair_totals[(spec_i.name, spec_i.name)] = (sum_i + sum_j) / (2 * n_iter)
                continue
            mine = pair_totals[(spec_i.name, spec_j.name)] = sum_i / n_iter
            theirs = pair_totals[(spec_j.name, spec_i.name)] = sum_j / n_iter
            # three-way, so that a NaN mean counts as a tie
            if mine > theirs:
                wins[spec_i.name] += 1
            elif theirs > mine:
                wins[spec_j.name] += 1
            else:
                ties[spec_i.name] += 1
                ties[spec_j.name] += 1

    averages = {}
    stderrs = {}
    for name, means in per_match_means.items():
        avg = sum(means) / len(means)
        averages[name] = avg
        stderrs[name] = _standard_error(means, avg)

    ranking = tuple(sorted(averages, key=lambda n: (-averages[n], n)))
    return TournamentResult(
        roster=tuple(spec.name for spec in order),
        pair_means=pair_totals,
        averages=averages,
        standard_errors=stderrs,
        wins=wins,
        ties=ties,
        ranking=ranking,
        records=tuple(records),
        n_iter=n_iter,
        master_seed=master_seed,
        config=cfg,
    )


class UnknownPlayerError(ValueError):
    """Raised when a requested player did not take part in the tournament."""


def time_series(result: TournamentResult, subject: str, window: int = 5) -> list[tuple[int, float]]:
    """Cumulative mean payoff of `subject`, averaged across all its matches,
    sampled every `window` turns."""
    if subject not in result.roster:
        raise UnknownPlayerError(f"{subject!r} did not play; roster: {list(result.roster)}")
    per_match: list[list[tuple[int, float]]] = []
    for rec in result.records:
        if rec.player_a == subject:
            per_match.append(rec.cumulative_means(0, window))
        if rec.player_b == subject:
            per_match.append(rec.cumulative_means(1, window))
    points = []
    for k in range(len(per_match[0])):
        turn = per_match[0][k][0]
        points.append((turn, sum(series[k][1] for series in per_match) / len(per_match)))
    return points


def default_roster(p_exp: float = 0.1) -> list[PlayerSpec]:
    """The nine registry strategies plus the learning agent."""
    from .strategies import BUILTIN_STRATEGIES

    specs: list[PlayerSpec] = [MemoryOneSpec(s) for s in BUILTIN_STRATEGIES.values()]
    specs.append(PredictorSpec(p_exp=p_exp))
    return specs
