"""Memory-one strategy library and the deterministic random-number stream.

A memory-one strategy is a four-vector of cooperation probabilities indexed
by the previous joint outcome *in the strategy owner's own orientation*
(own previous move first), plus a policy for the opening move.

Orientation is the classic silent-bug site: a model of an opponent held by
the focal player indexes the same four probabilities with the focal
player's move first, which swaps the CD and DC entries.  Every conversion,
:func:`as_model_view`, the match kernel and ``analysis.build_chain`` alike,
goes through :data:`core.MIRROR_CODE` and nothing else.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .core import Action, JointOutcome, OUTCOMES


class InitialPolicy(Enum):
    ALWAYS_COOPERATE = "C"
    ALWAYS_DEFECT = "D"
    UNIFORM_RANDOM = "R"

    @property
    def coop_prob(self) -> Fraction:
        return _OPENING_PROB[self]


_OPENING_PROB = {
    InitialPolicy.ALWAYS_COOPERATE: Fraction(1),
    InitialPolicy.ALWAYS_DEFECT: Fraction(0),
    InitialPolicy.UNIFORM_RANDOM: Fraction(1, 2),
}


class UnknownStrategyError(ValueError):
    """Raised for a strategy name not present in the registry."""


class RngStream:
    """Seeded uniform stream: identical seed, identical draws, everywhere.

    Every stochastic decision point consumes exactly one draw, even when
    the probability is 0 or 1, so that editing a probability never shifts
    the draws seen by later decisions.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.position = 0
        self._rng = random.Random(seed)

    def uniform(self) -> float:
        self.position += 1
        return self._rng.random()

    def bernoulli(self, coop_prob) -> bool:
        # float < Fraction compares exactly
        return self.uniform() < coop_prob


def coop_threshold(p) -> float:
    """The least double t >= p, so that ``u < t`` holds exactly when ``u < p``
    for every double u.

    That is p itself when p is a double; otherwise the double just above
    the largest double below p.  A draw compared with the threshold gives
    the same move as the exact rational comparison in :meth:`RngStream.bernoulli`.
    """
    t = float(p)
    return math.nextafter(t, math.inf) if t < p else t


@dataclass(frozen=True)
class MemoryOneStrategy:
    """Four cooperation probabilities (own orientation) + opening policy.

    ``coop_prob`` takes a sequence of four, or a mapping keyed by outcome, and
    holds a tuple of ``Fraction``s indexed by the previous outcome's code.
    """

    name: str
    coop_prob: tuple[Fraction, ...]
    initial_policy: InitialPolicy = InitialPolicy.ALWAYS_COOPERATE

    def __post_init__(self):
        if len(self.coop_prob) != len(OUTCOMES):
            raise ValueError(f"{self.name}: {len(self.coop_prob)} probabilities, not 4")
        probs = tuple(Fraction(self.coop_prob[o]) for o in OUTCOMES)
        for o, p in zip(OUTCOMES, probs):
            if not 0 <= p <= 1:
                raise ValueError(f"{self.name}: p(C|{o}) = {p} outside [0, 1]")
        object.__setattr__(self, "coop_prob", probs)

    def vector(self) -> tuple[Fraction, ...]:
        """(p(C|CC), p(C|CD), p(C|DC), p(C|DD)): ``coop_prob`` itself."""
        return self.coop_prob

    @cached_property
    def ratios(self) -> tuple[tuple[int, int], ...]:
        """(numerator, denominator) of each cooperation probability, indexed
        by the previous outcome's code: the integer form of :meth:`vector`."""
        return tuple(p.as_integer_ratio() for p in self.coop_prob)

    @cached_property
    def thresholds(self) -> tuple[float, ...]:
        """:func:`coop_threshold` of each cooperation probability, indexed by
        the previous outcome's code; index ``OPENING`` is the opening move's."""
        probs = (*self.coop_prob, self.initial_policy.coop_prob)
        return tuple(coop_threshold(p) for p in probs)


_C = InitialPolicy.ALWAYS_COOPERATE
_D = InitialPolicy.ALWAYS_DEFECT
_R = InitialPolicy.UNIFORM_RANDOM

# The nine tournament strategies.  JOSS and ZDEXTORT-2 open with defection:
# that is the only opening under which their pairings against ALLD are exact
# ties (both lock into mutual defection from turn one), which the reference
# tournament results require.
BUILTIN_STRATEGIES: dict[str, MemoryOneStrategy] = {
    s.name: s
    for s in (
        MemoryOneStrategy("TFT", (1, 0, 1, 0), _C),
        MemoryOneStrategy("GTFT", (1, Fraction(1, 3), 1, Fraction(1, 3)), _C),
        MemoryOneStrategy("WSLS", (1, 0, 0, 1), _C),
        MemoryOneStrategy("ALLD", (0, 0, 0, 0), _D),
        MemoryOneStrategy("ALLC", (1, 1, 1, 1), _C),
        MemoryOneStrategy("JOSS", (Fraction(9, 10), 0, Fraction(9, 10), 0), _D),
        MemoryOneStrategy("ZDGTFT-2", (1, Fraction(1, 8), 1, Fraction(1, 4)), _C),
        MemoryOneStrategy("ZDEXTORT-2", (Fraction(8, 9), Fraction(1, 2), Fraction(1, 3), 0), _D),
        MemoryOneStrategy("RANDOM", (Fraction(1, 2),) * 4, _R),
    )
}

#: Alternate spellings accepted by lookup.
_ALIASES = {"ZD-GTFT-2": "ZDGTFT-2", "ZD-EXTORT-2": "ZDEXTORT-2"}


def builtin(name: str) -> MemoryOneStrategy:
    """Look up a registry strategy by name."""
    key = _ALIASES.get(name, name)
    try:
        return BUILTIN_STRATEGIES[key]
    except KeyError:
        valid = ", ".join(sorted(BUILTIN_STRATEGIES))
        raise UnknownStrategyError(f"unknown strategy {name!r}; valid names: {valid}") from None


def next_action(strategy: MemoryOneStrategy, prev: JointOutcome, rng: RngStream) -> Action:
    """Sample the strategy's move given the previous outcome (own orientation)."""
    return Action.C if rng.bernoulli(strategy.coop_prob[prev]) else Action.D


def initial_action(
    strategy: MemoryOneStrategy, rng: RngStream, randomize_override: bool = False
) -> Action:
    """Opening move; the override forces a uniformly random opening."""
    p = Fraction(1, 2) if randomize_override else strategy.initial_policy.coop_prob
    return Action.C if rng.bernoulli(p) else Action.D


def as_model_view(strategy: MemoryOneStrategy) -> tuple[Fraction, ...]:
    """The strategy's four-vector re-indexed in the opposing player's orientation.

    Swaps the CD and DC entries; CC and DD are fixed points.  Applying the
    swap twice is the identity.
    """
    return tuple(strategy.coop_prob[o.mirror] for o in OUTCOMES)
