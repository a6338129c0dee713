"""ELO ratings with pairwise decomposition of multi-agent iteration results.

One iteration produces an accuracy per competitor; that multi-way result is
decomposed into every unordered pair in roster order, and each pair is scored
win/tie/loss and applied sequentially with the delta rule

    new = old + K * (score - expected)

so later pairs see the ratings left behind by earlier ones. Updates are
zero-sum by construction: the pair delta is computed once and applied with
opposite signs.
"""

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import DuplicateAgentError, UnknownAgentError

K_FACTOR = 32.0
INITIAL_RATING = 1500.0

VALID_SCORES = (0.0, 0.5, 1.0)


@dataclass
class Rating:
    """Current ELO value plus the number of pairwise comparisons played."""

    value: float = INITIAL_RATING
    games: int = 0


def expected_score(rating_self: float, rating_opp: float) -> float:
    """Win expectation for rating_self against rating_opp.

    Uses the 400-point logistic curve from chess:
    E = 1 / (1 + 10^((opp - self) / 400)), so expected_score(a, b) and
    expected_score(b, a) always sum to 1.
    """
    if not (math.isfinite(rating_self) and math.isfinite(rating_opp)):
        raise ValueError("ratings must be finite")
    return 1.0 / (1.0 + 10.0 ** ((rating_opp - rating_self) / 400.0))


def update_pair(rating_a: float, rating_b: float, score_a: float) -> tuple[float, float]:
    """Apply one pairwise result and return the two new ratings.

    The delta K_FACTOR*(score_a - E_a) is computed once and applied with
    opposite signs, so rating_a + rating_b is preserved exactly.
    """
    if score_a not in VALID_SCORES:
        raise ValueError(f"score_a must be one of {VALID_SCORES}, got {score_a!r}")
    delta = K_FACTOR * (score_a - expected_score(rating_a, rating_b))
    return rating_a + delta, rating_b - delta


def accuracy_ratio(agent_id: str, accuracy) -> tuple[int, int]:
    """accuracy as an exact (numerator, denominator) with 0 <= n <= d.

    Comparing two such ratios by cross-multiplying gives the order Python's
    own mixed int, Fraction, float and Decimal comparisons give, without
    their per-comparison type dispatch. Raises ValueError, naming the
    agent, for a NaN, an infinity or a value outside [0, 1].
    """
    try:
        num, den = accuracy.as_integer_ratio()  # ValueError on NaN, OverflowError on inf
    except (ValueError, OverflowError):
        pass
    else:
        if 0 <= num <= den:
            return num, den
    raise ValueError(f"accuracy for {agent_id!r} outside [0, 1]: {accuracy!r}")


class EloEngine:
    """Rating store for registered agents.

    Single-writer: all mutations happen on the orchestration thread of
    control; concurrent reads between iterations are safe.
    """

    def __init__(self):
        self.ratings: dict[str, Rating] = {}

    def register(self, agent_id: str) -> Rating:
        if agent_id in self.ratings:
            raise DuplicateAgentError(f"agent {agent_id!r} already has a rating")
        rating = Rating()
        self.ratings[agent_id] = rating
        return rating

    def decompose_and_update(self, results: list[tuple[str, object]]) -> None:
        """Decompose a multi-agent result into pairwise updates.

        results is an ordered list of (agent_id, accuracy) in roster order;
        pairs are visited in canonical order (1,2), (1,3), (2,3), ... and
        each update uses the then-current ratings. Accuracies are compared
        as exact integer ratios (they are exact counts over identical
        question sets), a float by its exact binary value, so pass
        Fractions or ints, not accumulated floats.

        Fewer than two results is a no-op.
        """
        ratios = []
        for agent_id, accuracy in results:
            if agent_id not in self.ratings:
                raise UnknownAgentError(f"agent {agent_id!r} is not registered")
            ratios.append((self.ratings[agent_id], *accuracy_ratio(agent_id, accuracy)))
        for (rating_a, num_a, den_a), (rating_b, num_b, den_b) in combinations(ratios, 2):
            cross_a, cross_b = num_a * den_b, num_b * den_a
            if cross_a > cross_b:
                score_a = 1.0
            elif cross_a == cross_b:
                score_a = 0.5
            else:
                score_a = 0.0
            rating_a.value, rating_b.value = update_pair(rating_a.value, rating_b.value, score_a)
            rating_a.games += 1
            rating_b.games += 1
