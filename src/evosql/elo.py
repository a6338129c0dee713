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


@dataclass
class MatchRecord:
    """One head-to-head comparison extracted from an iteration result.

    score_a is 1, 0.5 or 0 from agent_a's perspective; agent_b's score is the
    complement. Before/after ratings always sum to the same total (zero-sum).
    """

    iteration: int
    agent_a: str
    agent_b: str
    score_a: float
    rating_a_before: float
    rating_a_after: float
    rating_b_before: float
    rating_b_after: float

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "agent_a": self.agent_a,
            "agent_b": self.agent_b,
            "score_a": self.score_a,
            "rating_a_before": self.rating_a_before,
            "rating_a_after": self.rating_a_after,
            "rating_b_before": self.rating_b_before,
            "rating_b_after": self.rating_b_after,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatchRecord":
        return cls(**data)


def expected_score(rating_self: float, rating_opp: float) -> float:
    """Win expectation for rating_self against rating_opp.

    Uses the 400-point logistic curve from chess:
    E = 1 / (1 + 10^((opp - self) / 400)), so expected_score(a, b) and
    expected_score(b, a) always sum to 1.
    """
    if not (math.isfinite(rating_self) and math.isfinite(rating_opp)):
        raise ValueError("ratings must be finite")
    return 1.0 / (1.0 + 10.0 ** ((rating_opp - rating_self) / 400.0))


def update_pair(
    rating_a: float, rating_b: float, score_a: float, k: float = K_FACTOR
) -> tuple[float, float]:
    """Apply one pairwise result and return the two new ratings.

    The delta k*(score_a - E_a) is computed once and applied with opposite
    signs, so rating_a + rating_b is preserved exactly.
    """
    if score_a not in VALID_SCORES:
        raise ValueError(f"score_a must be one of {VALID_SCORES}, got {score_a!r}")
    delta = k * (score_a - expected_score(rating_a, rating_b))
    return rating_a + delta, rating_b - delta


class EloEngine:
    """Rating store for registered agents.

    Single-writer: all mutations happen on the orchestration thread of
    control; concurrent reads between iterations are safe.
    """

    def __init__(self):
        self.ratings: dict[str, Rating] = {}

    def register(self, agent_id: str, value: float = INITIAL_RATING) -> Rating:
        if agent_id in self.ratings:
            raise DuplicateAgentError(f"agent {agent_id!r} already has a rating")
        rating = Rating(value=value)
        self.ratings[agent_id] = rating
        return rating

    def decompose_and_update(
        self, iteration: int, results: list[tuple[str, object]]
    ) -> list[MatchRecord]:
        """Decompose a multi-agent result into pairwise updates.

        results is an ordered list of (agent_id, accuracy) in roster order;
        pairs are visited in canonical order (1,2), (1,3), (2,3), ... and
        each update uses the then-current ratings. Accuracies are compared
        exactly (they are exact counts over identical question sets), so
        pass Fractions or ints, not accumulated floats.

        Fewer than two results is a no-op returning an empty list.
        """
        for agent_id, accuracy in results:
            if agent_id not in self.ratings:
                raise UnknownAgentError(f"agent {agent_id!r} is not registered")
            if not 0 <= accuracy <= 1:
                raise ValueError(f"accuracy for {agent_id!r} outside [0, 1]: {accuracy!r}")
        if len(results) < 2:
            return []

        records = []
        for (id_a, acc_a), (id_b, acc_b) in combinations(results, 2):
            if acc_a > acc_b:
                score_a = 1.0
            elif acc_a == acc_b:
                score_a = 0.5
            else:
                score_a = 0.0
            rating_a = self.ratings[id_a]
            rating_b = self.ratings[id_b]
            before_a, before_b = rating_a.value, rating_b.value
            rating_a.value, rating_b.value = update_pair(before_a, before_b, score_a)
            rating_a.games += 1
            rating_b.games += 1
            records.append(
                MatchRecord(
                    iteration=iteration,
                    agent_a=id_a,
                    agent_b=id_b,
                    score_a=score_a,
                    rating_a_before=before_a,
                    rating_a_after=rating_a.value,
                    rating_b_before=before_b,
                    rating_b_after=rating_b.value,
                )
            )
        return records
