"""Predictions and top-N recommendations from a converged population.

A movie's predicted rating is the concentration-weighted mean of the ratings
given by population members that rated it:

    prediction = sum_i(weight_i * rating_i) / sum_i(weight_i)

restricted to members with positive weight that actually rated the movie
(the only reading under which the quotient is defined). When no member
qualifies, the prediction falls back to the population-wide mean rating and
is flagged, so callers can audit or exclude those cases.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .domain import UserProfile, mean_rating
from .errors import EmptyPopulationError
from .immune_network import FinalPopulation

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Prediction:
    movie_id: int
    value: float
    support: int
    fallback: bool = False

    def rounded_category(self) -> int:
        """Nearest display category for the continuous prediction."""
        return min(6, max(1, int(round(self.value * 5)) + 1))


@dataclass(frozen=True)
class RecommendationList:
    """Movies ordered by predicted value, ties broken by ascending movie id."""

    entries: tuple[Prediction, ...]


def predict_rating(population: FinalPopulation, movie_id: int) -> Prediction:
    """Concentration-weighted rating prediction for one movie.

    Members with zero weight contribute nothing. If no positive-weight
    member rated the movie, the population-wide mean is returned with
    ``fallback=True`` and ``support=0``.

    Raises :class:`EmptyPopulationError` on an empty population.
    """
    if not population.members:
        raise EmptyPopulationError("cannot predict from an empty population")
    weight_sum = 0.0
    weighted_ratings = 0.0
    support = 0
    for profile, weight in population.members:
        if weight > 0 and movie_id in profile:
            weight_sum += weight
            weighted_ratings += weight * profile.rating(movie_id)
            support += 1
    if support == 0:
        mean = mean_rating(profile for profile, _ in population.members)
        return Prediction(movie_id, mean, 0, fallback=True)
    return Prediction(movie_id, weighted_ratings / weight_sum, support)


def recommend_top_n(
    population: FinalPopulation, antigen: UserProfile, count: int
) -> RecommendationList:
    """The ``count`` best-predicted movies the antigen has not rated.

    Candidates are every movie rated by at least one member; fallback
    predictions (no positive-weight rater) are excluded from the list.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not population.members:
        raise EmptyPopulationError("cannot recommend from an empty population")

    candidates: set[int] = set()
    for profile, _ in population.members:
        candidates.update(profile.categories)
    candidates -= set(antigen.categories)

    predictions = [predict_rating(population, movie_id) for movie_id in sorted(candidates)]
    ranked = sorted(
        (p for p in predictions if not p.fallback),
        key=lambda p: (-p.value, p.movie_id),
    )
    return RecommendationList(tuple(ranked[:count]))
