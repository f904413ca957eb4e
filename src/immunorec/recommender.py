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

from dataclasses import dataclass

from .domain import SCALE_POINTS, UserProfile, mean_rating
from .errors import EmptyPopulationError
from .immune_network import FinalPopulation


@dataclass(frozen=True)
class Prediction:
    movie_id: int
    value: float
    support: int
    fallback: bool = False


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
) -> tuple[Prediction, ...]:
    """The ``count`` best-predicted movies the antigen has not rated.

    Candidates are the movies rated by at least one positive-weight member,
    so none falls back. Ordered by predicted value, ties broken by ascending
    movie id. One pass over the members accumulates every candidate's sums
    with the float operations of :func:`predict_rating`, in member order, so
    each value equals that function's bit for bit.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not population.members:
        raise EmptyPopulationError("cannot recommend from an empty population")

    rated = antigen.categories
    sums: dict[int, list] = {}
    for profile, weight in population.members:
        if weight > 0:
            for movie_id, category in profile.categories.items():
                if movie_id not in rated:
                    entry = sums.setdefault(movie_id, [0.0, 0.0, 0])
                    entry[0] += weight
                    entry[1] += weight * SCALE_POINTS[category - 1]
                    entry[2] += 1
    predictions = [
        Prediction(movie_id, weighted / weight_sum, support)
        for movie_id, (weight_sum, weighted, support) in sums.items()
    ]
    return tuple(sorted(predictions, key=lambda p: (-p.value, p.movie_id))[:count])
