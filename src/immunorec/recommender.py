"""Predictions and top-N recommendations from a converged population.

A movie's predicted rating is the concentration-weighted mean of the ratings
given by population members that rated it:

    prediction = sum_i(weight_i * rating_i) / sum_i(weight_i)

restricted to members with positive weight that actually rated the movie
(the only reading under which the quotient is defined). When no member
qualifies, the prediction falls back to the population-wide mean rating and
is flagged, so callers can audit or exclude those cases. Both functions
read one array sum over the members' category rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import category_matrix
from .domain import SCALE_POINTS, UserProfile, mean_rating
from .errors import EmptyPopulationError
from .immune_network import FinalPopulation

_POINTS = np.array((0.0, *SCALE_POINTS))  # rating by category; 0 (unrated) reads 0.0


@dataclass(frozen=True)
class Prediction:
    movie_id: int
    value: float
    support: int
    fallback: bool = False


def _column_sums(population: FinalPopulation, columns: np.ndarray | slice) -> tuple:
    """Weight sum, weighted rating sum and support of the pool's movie ``columns``.

    Each sum is a sequential ``cumsum`` down the members in admission order.
    A member without positive weight, or that did not rate a movie, adds an
    exact 0.0 to its column, so every sum has the bits of adding the movie's
    positive-weight raters one by one in member order.
    """
    weights = np.where(population.weights > 0, population.weights, 0.0)[:, None]
    categories = population.pool.categories[population.rows][:, columns]
    rated = (categories > 0) & (weights > 0)
    sums = np.cumsum([weights * rated, weights * _POINTS[categories]], axis=1)[:, -1]
    return *sums, rated.sum(axis=0)


def predict_rating(population: FinalPopulation, movie_id: int) -> Prediction:
    """Concentration-weighted rating prediction for one movie.

    Members with zero weight contribute nothing. If no positive-weight
    member rated the movie, the mean over every member's ratings is returned
    with ``fallback=True`` and ``support=0``.

    Raises :class:`EmptyPopulationError` on an empty population.
    """
    if len(population.rows) == 0:
        raise EmptyPopulationError("cannot predict from an empty population")
    column = np.flatnonzero(population.pool.movies == movie_id)  # none off the pool's movies
    weight_sums, weighted_sums, support = _column_sums(population, column)
    if not support.any():
        mean = mean_rating(profile for profile, _ in population.members)
        return Prediction(movie_id, mean, 0, fallback=True)
    return Prediction(movie_id, weighted_sums.item() / weight_sums.item(), support.item())


def recommend_top_n(
    population: FinalPopulation, antigen: UserProfile, count: int
) -> tuple[Prediction, ...]:
    """The ``count`` best-predicted movies the antigen has not rated.

    Candidates are the movies rated by at least one positive-weight member,
    so none falls back. Ordered by predicted value, ties broken by ascending
    movie id. Each value equals :func:`predict_rating`'s bit for bit, since
    both read the same sums.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(population.rows) == 0:
        raise EmptyPopulationError("cannot recommend from an empty population")

    movies = population.pool.movies
    weight_sums, weighted_sums, support = _column_sums(population, slice(None))
    unrated = category_matrix([antigen], movies)[0] == 0
    keep = np.flatnonzero((support > 0) & unrated)
    ids, values, counts = movies[keep], weighted_sums[keep] / weight_sums[keep], support[keep]
    order = np.lexsort((ids, -values))[:count]
    return tuple(map(Prediction, *(column[order].tolist() for column in (ids, values, counts))))
