"""Core vocabulary: the six-point rating scale, user profiles, and datasets.

Ratings live on the scale {0, 0.2, 0.4, 0.6, 0.8, 1} (very bad .. very good)
and map bijectively onto category indices 1..6. Profiles store the exact
category integers internally; the 0-1 values are produced on demand, so none
of the downstream arithmetic ever compares inexact floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ImmunorecError, InvalidCategoryError, InvalidRatingError

NUM_CATEGORIES = 6

#: The six admissible rating values, index c-1 holds the value of category c.
SCALE_POINTS = tuple((c - 1) / 5 for c in range(1, NUM_CATEGORIES + 1))

#: Tolerance when accepting a float as a scale point (covers decimal text input).
SCALE_TOLERANCE = 1e-9


def category_from_rating(rating: float) -> int:
    """Map a rating on the 0-1 scale to its category index 1..6.

    Raises :class:`InvalidRatingError` if ``rating`` is not within
    ``SCALE_TOLERANCE`` of one of the six scale points.
    """
    index = int(round(rating * 5)) + 1
    if index < 1 or index > NUM_CATEGORIES or abs(rating - SCALE_POINTS[index - 1]) > SCALE_TOLERANCE:
        raise InvalidRatingError(f"{rating!r} is not on the 6-point scale")
    return index


def rating_from_category(category: int) -> float:
    """Map a category index 1..6 back to its 0-1 scale value.

    Inverse of :func:`category_from_rating`; uses a single division so each
    category yields the canonical double for its decimal value.
    """
    if not isinstance(category, (int, np.integer)) or isinstance(category, bool):
        raise InvalidCategoryError(f"category must be an integer, got {category!r}")
    if not 1 <= category <= NUM_CATEGORIES:
        raise InvalidCategoryError(f"category {category} outside 1..{NUM_CATEGORIES}")
    return (int(category) - 1) / 5


def mean_rating(profiles: Iterable[UserProfile]) -> float:
    """Unweighted mean of every rating of ``profiles``, summed in their order.

    The trivial predictor and the fallback for movies no neighbour rated.
    Raises :class:`ImmunorecError` when there is no rating at all.
    """
    total = 0.0
    count = 0
    for profile in profiles:
        for category in profile.categories.values():
            total += rating_from_category(category)
            count += 1
    if count == 0:
        raise ImmunorecError("no ratings to average")
    return total / count


@dataclass(frozen=True)
class UserProfile:
    """A user's ratings, stored as movie_id -> category index.

    ``categories`` is treated as immutable after construction. Use
    :meth:`from_ratings` to build a profile from 0-1 scale values.
    """

    user_id: int
    categories: dict[int, int]

    def __post_init__(self) -> None:
        if self.user_id < 1:
            raise ValueError(f"user_id must be positive, got {self.user_id}")
        for movie_id, category in self.categories.items():
            if not isinstance(movie_id, (int, np.integer)) or movie_id < 1:
                raise ValueError(f"movie_id must be a positive integer, got {movie_id!r}")
            if not isinstance(category, (int, np.integer)) or not 1 <= category <= NUM_CATEGORIES:
                raise InvalidCategoryError(
                    f"user {self.user_id}, movie {movie_id}: category {category!r} outside 1..6"
                )

    @classmethod
    def from_ratings(cls, user_id: int, ratings: Mapping[int, float]) -> "UserProfile":
        """Build a profile from 0-1 scale ratings, validating each scale point."""
        return cls(user_id, {m: category_from_rating(r) for m, r in ratings.items()})

    @cached_property
    def movie_array(self) -> np.ndarray:
        """Rated movie ids, ascending (int64)."""
        return np.array(sorted(self.categories), dtype=np.int64)

    @cached_property
    def category_array(self) -> np.ndarray:
        """Category indices aligned with :attr:`movie_array` (int64)."""
        return np.array([self.categories[m] for m in self.movie_array], dtype=np.int64)

    def rating(self, movie_id: int) -> float:
        """The 0-1 scale rating for ``movie_id`` (KeyError if unrated)."""
        return rating_from_category(self.categories[movie_id])

    def without_movie(self, movie_id: int) -> "UserProfile":
        """A copy of this profile with one rating removed (leave-one-out)."""
        remaining = {m: c for m, c in self.categories.items() if m != movie_id}
        return UserProfile(self.user_id, remaining)

    def __contains__(self, movie_id: int) -> bool:
        return movie_id in self.categories

    def __len__(self) -> int:
        return len(self.categories)


def common_categories(a: UserProfile, b: UserProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Movie ids rated by both users plus the two aligned category vectors.

    The id vector is ascending, which fixes the pair-enumeration order used
    everywhere downstream.
    """
    ids, idx_a, idx_b = np.intersect1d(
        a.movie_array, b.movie_array, assume_unique=True, return_indices=True
    )
    return ids, a.category_array[idx_a], b.category_array[idx_b]


@dataclass(frozen=True)
class Dataset:
    """A collection of user profiles keyed by user id."""

    users: dict[int, UserProfile]
    movie_ids: frozenset[int] = field(default_factory=frozenset)
    # pool-pair affinities that immune-network runs on this pool share
    affinity_memo: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def from_profiles(cls, profiles: Iterable[UserProfile]) -> "Dataset":
        """Validate and assemble profiles: unique user ids, non-empty ratings.

        An empty profile collection is allowed (degenerate partitions produce
        one); loading from disk raises instead, see ``datastore``.
        """
        users: dict[int, UserProfile] = {}
        movies: set[int] = set()
        for profile in profiles:
            if profile.user_id in users:
                raise ValueError(f"duplicate user_id {profile.user_id}")
            if not profile.categories:
                raise ValueError(f"user {profile.user_id} has no ratings")
            users[profile.user_id] = profile
            movies.update(profile.categories)
        return cls(users, frozenset(movies))

    @property
    def user_ids(self) -> list[int]:
        """All user ids, ascending."""
        return sorted(self.users)

    def subset(self, user_ids: Iterable[int]) -> "Dataset":
        """A new dataset restricted to the given user ids."""
        return Dataset.from_profiles(self.users[u] for u in user_ids)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self.users

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[UserProfile]:
        for user_id in self.user_ids:
            yield self.users[user_id]
