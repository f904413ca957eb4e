"""Shared fixtures: the hand-checked reference pair and the standard synthetic set."""

import pytest

from immunorec import (
    Dataset,
    SyntheticConfig,
    UserProfile,
    category_from_rating,
    generate_synthetic,
)

# Canonical worked example used throughout the affinity tests: two overlapping
# profiles whose kappa/tau values were verified by hand, cell by cell.
REFERENCE_USER_1 = {153: 0.6, 253: 0.6, 296: 1.0, 349: 0.8, 355: 0.4, 457: 1.0, 553: 1.0, 595: 1.0}
REFERENCE_USER_2 = {153: 0.8, 253: 0.8, 296: 0.4, 349: 0.8, 355: 0.0, 457: 0.8, 553: 0.6, 595: 0.8}

# The standard desk-scale dataset for end-to-end runs: 500 users in 4 taste
# clusters, noise 0.1, seed 42. Movie count and per-user rating range are
# sized so random user pairs overlap on a handful of movies.
STANDARD_SYNTHETIC = SyntheticConfig(
    num_users=500,
    num_movies=300,
    num_clusters=4,
    noise=0.1,
    ratings_per_user=(30, 60),
    seed=42,
)


def rated(user_id: int, ratings: dict[int, float]) -> UserProfile:
    """A profile from 0-1 scale ratings, each checked against the scale."""
    return UserProfile(user_id, {m: category_from_rating(r) for m, r in ratings.items()})


@pytest.fixture
def reference_pair() -> tuple[UserProfile, UserProfile]:
    return (
        rated(1, REFERENCE_USER_1),
        rated(2, REFERENCE_USER_2),
    )


@pytest.fixture(scope="session")
def standard_dataset() -> Dataset:
    return generate_synthetic(STANDARD_SYNTHETIC)
