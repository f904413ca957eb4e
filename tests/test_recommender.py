import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from immunorec import (
    FinalPopulation,
    UserProfile,
    predict_rating,
    recommend_top_n,
)
from immunorec.errors import EmptyPopulationError
from immunorec.domain import mean_rating


def _population(*members: tuple[UserProfile, float]) -> FinalPopulation:
    return FinalPopulation(members=tuple(members), converged=True, iterations_used=10)


class TestPredictRating:
    def test_weighted_mean(self):
        population = _population(
            (UserProfile.from_ratings(1, {10: 1.0}), 2.0),
            (UserProfile.from_ratings(2, {10: 0.4}), 1.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.value == pytest.approx(0.8, abs=1e-12)
        assert prediction.support == 2
        assert not prediction.fallback

    def test_equal_weights_reduce_to_mean(self):
        population = _population(
            (UserProfile.from_ratings(1, {10: 0.2}), 0.7),
            (UserProfile.from_ratings(2, {10: 0.4}), 0.7),
            (UserProfile.from_ratings(3, {10: 0.6}), 0.7),
        )
        assert predict_rating(population, 10).value == pytest.approx(0.4, abs=1e-12)

    def test_single_contributor(self):
        population = _population(
            (UserProfile.from_ratings(1, {10: 0.8}), 0.3),
            (UserProfile.from_ratings(2, {11: 0.2}), 5.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.value == 0.8
        assert prediction.support == 1

    def test_fallback_when_unrated(self):
        population = _population(
            (UserProfile.from_ratings(1, {11: 0.2}), 1.0),
            (UserProfile.from_ratings(2, {12: 0.6}), 1.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.fallback
        assert prediction.support == 0
        assert prediction.value == pytest.approx(0.4, abs=1e-12)  # mean of 0.2 and 0.6

    def test_zero_weight_raters_do_not_contribute(self):
        population = _population(
            (UserProfile.from_ratings(1, {10: 1.0}), 0.0),
            (UserProfile.from_ratings(2, {10: 0.2}), 1.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.value == 0.2
        assert prediction.support == 1

    def test_only_zero_weight_raters_falls_back(self):
        population = _population(
            (UserProfile.from_ratings(1, {10: 1.0}), 0.0),
            (UserProfile.from_ratings(2, {11: 0.2}), 1.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.fallback

    def test_empty_population_raises(self):
        with pytest.raises(EmptyPopulationError):
            predict_rating(_population(), 10)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_bounded_by_contributing_ratings(self, raters):
        members = [
            (UserProfile(i + 1, {10: category}), weight)
            for i, (category, weight) in enumerate(raters)
        ]
        prediction = predict_rating(_population(*members), 10)
        ratings = [(category - 1) / 5 for category, _ in raters]
        assert min(ratings) - 1e-12 <= prediction.value <= max(ratings) + 1e-12

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    )
    def test_weight_scaling_invariance(self, raters, scale):
        base = [
            (UserProfile(i + 1, {10: category}), weight)
            for i, (category, weight) in enumerate(raters)
        ]
        scaled = [(profile, weight * scale) for profile, weight in base]
        v1 = predict_rating(_population(*base), 10).value
        v2 = predict_rating(_population(*scaled), 10).value
        assert v1 == pytest.approx(v2, abs=1e-12)


class TestRecommendTopN:
    def _fixture_population(self):
        return _population(
            (UserProfile.from_ratings(1, {10: 1.0, 11: 0.2, 12: 0.6}), 2.0),
            (UserProfile.from_ratings(2, {10: 0.8, 13: 0.4}), 1.0),
            (UserProfile.from_ratings(3, {11: 0.4, 13: 0.8}), 1.0),
        )

    def test_excludes_antigen_movies_and_ranks(self):
        antigen = UserProfile.from_ratings(9, {12: 0.6})
        result = recommend_top_n(self._fixture_population(), antigen, 10)
        ids = [entry.movie_id for entry in result]
        assert 12 not in ids
        values = [entry.value for entry in result]
        assert values == sorted(values, reverse=True)
        assert ids[0] == 10  # (2*1.0 + 1*0.8)/3

    def test_count_larger_than_candidates(self):
        antigen = UserProfile.from_ratings(9, {99: 0.6})
        result = recommend_top_n(self._fixture_population(), antigen, 50)
        assert len(result) == 4  # movies 10, 11, 12, 13

    def test_antigen_rated_everything(self):
        antigen = UserProfile.from_ratings(9, {10: 0.2, 11: 0.2, 12: 0.2, 13: 0.2})
        result = recommend_top_n(self._fixture_population(), antigen, 5)
        assert result == ()

    def test_count_validation(self):
        antigen = UserProfile.from_ratings(9, {99: 0.6})
        with pytest.raises(ValueError):
            recommend_top_n(self._fixture_population(), antigen, 0)

    def test_tie_break_by_movie_id(self):
        population = _population(
            (UserProfile.from_ratings(1, {20: 0.6, 30: 0.6}), 1.0),
        )
        antigen = UserProfile.from_ratings(9, {99: 0.6})
        result = recommend_top_n(population, antigen, 2)
        assert [entry.movie_id for entry in result] == [20, 30]

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(77)
        members = []
        for uid in range(1, 16):
            picks = rng.choice(40, size=rng.integers(3, 12), replace=False) + 1
            profile = UserProfile(uid, {int(m): int(rng.integers(1, 7)) for m in picks})
            members.append((profile, float(rng.random() * 3)))
        # zero-weight members, one of them the only rater of movie 41
        members[2] = (members[2][0], 0.0)
        members[7] = (members[7][0], 0.0)
        members.append((UserProfile(16, {41: 6, 3: 6}), 0.0))
        population = _population(*members)
        antigen_picks = rng.choice(40, size=10, replace=False) + 1
        antigen = UserProfile(99, {int(m): int(rng.integers(1, 7)) for m in antigen_picks})

        result = recommend_top_n(population, antigen, 5)

        # independent oracle: recompute every quotient from scratch and sort
        candidates = set()
        for profile, _ in members:
            candidates.update(profile.categories)
        candidates -= set(antigen.categories)
        scored = []
        for movie in candidates:
            num = den = 0.0
            for profile, weight in members:
                if weight > 0 and movie in profile.categories:
                    num += weight * (profile.categories[movie] - 1) / 5
                    den += weight
            if den > 0:
                scored.append((movie, num / den))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        expected = [(movie, value) for movie, value in scored[:5]]
        actual = [(entry.movie_id, entry.value) for entry in result]
        assert actual == expected

    def test_empty_population_raises(self):
        with pytest.raises(EmptyPopulationError):
            recommend_top_n(_population(), UserProfile(9, {1: 3}), 3)


def test_population_mean_counts_each_rating_once():
    population = _population(
        (UserProfile.from_ratings(1, {10: 1.0, 11: 0.0}), 5.0),
        (UserProfile.from_ratings(2, {12: 0.6}), 1.0),
    )
    profiles = (profile for profile, _ in population.members)
    assert mean_rating(profiles) == pytest.approx((1.0 + 0.0 + 0.6) / 3, abs=1e-12)
