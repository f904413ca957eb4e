import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from immunorec import (
    AffinityKind,
    AffinityMeasure,
    Dataset,
    FinalPopulation,
    ImmuneParams,
    PoolAffinities,
    UserProfile,
    predict_rating,
    recommend_top_n,
    run_to_convergence,
)
from immunorec.errors import EmptyPopulationError
from immunorec.domain import mean_rating
from immunorec.recommender import Prediction

from conftest import rated


def _population(
    *members: tuple[UserProfile, float], outsiders: tuple[UserProfile, ...] = ()
) -> FinalPopulation:
    """The members over a pool of their own profiles and ``outsiders``, in the given order."""
    profiles = [profile for profile, _ in members]
    dataset = Dataset.from_profiles(profiles + list(outsiders))
    pool = PoolAffinities(dataset, AffinityMeasure(AffinityKind.WEIGHTED_KAPPA))
    rows = np.searchsorted(pool.user_ids, np.array([p.user_id for p in profiles], dtype=np.int64))
    weights = np.array([weight for _, weight in members], dtype=np.float64)
    return FinalPopulation(pool, rows, weights, converged=True, iterations_used=10)


def _loop_prediction(members: list[tuple[UserProfile, float]], movie_id: int) -> Prediction:
    """The weighted mean added up rater by rater in member order, as a plain loop."""
    weight_sum = weighted = 0.0
    support = 0
    for profile, weight in members:
        if weight > 0 and movie_id in profile:
            weight_sum += weight
            weighted += weight * profile.rating(movie_id)
            support += 1
    if support == 0:
        return Prediction(movie_id, mean_rating(p for p, _ in members), 0, fallback=True)
    return Prediction(movie_id, weighted / weight_sum, support)


def _bits(prediction: Prediction) -> tuple:
    return (
        prediction.movie_id,
        struct.pack("<d", prediction.value),
        prediction.support,
        prediction.fallback,
    )


class TestPredictRating:
    def test_weighted_mean(self):
        population = _population(
            (rated(1, {10: 1.0}), 2.0),
            (rated(2, {10: 0.4}), 1.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.value == pytest.approx(0.8, abs=1e-12)
        assert prediction.support == 2
        assert not prediction.fallback

    def test_equal_weights_reduce_to_mean(self):
        population = _population(
            (rated(1, {10: 0.2}), 0.7),
            (rated(2, {10: 0.4}), 0.7),
            (rated(3, {10: 0.6}), 0.7),
        )
        assert predict_rating(population, 10).value == pytest.approx(0.4, abs=1e-12)

    def test_single_contributor(self):
        population = _population(
            (rated(1, {10: 0.8}), 0.3),
            (rated(2, {11: 0.2}), 5.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.value == 0.8
        assert prediction.support == 1

    def test_fallback_when_unrated(self):
        population = _population(
            (rated(1, {11: 0.2}), 1.0),
            (rated(2, {12: 0.6}), 1.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.fallback
        assert prediction.support == 0
        assert prediction.value == pytest.approx(0.4, abs=1e-12)  # mean of 0.2 and 0.6

    def test_fallback_mean_follows_admission_order(self):
        # user 2 joined before user 1, so the fallback adds user 2's ratings
        # first; pool order would give other bits, and user 3 is no member
        first, second = UserProfile(2, {1: 2, 2: 5}), UserProfile(1, {1: 1, 2: 2})
        population = _population((first, 1.0), (second, 1.0), outsiders=(UserProfile(3, {9: 6}),))
        prediction = predict_rating(population, 9)
        assert prediction.fallback
        assert prediction.value.hex() == ((0.2 + 0.8 + 0.0 + 0.2) / 4).hex()
        assert prediction.value != mean_rating([second, first])

    def test_zero_weight_raters_do_not_contribute(self):
        population = _population(
            (rated(1, {10: 1.0}), 0.0),
            (rated(2, {10: 0.2}), 1.0),
        )
        prediction = predict_rating(population, 10)
        assert prediction.value == 0.2
        assert prediction.support == 1

    def test_only_zero_weight_raters_falls_back(self):
        population = _population(
            (rated(1, {10: 1.0}), 0.0),
            (rated(2, {11: 0.2}), 1.0),
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
            (rated(1, {10: 1.0, 11: 0.2, 12: 0.6}), 2.0),
            (rated(2, {10: 0.8, 13: 0.4}), 1.0),
            (rated(3, {11: 0.4, 13: 0.8}), 1.0),
        )

    def test_excludes_antigen_movies_and_ranks(self):
        antigen = rated(9, {12: 0.6})
        result = recommend_top_n(self._fixture_population(), antigen, 10)
        ids = [entry.movie_id for entry in result]
        assert 12 not in ids
        values = [entry.value for entry in result]
        assert values == sorted(values, reverse=True)
        assert ids[0] == 10  # (2*1.0 + 1*0.8)/3

    def test_count_larger_than_candidates(self):
        antigen = rated(9, {99: 0.6})
        result = recommend_top_n(self._fixture_population(), antigen, 50)
        assert len(result) == 4  # movies 10, 11, 12, 13

    def test_antigen_rated_everything(self):
        antigen = rated(9, {10: 0.2, 11: 0.2, 12: 0.2, 13: 0.2})
        result = recommend_top_n(self._fixture_population(), antigen, 5)
        assert result == ()

    def test_count_validation(self):
        antigen = rated(9, {99: 0.6})
        with pytest.raises(ValueError):
            recommend_top_n(self._fixture_population(), antigen, 0)

    def test_tie_break_by_movie_id(self):
        population = _population(
            (rated(1, {20: 0.6, 30: 0.6}), 1.0),
        )
        antigen = rated(9, {99: 0.6})
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

    @given(
        st.lists(
            st.tuples(
                st.dictionaries(
                    st.integers(min_value=1, max_value=8),
                    st.integers(min_value=1, max_value=6),
                    min_size=1,
                    max_size=8,
                ),
                st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=50.0)),
            ),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=10),
        st.booleans(),
        st.dictionaries(
            st.integers(min_value=1, max_value=11),
            st.integers(min_value=1, max_value=6),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=1, max_value=12),
    )
    def test_array_sums_equal_a_plain_loop_bit_for_bit(
        self, drawn, silent_at, all_zero, antigen_ratings, count
    ):
        members = [
            (UserProfile(i + 1, ratings), 0.0 if all_zero else weight)
            for i, (ratings, weight) in enumerate(drawn)
        ]
        # movie 10 is rated only by a zero-weight member, movie 9 only by a
        # pool user outside the population, and movie 11 by no pool user
        members.insert(silent_at, (UserProfile(100, {10: 6, 1: 2}), 0.0))
        population = _population(*members, outsiders=(UserProfile(200, {9: 4, 2: 3}),))
        assert population.pool.movies.tolist()[-2:] == [9, 10]

        for movie_id in range(1, 12):
            prediction = predict_rating(population, movie_id)
            assert _bits(prediction) == _bits(_loop_prediction(members, movie_id))
            if movie_id >= 9 or all_zero:
                assert prediction.fallback
                assert prediction.value == mean_rating(p for p, _ in members)

        antigen = UserProfile(99, antigen_ratings)
        rated = {m for profile, weight in members if weight > 0 for m in profile.categories}
        expected = sorted(
            (_loop_prediction(members, m) for m in rated - set(antigen.categories)),
            key=lambda p: (-p.value, p.movie_id),
        )[:count]
        result = recommend_top_n(population, antigen, count)
        assert [_bits(p) for p in result] == [_bits(p) for p in expected]
        assert not all_zero or result == ()

    def test_empty_population_raises(self):
        with pytest.raises(EmptyPopulationError):
            recommend_top_n(_population(), UserProfile(9, {1: 3}), 3)

    @pytest.mark.parametrize(
        ("kind", "remap"),
        [
            (AffinityKind.WEIGHTED_KAPPA, False),
            (AffinityKind.KENDALLS_TAU, True),
            (AffinityKind.PEARSON, True),
        ],
    )
    def test_equals_predict_rating_bit_for_bit(self, standard_dataset, kind, remap):
        pool = PoolAffinities(standard_dataset, AffinityMeasure(kind), remap)
        for i in range(3):
            antigen = standard_dataset.users[standard_dataset.user_ids[7 * i]]
            final = run_to_convergence(
                antigen, pool, ImmuneParams(remap_negative=remap), seed=500 + i
            )
            # a zero-weight member that alone rates an unseen movie adds no candidate
            silent = UserProfile(10**6, {**final.members[0][0].categories, 10**6: 6})
            population = _population(*final.members, (silent, 0.0))

            result = recommend_top_n(population, antigen, 10**6)

            ids = [entry.movie_id for entry in result]
            assert ids and 10**6 not in ids
            assert set(ids).isdisjoint(antigen.categories)
            expected = set().union(*(p.categories for p, w in final.members if w > 0))
            assert set(ids) == expected - set(antigen.categories)
            assert [(-e.value, e.movie_id) for e in result] == sorted(
                (-e.value, e.movie_id) for e in result
            )
            for entry in result:
                oracle = predict_rating(population, entry.movie_id)
                assert entry == oracle
                assert struct.pack("<d", entry.value) == struct.pack("<d", oracle.value)


def test_population_mean_counts_each_rating_once():
    population = _population(
        (rated(1, {10: 1.0, 11: 0.0}), 5.0),
        (rated(2, {12: 0.6}), 1.0),
    )
    profiles = (profile for profile, _ in population.members)
    assert mean_rating(profiles) == pytest.approx((1.0 + 0.0 + 0.6) / 3, abs=1e-12)
