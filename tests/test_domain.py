from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from immunorec import Dataset, UserProfile, category_from_rating, rating_from_category
from immunorec.domain import POINTS, SCALE_POINTS, _movie_columns, common_categories, mean_rating
from immunorec.errors import ImmunorecError, InvalidCategoryError, InvalidRatingError

profiles = st.builds(
    UserProfile,
    st.integers(min_value=1, max_value=10_000),
    st.dictionaries(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=6)),
)


@pytest.mark.parametrize(
    "rating,category",
    [(0.0, 1), (0.2, 2), (0.4, 3), (0.6, 4), (0.8, 5), (1.0, 6)],
)
def test_category_mapping(rating, category):
    assert category_from_rating(rating) == category
    assert rating_from_category(category) == rating


@pytest.mark.parametrize("bad", [0.3, -0.2, 1.2, 0.100001, 7.0])
def test_off_scale_rating_rejected(bad):
    with pytest.raises(InvalidRatingError):
        category_from_rating(bad)


def test_near_scale_rating_accepted():
    # decimal text like "0.6" parses to the canonical double; tiny drift is fine
    assert category_from_rating(0.6 + 5e-10) == 4


@pytest.mark.parametrize("bad", [0, 7, -1, 100, 2.0, True])
def test_out_of_range_category_rejected(bad):
    with pytest.raises(InvalidCategoryError):
        rating_from_category(bad)


def test_scale_round_trip_is_exact():
    for rating in SCALE_POINTS:
        assert rating_from_category(category_from_rating(rating)) == rating
    for category in range(1, 7):
        assert category_from_rating(rating_from_category(category)) == category


def test_points_table_reads_each_category():
    # the one table behind mean_rating and the predictor's column sums
    assert POINTS.tolist() == [0.0, *(rating_from_category(c) for c in range(1, 7))]


def test_mean_rating_of_one_rating_is_that_rating():
    for category in range(1, 7):
        mean = mean_rating([UserProfile(1, {5: category})])
        assert type(mean) is float
        assert mean == rating_from_category(category)


def test_mean_rating_of_profiles_without_ratings_raises():
    with pytest.raises(ImmunorecError, match="no ratings"):
        mean_rating([UserProfile(1, {}), UserProfile(2, {})])


@given(st.lists(st.lists(st.integers(1, 6), min_size=9, max_size=400), min_size=1, max_size=5))
def test_mean_rating_adds_in_order(columns):
    # the oracle adds one rating at a time; on sets of this size a pairwise
    # sum (np.sum, np.mean) differs from it in the last bits most of the time
    profiles = [UserProfile(u, dict(enumerate(c, 1))) for u, c in enumerate(columns, 1)]
    total, count = 0.0, 0
    for profile in profiles:
        for category in profile.categories.values():
            total += rating_from_category(category)
            count += 1
    mean = mean_rating(profiles)
    assert type(mean) is float  # as the loop's, not a numpy scalar
    assert mean.hex() == (total / count).hex()


class TestUserProfile:
    def test_rejects_bad_category(self):
        with pytest.raises(InvalidCategoryError):
            UserProfile(1, {5: 9})
        # rating_from_category rejects bools, so the profile does too
        with pytest.raises(InvalidCategoryError):
            UserProfile(1, {5: True})

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(ValueError):
            UserProfile(0, {5: 3})
        with pytest.raises(ValueError):
            UserProfile(1, {0: 3})
        with pytest.raises(ValueError):
            UserProfile(1, {True: 3})

    def test_arrays_are_sorted_and_aligned(self):
        profile = UserProfile(1, {30: 2, 10: 6, 20: 4})
        ids, cats, _ = common_categories(profile, profile)
        assert ids.tolist() == [10, 20, 30]
        assert cats.tolist() == [6, 4, 2]
        assert ids.dtype == cats.dtype == np.int64

    def test_without_movie(self):
        profile = UserProfile(1, {10: 3, 20: 5})
        reduced = profile.without_movie(10)
        assert 10 not in reduced
        assert reduced.categories == {20: 5}
        assert profile.categories == {10: 3, 20: 5}

    def test_ratings_view(self):
        profile = UserProfile(1, {10: 4})
        assert profile.rating(10) == 0.6


class TestCommonMovies:
    def test_reference_pair(self, reference_pair):
        a, b = reference_pair
        ids, cats_a, cats_b = common_categories(a, b)
        assert len(ids) == 8
        assert (ids[0], cats_a[0], cats_b[0]) == (153, 4, 5)
        assert ids.tolist() == sorted(ids.tolist())

    def test_disjoint_profiles(self):
        a = UserProfile(1, {1: 3, 2: 4})
        b = UserProfile(2, {3: 3, 4: 4})
        ids, cats_a, cats_b = common_categories(a, b)
        assert len(ids) == len(cats_a) == len(cats_b) == 0

    def test_profile_with_itself(self):
        a = UserProfile(1, {1: 3, 2: 4, 7: 6})
        ids, cats_a, cats_b = common_categories(a, a)
        assert ids.tolist() == [1, 2, 7]
        assert cats_a.tolist() == cats_b.tolist() == [3, 4, 6]

    @given(profiles, profiles)
    def test_symmetry(self, a, b):
        ids_ab, a_ab, b_ab = common_categories(a, b)
        ids_ba, b_ba, a_ba = common_categories(b, a)
        assert ids_ab.tolist() == ids_ba.tolist()
        assert a_ab.tolist() == a_ba.tolist()
        assert b_ab.tolist() == b_ba.tolist()

    @given(profiles, profiles)
    def test_matches_set_intersection(self, a, b):
        ids, cats_a, cats_b = common_categories(a, b)
        assert set(ids.tolist()) == set(a.categories) & set(b.categories)
        for movie, ca, cb in zip(ids, cats_a, cats_b):
            assert a.categories[int(movie)] == ca
            assert b.categories[int(movie)] == cb


class TestDataset:
    def test_from_profiles(self):
        data = Dataset.from_profiles([UserProfile(1, {5: 3}), UserProfile(2, {6: 4})])
        assert data.user_ids == [1, 2]
        assert data.movie_array.tolist() == [5, 6]

    def test_duplicate_user_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Dataset.from_profiles([UserProfile(1, {5: 3}), UserProfile(1, {6: 4})])

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="no ratings"):
            Dataset.from_profiles([UserProfile(1, {})])

    def test_subset(self):
        data = Dataset.from_profiles([UserProfile(u, {5: 3}) for u in (1, 2, 3)])
        sub = data.subset([1, 3])
        assert sub.user_ids == [1, 3]

    def test_iteration_order(self):
        data = Dataset.from_profiles([UserProfile(u, {5: 3}) for u in (3, 1, 2)])
        assert [p.user_id for p in data] == [1, 2, 3]


def assert_movie_columns_equal_unique(ids, movies, columns):
    """``movies`` and ``columns`` are what ``np.unique(ids, return_inverse=True)`` gives."""
    expected_movies, expected_columns = np.unique(ids, return_inverse=True)
    assert movies.dtype == np.int64 and not movies.flags.writeable
    assert movies.tolist() == expected_movies.tolist()
    assert columns.dtype == expected_columns.dtype == np.int64
    assert columns.shape == expected_columns.shape
    assert columns.flags.c_contiguous and columns.flags.writeable
    assert columns.tolist() == expected_columns.tolist()


def _sorted_by_unique(ids):
    """``_movie_columns(ids)``, and whether it called ``np.unique``."""
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        movies, columns = _movie_columns(ids)
    return movies, columns, unique.called


class TestMovieColumns:
    """The id table and the sort number the movies alike."""

    @given(
        dtype=st.sampled_from([np.int32, np.int64]),
        ids=st.one_of(
            st.lists(st.integers(1, 40), min_size=1, max_size=120),  # dense
            st.lists(st.integers(1, 2**31 - 1), min_size=1, max_size=20),  # sparse
        ),
    )
    def test_equals_unique(self, dtype, ids):
        ids = np.array(ids, dtype=dtype)
        movies, columns, sorted_ = _sorted_by_unique(ids)
        assert sorted_ == (ids.max() > len(ids))
        assert_movie_columns_equal_unique(ids, movies, columns)

    @given(ids=st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=20))
    def test_equals_unique_up_to_int64_max(self, ids):
        ids = np.array(ids, dtype=np.int64)
        movies, columns = _movie_columns(ids)
        assert_movie_columns_equal_unique(ids, movies, columns)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "ids,sorted_",
        # the table serves while the largest id is at most the number of ids
        [([5, 2, 5, 1, 5], False), ([6, 2, 6, 1, 6], True), ([1], False), ([2], True)],
    )
    def test_rule_boundary(self, ids, sorted_, dtype):
        ids = np.array(ids, dtype=dtype)
        movies, columns, called = _sorted_by_unique(ids)
        assert called == sorted_
        assert_movie_columns_equal_unique(ids, movies, columns)

    def test_empty_dataset(self):
        data = Dataset.from_profiles([])
        counts, columns, categories = data.rating_columns
        assert counts.dtype == np.int64 and counts.shape == (0,)
        assert categories.shape == (0,)
        assert_movie_columns_equal_unique(np.zeros(0, np.int64), data.movie_array, columns)

    def test_generated_dataset_takes_the_table(self, standard_dataset):
        # a new Dataset over the generated columns, whose movie columns are
        # not yet derived: the session's dataset may have derived them already
        data = Dataset(standard_dataset.users)
        with mock.patch.object(np, "unique", side_effect=AssertionError):
            movies = data.movie_array
            _, columns, _ = data.rating_columns
        ids = np.concatenate([list(data.users[u].categories) for u in data.user_ids])
        assert_movie_columns_equal_unique(ids, movies, columns)
