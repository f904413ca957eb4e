import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from immunorec import Dataset, UserProfile, category_from_rating, rating_from_category
from immunorec.domain import SCALE_POINTS, common_categories
from immunorec.errors import InvalidCategoryError, InvalidRatingError

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


@pytest.mark.parametrize("bad", [0, 7, -1, 100])
def test_out_of_range_category_rejected(bad):
    with pytest.raises(InvalidCategoryError):
        rating_from_category(bad)


def test_scale_round_trip_is_exact():
    for rating in SCALE_POINTS:
        assert rating_from_category(category_from_rating(rating)) == rating
    for category in range(1, 7):
        assert category_from_rating(rating_from_category(category)) == category


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
