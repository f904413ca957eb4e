import logging

import pytest

from immunorec import (
    Dataset,
    FileFormat,
    IngestConfig,
    SyntheticConfig,
    UserProfile,
    generate_synthetic,
    load_ratings,
    partition,
    save_ratings,
    weighted_kappa,
)
from immunorec.domain import common_categories
from immunorec.errors import EmptyDatasetError, ParseError


def _write(tmp_path, text, name="ratings.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


LOOSE = IngestConfig(min_ratings_per_user=1)


class TestLoadRatings:
    def test_three_line_fixture(self, tmp_path):
        path = _write(tmp_path, "1,153,4\n1,253,4\n2,153,5\n")
        dataset, report = load_ratings(path, LOOSE)
        assert len(dataset) == 2
        assert dataset.movie_ids == frozenset({153, 253})
        assert report.users_kept == 2
        assert report.movies == 2

    def test_crlf_accepted(self, tmp_path):
        path = _write(tmp_path, "1,153,4\r\n1,253,4\r\n")
        dataset, _ = load_ratings(path, LOOSE)
        assert dataset.users[1].categories == {153: 4, 253: 4}

    def test_out_of_scale_category_names_line(self, tmp_path):
        path = _write(tmp_path, "1,153,4\n1,253,7\n")
        with pytest.raises(ParseError) as excinfo:
            load_ratings(path, LOOSE)
        assert excinfo.value.line == 2

    def test_duplicate_key_rejected(self, tmp_path):
        path = _write(tmp_path, "1,153,4\n1,153,5\n")
        with pytest.raises(ParseError) as excinfo:
            load_ratings(path, LOOSE)
        assert excinfo.value.line == 2
        assert "duplicate" in excinfo.value.reason

    @pytest.mark.parametrize("row", ["1,153", "a,153,4", "1,b,4", "0,153,4", "1,-5,4", "1,153,x"])
    def test_malformed_rows(self, tmp_path, row):
        path = _write(tmp_path, "1,152,4\n" + row + "\n2,153,5\n")
        with pytest.raises(ParseError) as excinfo:
            load_ratings(path, LOOSE)
        column = 3 if row == "1,153,x" else 1
        assert (excinfo.value.line, excinfo.value.column) == (2, column)

    def test_scaled_format(self, tmp_path):
        path = _write(tmp_path, "1,153,0.6\n1,253,1.0\n1,296,0\n")
        dataset, _ = load_ratings(path, IngestConfig(format=FileFormat.SCALED_CSV, min_ratings_per_user=1))
        assert dataset.users[1].categories == {153: 4, 253: 6, 296: 1}

    def test_scaled_format_rejects_off_scale(self, tmp_path):
        path = _write(tmp_path, "1,153,0.3\n")
        with pytest.raises(ParseError):
            load_ratings(path, IngestConfig(format=FileFormat.SCALED_CSV, min_ratings_per_user=1))

    def test_min_ratings_filter_counted(self, tmp_path):
        rows = "".join(f"1,{m},4\n" for m in range(1, 25)) + "2,1,5\n"
        path = _write(tmp_path, rows)
        dataset, report = load_ratings(path, IngestConfig(min_ratings_per_user=20))
        assert dataset.user_ids == [1]
        assert report.users_dropped == 1

    def test_all_users_filtered_raises(self, tmp_path):
        path = _write(tmp_path, "1,153,4\n")
        with pytest.raises(EmptyDatasetError):
            load_ratings(path, IngestConfig(min_ratings_per_user=20))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ratings(tmp_path / "absent.csv", LOOSE)

    def test_blank_lines_ignored(self, tmp_path):
        path = _write(tmp_path, "1,153,4\n\n2,153,5\n\n")
        dataset, _ = load_ratings(path, LOOSE)
        assert len(dataset) == 2


class TestSaveRatings:
    def test_round_trip_identity(self, tmp_path):
        original = Dataset.from_profiles(
            [
                UserProfile(2, {10: 6, 3: 1}),
                UserProfile(1, {5: 4, 2: 2, 9: 3}),
            ]
        )
        path = tmp_path / "out.csv"
        save_ratings(original, path)
        loaded, _ = load_ratings(path, LOOSE)
        assert loaded.user_ids == original.user_ids
        for uid in original.user_ids:
            assert loaded.users[uid].categories == original.users[uid].categories

    def test_canonical_bytes(self, tmp_path):
        dataset = Dataset.from_profiles([UserProfile(1, {7: 3, 2: 5})])
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        save_ratings(dataset, first)
        save_ratings(dataset, second)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == b"1,2,5\n1,7,3\n"


class TestPartition:
    def test_id_threshold_rule(self):
        dataset = Dataset.from_profiles(
            [UserProfile(14999, {1: 3}), UserProfile(15001, {1: 4})]
        )
        pool, antigens = partition(dataset, pool_id_threshold=15000)
        assert pool.user_ids == [15001]
        assert antigens.user_ids == [14999]

    def test_seeded_fraction_split(self):
        dataset = Dataset.from_profiles([UserProfile(u, {1: 3}) for u in range(1, 101)])
        pool_a, antigens_a = partition(dataset, split_fraction=0.8, split_seed=7)
        pool_b, antigens_b = partition(dataset, split_fraction=0.8, split_seed=7)
        assert pool_a.user_ids == pool_b.user_ids
        assert antigens_a.user_ids == antigens_b.user_ids
        assert len(pool_a) == 80
        assert len(antigens_a) == 20
        assert set(pool_a.user_ids).isdisjoint(antigens_a.user_ids)
        assert set(pool_a.user_ids) | set(antigens_a.user_ids) == set(dataset.user_ids)

    def test_fraction_split_requires_seed(self):
        dataset = Dataset.from_profiles([UserProfile(1, {1: 3})])
        with pytest.raises(ValueError, match="split_seed"):
            partition(dataset)

    @pytest.mark.parametrize("fraction", [0, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        dataset = Dataset.from_profiles([UserProfile(u, {1: 3}) for u in range(1, 11)])
        with pytest.raises(ValueError, match="split_fraction must lie strictly between 0 and 1"):
            partition(dataset, split_fraction=fraction, split_seed=7)

    def test_id_threshold_ignores_fraction(self):
        dataset = Dataset.from_profiles([UserProfile(u, {1: 3}) for u in range(1, 11)])
        pool, antigens = partition(dataset, pool_id_threshold=7, split_fraction=5)
        assert pool.user_ids == [8, 9, 10]
        assert antigens.user_ids == list(range(1, 8))

    def test_empty_side_warns(self, caplog):
        dataset = Dataset.from_profiles([UserProfile(5, {1: 3})])
        with caplog.at_level(logging.WARNING, logger="immunorec.datastore"):
            pool, antigens = partition(dataset, pool_id_threshold=100)
        assert len(pool) == 0
        assert antigens.user_ids == [5]
        assert any("empty side" in record.message for record in caplog.records)


class TestGenerateSynthetic:
    def test_pure_function_of_config(self):
        config = SyntheticConfig(
            num_users=30, num_movies=40, num_clusters=3, noise=0.2,
            ratings_per_user=(5, 10), seed=11,
        )
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        assert a.user_ids == b.user_ids
        for uid in a.user_ids:
            assert a.users[uid].categories == b.users[uid].categories

    def test_shape_and_validity(self):
        config = SyntheticConfig(
            num_users=25, num_movies=30, num_clusters=2, noise=0.5,
            ratings_per_user=(4, 9), seed=3,
        )
        dataset = generate_synthetic(config)
        assert len(dataset) == 25
        for profile in dataset:
            assert 4 <= len(profile) <= 9
            assert all(1 <= c <= 6 for c in profile.categories.values())
            assert all(1 <= m <= 30 for m in profile.categories)

    def test_noiseless_same_cluster_agreement(self):
        config = SyntheticConfig(
            num_users=40, num_movies=20, num_clusters=2, noise=0.0,
            ratings_per_user=(10, 15), seed=5,
        )
        dataset = generate_synthetic(config)
        # same-cluster users agree exactly on every common movie, hence kappa 1
        agreements = []
        users = list(dataset)
        for i, a in enumerate(users):
            for b in users[i + 1:]:
                _, cats_a, cats_b = common_categories(a, b)
                if len(cats_a) < 2:
                    continue
                if (cats_a == cats_b).all():
                    agreements.append(weighted_kappa(a, b))
        assert agreements  # the two clusters guarantee exact-agreement pairs
        assert all(value == 1.0 for value in agreements)

    def test_noiseless_cross_cluster_below_within(self):
        config = SyntheticConfig(
            num_users=30, num_movies=15, num_clusters=2, noise=0.0,
            ratings_per_user=(10, 15), seed=9,
        )
        dataset = generate_synthetic(config)
        users = list(dataset)
        within, cross = [], []
        for i, a in enumerate(users):
            for b in users[i + 1:]:
                _, cats_a, cats_b = common_categories(a, b)
                if len(cats_a) < 3:
                    continue
                value = weighted_kappa(a, b)
                if (cats_a == cats_b).all():
                    within.append(value)
                else:
                    cross.append(value)
        assert within and cross
        assert min(within) > max(cross)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_users=0, num_movies=5, num_clusters=1, noise=0.0,
                            ratings_per_user=(1, 2), seed=0)
        with pytest.raises(ValueError):
            SyntheticConfig(num_users=5, num_movies=5, num_clusters=1, noise=1.5,
                            ratings_per_user=(1, 2), seed=0)
        with pytest.raises(ValueError):
            SyntheticConfig(num_users=5, num_movies=5, num_clusters=1, noise=0.5,
                            ratings_per_user=(3, 9), seed=0)
