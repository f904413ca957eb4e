import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from immunorec import (
    AffinityMeasure,
    Dataset,
    FileFormat,
    IngestConfig,
    PoolAffinities,
    SyntheticConfig,
    UserProfile,
    generate_synthetic,
    load_ratings,
    partition,
    save_ratings,
    weighted_kappa,
)
from immunorec import datastore
from immunorec.affinity import category_matrix
from immunorec.domain import common_categories
from immunorec.errors import ConfigError, EmptyDatasetError, ParseError

from conftest import STANDARD_SYNTHETIC
from test_domain import assert_movie_columns_equal_unique


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
        assert dataset.movie_array.tolist() == [153, 253]
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

    @pytest.mark.parametrize(
        "row",
        [
            "1,153", "a,153,4", "1,b,4", "0,153,4", "1,-5,4", "1,153,x",
            # not plain decimal digits, though int() takes most of them
            "1_0,153,4", " 7 ,153,4", "\u0661,153,4", "1,15 3,4", "1,153, 4", "1,153,+4",
        ],
    )
    def test_malformed_rows(self, tmp_path, row):
        path = _write(tmp_path, "1,152,4\n" + row + "\n2,153,5\n")
        with pytest.raises(ParseError) as excinfo:
            load_ratings(path, LOOSE)
        columns = {"1,b,4": 2, "1,-5,4": 2, "1,15 3,4": 2, "1,153,x": 3, "1,153, 4": 3, "1,153,+4": 3}
        column = columns.get(row, 1)
        assert (excinfo.value.line, excinfo.value.column) == (2, column)

    @pytest.mark.parametrize(
        ("row", "reason"),
        [
            ("1,-5,4", "ids must be positive in '1,-5,4'"),
            ("1_0,153,4", "non-integer id in '1_0,153,4'"),
            ("1,153,0", "category 0 outside 1..6"),
            ("1,153,\u0664", "category '\u0664' is not an integer"),
        ],
    )
    def test_malformed_row_reasons(self, tmp_path, row, reason):
        path = _write(tmp_path, "1,152,4\n" + row + "\n")
        with pytest.raises(ParseError) as excinfo:
            load_ratings(path, LOOSE)
        assert excinfo.value.reason == reason

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

    def test_min_ratings_below_one_rejected(self):
        with pytest.raises(ConfigError, match="min_ratings_per_user must be >= 1"):
            IngestConfig(min_ratings_per_user=0)

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


def _load_outcome(path, config):
    """What a load yields, in a form two loads can be compared by."""
    try:
        dataset, report = load_ratings(path, config)
    except ParseError as exc:
        return "ParseError", exc.line, exc.column, exc.reason
    except EmptyDatasetError as exc:
        return "EmptyDatasetError", str(exc)
    users = [(uid, list(profile.categories.items())) for uid, profile in dataset.users.items()]
    return users, report


def _id_field(top):
    """A valid decimal id: 1..top or, one time in top + 1, an id of 9 or 10
    digits up to the largest int32; sometimes zero-padded."""
    values = st.sampled_from([*range(1, top + 1)] * 4 + [10**8, 999_999_999, 10**9, 2**31 - 1])
    return st.builds(lambda zeros, value: "0" * zeros + str(value), st.integers(0, 2), values)


def _replace_field(fields, index, text):
    fields = list(fields)
    fields[index] = text
    return fields


def _file_text(rows, faults, end, final_newline):
    lines = [",".join(fields) for fields in rows]
    for position, line in faults:
        lines.insert(position % (len(lines) + 1), line)
    text = end.join(lines)
    return text + end if lines and final_newline else text


_FIELDS = st.tuples(_id_field(6), _id_field(40), st.integers(1, 6).map(str))
_ODD_FIELD = st.sampled_from(
    ["", "0", "00", "-3", "+2", " 4", "4 ", "1_0", "\u0661", "x", str(2**31), str(2**40)]
)
_FAULTY_LINE = st.one_of(
    st.just(""),
    st.builds(_replace_field, _FIELDS, st.integers(0, 2), _ODD_FIELD).map(",".join),
    st.builds(_replace_field, _FIELDS, st.just(2), st.sampled_from(["0", "7"])).map(",".join),
    _FIELDS.map(lambda fields: ",".join(fields[:2])),
    st.builds(lambda fields, extra: ",".join((*fields, extra)), _FIELDS, st.sampled_from(["", "5"])),
)
# interleaved users, duplicate keys by chance, and at most two faulty lines,
# so that about one file in seven takes the columnar path
_RATINGS_TEXT = st.builds(
    _file_text,
    st.lists(_FIELDS, max_size=30),
    st.lists(st.tuples(st.integers(0, 30), _FAULTY_LINE), max_size=2),
    st.sampled_from(["\n", "\n", "\r\n"]),
    st.booleans(),
)


def _assert_matches_line_parser(text, min_ratings):
    config = IngestConfig(min_ratings_per_user=min_ratings)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ratings.csv"
        path.write_bytes(text.encode("utf-8"))
        either = _load_outcome(path, config)
        with mock.patch.object(datastore, "_parse_columns", return_value=None):
            lines_only = _load_outcome(path, config)
    assert either == lines_only


class TestColumnarIngest:
    @settings(max_examples=200, deadline=None)
    @given(text=_RATINGS_TEXT, min_ratings=st.integers(1, 3))
    def test_matches_line_parser(self, text, min_ratings):
        _assert_matches_line_parser(text, min_ratings)

    @settings(max_examples=200, deadline=None)
    @given(text=_RATINGS_TEXT, min_ratings=st.integers(1, 3), block=st.integers(1, 24))
    def test_matches_line_parser_in_small_blocks(self, text, min_ratings, block):
        # blocks of a few bytes: many cuts, some right after an LF, and lines
        # longer than a block
        with mock.patch.object(datastore, "_BLOCK", block):
            _assert_matches_line_parser(text, min_ratings)

    @staticmethod
    def _assert_columnar(path):
        """The file loads with no line parser, as the line parser loads it."""
        with mock.patch.object(datastore, "_parse_lines", side_effect=AssertionError):
            columnar = _load_outcome(path, LOOSE)
            assert load_ratings(path, LOOSE)[0].users.movies.dtype == np.int32
        with mock.patch.object(datastore, "_parse_columns", return_value=None):
            assert columnar == _load_outcome(path, LOOSE)

    @pytest.mark.parametrize(
        "text",
        [
            "1,5,3\n2,5,4\n1,7,6",
            "01,005,3\n2,0005,04\n",
            "123456789,999999999,6\n999999999,100000000,2\n",
            "7,8,1\n",
        ],
        ids=["no-final-lf", "leading-zeros", "nine-digit-ids", "one-line"],
    )
    def test_clean_file_takes_columnar_path(self, tmp_path, text):
        self._assert_columnar(_write(tmp_path, text))

    @pytest.mark.parametrize(
        "text", ["1,2 3\n", "1,2,3,4\n5,6\n"], ids=["space-for-comma", "four-then-two-fields"]
    )
    def test_misplaced_separator_goes_to_line_parser(self, tmp_path, text):
        # three separators a line, though not comma, comma, LF on each line
        with pytest.raises(ParseError) as excinfo:
            load_ratings(_write(tmp_path, text), LOOSE)
        assert (excinfo.value.line, excinfo.value.column) == (1, 1)

    def test_block_multiple_takes_columnar_path(self, tmp_path):
        # 16-byte lines, two blocks' worth: every cut falls just after an LF
        lines = (f"{10000 + i // 64},{1000000 + i % 64},{1 + i % 6}\n" for i in range(4096))
        path = _write(tmp_path, "".join(lines))
        assert path.stat().st_size == 2 * datastore._BLOCK
        self._assert_columnar(path)

    def test_parse_peak_memory(self, tmp_path):
        # the file's bytes (0.9 MB), the three int32 columns (1.1 MB) and one
        # block's temporaries; parsing the whole file at once peaks near 8 MB
        path = tmp_path / "standard-2000.csv"
        save_ratings(generate_synthetic(replace(STANDARD_SYNTHETIC, num_users=2000)), path)
        tracemalloc.start()
        try:
            datastore._parse_columns(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000

    def test_standard_file_takes_columnar_path(self, tmp_path, standard_dataset):
        path = tmp_path / "standard.csv"
        save_ratings(standard_dataset, path)
        with mock.patch.object(datastore, "_parse_lines", side_effect=AssertionError):
            dataset, report = load_ratings(path, LOOSE)
        assert dataset.user_ids == standard_dataset.user_ids
        for uid in dataset.user_ids:
            assert dataset.users[uid].categories == standard_dataset.users[uid].categories
        assert report.users_kept == len(standard_dataset)


class TestRatingColumns:
    def _counted_checks(self):
        return mock.patch.object(
            UserProfile, "__post_init__", autospec=True, side_effect=UserProfile.__post_init__
        )

    @pytest.mark.parametrize("min_ratings", [1, 45])
    def test_load_builds_no_profile(self, tmp_path, standard_dataset, min_ratings):
        path = tmp_path / "standard.csv"
        save_ratings(standard_dataset, path)
        full = Dataset.from_profiles(p for p in standard_dataset if len(p) >= min_ratings)
        with self._counted_checks() as check:
            dataset, report = load_ratings(path, IngestConfig(min_ratings_per_user=min_ratings))
            movies = dataset.movie_array
        assert check.call_count == 0
        assert report == datastore.LoadReport(
            users_kept=len(full),
            users_dropped=len(standard_dataset) - len(full),
            movies=len(full.movie_array),
        )
        assert movies.tolist() == full.movie_array.tolist()
        assert dataset.user_ids == full.user_ids
        assert full.user_ids[0] in dataset and 0 not in dataset
        assert check.call_count == 0

    def test_profile_built_checked_and_kept_on_first_read(self, tmp_path):
        path = _write(tmp_path, "2,9,4\n1,7,2\n2,3,6\n")
        dataset, _ = load_ratings(path, LOOSE)
        with self._counted_checks() as check:
            first = dataset.users[2]
            assert dataset.users[2] is first
        assert check.call_count == 1
        assert list(first.categories.items()) == [(9, 4), (3, 6)]  # file order
        assert list(dataset.users) == [1, 2]
        with pytest.raises(KeyError):
            dataset.users[3]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["columnar", "lines"])
    def test_rating_columns_index_movie_array(self, tmp_path, newline):
        # users out of order, each user's ratings in file order; the columnar
        # parser reads int32 ids, the line parser int64
        rows = ["2,9,4", "1,7,2", "2,3,6", "3,9,1", "1,3,5"]
        dataset, _ = load_ratings(_write(tmp_path, newline.join(rows) + newline), LOOSE)
        assert dataset.movie_array.dtype == np.int64
        assert dataset.movie_array.tolist() == [3, 7, 9]
        counts, columns, categories = dataset.rating_columns
        assert counts.tolist() == [2, 2, 1]
        assert columns.tolist() == [1, 0, 2, 0, 2]
        assert categories.tolist() == [2, 5, 4, 6, 1]
        # the pool's rows, scattered from those columns, are the profiles' rows
        pool = PoolAffinities(dataset, AffinityMeasure())
        profiles = [dataset.users[u] for u in dataset.user_ids]
        assert pool.categories.tolist() == [[5, 2, 0], [6, 0, 4], [0, 0, 1]]
        assert pool.categories.tolist() == category_matrix(profiles, dataset.movie_array).tolist()

    def test_largest_movie_id_through_line_parser(self, tmp_path):
        # 2**63 - 1 overflows the columnar parser's int32, so the line parser
        # reads it, and the sort numbers the movies
        path = _write(tmp_path, f"1,{2**63 - 1},3\n1,5,2\n2,5,4\n")
        dataset, _ = load_ratings(path, LOOSE)
        assert dataset.users.movies.dtype == np.int64
        _, columns, _ = dataset.rating_columns
        assert dataset.movie_array.tolist() == [5, 2**63 - 1]
        assert_movie_columns_equal_unique(dataset.users.movies, dataset.movie_array, columns)

    def test_standard_file_loads_without_a_sort(self, tmp_path, standard_dataset):
        # the saved file is in (user, movie) order and its movie ids are
        # dense, so neither the order checks nor the movie columns sort
        path = tmp_path / "standard.csv"
        save_ratings(standard_dataset, path)
        with (
            mock.patch.object(np, "unique", wraps=np.unique) as unique,
            mock.patch.object(np, "argsort", wraps=np.argsort) as argsort,
            mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort,
        ):
            dataset, _ = load_ratings(path, LOOSE)
            _, columns, _ = dataset.rating_columns
        assert not unique.called and not argsort.called and not lexsort.called
        assert dataset.users.movies.dtype == np.int32
        assert_movie_columns_equal_unique(dataset.users.movies, dataset.movie_array, columns)


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
        with pytest.raises(ConfigError, match="split_seed"):
            partition(dataset)

    @pytest.mark.parametrize("fraction", [0, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        dataset = Dataset.from_profiles([UserProfile(u, {1: 3}) for u in range(1, 11)])
        with pytest.raises(ConfigError, match="split_fraction must lie strictly between 0 and 1"):
            partition(dataset, split_fraction=fraction, split_seed=7)

    def test_id_threshold_ignores_fraction(self):
        dataset = Dataset.from_profiles([UserProfile(u, {1: 3}) for u in range(1, 11)])
        pool, antigens = partition(dataset, pool_id_threshold=7, split_fraction=5)
        assert pool.user_ids == [8, 9, 10]
        assert antigens.user_ids == list(range(1, 8))

    def test_threshold_above_every_id_leaves_pool_empty(self):
        dataset = Dataset.from_profiles([UserProfile(5, {1: 3})])
        pool, antigens = partition(dataset, pool_id_threshold=100)
        assert len(pool) == 0
        assert antigens.user_ids == [5]


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
        with pytest.raises(ConfigError):
            SyntheticConfig(num_users=0, num_movies=5, num_clusters=1, noise=0.0,
                            ratings_per_user=(1, 2), seed=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(num_users=5, num_movies=5, num_clusters=1, noise=1.5,
                            ratings_per_user=(1, 2), seed=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(num_users=5, num_movies=5, num_clusters=1, noise=0.5,
                            ratings_per_user=(3, 9), seed=0)
        with pytest.raises(ConfigError, match="num_clusters must be >= 1"):
            SyntheticConfig(num_users=5, num_movies=5, num_clusters=0, noise=0.5,
                            ratings_per_user=(1, 2), seed=0)
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            SyntheticConfig(num_users=5, num_movies=5, num_clusters=1, noise=0.5,
                            ratings_per_user=(1, 2), seed=-1)
