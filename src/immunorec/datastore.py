"""Ratings persistence: CSV ingestion, partitioning, and synthetic data.

The canonical on-disk format keeps ratings as integer categories 1..6
(`category_csv`), one `user_id,movie_id,category` row per line, no header.
A `scaled_csv` reader accepts the 0/0.2/../1.0 form instead. Files written
by this module are `category_csv` with LF line endings and ascending
(user_id, movie_id) order, so identical datasets serialize to identical bytes.
"""

from __future__ import annotations

import enum
import json
import logging
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .domain import Dataset, RatingColumns, UserProfile, category_from_rating
from .errors import ConfigError, EmptyDatasetError, ParseError

log = logging.getLogger(__name__)


class FileFormat(enum.Enum):
    CATEGORY_CSV = "category_csv"
    SCALED_CSV = "scaled_csv"


@dataclass(frozen=True)
class IngestConfig:
    """Loading knobs: the file format and the per-user rating minimum."""

    format: FileFormat = FileFormat.CATEGORY_CSV
    min_ratings_per_user: int = 20

    def __post_init__(self) -> None:
        if self.min_ratings_per_user < 1:
            raise ConfigError("min_ratings_per_user must be >= 1")


@dataclass(frozen=True)
class LoadReport:
    """Audit counts surfaced by a load, serializable to JSON."""

    users_kept: int
    users_dropped: int
    movies: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


#: The integer grammar of an id or category field: ASCII decimal digits,
#: with a minus sign allowed so that a negative value reports its range.
_INTEGER = re.compile(r"-?[0-9]+")

#: About this many bytes of whole lines are parsed at a time, to bound the temporaries.
_BLOCK = 1 << 15

#: By field width plus one, the mask that keeps a field's last (up to 8)
#: bytes of the 8-byte word that ends with it, as digit values 0..9.
_DIGIT_MASKS = np.array(
    [0, *(0x0F0F0F0F0F0F0F0F >> s << s for s in range(64, -8, -8)), 0x0F0F0F0F0F0F0F0F], np.uint64
)


def _integer(text: str) -> int | None:
    """``text`` as an int if it matches the integer grammar, else None."""
    if _INTEGER.fullmatch(text) is None:
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def _parse_category(text: str, fmt: FileFormat, line: int) -> int:
    if fmt is FileFormat.CATEGORY_CSV:
        category = _integer(text)
        if category is None:
            raise ParseError(line, 3, f"category {text!r} is not an integer")
        if not 1 <= category <= 6:
            raise ParseError(line, 3, f"category {category} outside 1..6")
        return category
    try:
        value = float(text)
    except ValueError:
        raise ParseError(line, 3, f"rating {text!r} is not a number") from None
    try:
        return category_from_rating(value)
    except Exception:
        raise ParseError(line, 3, f"rating {value!r} is not on the 6-point scale") from None


#: The three rating columns (user, movie, category), contiguous and grouped
#: by user, ascending, each user's ratings in file order.
Columns = tuple[np.ndarray, np.ndarray, np.ndarray]


def _grouped(users: np.ndarray, movies: np.ndarray, categories: np.ndarray) -> Columns:
    """The columns reordered by user, ascending, each user's ratings in file order."""
    order = np.argsort(users, kind="stable")
    return users[order], movies[order], categories[order]


def _block_rows(block: np.ndarray) -> np.ndarray | None:
    """Whole lines of bytes as rows of three values; None unless every line
    is three fields of 1 to 9 ASCII digits joined by two commas and an LF."""
    # eight "0" bytes ahead, so that an 8-byte word ends at every field
    data = np.concatenate((np.full(8, ord("0"), np.uint8), block))
    seps = np.flatnonzero(data < ord("0"))  # comma, comma, LF on every line
    gaps = np.diff(seps, prepend=7)  # each field's width plus one
    clean = len(seps) % 3 == 0 and 3 * np.count_nonzero(data == ord(",")) == 2 * len(seps)
    if not clean or (data[seps[2::3]] != ord("\n")).any() or gaps.max() > 10:
        return None
    seps -= 8
    # the 8 bytes before each separator as one little-endian word: the
    # field's last digit in the top byte; then digit pairs, fours, eights
    words = np.ndarray(len(data) - 7, "<u8", data, strides=(1,)).take(seps)
    words &= _DIGIT_MASKS[gaps]
    for shift, lanes in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF), (32, 0xFFFFFFFF)):
        words *= (10 ** (shift // 8) << shift) + 1
        words >>= shift
        words &= lanes
    if gaps.max() > 9:
        words += (gaps > 9) * (data[seps - 1] & 15) * np.uint64(10**8)
    return words.reshape(-1, 3)


def _parse_columns(path: Path) -> Columns | None:
    """The rating columns of a clean ``category_csv`` file, parsed in bulk.

    Returns None, having raised nothing, unless every line is three fields
    of 1 to 9 ASCII digits joined by two commas and an LF (the last LF may be
    missing), with positive ids, categories in 1..6 and no duplicate key.
    The line parser then reads the file and owns every error message.
    """
    raw = path.read_bytes()
    if not raw.endswith(b"\n"):
        raw += b"\n"
    data = np.frombuffer(raw, np.uint8)
    if data.max() > ord("9"):
        return None
    columns = [np.empty(np.count_nonzero(data == ord("\n")), np.int32) for _ in range(3)]
    row = start = 0
    while start < len(raw):
        # about _BLOCK bytes, cut just after an LF
        end = raw.find(b"\n", start + _BLOCK - 1) + 1 or len(raw)
        rows = _block_rows(data[start:end])
        if rows is None:
            return None
        for column, values in zip(columns, rows.T):
            column[row : row + len(rows)] = values
        row, start = row + len(rows), end
    del raw, data
    users, movies, categories = columns
    if users.min() < 1 or movies.min() < 1 or categories.min() < 1 or categories.max() > 6:
        return None
    # keys in strictly ascending (user, movie) order, as save_ratings writes
    # them, hold no duplicate; any other order is sorted once to find one
    unordered = (users[1:] < users[:-1]).any()
    if unordered or ((users[1:] == users[:-1]) & (movies[1:] <= movies[:-1])).any():
        order = np.lexsort((movies, users))
        u, m = users[order], movies[order]
        if ((u[1:] == u[:-1]) & (m[1:] == m[:-1])).any():
            return None
    if unordered:
        return _grouped(users, movies, categories)
    return users, movies, categories


def _parse_lines(path: Path, fmt: FileFormat) -> Columns:
    """The rating columns, read one line at a time; raises on the first bad row."""
    users: list[int] = []
    movies: list[int] = []
    categories: list[int] = []
    keys: set[tuple[int, int]] = set()
    # A byte that is not UTF-8 reads as a lone surrogate, which no field
    # parses, so its row fails in order like any other malformed row.
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
            for lineno, raw in enumerate(handle, start=1):
                row = raw.rstrip("\r\n")
                if not row:
                    continue
                fields = row.split(",")
                if len(fields) != 3:
                    raise ParseError(lineno, 1, f"expected 3 fields, got {len(fields)}")
                ids = _integer(fields[0]), _integer(fields[1])
                for column, value in enumerate(ids, start=1):
                    if value is None:
                        raise ParseError(lineno, column, f"non-integer id in {row!r}")
                for column, value in enumerate(ids, start=1):
                    if value < 1:
                        raise ParseError(lineno, column, f"ids must be positive in {row!r}")
                    if value >= 2**63:  # held as int64
                        raise ParseError(lineno, column, f"ids must be below 2**63 in {row!r}")
                user_id, movie_id = ids
                category = _parse_category(fields[2], fmt, lineno)
                if ids in keys:
                    raise ParseError(
                        lineno, 2, f"duplicate rating for user {user_id}, movie {movie_id}"
                    )
                keys.add(ids)
                users.append(user_id)
                movies.append(movie_id)
                categories.append(category)
    except ParseError:
        for column, text in enumerate(row.split(","), start=1):
            if bad := [ord(ch) - 0xDC00 for ch in text if "\udc80" <= ch <= "\udcff"]:
                raise ParseError(lineno, column, f"byte 0x{bad[0]:02x} is not UTF-8") from None
        raise
    return _grouped(
        np.array(users, np.int64), np.array(movies, np.int64), np.array(categories, np.int8)
    )


def load_ratings(path: str | Path, config: IngestConfig) -> tuple[Dataset, LoadReport]:
    """Read and validate a ratings file.

    The first malformed row -- wrong field count, bad ids, off-scale rating,
    or duplicate (user, movie) key -- raises :class:`ParseError` naming the
    line and column.

    Users with fewer than ``config.min_ratings_per_user`` ratings are dropped
    and counted. Raises :class:`EmptyDatasetError` if no user survives.

    The dataset keeps the kept users' ratings as columns: each profile is
    built, and checked, when it is first read (:class:`RatingColumns`).
    """
    path = Path(path)
    columns = None
    if config.format is FileFormat.CATEGORY_CSV:
        columns = _parse_columns(path)
    if columns is None:
        columns = _parse_lines(path, config.format)
    users, movies, categories = columns
    del columns

    first = np.ones(len(users), dtype=bool)
    first[1:] = users[1:] != users[:-1]
    counts = np.diff(np.flatnonzero(first), append=len(users))
    kept = counts >= config.min_ratings_per_user
    if not kept.all():
        rows = np.repeat(kept, counts)
        users, movies, categories = users[rows], movies[rows], categories[rows]
        counts = counts[kept]
    bounds = np.append(0, np.cumsum(counts))
    dataset = Dataset(
        RatingColumns(
            users[bounds[:-1]].tolist(),
            bounds.tolist(),
            movies,
            categories.astype(np.int8, copy=False),
        )
    )
    del users, movies, categories
    if not dataset.users:
        raise EmptyDatasetError(
            f"{path}: no user passed the {config.min_ratings_per_user}-rating minimum"
        )
    report = LoadReport(
        users_kept=len(dataset.users),
        users_dropped=int((~kept).sum()),
        movies=len(dataset.movie_array),
    )
    log.info("loaded %s: %s", path, report.to_json())
    return dataset, report


def save_ratings(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as ``category_csv``: LF endings, ascending (user, movie)."""
    path = Path(path)
    lines = []
    for user_id in sorted(dataset.users):
        profile = dataset.users[user_id]
        for movie_id in sorted(profile.categories):
            lines.append(f"{user_id},{movie_id},{profile.categories[movie_id]}\n")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines)


def partition(
    dataset: Dataset,
    *,
    pool_id_threshold: int | None = None,
    split_fraction: float = 0.8,
    split_seed: int | None = None,
) -> tuple[Dataset, Dataset]:
    """Split a dataset into (candidate pool, test antigens).

    With ``pool_id_threshold`` set, ids above the threshold form the pool and
    the rest the antigens. Otherwise a seeded shuffle sends ``split_fraction``
    (strictly between 0 and 1) of the users to the pool; ``split_seed`` is
    then mandatory so the split is reproducible. Either side may be empty;
    the caller decides whether that is an error.
    """
    ids = np.array(dataset.user_ids, dtype=np.int64)
    if pool_id_threshold is not None:
        pool_ids = [int(u) for u in ids if u > pool_id_threshold]
        antigen_ids = [int(u) for u in ids if u <= pool_id_threshold]
    else:
        if not 0.0 < split_fraction < 1.0:
            raise ConfigError("split_fraction must lie strictly between 0 and 1")
        if split_seed is None:
            raise ConfigError("split_seed is required when pool_id_threshold is unset")
        rng = np.random.default_rng(split_seed)
        shuffled = rng.permutation(ids)
        k = int(round(split_fraction * len(ids)))
        pool_ids = sorted(int(u) for u in shuffled[:k])
        antigen_ids = sorted(int(u) for u in shuffled[k:])
    return dataset.subset(pool_ids), dataset.subset(antigen_ids)


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters for the clustered synthetic ratings generator."""

    num_users: int
    num_movies: int
    num_clusters: int
    noise: float
    ratings_per_user: tuple[int, int]
    seed: int

    def __post_init__(self) -> None:
        low, high = self.ratings_per_user
        if self.num_users < 1 or self.num_movies < 1:
            raise ConfigError("num_users and num_movies must be >= 1")
        if self.num_clusters < 1:
            raise ConfigError("num_clusters must be >= 1")
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigError("noise must lie in [0, 1]")
        if not 1 <= low <= high <= self.num_movies:
            raise ConfigError("ratings_per_user range must satisfy 1 <= low <= high <= num_movies")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def generate_synthetic(config: SyntheticConfig) -> Dataset:
    """Generate a clustered ratings dataset, fully determined by the config.

    Every cluster owns a latent per-movie preference in [0, 1]; a user's
    rating of a sampled movie is that preference plus uniform noise in
    [-noise, +noise], clipped and quantized to the nearest of the six scale
    points. With noise 0, users of the same cluster agree exactly on every
    common movie.
    """
    rng = np.random.default_rng(config.seed)
    prefs = rng.random((config.num_clusters, config.num_movies))
    clusters = rng.integers(0, config.num_clusters, size=config.num_users)
    low, high = config.ratings_per_user

    profiles = []
    for user_index in range(config.num_users):
        count = int(rng.integers(low, high + 1))
        movie_indices = rng.choice(config.num_movies, size=count, replace=False)
        latent = prefs[clusters[user_index], movie_indices]
        if config.noise > 0:
            latent = latent + rng.uniform(-config.noise, config.noise, size=count)
        values = np.clip(latent, 0.0, 1.0)
        categories = (np.rint(values * 5) + 1).astype(np.int64)
        ratings = {int(m) + 1: int(c) for m, c in zip(movie_indices, categories)}
        profiles.append(UserProfile(user_index + 1, ratings))
    return Dataset.from_profiles(profiles)
