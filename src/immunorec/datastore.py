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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .domain import Dataset, UserProfile, category_from_rating
from .errors import EmptyDatasetError, ParseError

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
            raise ValueError("min_ratings_per_user must be >= 1")


@dataclass(frozen=True)
class LoadReport:
    """Audit counts surfaced by a load, serializable to JSON."""

    users_kept: int
    users_dropped: int
    movies: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _parse_category(text: str, fmt: FileFormat, line: int) -> int:
    if fmt is FileFormat.CATEGORY_CSV:
        try:
            category = int(text)
        except ValueError:
            raise ParseError(line, 3, f"category {text!r} is not an integer") from None
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


def load_ratings(path: str | Path, config: IngestConfig) -> tuple[Dataset, LoadReport]:
    """Read and validate a ratings file.

    The first malformed row -- wrong field count, bad ids, off-scale rating,
    or duplicate (user, movie) key -- raises :class:`ParseError` naming the
    line and column.

    Users with fewer than ``config.min_ratings_per_user`` ratings are dropped
    and counted. Raises :class:`EmptyDatasetError` if no user survives.
    """
    path = Path(path)
    by_user: dict[int, dict[int, int]] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for lineno, raw in enumerate(handle, start=1):
            row = raw.rstrip("\r\n")
            if not row:
                continue
            fields = row.split(",")
            if len(fields) != 3:
                raise ParseError(lineno, 1, f"expected 3 fields, got {len(fields)}")
            try:
                user_id, movie_id = int(fields[0]), int(fields[1])
            except ValueError:
                raise ParseError(lineno, 1, f"non-integer id in {row!r}") from None
            if user_id < 1 or movie_id < 1:
                raise ParseError(lineno, 1, f"ids must be positive in {row!r}")
            category = _parse_category(fields[2], config.format, lineno)
            ratings = by_user.setdefault(user_id, {})
            if movie_id in ratings:
                raise ParseError(
                    lineno, 2, f"duplicate rating for user {user_id}, movie {movie_id}"
                )
            ratings[movie_id] = category

    profiles = []
    dropped = 0
    for user_id in sorted(by_user):
        ratings = by_user[user_id]
        if len(ratings) < config.min_ratings_per_user:
            dropped += 1
            continue
        profiles.append(UserProfile(user_id, ratings))

    dataset = Dataset.from_profiles(profiles)
    if not dataset.users:
        raise EmptyDatasetError(
            f"{path}: no user passed the {config.min_ratings_per_user}-rating minimum"
        )
    report = LoadReport(
        users_kept=len(dataset.users),
        users_dropped=dropped,
        movies=len(dataset.movie_ids),
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
    then mandatory so the split is reproducible.
    """
    ids = np.array(dataset.user_ids, dtype=np.int64)
    if pool_id_threshold is not None:
        pool_ids = [int(u) for u in ids if u > pool_id_threshold]
        antigen_ids = [int(u) for u in ids if u <= pool_id_threshold]
    else:
        if not 0.0 < split_fraction < 1.0:
            raise ValueError("split_fraction must lie strictly between 0 and 1")
        if split_seed is None:
            raise ValueError("split_seed is required when pool_id_threshold is unset")
        rng = np.random.default_rng(split_seed)
        shuffled = rng.permutation(ids)
        k = int(round(split_fraction * len(ids)))
        pool_ids = sorted(int(u) for u in shuffled[:k])
        antigen_ids = sorted(int(u) for u in shuffled[k:])

    if not pool_ids or not antigen_ids:
        log.warning(
            "partition produced an empty side (pool=%d, antigens=%d)",
            len(pool_ids),
            len(antigen_ids),
        )
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
            raise ValueError("num_users and num_movies must be >= 1")
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        if not 1 <= low <= high <= self.num_movies:
            raise ValueError("ratings_per_user range must satisfy 1 <= low <= high <= num_movies")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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
