"""Experiment harness: hidden-rating accuracy, tie loss, and paired tests.

Accuracy protocol: for each test user, hide one rating, rebuild the
neighbourhood from scratch with the remaining information, predict the
hidden movie, and repeat over a seeded sample of distinct movies. Per-user

    accuracy = 1 - mean(|prediction - actual|)

on the 0-1 rating scale, so being off by exactly one category for every
trial scores 0.8.

Seed discipline: every random choice derives from the master seed plus
stable integers (user id, trial index) via ``numpy.random.SeedSequence``, so
per-user work is order- and schedule-independent and identical across
measures. That makes two runs with different measures a true paired design.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
import os
import statistics
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .affinity import AffinityMeasure, PoolAffinities, tie_ignored_fraction
from .domain import Dataset, UserProfile, mean_rating
from .errors import (
    InsufficientAntigensError,
    InsufficientOverlapError,
    InsufficientRatingsError,
    SampleMismatchError,
)
from .immune_network import ImmuneParams, run_trials, warn_shortfall
from .recommender import predict_rating

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AccuracyRow:
    user_id: int
    num_ratings: int
    accuracy: float
    fallback_trials: int


@dataclass(frozen=True)
class TieRow:
    user_id: int
    num_ratings: int
    tie_fraction: float
    pairs_skipped: int


ROW_TYPES = {"accuracy": AccuracyRow, "ties": TieRow}


@dataclass(frozen=True)
class ExperimentReport:
    """Per-user rows plus aggregates.

    The row class of ``kind`` describes the whole layout: its field names
    are the CSV header and the printed labels, the third field is the
    reported metric, and ``csv`` writes floats with ``repr``.
    """

    kind: str                  # a key of ROW_TYPES
    measure: str
    rows: tuple
    seed: int
    params: ImmuneParams | None

    @property
    def row_fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(ROW_TYPES[self.kind]))

    @property
    def median(self) -> float:
        return float(statistics.median(getattr(row, self.row_fields[2]) for row in self.rows))

    @property
    def mean(self) -> float:
        return float(statistics.fmean(getattr(row, self.row_fields[2]) for row in self.rows))

    def summary(self) -> dict:
        """Everything except the rows: the CSV sidecar and the JSON top level."""
        return {
            "kind": self.kind,
            "measure": self.measure,
            "seed": self.seed,
            "median": self.median,
            "mean": self.mean,
            "params": asdict(self.params) if self.params is not None else None,
        }

    def to_dict(self) -> dict:
        return self.summary() | {"rows": [asdict(row) for row in self.rows]}

    def to_csv_text(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.row_fields)
        writer.writerows(astuple(row) for row in self.rows)
        return buffer.getvalue()


def select_trial_movies(profile: UserProfile, trials: int, seed: int) -> list[int]:
    """The seeded hidden-movie sample for one user: distinct, without replacement.

    Depends only on (seed, user_id), never on the measure, so different
    measures evaluated under one master seed hide identical movies.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, profile.user_id]))
    picked = rng.choice(sorted(profile.categories), size=trials, replace=False)
    return [int(m) for m in picked]


def _sample(ids: list[int], k: int, entropy: list[int]) -> list[int]:
    """``k`` of ``ids`` drawn without replacement under ``SeedSequence(entropy)``, ascending."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return sorted(rng.choice(np.asarray(ids, dtype=np.int64), size=k, replace=False).tolist())


def _trial_seed(seed: int, user_id: int, trial_index: int) -> int:
    return int(np.random.SeedSequence([seed, user_id, trial_index]).generate_state(1)[0])


def user_accuracy(
    antigen: UserProfile,
    pool: PoolAffinities,
    params: ImmuneParams,
    trials: int = 20,
    seed: int = 0,
) -> AccuracyRow:
    """Hidden-rating accuracy for one user over ``trials`` leave-one-out runs.

    Each trial removes a single rating, runs the full immune-network pipeline
    on the reduced profile (the user's own pool entry is never eligible, so
    the hidden rating is invisible everywhere), and scores the prediction.
    Fallback predictions count toward the average but are tallied in
    ``fallback_trials`` so their influence stays auditable. One warning
    counts the trials that hit the iteration cap or went extinct, if any.

    Raises :class:`InsufficientRatingsError` unless the user rated strictly
    more than ``trials`` movies.
    """
    row, warning = _accuracy_row(antigen, pool, params, trials, seed)
    if warning:
        log.warning(warning)
    return row


def _accuracy_row(
    antigen: UserProfile, pool: PoolAffinities, params: ImmuneParams, trials: int, seed: int
) -> tuple[AccuracyRow, str | None]:
    if len(antigen) <= trials:
        raise InsufficientRatingsError(
            f"user {antigen.user_id} rated {len(antigen)} movies, need more than {trials}"
        )
    hidden_movies = select_trial_movies(antigen, trials, seed)
    variants = [antigen.without_movie(movie_id) for movie_id in hidden_movies]
    seeds = [_trial_seed(seed, antigen.user_id, t) for t in range(trials)]
    finals = run_trials(variants, pool, params, seeds)
    extinct = sum(not len(final.rows) for final in finals)
    capped = sum(not final.converged for final in finals) - extinct
    warning = (
        f"user {antigen.user_id} ({pool.measure.kind.value}): {capped} of {trials} trials "
        f"stopped at the {params.max_iterations}-iteration cap, {extinct} went extinct"
        if capped or extinct else None
    )

    total_error = 0.0
    fallbacks = 0
    extinct_value = None
    for movie_id, final in zip(hidden_movies, finals):
        actual = antigen.rating(movie_id)
        if len(final.rows):
            prediction = predict_rating(final, movie_id)
            value = prediction.value
            fallbacks += int(prediction.fallback)
        else:
            # Extinct population (exhausted pool): fall back to the mean of the
            # eligible candidates, not the antigen's own pool entry; once per user.
            if extinct_value is None:
                others = (u for u in pool.user_ids.tolist() if u != antigen.user_id)
                extinct_value = mean_rating(pool.users[u] for u in others)
            value = extinct_value
            fallbacks += 1
        total_error += abs(value - actual)
    return AccuracyRow(
        user_id=antigen.user_id,
        num_ratings=len(antigen),
        accuracy=1.0 - total_error / trials,
        fallback_trials=fallbacks,
    ), warning


def _eligible_antigens(antigens: Dataset, trials: int) -> list[int]:
    # counted from the rating columns, so that a loaded file builds no profile
    counts = antigens.rating_columns[0].tolist()
    return [uid for uid, count in zip(antigens.user_ids, counts) if count > trials]


def accuracy_experiment(
    antigens: Dataset,
    pool: Dataset,
    measure: AffinityMeasure,
    params: ImmuneParams,
    users: int,
    trials: int,
    seed: int,
    *,
    jobs: int = 1,
) -> ExperimentReport:
    """Hidden-rating accuracy over a seeded sample of eligible test users.

    Eligible users rated more than ``trials`` movies. The pool's affinities
    are precomputed once, before any trial, remapped as ``params`` asks, and
    every run indexes them; a pool too small for the population is reported
    once, not once per run. At most ``jobs`` worker processes run, and never
    more than there are sampled users or CPUs. Neither rows nor warnings depend on ``jobs``:
    trials seed themselves from (seed, user id, trial index); this process logs, in sample order.

    Raises :class:`InsufficientAntigensError` when the sample cannot be drawn.
    """
    eligible = _eligible_antigens(antigens, trials)
    if len(eligible) < users:
        raise InsufficientAntigensError(
            f"need {users} users with more than {trials} ratings, found {len(eligible)}"
        )
    sample = _sample(eligible, users, [seed])
    profiles = [antigens.users[uid] for uid in sample]
    affinities = PoolAffinities.precomputed(pool, measure, params.remap_negative)
    warn_shortfall(affinities, sample, params)

    # with the fork start method every worker starts at the first submit
    workers = min(jobs, len(profiles), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which one process never needs
        from concurrent.futures import ProcessPoolExecutor

        run = functools.partial(
            _accuracy_row, pool=affinities, params=params, trials=trials, seed=seed
        )
        # one chunk per worker, so each worker unpickles the pool's affinities once
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(run, profiles, chunksize=-(-len(profiles) // workers)))
        rows, warnings = zip(*results)
        for warning in filter(None, warnings):
            log.warning(warning)
    else:
        rows = [user_accuracy(antigen, affinities, params, trials, seed) for antigen in profiles]

    return ExperimentReport(
        kind="accuracy",
        measure=measure.kind.value,
        rows=tuple(rows),
        seed=seed,
        params=params,
    )


def ties_experiment(
    dataset: Dataset,
    users: int,
    sample_pairs_per_user: int,
    seed: int,
) -> ExperimentReport:
    """Average fraction of rank information lost to ties, per sampled user.

    A seeded sample of ``users`` users is drawn, or every user when the
    dataset holds no more than ``users``. For each, a seeded sample of its peers in the
    dataset is drawn and the ignored-pair fraction of each comparable pair
    (2+ common movies) is averaged; pairs without enough overlap are skipped
    and counted. Users with no comparable peer at all are dropped with a
    diagnostic.

    Raises :class:`InsufficientAntigensError` when no user is left.
    """
    all_ids = dataset.user_ids
    sample = _sample(all_ids, users, [seed]) if users < len(all_ids) else all_ids
    rows: list[TieRow] = []
    for user_id in sample:
        profile = dataset.users[user_id]
        candidates = [uid for uid in all_ids if uid != user_id]
        if not candidates:
            log.warning("user %d: no peers available, skipped", user_id)
            continue
        k = min(sample_pairs_per_user, len(candidates))
        fractions = []
        skipped = 0
        for peer_id in _sample(candidates, k, [seed, user_id]):
            try:
                fractions.append(tie_ignored_fraction(profile, dataset.users[peer_id]))
            except InsufficientOverlapError:
                skipped += 1
        if not fractions:
            log.warning(
                "user %d: none of %d sampled peers shared 2+ movies, skipped", user_id, k
            )
            continue
        rows.append(
            TieRow(
                user_id=user_id,
                num_ratings=len(profile),
                tie_fraction=float(statistics.fmean(fractions)),
                pairs_skipped=skipped,
            )
        )
    if not rows:
        raise InsufficientAntigensError("no sampled user had a peer with 2 or more common movies")
    return ExperimentReport(
        kind="ties",
        measure="kt",
        rows=tuple(rows),
        seed=seed,
        params=None,
    )


@dataclass(frozen=True)
class PairedComparison:
    """Paired t summary of two accuracy reports on identical trials.

    ``t_statistic`` is None when the differences have zero variance (the
    statistic is undefined there); judging significance is left to the
    reader.
    """

    n: int
    differences: tuple[float, ...]
    mean_difference: float
    sd_difference: float
    t_statistic: float | None
    degrees_of_freedom: int


def paired_comparison(a: ExperimentReport, b: ExperimentReport) -> PairedComparison:
    """Per-user differences and the paired t statistic for two reports.

    Both reports must come from the same seed and cover the same users in
    the same order (which the seed discipline guarantees); otherwise
    :class:`SampleMismatchError` is raised.
    """
    if a.kind != "accuracy" or b.kind != "accuracy":
        raise SampleMismatchError("paired comparison needs two accuracy reports")
    if a.seed != b.seed:
        raise SampleMismatchError(f"seeds differ: {a.seed} vs {b.seed}")
    ids_a = [row.user_id for row in a.rows]
    ids_b = [row.user_id for row in b.rows]
    if ids_a != ids_b:
        raise SampleMismatchError("user samples differ between the two reports")
    if not ids_a:
        raise SampleMismatchError("reports contain no rows")

    diffs = tuple(ra.accuracy - rb.accuracy for ra, rb in zip(a.rows, b.rows))
    n = len(diffs)
    mean_diff = float(statistics.fmean(diffs))
    sd = float(statistics.stdev(diffs)) if n >= 2 else 0.0
    if n < 2 or sd == 0.0:
        t_stat = None
    else:
        t_stat = mean_diff / (sd / math.sqrt(n))
    return PairedComparison(
        n=n,
        differences=diffs,
        mean_difference=mean_diff,
        sd_difference=sd,
        t_statistic=t_stat,
        degrees_of_freedom=n - 1,
    )
