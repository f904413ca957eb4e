import math
import statistics

import numpy as np
import pytest

from immunorec import (
    AffinityKind,
    AffinityMeasure,
    Dataset,
    ExperimentReport,
    ImmuneParams,
    IngestConfig,
    PoolAffinities,
    UserProfile,
    accuracy_experiment,
    load_ratings,
    paired_comparison,
    save_ratings,
    ties_experiment,
    user_accuracy,
)
from immunorec import affinity as affinity_module
from immunorec import evaluation
from immunorec.domain import mean_rating
from immunorec.evaluation import (
    AccuracyRow,
    TieRow,
    select_trial_movies,
)
from immunorec.errors import (
    ImmunorecError,
    InsufficientAntigensError,
    InsufficientRatingsError,
    SampleMismatchError,
)
from immunorec.immune_network import init_population

WK = AffinityMeasure(AffinityKind.WEIGHTED_KAPPA)
KT = AffinityMeasure(AffinityKind.KENDALLS_TAU)
PEARSON = AffinityMeasure(AffinityKind.PEARSON)

# Small and fast: population covers the whole pool, convergence in ten steps.
FAST_PARAMS = ImmuneParams(population_size=30)

# Remapped affinities and a 50-step stability window: runs prune and refill.
CHURN_PARAMS = ImmuneParams(population_size=20, stability_window=50, remap_negative=True)


def _uniform_pool(num_users, movies, category):
    """Users who all rated the same movies with one fixed category."""
    return Dataset.from_profiles(
        [UserProfile(uid, {m: category for m in movies}) for uid in num_users]
    )


class TestUserAccuracy:
    def test_exact_predictions_score_one(self):
        movies = range(1, 26)
        antigen = UserProfile(500, {m: 4 for m in movies})
        pool = _uniform_pool(range(1, 31), movies, 4)
        row = user_accuracy(antigen, PoolAffinities(pool, WK), FAST_PARAMS, trials=20, seed=3)
        assert row.accuracy == pytest.approx(1.0, abs=1e-12)
        assert row.fallback_trials == 0
        assert row.num_ratings == 25

    def test_one_category_off_scores_point_eight(self):
        movies = range(1, 26)
        antigen = UserProfile(500, {m: 4 for m in movies})
        pool = _uniform_pool(range(1, 31), movies, 5)
        row = user_accuracy(antigen, PoolAffinities(pool, WK), FAST_PARAMS, trials=20, seed=3)
        assert row.accuracy == pytest.approx(0.8, abs=1e-12)

    def test_full_scale_error_scores_zero(self):
        movies = range(1, 26)
        antigen = UserProfile(500, {m: 1 for m in movies})
        pool = _uniform_pool(range(1, 31), movies, 6)
        row = user_accuracy(antigen, PoolAffinities(pool, WK), FAST_PARAMS, trials=20, seed=3)
        assert row.accuracy == pytest.approx(0.0, abs=1e-12)

    def test_requires_more_ratings_than_trials(self):
        antigen = UserProfile(500, {m: 4 for m in range(1, 21)})
        pool = _uniform_pool(range(1, 5), range(1, 21), 4)
        with pytest.raises(InsufficientRatingsError):
            user_accuracy(antigen, PoolAffinities(pool, WK), FAST_PARAMS, trials=20, seed=3)

    def test_hidden_movies_are_distinct_and_seeded(self):
        antigen = UserProfile(500, {m: 4 for m in range(1, 40)})
        first = select_trial_movies(antigen, 20, seed=9)
        second = select_trial_movies(antigen, 20, seed=9)
        other = select_trial_movies(antigen, 20, seed=10)
        assert first == second
        assert len(set(first)) == 20
        assert first != other

    def test_trial_selection_independent_of_measure(self):
        # the sample depends only on (seed, user); measures pair trial-for-trial
        antigen = UserProfile(500, {m: 4 for m in range(1, 40)})
        assert select_trial_movies(antigen, 10, seed=4) == select_trial_movies(antigen, 10, seed=4)

    def test_hidden_rating_invisible_to_network(self):
        # the antigen's own pool entry is never eligible, and the profile the
        # network sees lacks the hidden movie
        movies = {m: 4 for m in range(1, 30)}
        antigen = UserProfile(7, movies)
        pool = Dataset.from_profiles(
            [antigen] + [UserProfile(uid, {m: 4 for m in range(1, 30)}) for uid in range(8, 20)]
        )
        state = init_population(antigen, PoolAffinities(pool, WK), FAST_PARAMS, seed=1)
        assert 7 not in state.member_ids
        assert 7 not in state.pool.user_ids[state.pool_remaining]
        reduced = antigen.without_movie(5)
        assert 5 not in reduced

    def test_extinct_fallback_skips_own_pool_entry(self):
        # no overlap anywhere: every member decays below the threshold, the
        # pool runs dry and each trial falls back to a mean rating, which
        # must not include the antigen's own (full) profile
        antigen = UserProfile(1, {m: 6 for m in range(1, 6)})
        others = [
            UserProfile(uid, {10 * uid + k: 1 for k in range(3)}) for uid in range(2, 5)
        ]
        pool = Dataset.from_profiles([antigen, *others])
        params = ImmuneParams(population_size=3, max_iterations=60, stability_window=100)
        measure = AffinityMeasure(AffinityKind.WEIGHTED_KAPPA, min_overlap=1)
        row = user_accuracy(antigen, PoolAffinities(pool, measure), params, trials=2, seed=0)
        assert row.fallback_trials == 2
        assert row.accuracy == 0.0

    def test_extinct_fallback_on_demand_over_loaded_ratings(self, tmp_path):
        # the fallback reads every pool profile, none of which the run built
        antigen = UserProfile(1, {m: 6 for m in range(1, 6)})
        others = [
            UserProfile(uid, {10 * uid + k: 1 + (uid + k) % 6 for k in range(3)})
            for uid in range(2, 5)
        ]
        built = Dataset.from_profiles([antigen, *others])
        path = tmp_path / "ratings.csv"
        save_ratings(built, path)
        loaded, _ = load_ratings(path, IngestConfig(min_ratings_per_user=1))
        params = ImmuneParams(population_size=3, max_iterations=60, stability_window=100)
        measure = AffinityMeasure(AffinityKind.WEIGHTED_KAPPA, min_overlap=1)
        rows = [
            user_accuracy(antigen, PoolAffinities(pool, measure), params, trials=2, seed=0)
            for pool in (built, loaded)
        ]
        assert rows[1].fallback_trials == 2
        assert rows[1] == rows[0]


class TestAccuracyExperiment:
    def _clustered(self):
        rng = np.random.default_rng(55)
        profiles = []
        for uid in range(1, 41):
            cluster_high = uid % 2 == 0
            picks = rng.choice(30, size=12, replace=False) + 1
            profiles.append(
                UserProfile(
                    uid,
                    {int(m): (5 if cluster_high else 2) for m in picks},
                )
            )
        return Dataset.from_profiles(profiles)

    def test_deterministic_reports(self):
        data = self._clustered()
        kwargs = dict(users=5, trials=5, seed=21)
        one = accuracy_experiment(data, data, WK, FAST_PARAMS, **kwargs)
        two = accuracy_experiment(data, data, WK, FAST_PARAMS, **kwargs)
        assert one == two
        assert one.to_dict() == two.to_dict()
        assert one.to_csv_text() == two.to_csv_text()

    def test_single_user_median(self):
        data = self._clustered()
        report = accuracy_experiment(data, data, WK, FAST_PARAMS, users=1, trials=5, seed=2)
        assert len(report.rows) == 1
        assert report.median == report.rows[0].accuracy

    def test_aggregates_recomputable_from_rows(self):
        data = self._clustered()
        report = accuracy_experiment(data, data, WK, FAST_PARAMS, users=6, trials=5, seed=2)
        values = [row.accuracy for row in report.rows]
        assert report.median == statistics.median(values)
        assert report.mean == pytest.approx(statistics.fmean(values), abs=1e-15)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_insufficient_antigens(self):
        data = self._clustered()
        with pytest.raises(InsufficientAntigensError):
            accuracy_experiment(data, data, WK, FAST_PARAMS, users=500, trials=5, seed=2)
        with pytest.raises(InsufficientAntigensError):
            # nobody rated more than 20 movies
            accuracy_experiment(data, data, WK, FAST_PARAMS, users=1, trials=20, seed=2)

    def _varied(self):
        """40 users rating 12 of 30 movies in any category."""
        rng = np.random.default_rng(56)
        return Dataset.from_profiles(
            UserProfile(uid, {
                int(m): int(rng.integers(1, 7)) for m in rng.choice(30, size=12, replace=False) + 1
            })
            for uid in range(1, 41)
        )

    def test_parallel_equals_serial(self):
        # WK on the clustered set, then KT and Pearson under churn, so that
        # the workers prune and refill
        kwargs = dict(users=4, trials=3, seed=8)
        for data, measure, params in [
            (self._clustered(), WK, FAST_PARAMS),
            (self._varied(), KT, CHURN_PARAMS),
            (self._varied(), PEARSON, CHURN_PARAMS),
        ]:
            serial = accuracy_experiment(data, data, measure, params, **kwargs, jobs=1)
            parallel = accuracy_experiment(data, data, measure, params, **kwargs, jobs=2)
            assert serial == parallel

    def test_parallel_equals_serial_on_a_loaded_file(self, tmp_path):
        # a loaded pool reads its profiles from the loader's columns; users
        # 41 and 42 share no movie with anyone, so their runs go extinct and
        # every trial falls back to the mean of the other pool users, which
        # a worker reads from its unpickled pool
        isolated = [
            UserProfile(uid, {100 * uid + k: 1 + k % 6 for k in range(12)}) for uid in (41, 42)
        ]
        path = tmp_path / "ratings.csv"
        save_ratings(Dataset.from_profiles([*self._varied(), *isolated]), path)
        loaded, _ = load_ratings(path, IngestConfig(min_ratings_per_user=1))
        antigens = loaded.subset([3, 41, 42])
        kwargs = dict(users=3, trials=3, seed=8)
        serial = accuracy_experiment(antigens, loaded, KT, CHURN_PARAMS, **kwargs, jobs=1)
        parallel = accuracy_experiment(antigens, loaded, KT, CHURN_PARAMS, **kwargs, jobs=2)
        assert [row.fallback_trials for row in serial.rows[1:]] == [3, 3]
        assert serial == parallel

    @pytest.mark.parametrize("measure", [WK, KT, PEARSON], ids=["wk", "kt", "pearson"])
    def test_rows_equal_on_demand_runs(self, measure):
        # the experiment's precomputed pool against user_accuracy on blocks
        # computed per admission
        data = self._varied()
        report = accuracy_experiment(data, data, measure, CHURN_PARAMS, users=3, trials=3, seed=8)
        on_demand = PoolAffinities(data, measure, CHURN_PARAMS.remap_negative)
        assert report.rows == tuple(
            user_accuracy(data.users[row.user_id], on_demand, CHURN_PARAMS, trials=3, seed=8)
            for row in report.rows
        )

    @pytest.mark.parametrize("trials", [1, 5, 11])
    def test_one_antigen_kernel_call_per_user(self, monkeypatch, trials):
        # every trial's leave-one-out antigen against the precomputed pool in
        # one kernel call, while the runs prune and admit
        data = self._varied()
        pool = PoolAffinities.precomputed(data, KT, CHURN_PARAMS.remap_negative)
        calls = []
        kernel = affinity_module.category_affinity
        monkeypatch.setattr(
            affinity_module, "category_affinity",
            lambda measure, a, b: calls.append(len(a)) or kernel(measure, a, b),
        )
        user_accuracy(data.users[3], pool, CHURN_PARAMS, trials=trials, seed=8)
        assert calls == [trials]

    @pytest.mark.parametrize("cpus, users, workers", [(3, 4, 3), (8, 2, 2), (None, 4, None)])
    def test_jobs_bounded(self, monkeypatch, cpus, users, workers):
        # an in-process stand-in: no real worker process is ever started
        started = []

        class InlineExecutor:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(evaluation.os, "cpu_count", lambda: cpus)
        data = self._clustered()
        kwargs = dict(users=users, trials=3, seed=8)
        report = accuracy_experiment(data, data, WK, FAST_PARAMS, **kwargs, jobs=10**6)
        assert started == ([] if workers is None else [workers])
        assert report == accuracy_experiment(data, data, WK, FAST_PARAMS, **kwargs, jobs=1)

class TestTiesExperiment:
    def test_reference_pair_fraction(self, reference_pair):
        a, b = reference_pair
        sample = Dataset.from_profiles([a])
        peers = Dataset.from_profiles([a, b])
        report = ties_experiment(sample, peers, sample_pairs_per_user=5, seed=1)
        assert len(report.rows) == 1
        assert report.rows[0].tie_fraction == 13 / 28
        assert report.mean == 13 / 28

    def test_all_distinct_users_report_zero(self):
        profiles = [
            UserProfile(1, {1: 1, 2: 2, 3: 3, 4: 4}),
            UserProfile(2, {1: 4, 2: 3, 3: 2, 4: 1}),
            UserProfile(3, {1: 2, 2: 4, 3: 1, 4: 3}),
        ]
        data = Dataset.from_profiles(profiles)
        report = ties_experiment(data, data, sample_pairs_per_user=5, seed=1)
        assert all(row.tie_fraction == 0.0 for row in report.rows)
        assert report.mean == 0.0

    def test_seed_stability(self):
        rng = np.random.default_rng(4)
        profiles = [
            UserProfile(uid, {int(m): int(rng.integers(1, 7)) for m in rng.choice(20, 8, replace=False) + 1})
            for uid in range(1, 25)
        ]
        data = Dataset.from_profiles(profiles)
        one = ties_experiment(data, data, sample_pairs_per_user=6, seed=12)
        two = ties_experiment(data, data, sample_pairs_per_user=6, seed=12)
        assert one == two

    def test_short_overlap_pairs_counted(self):
        a = UserProfile(1, {1: 3, 2: 4, 3: 5})
        b = UserProfile(2, {1: 3, 2: 5, 3: 2})  # comparable with a
        c = UserProfile(3, {9: 3})              # never comparable
        data = Dataset.from_profiles([a, b, c])
        report = ties_experiment(data.subset([1]), data, sample_pairs_per_user=5, seed=2)
        assert report.rows[0].pairs_skipped == 1


class TestPairedComparison:
    def _report(self, accuracies, seed=5, measure="wk"):
        rows = tuple(
            AccuracyRow(user_id=i + 1, num_ratings=30, accuracy=a, fallback_trials=0)
            for i, a in enumerate(accuracies)
        )
        return ExperimentReport(
            kind="accuracy",
            measure=measure,
            rows=rows,
            seed=seed,
            params=ImmuneParams(),
        )

    def test_identical_reports_are_degenerate(self):
        report = self._report([0.8, 0.7, 0.9])
        result = paired_comparison(report, report)
        assert result.mean_difference == 0.0
        assert result.t_statistic is None

    def test_constant_differences_flagged(self):
        # every per-user difference is the identical +0.1, so the sd is exactly 0
        a = self._report([0.8, 0.8, 0.8, 0.8])
        b = self._report([0.7, 0.7, 0.7, 0.7], measure="kt")
        result = paired_comparison(a, b)
        assert result.mean_difference == pytest.approx(0.1, abs=1e-12)
        assert result.sd_difference == 0.0
        assert result.t_statistic is None
        assert result.degrees_of_freedom == 3

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(31)
        accs_a = rng.uniform(0.5, 1.0, size=40).tolist()
        accs_b = rng.uniform(0.5, 1.0, size=40).tolist()
        result = paired_comparison(self._report(accs_a), self._report(accs_b, measure="kt"))
        diffs = [x - y for x, y in zip(accs_a, accs_b)]
        mean = sum(diffs) / len(diffs)
        sd = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1))
        expected_t = mean / (sd / math.sqrt(len(diffs)))
        assert result.t_statistic == pytest.approx(expected_t, abs=1e-9)
        assert result.mean_difference == pytest.approx(mean, abs=1e-12)
        assert result.degrees_of_freedom == 39

    def test_seed_mismatch_rejected(self):
        a = self._report([0.8, 0.7], seed=5)
        b = self._report([0.8, 0.7], seed=6)
        with pytest.raises(SampleMismatchError):
            paired_comparison(a, b)

    def test_user_mismatch_rejected(self):
        a = self._report([0.8, 0.7, 0.6])
        b = self._report([0.8, 0.7])
        with pytest.raises(SampleMismatchError):
            paired_comparison(a, b)


class TestReportSerialization:
    def test_csv_layout(self):
        report = ExperimentReport(
            kind="accuracy",
            measure="wk",
            rows=(AccuracyRow(user_id=3, num_ratings=25, accuracy=0.75, fallback_trials=1),),
            seed=9,
            params=ImmuneParams(),
        )
        text = report.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "user_id,num_ratings,accuracy,fallback_trials"
        assert lines[1] == "3,25,0.75,1"

        ties = ExperimentReport(
            kind="ties",
            measure="kt",
            rows=(TieRow(user_id=4, num_ratings=30, tie_fraction=0.1 + 0.2, pairs_skipped=2),),
            seed=9,
            params=None,
        )
        assert ties.to_csv_text() == (
            "user_id,num_ratings,tie_fraction,pairs_skipped\n4,30,0.30000000000000004,2\n"
        )

    def test_json_embeds_params(self):
        report = ExperimentReport(
            kind="accuracy",
            measure="wk",
            rows=(AccuracyRow(user_id=3, num_ratings=25, accuracy=0.75, fallback_trials=0),),
            seed=9,
            params=ImmuneParams(),
        )
        payload = report.to_dict()
        assert payload["params"]["population_size"] == 100
        assert payload["seed"] == 9
        assert payload["rows"][0]["user_id"] == 3


def test_pool_mean_rating():
    pool = Dataset.from_profiles(
        [UserProfile(1, {1: 1, 2: 6}), UserProfile(2, {1: 4})]
    )
    assert mean_rating(pool) == pytest.approx((0.0 + 1.0 + 0.6) / 3, abs=1e-12)
    with pytest.raises(ImmunorecError):
        mean_rating(Dataset.from_profiles([]))
