"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The expensive end-to-end experiments (criteria 8 and 9) run once on the
standard synthetic dataset and are shared across assertions. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from immunorec import (
    AffinityKind,
    AffinityMeasure,
    Dataset,
    ImmuneParams,
    PoolAffinities,
    UserProfile,
    accuracy_experiment,
    build_frequency_table,
    kendalls_tau,
    run_to_convergence,
    tie_ignored_fraction,
    ties_experiment,
    user_accuracy,
    weighted_kappa,
)
from immunorec.cli import main
from immunorec.domain import mean_rating
from immunorec.evaluation import select_trial_movies
from immunorec.immune_network import concentration_step
from test_immune_network import _bare_state

WK = AffinityMeasure(AffinityKind.WEIGHTED_KAPPA)
KT = AffinityMeasure(AffinityKind.KENDALLS_TAU)

EXPERIMENT_SEED = 7
EXPERIMENT_USERS = 50
EXPERIMENT_TRIALS = 20


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def experiment_bundle(standard_dataset):
    """WK and KT accuracy reports plus the ties report, timed as one block."""
    data = standard_dataset
    started = time.perf_counter()
    wk_report = accuracy_experiment(
        data, data, WK, ImmuneParams(),
        users=EXPERIMENT_USERS, trials=EXPERIMENT_TRIALS, seed=EXPERIMENT_SEED,
    )
    # raw negative tau flips the suppression term into amplification, so the
    # tau arm runs with the affine [0,1] remap enabled
    kt_report = accuracy_experiment(
        data, data, KT, ImmuneParams(remap_negative=True),
        users=EXPERIMENT_USERS, trials=EXPERIMENT_TRIALS, seed=EXPERIMENT_SEED,
    )
    ties_report = ties_experiment(data, EXPERIMENT_USERS, 30, EXPERIMENT_SEED)
    elapsed = time.perf_counter() - started
    return wk_report, kt_report, ties_report, elapsed


def test_criterion_01_golden_weighted_kappa(reference_pair):
    value = weighted_kappa(*reference_pair)
    ok = abs(value - 0.725) <= 1e-12
    _line(1, ok, f"weighted kappa on the reference pair = {value!r} (expected 0.725)")


def test_criterion_02_golden_frequency_table(reference_pair):
    table = build_frequency_table(*reference_pair)
    expected = {(4, 5): 2, (5, 5): 1, (3, 1): 1, (6, 3): 1, (6, 4): 1, (6, 5): 2}
    cells_ok = all(table.counts[r - 1, c - 1] == n for (r, c), n in expected.items())
    zeros_ok = int(table.counts.sum()) == 8 and table.observations == 8
    _line(2, cells_ok and zeros_ok,
          "frequency table matches the six nonzero reference cells, total 8")


def test_criterion_03_golden_kendalls_tau(reference_pair):
    a, b = reference_pair
    result = kendalls_tau(a, b)
    counts_ok = (result.concordant, result.discordant) == (9, 6)
    tau_ok = abs(result.tau - Fraction(3, 28)) <= 1e-12

    # the seven documented pairwise decisions, three of them ignored ("n/a")
    decisions = {
        (153, 253): "concordant",
        (153, 296): "discordant",
        (153, 349): "ignored",
        (153, 355): "concordant",
        (153, 457): "ignored",
        (153, 553): "discordant",
        (153, 595): "ignored",
    }
    rows_ok = True
    for movies, expected in decisions.items():
        sub = kendalls_tau(
            UserProfile(1, {m: a.categories[m] for m in movies}),
            UserProfile(2, {m: b.categories[m] for m in movies}),
        )
        got = {"concordant": sub.concordant, "discordant": sub.discordant, "ignored": sub.ignored}
        rows_ok = rows_ok and got[expected] == 1 and sum(got.values()) == 1
    _line(3, counts_ok and tau_ok and rows_ok,
          f"C={result.concordant}, D={result.discordant}, tau={result.tau!r} "
          "(expected 9, 6, 3/28) and all seven documented pair decisions")


def test_criterion_04_tie_loss_arithmetic(reference_pair):
    fraction = tie_ignored_fraction(*reference_pair)
    ok = fraction == 13 / 28
    _line(4, ok, f"ignored fraction on the reference pair = {fraction!r} (expected 13/28)")


def test_criterion_05_decay_law():
    state = _bare_state([0.0], [[0.0]], [1.0])
    params = ImmuneParams()
    worst = 0.0
    for t in range(1, 51):
        concentration_step(state, params)
        worst = max(worst, abs(state.concentrations[0] - 0.9**t))
    ok = worst <= 1e-12
    _line(5, ok, f"zero-affinity concentration follows 0.9^t for t <= 50 "
                 f"(worst deviation {worst:.2e})")


def test_criterion_06_metric_calibration():
    movies = range(1, 26)
    antigen = UserProfile(500, {m: 4 for m in movies})
    pool = Dataset.from_profiles(
        [UserProfile(uid, {m: 5 for m in movies}) for uid in range(1, 31)]
    )
    row = user_accuracy(antigen, PoolAffinities(pool, WK), ImmuneParams(population_size=30),
                        trials=20, seed=3)
    ok = abs(row.accuracy - 0.8) <= 1e-12
    _line(6, ok, f"twenty one-category misses score accuracy {row.accuracy!r} (expected 0.800)")


def test_criterion_07_oracle_equivalence():
    def random_pair(seed, min_common):
        rng = np.random.default_rng(seed)
        while True:
            movies_a = rng.choice(60, size=rng.integers(min_common, 40), replace=False) + 1
            movies_b = rng.choice(60, size=rng.integers(min_common, 40), replace=False) + 1
            if len(set(movies_a) & set(movies_b)) >= min_common:
                break
        return (
            UserProfile(1, {int(m): int(rng.integers(1, 7)) for m in movies_a}),
            UserProfile(2, {int(m): int(rng.integers(1, 7)) for m in movies_b}),
        )

    wk_ok = kt_ok = True
    for seed in range(200):
        a, b = random_pair(seed, min_common=2)

        # WK oracle: per-movie rational sum, no frequency table involved
        common = sorted(set(a.categories) & set(b.categories))
        total = sum(
            (1 - Fraction(abs(a.categories[m] - b.categories[m]), 5) for m in common),
            Fraction(0),
        )
        wk_ok = wk_ok and weighted_kappa(a, b) == float(total / len(common))

        # KT oracle: O(n^2) pure-Python pair enumeration from scratch
        concordant = discordant = ignored = 0
        for i in range(len(common)):
            for j in range(i + 1, len(common)):
                da = a.categories[common[j]] - a.categories[common[i]]
                db = b.categories[common[j]] - b.categories[common[i]]
                if da == 0 and db == 0:
                    concordant += 1
                elif da == 0 or db == 0:
                    ignored += 1
                elif (da > 0) == (db > 0):
                    concordant += 1
                else:
                    discordant += 1
        result = kendalls_tau(a, b)
        n = len(common)
        kt_ok = kt_ok and (
            (result.concordant, result.discordant, result.ignored)
            == (concordant, discordant, ignored)
            and result.tau == 2 * (concordant - discordant) / (n * (n - 1))
        )
    _line(7, wk_ok and kt_ok,
          "WK and KT match their brute-force oracles exactly on 200 seeded pairs")


def test_criterion_08_desk_scale_substitutes(standard_dataset, experiment_bundle):
    wk_report, kt_report, ties_report, elapsed = experiment_bundle

    # (a) WK-driven recommender vs the global-mean predictor on the same trials
    pool_mean = mean_rating(standard_dataset)
    baseline = []
    for row in wk_report.rows:
        profile = standard_dataset.users[row.user_id]
        hidden = select_trial_movies(profile, EXPERIMENT_TRIALS, EXPERIMENT_SEED)
        errors = [abs(pool_mean - profile.rating(m)) for m in hidden]
        baseline.append(1 - sum(errors) / len(errors))
    baseline_median = statistics.median(baseline)
    margin = wk_report.median - baseline_median
    gap = abs(wk_report.median - kt_report.median)

    ok_a = margin >= 0.02
    ok_b = gap < 0.05
    ok_c = ties_report.mean > 0.0
    ok_time = elapsed < 600.0
    _line(
        8,
        ok_a and ok_b and ok_c and ok_time,
        f"(a) WK median {wk_report.median:.4f} beats baseline {baseline_median:.4f} "
        f"by {margin:.4f} >= 0.02; (b) |WK-KT| = {gap:.4f} < 0.05; "
        f"(c) mean ignored fraction {ties_report.mean:.4f} > 0; "
        f"block took {elapsed:.0f}s < 600s "
        "(the original corpus aggregates themselves are unreproducible: dataset discontinued)",
    )


def test_criterion_09_convergence_behavior(standard_dataset):
    converged = 0
    worst = 0.0
    for i in range(20):
        antigen = standard_dataset.users[standard_dataset.user_ids[i]]
        started = time.perf_counter()
        final = run_to_convergence(
            antigen, PoolAffinities(standard_dataset, WK), ImmuneParams(), seed=1000 + i
        )
        worst = max(worst, time.perf_counter() - started)
        converged += int(final.converged)
    ok = converged >= 18 and worst < 5.0
    _line(9, ok, f"{converged}/20 seeded runs converged "
                 f"(need >= 18), slowest single run {worst:.2f}s < 5s at pool 500")


def test_criterion_10_byte_identical_reruns(tmp_path):
    gen_args = [
        "gen", "--users", "30", "--movies", "40", "--clusters", "2", "--noise", "0.1",
        "--ratings-min", "25", "--ratings-max", "30", "--seed", "42",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(gen_args + ["-o", str(first)]) == 0
    assert main(gen_args + ["-o", str(second)]) == 0
    gen_ok = (
        first.read_bytes() == second.read_bytes()
        and (tmp_path / "a.csv.meta.json").read_text() == (tmp_path / "b.csv.meta.json").read_text()
    )

    eval_args = [
        "eval", "accuracy", str(first), "--min-ratings", "1", "--users", "2",
        "--trials", "2", "--population", "15", "--seed", "5", "--report-format", "json",
    ]
    report_one, report_two = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(eval_args + ["-o", str(report_one)]) == 0
    assert main(eval_args + ["-o", str(report_two)]) == 0
    eval_ok = report_one.read_bytes() == report_two.read_bytes()

    rec_args = [
        "recommend", str(first), "--min-ratings", "1", "--user", "1",
        "--count", "5", "--seed", "9",
    ]
    rec_one, rec_two = tmp_path / "rec1.json", tmp_path / "rec2.json"
    assert main(rec_args + ["-o", str(rec_one)]) == 0
    assert main(rec_args + ["-o", str(rec_two)]) == 0
    rec_ok = rec_one.read_bytes() == rec_two.read_bytes()

    _line(10, gen_ok and eval_ok and rec_ok,
          "gen, eval accuracy, and recommend reruns are byte-identical per seed")
