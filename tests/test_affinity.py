import itertools
import math
import pickle
import types
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from immunorec import (
    AffinityKind,
    AffinityMeasure,
    Dataset,
    IngestConfig,
    PoolAffinities,
    UserProfile,
    build_frequency_table,
    kendalls_tau,
    load_ratings,
    pearson_baseline,
    tie_ignored_fraction,
    weighted_kappa,
)
from immunorec.affinity import (
    _POOL_CHUNK,
    PearsonResult,
    _exact_dtype,
    _tau_form_dtype,
    _terms_dtypes,
    _usable,
    affinity,
    category_affinity,
    category_matrix,
)
from immunorec.errors import ConfigError, InsufficientOverlapError

overlapping_profiles = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: _random_pair(seed, min_common=2)
)

# Categories drawn by Hypothesis itself, which favours repeated values: many
# pairs tied on one or both sides.
tied_profiles = st.lists(
    st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=2, max_size=15
).map(
    lambda cats: (
        UserProfile(1, {m: ca for m, (ca, _) in enumerate(cats, start=1)}),
        UserProfile(2, {m: cb for m, (_, cb) in enumerate(cats, start=1)}),
    )
)


def _random_pair(seed: int, min_common: int) -> tuple[UserProfile, UserProfile]:
    """A seeded profile pair guaranteed to share at least ``min_common`` movies."""
    rng = np.random.default_rng(seed)
    while True:
        movies_a = rng.choice(60, size=rng.integers(min_common, 40), replace=False) + 1
        movies_b = rng.choice(60, size=rng.integers(min_common, 40), replace=False) + 1
        if len(set(movies_a) & set(movies_b)) >= min_common:
            break
    a = UserProfile(1, {int(m): int(rng.integers(1, 7)) for m in movies_a})
    b = UserProfile(2, {int(m): int(rng.integers(1, 7)) for m in movies_b})
    return a, b


def oracle_weighted_kappa(a: UserProfile, b: UserProfile) -> float:
    """Per-movie brute force with exact rational arithmetic: no frequency table."""
    common = sorted(set(a.categories) & set(b.categories))
    total = Fraction(0)
    for movie in common:
        total += 1 - Fraction(abs(a.categories[movie] - b.categories[movie]), 5)
    return float(total / len(common))


def oracle_kendalls_tau(a: UserProfile, b: UserProfile) -> tuple[int, int, int]:
    """O(n^2) pure-Python re-derivation of (concordant, discordant, ignored)."""
    common = sorted(set(a.categories) & set(b.categories))
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
    return concordant, discordant, ignored


def oracle_pearson(a: UserProfile, b: UserProfile) -> float:
    """Two-pass mean/covariance on the 0-1 vectors."""
    common = sorted(set(a.categories) & set(b.categories))
    xs = [(a.categories[m] - 1) / 5 for m in common]
    ys = [(b.categories[m] - 1) / 5 for m in common]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / (vx * vy) ** 0.5


def exact_pearson(a: UserProfile, b: UserProfile) -> Decimal | None:
    """Pearson from the exact integer moments to 50 digits; None for a constant side."""
    common = sorted(set(a.categories) & set(b.categories))
    xs = [a.categories[m] for m in common]
    ys = [b.categories[m] for m in common]
    n = len(common)
    covariance = n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)
    variance_a = n * sum(x * x for x in xs) - sum(xs) ** 2
    variance_b = n * sum(y * y for y in ys) - sum(ys) ** 2
    variances = variance_a * variance_b
    if variances == 0:
        return None
    with localcontext() as context:
        context.prec = 50
        return Decimal(covariance) / Decimal(variances).sqrt()


class TestFrequencyTable:
    def test_reference_pair_cells(self, reference_pair):
        table = build_frequency_table(*reference_pair)
        assert table.observations == 8
        expected = {(4, 5): 2, (5, 5): 1, (3, 1): 1, (6, 3): 1, (6, 4): 1, (6, 5): 2}
        for (row, col), count in expected.items():
            assert table.counts[row - 1, col - 1] == count
        assert table.counts.sum() == 8
        assert sum(expected.values()) == 8

    def test_disjoint_pair(self):
        a = UserProfile(1, {1: 3})
        b = UserProfile(2, {2: 3})
        table = build_frequency_table(a, b)
        assert table.observations == 0
        assert table.counts.sum() == 0

    def test_profile_with_itself_is_diagonal(self):
        a = UserProfile(1, {1: 2, 2: 2, 3: 5, 4: 6})
        table = build_frequency_table(a, a)
        assert np.array_equal(table.counts, np.diag([0, 2, 0, 0, 1, 1]))

    def test_transpose_equals_swapped_arguments(self, reference_pair):
        a, b = reference_pair
        assert np.array_equal(build_frequency_table(a, b).counts, build_frequency_table(b, a).counts.T)


class TestWeightedKappa:
    def test_reference_pair_golden(self, reference_pair):
        assert weighted_kappa(*reference_pair) == 0.725

    def test_identical_profiles(self):
        a = UserProfile(1, {1: 2, 2: 5, 3: 6})
        assert weighted_kappa(a, a) == 1.0

    def test_maximal_disagreement(self):
        a = UserProfile(1, {1: 1, 2: 1})
        b = UserProfile(2, {1: 6, 2: 6})
        assert weighted_kappa(a, b) == 0.0

    def test_no_overlap_raises(self):
        with pytest.raises(InsufficientOverlapError):
            weighted_kappa(UserProfile(1, {1: 3}), UserProfile(2, {2: 3}))

    def test_matches_per_movie_oracle_exactly(self):
        for seed in range(200):
            a, b = _random_pair(seed, min_common=1)
            assert weighted_kappa(a, b) == oracle_weighted_kappa(a, b), f"seed {seed}"

    @given(overlapping_profiles)
    def test_symmetry_and_range(self, pair):
        a, b = pair
        value = weighted_kappa(a, b)
        assert value == weighted_kappa(b, a)
        assert 0.0 <= value <= 1.0


class TestKendallsTau:
    def test_reference_pair_golden(self, reference_pair):
        result = kendalls_tau(*reference_pair)
        assert result.concordant == 9
        assert result.discordant == 6
        assert result.ignored == 13
        assert result.total_pairs == 28
        assert abs(result.tau - 3 / 28) < 1e-12
        assert result.tau == pytest.approx(0.1071, abs=5e-5)

    # Hand-derived decisions for the first seven movie pairs of the reference
    # pair, checked one pair at a time through two-movie sub-profiles.
    @pytest.mark.parametrize(
        "movie_pair,decision",
        [
            ((153, 253), "concordant"),
            ((153, 296), "discordant"),
            ((153, 349), "ignored"),
            ((153, 355), "concordant"),
            ((153, 457), "ignored"),
            ((153, 553), "discordant"),
            ((153, 595), "ignored"),
        ],
    )
    def test_reference_pair_decisions(self, reference_pair, movie_pair, decision):
        a, b = reference_pair
        sub_a = UserProfile(1, {m: a.categories[m] for m in movie_pair})
        sub_b = UserProfile(2, {m: b.categories[m] for m in movie_pair})
        result = kendalls_tau(sub_a, sub_b)
        counts = {
            "concordant": result.concordant,
            "discordant": result.discordant,
            "ignored": result.ignored,
        }
        assert counts[decision] == 1
        assert sum(counts.values()) == 1

    def test_perfect_agreement_and_reversal(self):
        a = UserProfile(1, {m: m for m in range(1, 7)})
        b = UserProfile(2, {m: m for m in range(1, 7)})
        c = UserProfile(3, {m: 7 - m for m in range(1, 7)})
        assert kendalls_tau(a, b).tau == 1.0
        assert kendalls_tau(a, c).tau == -1.0

    def test_single_common_movie_raises(self):
        with pytest.raises(InsufficientOverlapError):
            kendalls_tau(UserProfile(1, {1: 3, 2: 4}), UserProfile(2, {1: 3, 9: 4}))

    def test_matches_pair_enumeration_oracle_exactly(self):
        for seed in range(200):
            a, b = _random_pair(seed, min_common=2)
            result = kendalls_tau(a, b)
            concordant, discordant, ignored = oracle_kendalls_tau(a, b)
            assert (result.concordant, result.discordant, result.ignored) == (
                concordant,
                discordant,
                ignored,
            ), f"seed {seed}"
            n = result.total_pairs
            assert result.tau == 2 * (concordant - discordant) / (2 * n), f"seed {seed}"

    @given(st.one_of(overlapping_profiles, tied_profiles))
    def test_partition_symmetry_and_range(self, pair):
        a, b = pair
        fwd = kendalls_tau(a, b)
        rev = kendalls_tau(b, a)
        assert fwd.concordant + fwd.discordant + fwd.ignored == fwd.total_pairs
        assert (fwd.concordant, fwd.discordant, fwd.ignored) == (
            rev.concordant,
            rev.discordant,
            rev.ignored,
        )
        assert (fwd.concordant, fwd.discordant, fwd.ignored) == oracle_kendalls_tau(a, b)
        assert -1.0 <= fwd.tau <= 1.0

    def test_order_invariance(self):
        # same profiles built with different dict insertion orders
        items = [(5, 2), (9, 6), (1, 4), (30, 1), (12, 3)]
        a1 = UserProfile(1, dict(items))
        a2 = UserProfile(1, dict(reversed(items)))
        b = UserProfile(2, {1: 2, 5: 5, 9: 1, 12: 6, 30: 3})
        assert kendalls_tau(a1, b) == kendalls_tau(a2, b)


class TestTieIgnoredFraction:
    def test_reference_pair(self, reference_pair):
        assert tie_ignored_fraction(*reference_pair) == 13 / 28

    def test_all_distinct_ratings(self):
        a = UserProfile(1, {m: m for m in range(1, 7)})
        b = UserProfile(2, {m: 7 - m for m in range(1, 7)})
        assert tie_ignored_fraction(a, b) == 0.0

    def test_constant_against_distinct(self):
        a = UserProfile(1, {m: 4 for m in range(1, 7)})
        b = UserProfile(2, {m: m for m in range(1, 7)})
        assert tie_ignored_fraction(a, b) == 1.0


class TestPearsonBaseline:
    def test_identical_nonconstant(self):
        a = UserProfile(1, {1: 2, 2: 5, 3: 6})
        result = pearson_baseline(a, a)
        assert result.value == pytest.approx(1.0, abs=1e-12)
        assert not result.degenerate

    def test_midpoint_negation(self):
        a = UserProfile(1, {1: 4, 2: 6, 3: 5})
        b = UserProfile(2, {1: 3, 2: 1, 3: 2})
        assert pearson_baseline(a, b).value == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_flagged(self):
        a = UserProfile(1, {1: 4, 2: 4, 3: 4})
        b = UserProfile(2, {1: 1, 2: 3, 3: 6})
        result = pearson_baseline(a, b)
        assert result.value == 0.0
        assert result.degenerate

    def test_insufficient_overlap(self):
        with pytest.raises(InsufficientOverlapError):
            pearson_baseline(UserProfile(1, {1: 3, 2: 3}), UserProfile(2, {1: 3, 9: 3}))

    def test_zero_covariance_is_exactly_zero(self):
        a = UserProfile(1, {1: 1, 2: 2, 3: 3, 4: 4})
        b = UserProfile(2, {1: 2, 2: 1, 3: 1, 4: 2})
        assert pearson_baseline(a, b) == PearsonResult(0.0, degenerate=False)

    def test_within_two_ulp_of_exact(self):
        for seed in range(200):
            a, b = _random_pair(seed, min_common=2)
            result = pearson_baseline(a, b)
            exact = exact_pearson(a, b)
            if exact is None:
                assert result == PearsonResult(0.0, degenerate=True), f"seed {seed}"
                continue
            error = abs(Decimal(result.value) - exact)
            assert error <= 2 * Decimal(math.ulp(float(exact))), f"seed {seed}"

    def test_matches_two_pass_oracle(self):
        checked = 0
        for seed in range(200):
            a, b = _random_pair(seed, min_common=2)
            result = pearson_baseline(a, b)
            if result.degenerate:
                continue
            assert result.value == pytest.approx(oracle_pearson(a, b), abs=1e-12), f"seed {seed}"
            checked += 1
        assert checked > 150


class TestAffinityDispatch:
    def test_reference_pair_values(self, reference_pair):
        a, b = reference_pair
        wk = affinity(AffinityMeasure(AffinityKind.WEIGHTED_KAPPA), a, b)
        kt = affinity(AffinityMeasure(AffinityKind.KENDALLS_TAU), a, b)
        assert (wk.value, wk.insufficient_overlap) == (0.725, False)
        assert abs(kt.value - 3 / 28) < 1e-12

    def test_disjoint_pair_is_neutral(self):
        a = UserProfile(1, {1: 3})
        b = UserProfile(2, {2: 3})
        for kind in AffinityKind:
            result = affinity(AffinityMeasure(kind), a, b)
            assert result.value == 0.0
            assert result.insufficient_overlap

    def test_min_overlap_enforced(self):
        a = UserProfile(1, {1: 3, 2: 4, 3: 5})
        b = UserProfile(2, {1: 3, 2: 4, 9: 5})
        strict = AffinityMeasure(AffinityKind.WEIGHTED_KAPPA, min_overlap=3)
        loose = AffinityMeasure(AffinityKind.WEIGHTED_KAPPA, min_overlap=1)
        assert affinity(strict, a, b).insufficient_overlap
        assert not affinity(loose, a, b).insufficient_overlap

    def test_kt_needs_two_even_when_min_overlap_is_one(self):
        a = UserProfile(1, {1: 3, 2: 4})
        b = UserProfile(2, {1: 3, 9: 4})
        measure = AffinityMeasure(AffinityKind.KENDALLS_TAU, min_overlap=1)
        assert affinity(measure, a, b).insufficient_overlap

    def test_min_overlap_validation(self):
        with pytest.raises(ConfigError):
            AffinityMeasure(AffinityKind.WEIGHTED_KAPPA, min_overlap=0)


def test_package_attribute_is_the_affinity_module():
    import immunorec
    import immunorec.affinity as module

    assert isinstance(module, types.ModuleType)
    assert immunorec.affinity is module
    assert module.affinity is affinity


def _ratings(max_movie: int, min_size: int):
    return st.dictionaries(
        st.integers(1, max_movie), st.integers(1, 6), min_size=min_size, max_size=16
    )


def _seeded_ratings(seed: int, movies: range) -> dict[int, int]:
    rng = np.random.default_rng(seed)
    return {m: int(rng.integers(1, 7)) for m in movies}


def _kernel(measure, rows, cols):
    """category_affinity of the category rows of ``rows`` and ``cols`` on the movies of ``cols``."""
    movies = np.array(sorted(set().union(*(p.categories for p in cols))), dtype=np.int64)
    return category_affinity(measure, category_matrix(rows, movies), category_matrix(cols, movies))


class TestAffinityBlock:
    @given(
        pool=st.lists(_ratings(20, min_size=1), min_size=1, max_size=5),
        antigen=_ratings(28, min_size=0),
        kind=st.sampled_from(AffinityKind),
        min_overlap=st.sampled_from([1, 2, 3]),
        remap=st.booleans(),
    )
    # overlaps of 130 to 180 movies, far past what the generated profiles
    # reach, and a constant profile, whose Pearson pairs are 0 without the
    # short flag
    @example(
        pool=[
            _seeded_ratings(1, range(1, 161)),
            _seeded_ratings(2, range(11, 181)),
            _seeded_ratings(3, range(21, 201)),
            {m: 4 for m in range(1, 201)},
        ],
        antigen=_seeded_ratings(4, range(1, 151)),
        kind=AffinityKind.PEARSON,
        min_overlap=2,
        remap=False,
    )
    def test_equals_per_pair_usable(self, pool, antigen, kind, min_overlap, remap):
        # the antigen may rate movies 21..28, which no pool profile has
        profiles = [UserProfile(uid, ratings) for uid, ratings in enumerate(pool, start=1)]
        rows = [UserProfile(99, antigen), *profiles]
        measure = AffinityMeasure(kind, min_overlap=min_overlap)
        got = _usable(*_kernel(measure, rows, profiles), remap)
        want = [
            [float(_usable(v.value, v.insufficient_overlap, remap))
             for v in (affinity(measure, a, b) for b in profiles)]
            for a in rows
        ]
        assert got.tolist() == want
        # the same pairs with the large block first: the kernel gathers
        # Weighted Kappa credits over its first block, whichever is smaller
        swapped = _usable(*_kernel(measure, profiles, rows), remap)
        assert swapped.tolist() == got.T.tolist()
        needed = max(min_overlap, 1 if kind is AffinityKind.WEIGHTED_KAPPA else 2)
        for i, a in enumerate(rows):
            for j, b in enumerate(profiles):
                if len(set(a.categories) & set(b.categories)) < needed:
                    assert got[i, j] == 0.0
        if kind is AffinityKind.WEIGHTED_KAPPA:
            for j, p in enumerate(profiles):
                assert got[j + 1, j] == (1.0 if len(p) >= needed else 0.0)

    def test_reference_pair(self, reference_pair):
        a, b = reference_pair
        for kind in AffinityKind:
            measure = AffinityMeasure(kind)
            values, short = _kernel(measure, [a, b], [a, b])
            want = [[affinity(measure, p, q).value for q in (a, b)] for p in (a, b)]
            assert values.tolist() == want
            assert not short.any()
            if kind is AffinityKind.WEIGHTED_KAPPA:
                assert values.tolist() == [[1.0, 0.725], [0.725, 1.0]]

    @pytest.mark.parametrize(
        "kind, movies, dtype",
        [
            (AffinityKind.WEIGHTED_KAPPA, (2**24 - 1) // 5, np.float32),
            (AffinityKind.WEIGHTED_KAPPA, (2**24 - 1) // 5 + 1, np.float64),
            (AffinityKind.KENDALLS_TAU, 2**24 - 1, np.float32),
            (AffinityKind.KENDALLS_TAU, 2**24, np.float64),
            (AffinityKind.PEARSON, (2**24 - 1) // 36, np.float32),
            (AffinityKind.PEARSON, (2**24 - 1) // 36 + 1, np.float64),
        ],
    )
    def test_exact_dtype_boundaries(self, kind, movies, dtype):
        # WK credit sums reach 5 per movie, KT table counts 1, Pearson's sums
        # of category products 36: float32 holds every integer below 2**24
        assert _exact_dtype(kind, movies) is dtype

    @pytest.mark.parametrize("kind", list(AffinityKind))
    def test_float64_branch_equals_per_pair(self, kind, monkeypatch):
        monkeypatch.setattr("immunorec.affinity._exact_dtype", lambda kind, movies: np.float64)
        monkeypatch.setattr("immunorec.affinity._tau_form_dtype", lambda longest: np.float64)
        profiles = [_random_pair(seed, min_common=2)[i] for seed in range(8) for i in (0, 1)]
        measure = AffinityMeasure(kind)
        values, short = _kernel(measure, profiles, profiles)
        want = [[affinity(measure, a, b) for b in profiles] for a in profiles]
        assert values.tolist() == [[v.value for v in row] for row in want]
        assert short.tolist() == [[v.insufficient_overlap for v in row] for row in want]


@given(
    pool=st.lists(_ratings(20, min_size=0), max_size=5),
    movies=st.sets(st.integers(1, 25)),
)
def test_category_matrix_equals_cell_by_cell(pool, movies):
    # profiles rate movies outside ``movies`` and ``movies`` holds some no
    # profile rated; the profile list and ``movies`` may be empty
    profiles = [UserProfile(uid, ratings) for uid, ratings in enumerate(pool, start=1)]
    movies = np.array(sorted(movies), dtype=np.int64)
    got = category_matrix(profiles, movies)
    assert got.dtype == np.int8
    assert got.shape == (len(profiles), len(movies))
    assert got.tolist() == [[p.categories.get(int(m), 0) for m in movies] for p in profiles]


class TestPoolAffinities:
    def test_profiles_read_when_needed(self, tmp_path):
        # a plain pool reads a profile when it builds that row; a precomputed
        # one reads them all into a list, so pickling it (what a --jobs
        # worker is sent) carries none of the loader's columns
        path = tmp_path / "ratings.csv"
        path.write_text(
            "".join(f"{u},{m},{1 + (u * m) % 6}\n" for u in range(1, 6) for m in range(1, 9)),
            encoding="utf-8",
        )
        dataset, _ = load_ratings(path, IngestConfig(min_ratings_per_user=1))
        with mock.patch.object(
            UserProfile, "__post_init__", autospec=True, side_effect=UserProfile.__post_init__
        ) as check:
            pool = PoolAffinities(dataset, AffinityMeasure())
            assert check.call_count == 0
            pool.rows(np.array([3, 1, 3]))
            assert check.call_count == 2
        assert pool.profiles[3] is dataset.users[4]
        assert [p.user_id for p in pool.profiles] == [1, 2, 3, 4, 5]
        stored = PoolAffinities.precomputed(dataset, AffinityMeasure())
        assert type(stored.profiles) is list
        assert b"RatingColumns" not in pickle.dumps(stored)

    @given(
        pool=st.lists(_ratings(12, min_size=1), min_size=1, max_size=8),
        rows=st.lists(st.integers(0, 7), min_size=1, max_size=8),
        cols=st.lists(st.integers(0, 7), min_size=1, max_size=8),
        kind=st.sampled_from(AffinityKind),
        min_overlap=st.sampled_from([1, 2, 3]),
        remap=st.booleans(),
    )
    # overlaps of 130 to 180 movies: WK credits, KT counts and overlaps that
    # need int16 storage, and a constant profile
    @example(
        pool=[
            _seeded_ratings(1, range(1, 161)),
            _seeded_ratings(2, range(11, 181)),
            _seeded_ratings(3, range(21, 201)),
            {m: 4 for m in range(1, 201)},
        ],
        rows=[0, 1, 2, 3],
        cols=[3, 2, 1, 0, 0],
        kind=AffinityKind.KENDALLS_TAU,
        min_overlap=2,
        remap=False,
    )
    def test_indexed_block_equals_fresh_kernel(self, pool, rows, cols, kind, min_overlap, remap):
        # short pairs (movies 1..12, so many share under three movies or
        # none), repeated rows and any order of rows and columns
        profiles = [UserProfile(uid, ratings) for uid, ratings in enumerate(pool, start=1)]
        dataset = Dataset.from_profiles(profiles)
        rows = np.array(rows) % len(profiles)
        cols = np.array(cols) % len(profiles)
        measure = AffinityMeasure(kind, min_overlap=min_overlap)

        def fresh(idx):
            return category_matrix([profiles[i] for i in idx], dataset.movie_array)

        want = _usable(*category_affinity(measure, fresh(rows), fresh(cols)), remap)
        stored = PoolAffinities.precomputed(dataset, measure, remap)
        for source in (stored, PoolAffinities(dataset, measure, remap)):
            got = source.block(rows, cols)
            assert got.dtype == np.float64
            assert got.shape == (len(rows), len(cols))
            assert got.tobytes() == want.tobytes()
            assert source.rows(rows).tolist() == fresh(rows).tolist()

    @given(
        pool=st.lists(_ratings(12, min_size=2), min_size=2, max_size=8),
        rows=st.lists(st.integers(0, 7), max_size=8),
        hidden=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 15)), max_size=4),
        outsiders=st.lists(_ratings(16, min_size=0), max_size=3),
        kind=st.sampled_from(AffinityKind),
        min_overlap=st.sampled_from([1, 2, 3]),
        remap=st.booleans(),
    )
    # an antigen that shares no movie with the pool: the kernel gets a block
    # with no movie column
    @example(
        pool=[{1: 1, 2: 3}, {1: 2, 2: 1}], rows=[0, 1], hidden=[], outsiders=[{13: 4}],
        kind=AffinityKind.KENDALLS_TAU, min_overlap=1, remap=True,
    )
    def test_antigen_affinity_equals_fresh_kernel(
        self, pool, rows, hidden, outsiders, kind, min_overlap, remap
    ):
        # one batch of leave-one-out antigens (pool users minus one movie,
        # maybe the same user twice) and users outside the pool, who may rate
        # movies 13..16 that no pool user has
        profiles = [UserProfile(uid, ratings) for uid, ratings in enumerate(pool, start=1)]
        dataset = Dataset.from_profiles(profiles)
        antigens = []
        for user, movie in hidden:
            own = profiles[user % len(profiles)]
            antigens.append(own.without_movie(sorted(own.categories)[movie % len(own)]))
        antigens += [UserProfile(99 + i, ratings) for i, ratings in enumerate(outsiders)]
        rows = np.array(rows, dtype=np.int64) % len(profiles)
        measure = AffinityMeasure(kind, min_overlap=min_overlap)
        movies = dataset.movie_array
        cols = category_matrix([profiles[i] for i in rows], movies)
        stored = PoolAffinities.precomputed(dataset, measure, remap)
        for source in (stored, PoolAffinities(dataset, measure, remap)):
            batch = source.antigen_affinities(antigens)
            assert len(batch) == len(antigens)
            for antigen, lookup in zip(antigens, batch):
                fresh = category_affinity(measure, category_matrix([antigen], movies), cols)
                want = _usable(*fresh, remap)[0]
                single = source.antigen_affinities([antigen])[0](rows)
                got = lookup(rows)
                assert got.dtype == np.float64
                assert got.shape == (len(rows),)
                assert got.tobytes() == single.tobytes() == want.tobytes()

    @given(
        pool=st.lists(_ratings(12, min_size=1), min_size=1, max_size=8),
        antigen=_ratings(16, min_size=0),
        kind=st.sampled_from(AffinityKind),
        min_overlap=st.sampled_from([1, 2, 3]),
        remap=st.booleans(),
    )
    # an antigen that shares no movie with the pool
    @example(
        pool=[{1: 1, 2: 3}, {1: 2, 2: 1, 3: 6}], antigen={13: 4, 14: 2},
        kind=AffinityKind.PEARSON, min_overlap=1, remap=True,
    )
    def test_store_block_and_per_pair_agree_bytewise(
        self, pool, antigen, kind, min_overlap, remap
    ):
        # the precomputed store, both pools' blocks and antigen functions,
        # and affinity() made usable pair by pair: the same float64 bytes,
        # short pairs (movies 1..12, so many share under three) included
        profiles = [UserProfile(uid, ratings) for uid, ratings in enumerate(pool, start=1)]
        dataset = Dataset.from_profiles(profiles)
        measure = AffinityMeasure(kind, min_overlap=min_overlap)
        everyone = np.arange(len(profiles))

        def per_pair(a, b):
            value = affinity(measure, a, b)
            return _usable(value.value, value.insufficient_overlap, remap)

        want = np.array([[per_pair(a, b) for b in profiles] for a in profiles])
        stored = PoolAffinities.precomputed(dataset, measure, remap)
        on_demand = PoolAffinities(dataset, measure, remap)
        assert stored.usable.tobytes() == want.tobytes()
        for source in (stored, on_demand):
            assert source.block(everyone, everyone).tobytes() == want.tobytes()
        # the antigen may rate movies 13..16, which no pool profile has
        outsider = UserProfile(99, antigen)
        want_antigen = np.array([per_pair(outsider, b) for b in profiles])
        for source in (stored, on_demand):
            got = source.antigen_affinities([outsider])[0](everyone)
            assert got.tobytes() == want_antigen.tobytes()

    def test_usable_storage(self, standard_dataset):
        # one n x n float64 store, symmetric, with every user's self-affinity
        # on the diagonal and no term array beside it
        users = len(standard_dataset)
        for kind, remap in itertools.product(AffinityKind, [False, True]):
            pool = PoolAffinities.precomputed(standard_dataset, AffinityMeasure(kind), remap)
            assert pool.usable.dtype == np.float64
            assert pool.usable.shape == (users, users)
            assert np.array_equal(pool.usable, pool.usable.T)
            assert np.diagonal(pool.usable).tolist() == [1.0] * users
            assert not hasattr(pool, "terms")

    @pytest.mark.parametrize("kind", list(AffinityKind))
    def test_constructed_dataset_equals_from_profiles(self, kind):
        # a Dataset built by its constructor derives its movies from the
        # profiles just as one built by from_profiles does
        profiles = [
            UserProfile(1, {1: 3, 2: 5, 4: 1}),
            UserProfile(2, {1: 4, 2: 6, 3: 2}),
            UserProfile(3, {2: 1, 3: 2, 4: 6}),
        ]
        built = Dataset({p.user_id: p for p in profiles})
        loaded = Dataset.from_profiles(profiles)
        assert built.movie_array.tolist() == loaded.movie_array.tolist() == [1, 2, 3, 4]
        measure = AffinityMeasure(kind)
        everyone = np.arange(len(profiles))
        got = PoolAffinities.precomputed(built, measure).block(everyone, everyone)
        want = PoolAffinities.precomputed(loaded, measure).block(everyone, everyone)
        assert got.tobytes() == want.tobytes()
        # every pair shares two movies, so none is short
        assert got.tolist() == [[affinity(measure, a, b).value for b in profiles] for a in profiles]

    @pytest.mark.parametrize("users", [0, 1, 4, 5, 6, 11])
    def test_tau_build_equals_kernel_and_per_pair(self, users):
        # pools that end before, on and after a chunk boundary; profiles of
        # 1 to 14 movies out of 16, so some pairs share fewer than two
        assert _POOL_CHUNK == 5
        rng = np.random.default_rng(users)
        profiles = []
        for uid in range(1, users + 1):
            movies = rng.choice(16, size=rng.integers(1, 15), replace=False) + 1
            profiles.append(UserProfile(uid, _seeded_ratings(uid, sorted(movies))))
        dataset = Dataset.from_profiles(profiles)
        measure = AffinityMeasure(AffinityKind.KENDALLS_TAU)
        pool = PoolAffinities.precomputed(dataset, measure)
        kernel = category_affinity(measure, pool.categories, pool.categories)
        assert pool.usable.tobytes() == _usable(*kernel, False).tobytes()
        for i, a in enumerate(profiles):
            for j, b in enumerate(profiles):
                common = len(set(a.categories) & set(b.categories))
                if common < 2:
                    assert pool.usable[i, j] == 0.0
                else:
                    tau = kendalls_tau(a, b)
                    assert pool.usable[i, j] == (
                        2 * (tau.concordant - tau.discordant) / (common * (common - 1))
                    )

    @pytest.mark.parametrize("users", [0, 1])
    def test_tiny_pools(self, users):
        dataset = Dataset.from_profiles([UserProfile(7, {1: 3, 2: 5})][:users])
        pool = PoolAffinities.precomputed(dataset, AffinityMeasure(AffinityKind.KENDALLS_TAU))
        assert pool.categories.shape == (users, users * 2)
        assert pool.usable.shape == (users, users)


@pytest.mark.parametrize(
    "kind, longest, dtype",
    [
        # a WK credit reaches 5 n
        (AffinityKind.WEIGHTED_KAPPA, 25, np.int8),
        (AffinityKind.WEIGHTED_KAPPA, 26, np.int16),
        (AffinityKind.WEIGHTED_KAPPA, 6553, np.int16),
        (AffinityKind.WEIGHTED_KAPPA, 6554, np.int32),
        (AffinityKind.WEIGHTED_KAPPA, 429_496_729, np.int32),
        (AffinityKind.WEIGHTED_KAPPA, 429_496_730, np.int64),
        # a KT |2(C - D)| reaches n (n - 1)
        (AffinityKind.KENDALLS_TAU, 11, np.int8),
        (AffinityKind.KENDALLS_TAU, 12, np.int16),
        (AffinityKind.KENDALLS_TAU, 181, np.int16),
        (AffinityKind.KENDALLS_TAU, 182, np.int32),
        (AffinityKind.KENDALLS_TAU, 46_341, np.int32),
        (AffinityKind.KENDALLS_TAU, 46_342, np.int64),
        # Pearson's r is no integer
        (AffinityKind.PEARSON, 3, np.float64),
    ],
)
def test_numerator_dtype_boundaries(kind, longest, dtype):
    assert _terms_dtypes(kind, longest)[0] is dtype


@pytest.mark.parametrize("longest, dtype", [(2896, np.float32), (2897, np.float64)])
def test_tau_form_dtype_boundary(longest, dtype):
    # the tau form's partial sums stay within longest**2 of 0; float32 holds
    # every integer below 2**24, and 2 * 2896**2 < 2**24 <= 2 * 2897**2
    assert _tau_form_dtype(longest) is dtype


@pytest.mark.parametrize(
    "longest, dtype",
    [(127, np.int8), (128, np.int16), (32_767, np.int16), (32_768, np.int32),
     (2**31 - 1, np.int32), (2**31, np.int64)],
)
def test_overlap_dtype_boundaries(longest, dtype):
    for kind in AffinityKind:
        assert _terms_dtypes(kind, longest)[1] is dtype
