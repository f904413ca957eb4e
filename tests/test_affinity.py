import math
import types
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from immunorec import (
    AffinityKind,
    AffinityMeasure,
    UserProfile,
    build_frequency_table,
    kendalls_tau,
    pearson_baseline,
    tie_ignored_fraction,
    weighted_kappa,
)
from immunorec.affinity import (
    PearsonResult,
    _exact_dtype,
    affinity,
    category_affinity,
    category_matrix,
)
from immunorec.errors import InsufficientOverlapError
from immunorec.immune_network import ImmuneParams, _usable

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
        a = UserProfile.from_ratings(1, {1: 0.6, 2: 1.0, 3: 0.8})
        b = UserProfile.from_ratings(2, {1: 0.4, 2: 0.0, 3: 0.2})
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
        with pytest.raises(ValueError):
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
    movies = np.unique(np.concatenate([p.movie_array for p in cols]))
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
        params = ImmuneParams(remap_negative=remap)
        got = _usable(*_kernel(measure, rows, profiles), params)
        want = [
            [float(_usable(v.value, v.insufficient_overlap, params))
             for v in (affinity(measure, a, b) for b in profiles)]
            for a in rows
        ]
        assert got.tolist() == want
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
        profiles = [_random_pair(seed, min_common=2)[i] for seed in range(8) for i in (0, 1)]
        measure = AffinityMeasure(kind)
        values, short = _kernel(measure, profiles, profiles)
        want = [[affinity(measure, a, b) for b in profiles] for a in profiles]
        assert values.tolist() == [[v.value for v in row] for row in want]
        assert short.tolist() == [[v.insufficient_overlap for v in row] for row in want]
