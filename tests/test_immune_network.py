import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import immunorec.affinity
import immunorec.immune_network
from immunorec import (
    AffinityKind,
    AffinityMeasure,
    Dataset,
    ImmuneParams,
    PoolAffinities,
    UserProfile,
    concentration_step,
    generate_synthetic,
    init_population,
    prune_and_replace,
    run_to_convergence,
    run_trials,
)
from immunorec.affinity import _usable, affinity, category_affinity, category_matrix
from immunorec.immune_network import AisState, warn_shortfall
from immunorec.errors import ConfigError, EmptyPoolError, ImmunorecError
from immunorec.evaluation import _trial_seed, select_trial_movies

from conftest import STANDARD_SYNTHETIC

WK = AffinityMeasure(AffinityKind.WEIGHTED_KAPPA)

# Golden regression values for the standard dataset, antigen user 1, seed 42,
# default parameters: pinned from the first verified run.
GOLDEN_MEMBER_SHA256 = "1240d755dee33c7fae6b2aba1f756f06fd041ca97780e05ac0494843f09ab26b"
GOLDEN_FIRST_MEMBERS = [21, 29, 32, 36, 37, 40, 41, 49, 55, 63]


def _bare_state(affinities, matrix, concentrations):
    """Hand-assembled state for arithmetic checks; profiles are placeholders.

    Member ``i`` is pool row ``i``, so ``affinities`` is the antigen's row.
    """
    members = [UserProfile(i + 1, {1: 3}) for i in range(len(affinities))]
    return AisState(
        pool=PoolAffinities(Dataset.from_profiles(members), WK),
        antigen=np.asarray(affinities, dtype=np.float64),
        members=np.arange(len(members)),
        concentrations=np.asarray(concentrations, dtype=np.float64),
        matrix=np.asarray(matrix, dtype=np.float64),
        pool_remaining=np.empty(0, dtype=np.int64),
    )


def _assert_matches_recompute(
    state: AisState, antigen: UserProfile, params: ImmuneParams
) -> None:
    """The incrementally grown affinities equal a from-scratch per-pair recompute."""

    def usable(a: UserProfile, b: UserProfile) -> float:
        value = affinity(state.pool.measure, a, b)
        return float(_usable(value.value, value.insufficient_overlap, params.remap_negative))

    members = _member_profiles(state)
    assert state.antigen[state.members].tolist() == [usable(antigen, p) for p in members]
    assert state.matrix.tolist() == [[usable(a, b) for b in members] for a in members]


def _member_profiles(state: AisState) -> list[UserProfile]:
    return [state.pool.users[u] for u in state.member_ids]


def _remaining_ids(state: AisState) -> set[int]:
    """User ids of the pool rows not drawn yet."""
    return set(state.pool.user_ids[state.pool_remaining].tolist())


def _small_pool(size: int, movies: int = 12) -> Dataset:
    rng = np.random.default_rng(987)
    profiles = []
    for uid in range(1, size + 1):
        picks = rng.choice(movies, size=max(3, movies // 2), replace=False) + 1
        profiles.append(UserProfile(uid, {int(m): int(rng.integers(1, 7)) for m in picks}))
    return Dataset.from_profiles(profiles)


class TestImmuneParams:
    def test_defaults(self):
        params = ImmuneParams()
        assert (params.stimulation_rate, params.suppression_rate, params.death_rate) == (0.3, 0.2, 0.1)
        assert params.population_size == 100
        assert params.stability_window == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stimulation_rate": -0.1},
            {"population_size": 0},
            {"dt": 0.0},
            {"prune_threshold": -1e-9},
            {"stability_window": 0},
            {"max_iterations": -1},
            {"antigen_concentration": 0.0},
            {"initial_concentration": 0.0},
            {"dt": math.nan},
            {"stimulation_rate": math.nan},
            {"suppression_rate": math.inf},
            {"death_rate": math.inf},
            {"prune_threshold": math.nan},
            {"antigen_concentration": math.inf},
            {"initial_concentration": math.nan},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ImmuneParams(**kwargs)


class TestConcentrationStep:
    def test_pure_death(self):
        state = _bare_state([0.0], [[0.0]], [1.0])
        concentration_step(state, ImmuneParams())
        assert state.concentrations[0] == 0.9

    def test_decay_law_fifty_steps(self):
        state = _bare_state([0.0], [[0.0]], [1.0])
        params = ImmuneParams()
        for t in range(1, 51):
            concentration_step(state, params)
            assert abs(state.concentrations[0] - 0.9**t) < 1e-12

    def test_zero_is_fixed_point(self):
        state = _bare_state([0.9, 0.2], [[1.0, 0.5], [0.5, 1.0]], [0.0, 0.0])
        concentration_step(state, ImmuneParams())
        assert state.concentrations.tolist() == [0.0, 0.0]

    def test_two_antibody_hand_example(self):
        # n=2, y=1, x1=x2=1, m1=0.8, m2=0.4, all pairwise affinities 1
        state = _bare_state([0.8, 0.4], np.ones((2, 2)), [1.0, 1.0])
        concentration_step(state, ImmuneParams())
        assert state.concentrations[0] == pytest.approx(0.94, abs=1e-12)
        assert state.concentrations[1] == pytest.approx(0.82, abs=1e-12)

    def test_exclude_self_drops_diagonal_term(self):
        state = _bare_state([0.8, 0.4], np.ones((2, 2)), [1.0, 1.0])
        concentration_step(state, ImmuneParams(include_self=False))
        # suppression halves: (0.2/2) * 1 instead of (0.2/2) * 2
        assert state.concentrations[0] == pytest.approx(1.04, abs=1e-12)
        assert state.concentrations[1] == pytest.approx(0.92, abs=1e-12)

    def test_clamped_at_zero(self):
        state = _bare_state([0.0], [[0.0]], [0.01])
        concentration_step(state, ImmuneParams(death_rate=200.0))
        assert state.concentrations[0] == 0.0

    def test_stimulation_monotonicity(self):
        # raising the antigen affinity never lowers the one-step concentration
        rng = np.random.default_rng(5)
        matrix = rng.random((4, 4))
        matrix = (matrix + matrix.T) / 2
        x0 = rng.random(4) + 0.5
        previous = None
        for m0 in np.linspace(0.0, 1.0, 11):
            state = _bare_state([m0, 0.5, 0.2, 0.9], matrix, x0.copy())
            concentration_step(state, ImmuneParams())
            if previous is not None:
                assert state.concentrations[0] >= previous
            previous = state.concentrations[0]


    @pytest.mark.parametrize("n", [4, 139])
    @pytest.mark.parametrize("include_self", [True, False], ids=["self", "no-self"])
    def test_stacked_state_equals_separate_steps(self, include_self, n):
        # three runs stacked as (3, n) concentrations over (3, n, n) matrices,
        # as the lockstep loop steps them, step bit for bit as the three
        # runs' states one at a time
        rng = np.random.default_rng(8)
        matrices = rng.random((3, n, n)) - 0.3
        matrices = (matrices + matrices.swapaxes(1, 2)) / 2
        affinities = rng.random((3, n))
        x = rng.random((3, n)) + 0.5
        params = ImmuneParams(include_self=include_self)
        stacked = immunorec.immune_network._step(matrices, x, affinities, params)
        assert stacked.shape == (3, n)
        for i in range(3):
            alone = _bare_state(affinities[i], matrices[i], x[i])
            concentration_step(alone, params)
            assert alone.concentrations.tobytes() == stacked[i].tobytes()


class TestInitPopulation:
    def test_determinism_and_full_draw(self):
        pool = _small_pool(40)
        antigen = UserProfile(999, {1: 4, 2: 5, 3: 3, 4: 2})
        params = ImmuneParams(population_size=10)
        one = init_population(antigen, PoolAffinities(pool, WK), params, seed=42)
        two = init_population(antigen, PoolAffinities(pool, WK), params, seed=42)
        assert one.member_ids == two.member_ids
        assert len(one.members) == 10
        assert np.all(one.concentrations == 1.0)
        assert one.matrix.shape == (10, 10)
        assert np.array_equal(one.matrix, one.matrix.T)

    def test_different_seeds_differ(self):
        pool = _small_pool(200)
        antigen = UserProfile(999, {1: 4, 2: 5})
        params = ImmuneParams(population_size=20)
        a = init_population(antigen, PoolAffinities(pool, WK), params, seed=42)
        b = init_population(antigen, PoolAffinities(pool, WK), params, seed=43)
        assert a.member_ids != b.member_ids

    def test_shortfall_clamps_and_warns(self, caplog):
        # init_population clamps quietly; warn_shortfall reports it once
        pool = PoolAffinities(_small_pool(30), WK)
        antigen = UserProfile(999, {1: 4})
        params = ImmuneParams(population_size=100)
        with caplog.at_level(logging.WARNING, logger="immunorec.immune_network"):
            state = init_population(antigen, pool, params, seed=1)
            assert not caplog.records
            warn_shortfall(pool, [antigen.user_id], params)
        assert len(state.members) == 30
        assert len(state.pool_remaining) == 0
        assert [record.message for record in caplog.records] == [
            "pool shortfall: wanted 100 antibodies, only 30 candidates"
        ]

    @pytest.mark.parametrize(
        "size, antigen_ids, population, message",
        [
            (30, [999], 30, None),
            (30, [999], 31, "only 30 candidates"),
            (30, [999, 4], 30, "only 29 candidates"),
            (30, [4], 29, None),
            # no candidate at all: the run raises EmptyPoolError instead
            (1, [1], 100, None),
        ],
    )
    def test_warn_shortfall_counts_the_fewest_candidates(
        self, caplog, size, antigen_ids, population, message
    ):
        # a pooled antigen is never its own candidate
        pool = PoolAffinities(_small_pool(size), WK)
        with caplog.at_level(logging.WARNING, logger="immunorec.immune_network"):
            warn_shortfall(pool, antigen_ids, ImmuneParams(population_size=population))
        got = [record.message for record in caplog.records]
        assert got == ([] if message is None else [
            f"pool shortfall: wanted {population} antibodies, {message}"
        ])

    @pytest.mark.parametrize("precomputed", [False, True], ids=["on-demand", "precomputed"])
    @pytest.mark.parametrize("pool_remap", [False, True], ids=["raw-pool", "remap-pool"])
    def test_remap_mismatch_raises(self, precomputed, pool_remap):
        build = PoolAffinities.precomputed if precomputed else PoolAffinities
        pool = build(_small_pool(10), WK, remap_negative=pool_remap)
        antigen = UserProfile(999, {1: 4})
        with pytest.raises(ConfigError, match="remap_negative"):
            init_population(
                antigen, pool, ImmuneParams(population_size=5, remap_negative=not pool_remap), 1
            )
        state = init_population(
            antigen, pool, ImmuneParams(population_size=5, remap_negative=pool_remap), 1
        )
        assert len(state.members) == 5

    def test_antigen_excluded_even_if_pooled(self):
        pool = _small_pool(25)
        antigen = pool.users[7]
        state = init_population(
            antigen, PoolAffinities(pool, WK), ImmuneParams(population_size=100), seed=3
        )
        assert 7 not in state.member_ids
        assert 7 not in _remaining_ids(state)
        assert len(state.members) == 24

    def test_empty_pool_raises(self):
        pool = Dataset.from_profiles([UserProfile(7, {1: 3})])
        antigen = pool.users[7]
        with pytest.raises(EmptyPoolError):
            init_population(antigen, PoolAffinities(pool, WK), ImmuneParams(), seed=0)

    @pytest.mark.parametrize("pooled", [False, True], ids=["no-user", "antigen-only"])
    def test_empty_precomputed_pool_raises(self, pooled):
        antigen = UserProfile(7, {1: 3})
        pool = PoolAffinities.precomputed(Dataset.from_profiles([antigen][:pooled]), WK)
        with pytest.raises(EmptyPoolError):
            init_population(antigen, pool, ImmuneParams(), seed=0)

    def test_partition_of_candidates(self):
        pool = _small_pool(50)
        antigen = UserProfile(999, {1: 4})
        state = init_population(
            antigen, PoolAffinities(pool, WK), ImmuneParams(population_size=15), seed=9
        )
        members = set(state.member_ids)
        remaining = _remaining_ids(state)
        assert members.isdisjoint(remaining)
        assert members | remaining == set(pool.user_ids)


class TestPruneAndReplace:
    def test_stable_when_none_below(self):
        pool = _small_pool(30)
        antigen = UserProfile(999, {1: 4, 5: 2})
        state = init_population(
            antigen, PoolAffinities(pool, WK), ImmuneParams(population_size=10), seed=2
        )
        before = list(state.member_ids)
        rng = np.random.default_rng(0)
        prune_and_replace(state, ImmuneParams(), rng)
        assert state.member_ids == before
        assert state.stable_count == 1
        prune_and_replace(state, ImmuneParams(), rng)
        assert state.stable_count == 2

    def test_prune_and_refill(self):
        pool = _small_pool(30)
        antigen = UserProfile(999, {1: 4, 5: 2})
        params = ImmuneParams(population_size=10)
        state = init_population(antigen, PoolAffinities(pool, WK), params, seed=2)
        victim = state.member_ids[3]
        state.concentrations[3] = 0.01
        rng = np.random.default_rng(0)
        prune_and_replace(state, params, rng)
        assert len(state.members) == 10
        assert victim not in state.member_ids
        assert victim not in _remaining_ids(state)
        assert state.concentrations[-1] == params.initial_concentration
        assert state.stable_count == 0
        assert state.matrix.shape == (10, 10)
        assert np.array_equal(state.matrix, state.matrix.T)

    def test_pool_exhaustion_shrinks_population(self):
        pool = _small_pool(10)
        antigen = UserProfile(999, {1: 4, 5: 2})
        params = ImmuneParams(population_size=10)
        state = init_population(antigen, PoolAffinities(pool, WK), params, seed=2)
        assert len(state.pool_remaining) == 0
        state.concentrations[0] = 0.0
        prune_and_replace(state, params, np.random.default_rng(0))
        assert len(state.members) == 9
        assert state.stable_count == 0

    def test_discarded_never_redrawn(self):
        pool = _small_pool(12)
        antigen = UserProfile(999, {1: 4, 5: 2})
        params = ImmuneParams(population_size=6)
        state = init_population(antigen, PoolAffinities(pool, WK), params, seed=2)
        rng = np.random.default_rng(1)
        discarded = set()
        for _ in range(20):
            state.concentrations[0] = 0.0
            before = set(state.member_ids)
            prune_and_replace(state, params, rng)
            members = set(state.member_ids)
            assert discarded.isdisjoint(members)
            discarded |= before - members
            assert members.isdisjoint(discarded)
            assert members.isdisjoint(_remaining_ids(state))
            assert members | discarded | _remaining_ids(state) == set(pool.user_ids)
            _assert_matches_recompute(state, antigen, params)
            if len(state.members) == 0:
                break

    def test_batch_admission_matches_recompute(self):
        # several newcomers per prune, non-zero antigen affinities
        pool = _small_pool(40)
        antigen = UserProfile(999, {m: (m % 6) + 1 for m in range(1, 13)})
        kt = AffinityMeasure(AffinityKind.KENDALLS_TAU)
        params = ImmuneParams(population_size=10, remap_negative=True)
        state = init_population(
            antigen, PoolAffinities(pool, kt, remap_negative=True), params, seed=4
        )
        _assert_matches_recompute(state, antigen, params)
        assert len(set(state.antigen[state.members].tolist())) > 1
        rng = np.random.default_rng(2)
        while len(state.pool_remaining):
            state.concentrations[[0, 4, 7]] = 0.0
            prune_and_replace(state, params, rng)
            assert len(state.members) == 10
            _assert_matches_recompute(state, antigen, params)

    @pytest.mark.parametrize("min_overlap", [2, 3])
    @pytest.mark.parametrize("remap", [False, True], ids=["raw", "remap"])
    @pytest.mark.parametrize("kind", list(AffinityKind), ids=["wk", "kt", "pearson"])
    def test_run_held_rows_match_recompute(self, kind, remap, min_overlap):
        # antigen affinities and member blocks from the pool: real steps with
        # pruning on, several newcomers per prune, and an antigen rating
        # movies no pool user rated
        pool = _small_pool(40)
        antigen = UserProfile(999, {m: (m % 6) + 1 for m in (*range(1, 13, 2), 50, 51)})
        measure = AffinityMeasure(kind, min_overlap=min_overlap)
        params = ImmuneParams(population_size=10, stability_window=50, remap_negative=remap)
        # the same run on blocks computed per admission and on blocks
        # indexed from the precomputed pool
        histories = []
        for source in (
            PoolAffinities(pool, measure, remap),
            PoolAffinities.precomputed(pool, measure, remap),
        ):
            state = init_population(antigen, source, params, seed=4)

            def assert_rows():
                movies = pool.movie_array
                fresh = category_affinity(
                    measure,
                    category_matrix([antigen], movies),
                    category_matrix(_member_profiles(state), movies),
                )
                want = _usable(*fresh, remap)[0]
                assert state.antigen[state.members].tolist() == want.tolist()
                assert state.member_ids == [p.user_id for p in _member_profiles(state)]

            assert_rows()
            _assert_matches_recompute(state, antigen, params)
            assert len(set(state.antigen[state.members].tolist())) > 1
            history = [(state.member_ids, state.matrix.tolist())]
            rng = np.random.default_rng(2)
            while len(state.pool_remaining):
                concentration_step(state, params)
                state.concentrations[[1, 5]] = 0.0
                before = set(state.member_ids)
                prune_and_replace(state, params, rng)
                assert len(before - set(state.member_ids)) >= 2
                _assert_matches_recompute(state, antigen, params)
                assert_rows()
                history.append((state.member_ids, state.matrix.tolist()))
            assert len(history) > 5
            histories.append(history)
        assert histories[0] == histories[1]

    def test_precomputed_run_makes_one_kernel_call(self, monkeypatch):
        # the antigen's affinities with every pool row, once per run; every
        # admission after that only indexes them
        kt = AffinityMeasure(AffinityKind.KENDALLS_TAU)
        pool = PoolAffinities.precomputed(_small_pool(40), kt, remap_negative=True)
        antigen = UserProfile(999, {m: (m % 6) + 1 for m in range(1, 13)})
        params = ImmuneParams(
            population_size=10, prune_threshold=0.5, stability_window=50, remap_negative=True
        )
        kernel_calls, admissions = [], []
        terms = immunorec.affinity._affinity_terms
        admit = immunorec.immune_network._draw_and_admit
        monkeypatch.setattr(
            immunorec.affinity, "_affinity_terms",
            lambda *args: kernel_calls.append(1) or terms(*args),
        )
        monkeypatch.setattr(
            immunorec.immune_network, "_draw_and_admit",
            lambda *args: admissions.append(1) or admit(*args),
        )
        run_to_convergence(antigen, pool, params, seed=4)
        assert len(admissions) > 1
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("kind", list(AffinityKind), ids=["wk", "kt", "pearson"])
    def test_precomputed_run_divides_nothing(self, kind, monkeypatch):
        # once the pool and the antigen's row are built, every admission is
        # a take of usable values: no division, no remap
        pool = PoolAffinities.precomputed(_small_pool(40), AffinityMeasure(kind), True)
        antigen = UserProfile(999, {m: (m % 6) + 1 for m in range(1, 13)})
        params = ImmuneParams(
            population_size=10, prune_threshold=0.5, stability_window=50, remap_negative=True
        )
        events = []
        for name in ("_affinity_values", "_usable", "category_matrix"):
            fn = getattr(immunorec.affinity, name)
            monkeypatch.setattr(
                immunorec.affinity, name,
                lambda *args, name=name, fn=fn: events.append(name) or fn(*args),
            )
        admit = immunorec.immune_network._draw_and_admit
        monkeypatch.setattr(
            immunorec.immune_network, "_draw_and_admit",
            lambda *args: events.append("admit") or admit(*args),
        )
        run_to_convergence(antigen, pool, params, seed=4)
        first = events.index("admit")
        assert sorted(set(events[:first])) == ["_affinity_values", "_usable", "category_matrix"]
        assert events[first:].count("admit") == len(events[first:]) > 1

    def test_plain_run_builds_only_the_antigen_row(self, monkeypatch):
        # a plain pool holds every user's category row from the start, so a
        # run makes one category_matrix call, for the antigen, however many
        # admissions follow
        pool = PoolAffinities(_small_pool(40), AffinityMeasure(AffinityKind.KENDALLS_TAU), True)
        antigen = UserProfile(999, {m: (m % 6) + 1 for m in range(1, 13)})
        params = ImmuneParams(
            population_size=10, prune_threshold=0.5, stability_window=50, remap_negative=True
        )
        built, admissions = [], []
        matrix = immunorec.affinity.category_matrix
        admit = immunorec.immune_network._draw_and_admit

        def counted(profiles, movies):
            built.append([p.user_id for p in profiles])
            return matrix(profiles, movies)

        monkeypatch.setattr(immunorec.affinity, "category_matrix", counted)
        monkeypatch.setattr(
            immunorec.immune_network, "_draw_and_admit",
            lambda *args: admissions.append(args[1]) or admit(*args),
        )
        run_to_convergence(antigen, pool, params, seed=4)
        assert len(admissions) > 1
        assert built == [[999]]

    @settings(max_examples=60, deadline=None)
    @given(
        pool_seed=st.integers(0, 2**32 - 1),
        pool_size=st.integers(2, 20),
        kind=st.sampled_from(list(AffinityKind)),
        population=st.integers(1, 8),
        threshold=st.sampled_from([0.05, 0.5, 0.95]),
        antigen_pooled=st.booleans(),
        run_seed=st.integers(0, 2**32 - 1),
    )
    def test_run_invariants_under_remap(
        self, pool_seed, pool_size, kind, population, threshold, antigen_pooled, run_seed
    ):
        # default rates, remapped affinities: after every step and every prune
        # the concentrations are finite and non-negative, members, the
        # remaining pool and the ids pruned so far partition the eligible
        # candidates, and a pruned id never comes back
        rng = np.random.default_rng(pool_seed)
        profiles = [
            UserProfile(uid, {
                int(m): int(rng.integers(1, 7))
                for m in rng.choice(10, size=rng.integers(1, 9), replace=False) + 1
            })
            for uid in range(1, pool_size + 1)
        ]
        pool = Dataset.from_profiles(profiles)
        outsider = UserProfile(999, {m: (m % 6) + 1 for m in range(1, 9)})
        antigen = profiles[0] if antigen_pooled else outsider
        eligible = set(pool.user_ids) - {antigen.user_id}
        params = ImmuneParams(
            population_size=population, prune_threshold=threshold, remap_negative=True
        )
        run_rng = np.random.default_rng(run_seed)
        state = init_population(
            antigen, PoolAffinities(pool, AffinityMeasure(kind), remap_negative=True), params,
            run_rng,
        )
        discarded: set[int] = set()

        def check_concentrations():
            assert np.isfinite(state.concentrations).all()
            assert (state.concentrations >= 0).all()

        def check_partition():
            members, remaining = set(state.member_ids), _remaining_ids(state)
            assert len(members) == len(state.members)
            assert members.isdisjoint(remaining) and members.isdisjoint(discarded)
            assert remaining.isdisjoint(discarded)
            assert members | remaining | discarded == eligible

        check_concentrations()
        check_partition()
        for _ in range(40):
            concentration_step(state, params)
            check_concentrations()
            before = set(state.member_ids)
            prune_and_replace(state, params, run_rng)
            discarded |= before - set(state.member_ids)
            check_concentrations()
            check_partition()
            if len(state.members) == 0:
                break


class TestRunToConvergence:
    def test_zero_threshold_converges_in_window(self):
        pool = _small_pool(30)
        antigen = UserProfile(999, {1: 4, 5: 2})
        params = ImmuneParams(population_size=10, prune_threshold=0.0, stability_window=10)
        final = run_to_convergence(antigen, PoolAffinities(pool, WK), params, seed=5)
        assert final.converged
        assert final.iterations_used == 10
        assert len(final.members) == 10

    def test_zero_max_iterations_returns_initial(self):
        pool = _small_pool(30)
        antigen = UserProfile(999, {1: 4, 5: 2})
        params = ImmuneParams(population_size=10, max_iterations=0)
        final = run_to_convergence(antigen, PoolAffinities(pool, WK), params, seed=5)
        assert not final.converged
        assert final.iterations_used == 0
        assert all(weight == 1.0 for _, weight in final.members)

    def test_bit_identical_reruns(self, standard_dataset):
        antigen = standard_dataset.users[3]
        params = ImmuneParams()
        one = run_to_convergence(antigen, PoolAffinities(standard_dataset, WK), params, seed=11)
        two = run_to_convergence(antigen, PoolAffinities(standard_dataset, WK), params, seed=11)
        assert [p.user_id for p, _ in one.members] == [p.user_id for p, _ in two.members]
        assert [w for _, w in one.members] == [w for _, w in two.members]
        assert (one.converged, one.iterations_used) == (two.converged, two.iterations_used)

    def test_weights_never_negative(self, standard_dataset):
        antigen = standard_dataset.users[3]
        pool = PoolAffinities(standard_dataset, WK)
        final = run_to_convergence(antigen, pool, ImmuneParams(), seed=13)
        assert all(weight >= 0.0 for _, weight in final.members)

    def test_golden_membership_regression(self, standard_dataset):
        import hashlib

        antigen = standard_dataset.users[1]
        pool = PoolAffinities(standard_dataset, WK)
        final = run_to_convergence(antigen, pool, ImmuneParams(), seed=42)
        ids = sorted(p.user_id for p, _ in final.members)
        digest = hashlib.sha256(",".join(map(str, ids)).encode()).hexdigest()
        assert final.converged
        assert len(ids) == 100
        assert ids[:10] == GOLDEN_FIRST_MEMBERS
        assert digest == GOLDEN_MEMBER_SHA256
        # the (profile, weight) view that readers of ``members`` rely on
        assert final.rows.dtype == np.int64 and final.weights.dtype == np.float64
        assert [(p.user_id, w) for p, w in final.members] == list(
            zip(pool.user_ids[final.rows].tolist(), final.weights.tolist())
        )
        assert all(p is pool.users[p.user_id] for p, _ in final.members)

    def test_decay_property_with_zero_affinities(self):
        # zero-overlap pool: every affinity is neutral, so concentrations
        # follow the pure death law until everything is pruned together
        antigen = UserProfile(999, {1000 + m: 3 for m in range(5)})
        pool = Dataset.from_profiles(
            [UserProfile(uid, {uid * 10 + 1: 3}) for uid in range(1, 6)]
        )
        params = ImmuneParams(population_size=5, max_iterations=40, stability_window=50)
        final = run_to_convergence(antigen, PoolAffinities(pool, WK), params, seed=1)
        # after 29 steps 0.9^t < 0.05: everyone pruned, pool empty, population extinct
        assert len(final.members) == 0
        assert len(final.rows) == 0 and final.members == ()
        # the run ends at the prune that empties it
        assert not final.converged and final.iterations_used == 29

    def test_huge_finite_concentrations_pass(self):
        # five concentrations of 1e308 whose sum overflows: the run checks
        # each value, not the sum, and does not stop
        antigen = UserProfile(999, {1000 + m: 3 for m in range(5)})
        pool = Dataset.from_profiles(
            [UserProfile(uid, {uid * 10 + 1: 3}) for uid in range(1, 6)]
        )
        params = ImmuneParams(
            population_size=5, death_rate=0.0, initial_concentration=1e308, stability_window=3
        )
        final = run_to_convergence(antigen, PoolAffinities(pool, WK), params, seed=1)
        assert final.converged
        assert final.iterations_used == 3
        assert [weight for _, weight in final.members] == [1e308] * 5

    def test_non_finite_concentration_names_the_run(self):
        antigen = UserProfile(999, {m: 3 for m in range(1, 4)})
        pool = Dataset.from_profiles(
            [UserProfile(uid, {m: 3 for m in range(1, 4)}) for uid in range(1, 6)]
        )
        params = ImmuneParams(population_size=5, stimulation_rate=1e308, suppression_rate=0.0)
        with pytest.raises(ImmunorecError, match="user 999: .* at iteration 2"):
            run_to_convergence(antigen, PoolAffinities(pool, WK), params, seed=1)

    def test_remap_negative_shifts_affinities(self, standard_dataset):
        kt = AffinityMeasure(AffinityKind.KENDALLS_TAU)
        antigen = standard_dataset.users[5]
        params = ImmuneParams(remap_negative=True, max_iterations=0)
        pool = PoolAffinities(standard_dataset, kt, remap_negative=True)
        state = init_population(antigen, pool, params, seed=3)
        assert np.all(state.antigen[state.members] >= 0.0)
        assert np.all(state.matrix >= 0.0)
        assert np.all(state.matrix <= 1.0)


def _reference_run(antigen, pool, params, seed, antigen_affinity):
    """One run from the public steps alone: (rows, weight bytes, converged,
    iterations), or the error text of a runaway step."""
    rng = np.random.default_rng(seed)
    state = init_population(antigen, pool, params, rng, antigen_affinity=antigen_affinity)
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while state.stable_count < params.stability_window and iterations < params.max_iterations:
            iterations += 1
            concentration_step(state, params)
            if not np.isfinite(state.concentrations).all():
                return (
                    f"user {antigen.user_id}: concentrations stopped being finite "
                    f"at iteration {iterations}"
                )
            prune_and_replace(state, params, rng)
            if len(state.members) == 0:
                break
    converged = state.stable_count >= params.stability_window
    return state.members.tolist(), state.concentrations.tobytes(), converged, iterations


class TestRunTrials:
    @settings(max_examples=100, deadline=None)
    @given(
        pool_seed=st.integers(0, 2**32 - 1),
        pool_size=st.integers(2, 14),
        pooled=st.lists(st.booleans(), min_size=1, max_size=8),
        kind=st.sampled_from(list(AffinityKind)),
        remap=st.booleans(),
        precomputed=st.booleans(),
        rows_given=st.booleans(),
        population=st.integers(1, 12),
        threshold=st.sampled_from([0.0, 0.05, 0.5, 0.7, 0.95]),
        stimulation=st.sampled_from([0.3, 2.0, 1e300]),
        include_self=st.booleans(),
        max_iterations=st.sampled_from([0, 2, 500]),
        window=st.sampled_from([1, 3, 10]),
        run_seed=st.integers(0, 2**32 - 1),
    )
    # seven runs cross a group boundary; a threshold of 0 never prunes, so
    # every run converges in lockstep
    @example(
        pool_seed=3, pool_size=14, pooled=[False] * 7, kind=AffinityKind.WEIGHTED_KAPPA,
        remap=False, precomputed=True, rows_given=True, population=10, threshold=0.0,
        stimulation=0.3, include_self=True, max_iterations=500, window=10, run_seed=1,
    )
    # both groups leave the lockstep at their first prune, after 2 or 3 steps
    @example(
        pool_seed=1, pool_size=14, pooled=[False] * 7, kind=AffinityKind.KENDALLS_TAU,
        remap=True, precomputed=True, rows_given=False, population=10, threshold=0.5,
        stimulation=0.3, include_self=True, max_iterations=500, window=10, run_seed=1,
    )
    # no prune, and with one antibody and no self term no suppression: the
    # second step overflows to inf, not NaN, and the runaway run must name it
    @example(
        pool_seed=3, pool_size=14, pooled=[False] * 6, kind=AffinityKind.WEIGHTED_KAPPA,
        remap=False, precomputed=False, rows_given=True, population=1, threshold=0.0,
        stimulation=1e300, include_self=False, max_iterations=500, window=10, run_seed=1,
    )
    def test_equals_runs_one_at_a_time(
        self, pool_seed, pool_size, pooled, kind, remap, precomputed, rows_given, population,
        threshold, stimulation, include_self, max_iterations, window, run_seed,
    ):
        # every run of a batch, stepped in lockstep groups until a prune, a
        # shortfall or a population size apart, ends bit for bit as the
        # reference loop ends it alone; a runaway batch raises the first
        # runaway run's error
        rng = np.random.default_rng(pool_seed)

        def ratings():
            picks = rng.choice(10, size=rng.integers(1, 9), replace=False) + 1
            return {int(m): int(rng.integers(1, 7)) for m in picks}

        profiles = [UserProfile(uid, ratings()) for uid in range(1, pool_size + 1)]
        antigens = [
            profiles[i % pool_size] if inside else UserProfile(900 + i, ratings())
            for i, inside in enumerate(pooled)
        ]
        measure = AffinityMeasure(kind)
        dataset = Dataset.from_profiles(profiles)
        pool = (
            PoolAffinities.precomputed(dataset, measure, remap)
            if precomputed
            else PoolAffinities(dataset, measure, remap)
        )
        params = ImmuneParams(
            stimulation_rate=stimulation, population_size=population, prune_threshold=threshold,
            stability_window=window, max_iterations=max_iterations,
            include_self=include_self, remap_negative=remap,
        )
        seeds = [run_seed + i for i in range(len(antigens))]
        # the reference run is given its row of a batch call, or computes its own
        rows = pool.antigen_affinities(antigens) if rows_given else None
        want = []
        for i, (antigen, seed) in enumerate(zip(antigens, seeds)):
            want.append(_reference_run(antigen, pool, params, seed, None if rows is None else rows[i]))
            if isinstance(want[-1], str):
                with pytest.raises(ImmunorecError) as error:
                    run_trials(antigens, pool, params, seeds)
                assert str(error.value) == want[-1]
                return
        got = run_trials(antigens, pool, params, seeds)
        assert [
            (final.rows.tolist(), final.weights.tobytes(), final.converged, final.iterations_used)
            for final in got
        ] == want

    def test_runaway_trial_names_itself_in_order(self, standard_dataset, caplog):
        # raw Kendall's Tau: of these three leave-one-out trials of user 7
        # the first two go extinct and the third blows up; a batch raises
        # the error that trial raises alone, after the same log records
        antigen = standard_dataset.users[7]
        hidden = select_trial_movies(antigen, 20, 7)
        trials = [0, 2, 1]
        variants = [antigen.without_movie(hidden[t]) for t in trials]
        seeds = [_trial_seed(7, 7, t) for t in trials]
        pool = PoolAffinities.precomputed(
            standard_dataset, AffinityMeasure(AffinityKind.KENDALLS_TAU)
        )
        params = ImmuneParams()
        with caplog.at_level(logging.INFO, logger="immunorec.immune_network"):
            alone = []
            for variant, seed in zip(variants, seeds):
                try:
                    alone.append(run_to_convergence(variant, pool, params, seed))
                except ImmunorecError as error:
                    message = str(error)
                    break
            records = [(r.levelname, r.getMessage()) for r in caplog.records]
            caplog.clear()
            with pytest.raises(ImmunorecError) as error:
                run_trials(variants, pool, params, seeds)
        assert len(alone) == 2 and all(len(final.rows) == 0 for final in alone)
        assert message == "user 7: concentrations stopped being finite at iteration 58"
        assert str(error.value) == message
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == records
        assert records.count(
            ("WARNING", "population went extinct (pool exhausted and all pruned)")
        ) == 2
