"""Idiotypic immune-network selection of a recommendation neighbourhood.

One target user (the antigen) is matched against a population of candidate
users (antibodies) drawn from a pool. Each antibody carries a concentration
that evolves by forward-Euler steps of

    dx_i/dt = k1 * m_i * x_i * y  -  (k2/n) * sum_j m_ij * x_i * x_j  -  k3 * x_i

where m_i is the antibody-antigen affinity, m_ij the antibody-antibody
affinity, y the fixed antigen concentration and n the current population
size. Stimulation rewards agreement with the antigen; suppression penalises
redundancy inside the population; the death term thins out everything else.
Antibodies whose concentration falls below a threshold are discarded for
good and replaced by fresh draws from the pool; the initial sample and every
replacement go through the same draw-and-admit step. The run stops once
membership has been unchanged for a configured number of consecutive
iterations.

Updates are simultaneous (all dx_i computed from the pre-step state) and all
randomness flows through one seeded generator, so a run is a pure function
of (antigen, pool, params, seed), because the pool carries the measure, and
whether the pool's affinities are precomputed or computed block by block
makes no difference.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .affinity import AntigenAffinity, PoolAffinities
from .domain import UserProfile
from .errors import ConfigError, EmptyPoolError, ImmunorecError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ImmuneParams:
    """Dynamics constants and run limits.

    The rate defaults (0.3 / 0.2 / 0.1) are the standard operating point for
    this model family; ``dt`` is exposed because the continuous equation is
    integrated by plain forward Euler.
    """

    stimulation_rate: float = 0.3      # k1
    suppression_rate: float = 0.2      # k2
    death_rate: float = 0.1            # k3
    antigen_concentration: float = 1.0  # y
    population_size: int = 100
    dt: float = 1.0
    prune_threshold: float = 0.05
    initial_concentration: float = 1.0
    stability_window: int = 10
    max_iterations: int = 500
    include_self: bool = True          # keep j = i in the suppression sum
    remap_negative: bool = False       # map defined affinities a -> (a+1)/2

    def __post_init__(self) -> None:
        for name in (
            "stimulation_rate", "suppression_rate", "death_rate", "antigen_concentration",
            "dt", "prune_threshold", "initial_concentration",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if min(self.stimulation_rate, self.suppression_rate, self.death_rate) < 0:
            raise ConfigError("rates k1, k2, k3 must be non-negative")
        if self.antigen_concentration <= 0:
            raise ConfigError("antigen_concentration must be positive")
        if self.population_size < 1:
            raise ConfigError("population_size must be >= 1")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.prune_threshold < 0:
            raise ConfigError("prune_threshold must be >= 0")
        if self.initial_concentration <= 0:
            raise ConfigError("initial_concentration must be positive")
        if self.stability_window < 1:
            raise ConfigError("stability_window must be >= 1")
        if self.max_iterations < 0:
            raise ConfigError("max_iterations must be >= 0")


@dataclass
class AisState:
    """Mutable run state: membership, concentrations and affinities, by pool row.

    ``members`` holds pool rows (see :class:`~immunorec.affinity.PoolAffinities`)
    in admission order and indexes the concentration vector, the
    antigen-affinity vector and the rows/columns of the pairwise matrix.
    ``pool_remaining`` holds the rows not drawn yet, ascending; a drawn row
    leaves it for good, so members and ``pool_remaining`` stay disjoint and
    pruned rows are never redrawn. ``antigen`` maps pool rows to the
    antigen's usable affinities with them, from
    :meth:`~immunorec.affinity.PoolAffinities.antigen_affinities`.
    """

    pool: PoolAffinities
    antigen: AntigenAffinity
    members: np.ndarray
    concentrations: np.ndarray
    antigen_affinities: np.ndarray
    matrix: np.ndarray
    pool_remaining: np.ndarray
    stable_count: int = 0

    @property
    def member_ids(self) -> list[int]:
        return self.pool.user_ids[self.members].tolist()


@dataclass(frozen=True)
class FinalPopulation:
    """Converged (or timed-out) neighbourhood with prediction weights."""

    members: tuple[tuple[UserProfile, float], ...]
    converged: bool
    iterations_used: int


def _draw_and_admit(
    state: AisState, count: int, params: ImmuneParams, rng: np.random.Generator
) -> None:
    """Move ``count`` uniform draws from ``pool_remaining`` into the population.

    Newcomers join in ascending row (so user id) order at
    ``initial_concentration``. Their antigen affinities and their member
    block both come from the pool as the usable numbers the dynamics read,
    one ``take`` each when the pool is precomputed; the vectors and the
    affinity matrix grow once for the whole batch.
    """
    drawn = np.zeros(len(state.pool_remaining), dtype=bool)
    drawn[rng.choice(len(drawn), size=count, replace=False)] = True
    newcomers = state.pool_remaining[drawn]
    state.pool_remaining = state.pool_remaining[~drawn]

    k = len(state.members)
    state.members = np.concatenate((state.members, newcomers))
    block = state.pool.block(newcomers, state.members)
    state.antigen_affinities = np.concatenate(
        (state.antigen_affinities, state.antigen(newcomers))
    )
    state.concentrations = np.concatenate(
        (state.concentrations, np.full(count, params.initial_concentration))
    )
    grown = np.empty((k + count, k + count), dtype=np.float64)
    grown[:k, :k] = state.matrix
    grown[k:] = block
    grown[:k, k:] = block[:, :k].T
    state.matrix = grown


def init_population(
    antigen: UserProfile,
    pool: PoolAffinities,
    params: ImmuneParams,
    seed: int | np.random.Generator,
    *,
    antigen_affinity: AntigenAffinity | None = None,
) -> AisState:
    """Draw the initial antibody sample and compute all affinities.

    Samples ``min(population_size, eligible pool)`` users uniformly without
    replacement with a seeded generator; the antigen's own user id is never
    eligible, and a shortfall is clamped without a word (see
    :func:`warn_shortfall`). Every antibody starts at
    ``initial_concentration``. ``antigen_affinity`` is the antigen's function
    from :meth:`~immunorec.affinity.PoolAffinities.antigen_affinities`, made
    here when not given.

    Raises :class:`ConfigError` when the pool's ``remap_negative`` is not the
    run's, and :class:`EmptyPoolError` when no candidate exists.
    """
    if pool.remap_negative != params.remap_negative:
        raise ConfigError(
            f"the pool's affinities have remap_negative={pool.remap_negative}, "
            f"the run's parameters remap_negative={params.remap_negative}"
        )
    rng = np.random.default_rng(seed)
    eligible = np.flatnonzero(pool.user_ids != antigen.user_id)
    if len(eligible) == 0:
        raise EmptyPoolError("no eligible candidate antibodies in the pool")

    size = min(params.population_size, len(eligible))
    state = AisState(
        pool=pool,
        antigen=(
            pool.antigen_affinities([antigen])[0] if antigen_affinity is None else antigen_affinity
        ),
        members=np.empty(0, dtype=eligible.dtype),
        concentrations=np.empty(0),
        antigen_affinities=np.empty(0),
        matrix=np.empty((0, 0)),
        pool_remaining=eligible,
    )
    _draw_and_admit(state, size, params, rng)
    return state


def warn_shortfall(pool: PoolAffinities, antigen_ids: list[int], params: ImmuneParams) -> None:
    """One warning if the runs of ``antigen_ids`` cannot fill ``params.population_size``.

    :func:`init_population` clamps each run's sample quietly, so that a
    command or experiment can report a shortfall that all its runs share
    once, by calling this before them. A pool with no candidate at all is
    left to :class:`EmptyPoolError`.
    """
    fewest = len(pool.user_ids) - bool(np.isin(antigen_ids, pool.user_ids).any())
    if 0 < fewest < params.population_size:
        log.warning(
            "pool shortfall: wanted %d antibodies, only %d candidates",
            params.population_size,
            fewest,
        )


def concentration_step(state: AisState, params: ImmuneParams) -> AisState:
    """One simultaneous Euler update of every concentration, clamped at 0.

    The suppression sum runs over the whole current population including
    j = i unless ``params.include_self`` is off. A runaway step overflows to
    inf or NaN; :func:`run_to_convergence` silences numpy's warnings for its
    whole loop and names the run instead, while a direct caller sees them.
    """
    x = state.concentrations
    n = x.size
    if n == 0:
        return state
    # Row-wise multiply+reduce instead of a BLAS matvec keeps the summation
    # order fixed across builds, which the bit-identical rerun contract needs.
    interact = (state.matrix * x[None, :]).sum(axis=1)
    if not params.include_self:
        interact = interact - np.diagonal(state.matrix) * x
    dx = (
        params.stimulation_rate * params.antigen_concentration * state.antigen_affinities * x
        - (params.suppression_rate / n) * x * interact
        - params.death_rate * x
    )
    state.concentrations = np.maximum(0.0, x + params.dt * dx)
    return state


def prune_and_replace(
    state: AisState, params: ImmuneParams, rng: np.random.Generator
) -> AisState:
    """Discard antibodies below the prune threshold and refill from the pool.

    Pruned pool rows are permanently discarded (never redrawn). Replacements
    are drawn uniformly from the untouched remainder of the pool, up to the
    removed count; an exhausted pool shrinks the population instead. The
    stability counter resets on any membership change and increments
    otherwise.
    """
    below = state.concentrations < params.prune_threshold
    if below.any():
        keep = np.flatnonzero(~below)
        state.members = state.members[keep]
        state.concentrations = state.concentrations[keep]
        state.antigen_affinities = state.antigen_affinities[keep]
        state.matrix = state.matrix.take(keep, 0)[:, keep]

        want = int(below.sum())
        draw = min(want, len(state.pool_remaining))
        if draw < want:
            log.info(
                "pool exhausted: replacing %d of %d pruned antibodies (population now %d)",
                draw,
                want,
                len(state.members) + draw,
            )
        if draw > 0:
            _draw_and_admit(state, draw, params, rng)
        state.stable_count = 0
    else:
        state.stable_count += 1
    return state


def run_to_convergence(
    antigen: UserProfile,
    pool: PoolAffinities,
    params: ImmuneParams,
    seed: int,
    *,
    antigen_affinity: AntigenAffinity | None = None,
) -> FinalPopulation:
    """Full selection loop: init, then step+prune until membership settles.

    Converged means the member set was unchanged for ``stability_window``
    consecutive iterations; hitting ``max_iterations`` first returns the
    current population with ``converged=False`` and a warning. A step that
    leaves any concentration NaN or infinite raises :class:`ImmunorecError`
    naming the antigen user and the iteration. ``antigen_affinity`` goes to
    :func:`init_population`.
    """
    rng = np.random.default_rng(seed)
    state = init_population(antigen, pool, params, rng, antigen_affinity=antigen_affinity)

    converged = False
    iterations = 0
    # a runaway step overflows to inf or NaN, which the check below reports
    # with the run's name, so numpy's warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, params.max_iterations + 1):
            concentration_step(state, params)
            # concentrations are NaN or in [0, inf], so the sum is finite
            # unless one is not, or unless huge finite ones overflow it
            x = state.concentrations
            if not math.isfinite(x.sum()) and not np.isfinite(x).all():
                raise ImmunorecError(
                    f"user {antigen.user_id}: concentrations stopped being finite "
                    f"at iteration {iterations}"
                )
            prune_and_replace(state, params, rng)
            if state.stable_count >= params.stability_window:
                converged = True
                break
    if not converged:
        log.warning(
            "no convergence within %d iterations (stable for %d)",
            params.max_iterations,
            state.stable_count,
        )
    if len(state.members) == 0:
        log.warning("population went extinct (pool exhausted and all pruned)")
    members = tuple(
        (pool.profiles[i], float(x)) for i, x in zip(state.members.tolist(), state.concentrations)
    )
    return FinalPopulation(members=members, converged=converged, iterations_used=iterations)
