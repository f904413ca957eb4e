"""Pairwise affinity between user profiles.

Two rank-agreement measures drive the immune network:

* Weighted Kappa: linear partial credit for near-miss categories. With the
  chance term fixed to zero (users pick what they rate, nothing happens "by
  chance"), the value reduces to the weighted observed frequency
  ``(1/n) * sum_ij w_ij f_ij`` with ``w_ij = 1 - |i-j|/(g-1)``.
* Kendall's Tau: concordant-minus-discordant pair counting over the common
  movies, ``2(C-D) / (n(n-1))``. Tie rule: a pair whose rating differences
  are both zero counts as concordant; a pair where exactly one difference is
  zero carries no order information and is ignored. Ignored pairs stay in the
  denominator.

A plain Pearson product-moment baseline is included for comparison runs.

All functions are pure; the frequency-table convention is rows = first
argument's category, columns = second argument's category (the weight matrix
is symmetric, so transposing never changes the kappa value).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .domain import NUM_CATEGORIES, UserProfile, common_categories, rating_from_category
from .errors import InsufficientOverlapError

#: Integer agreement credit per cell: 5 down to 0 as categories drift apart.
#: The linear weight w_ij = CREDITS[i-1, j-1] / 5.
_CREDITS = (NUM_CATEGORIES - 1) - np.abs(
    np.arange(NUM_CATEGORIES)[:, None] - np.arange(NUM_CATEGORIES)[None, :]
)


def weight_matrix() -> np.ndarray:
    """The 6x6 linear weight matrix: 1 on the diagonal, 0 in the far corners."""
    return _CREDITS / (NUM_CATEGORIES - 1)


class AffinityKind(enum.Enum):
    """Selector for the affinity measure driving a run."""

    WEIGHTED_KAPPA = "wk"
    KENDALLS_TAU = "kt"
    PEARSON = "pearson"


#: Fewest common movies for which each measure is defined at all.
_INTRINSIC_MIN = {
    AffinityKind.WEIGHTED_KAPPA: 1,
    AffinityKind.KENDALLS_TAU: 2,
    AffinityKind.PEARSON: 2,
}


@dataclass(frozen=True)
class AffinityMeasure:
    """A measure plus the overlap floor below which a pair is treated as neutral."""

    kind: AffinityKind = AffinityKind.WEIGHTED_KAPPA
    min_overlap: int = 2

    def __post_init__(self) -> None:
        if self.min_overlap < 1:
            raise ValueError(f"min_overlap must be >= 1, got {self.min_overlap}")


@dataclass(eq=False, frozen=True)
class FrequencyTable:
    """6x6 category co-occurrence counts for one user pair.

    ``counts[i-1, j-1]`` = number of common movies the first user put in
    category i and the second user put in category j.
    """

    counts: np.ndarray
    observations: int
    categories: int = NUM_CATEGORIES


def build_frequency_table(a: UserProfile, b: UserProfile) -> FrequencyTable:
    """Tabulate the common movies of ``a`` and ``b`` by category pair."""
    _, cats_a, cats_b = common_categories(a, b)
    flat = (cats_a - 1) * NUM_CATEGORIES + (cats_b - 1)
    counts = np.bincount(flat, minlength=NUM_CATEGORIES * NUM_CATEGORIES)
    return FrequencyTable(counts.reshape(NUM_CATEGORIES, NUM_CATEGORIES), int(len(cats_a)))


def weighted_kappa(a: UserProfile, b: UserProfile) -> float:
    """Weighted Kappa agreement between two profiles, in [0, 1].

    Computed from the frequency table with integer credits and a single
    float division, so the result is the correctly rounded value of the
    exact rational ``sum_ij (5 - |i-j|) f_ij / (5 n)``.

    Raises :class:`InsufficientOverlapError` if the pair shares no movie.
    """
    table = build_frequency_table(a, b)
    if table.observations < 1:
        raise InsufficientOverlapError(needed=1, found=table.observations)
    credit = int((table.counts * _CREDITS).sum())
    return credit / ((NUM_CATEGORIES - 1) * table.observations)


@dataclass(frozen=True)
class KTResult:
    """Pair-count breakdown and tau for one user pair."""

    concordant: int
    discordant: int
    ignored: int
    total_pairs: int
    tau: float


def kendalls_tau(a: UserProfile, b: UserProfile) -> KTResult:
    """Kendall's Tau over the common movies of ``a`` and ``b``.

    Enumerates all n(n-1)/2 unordered movie pairs in ascending-movie-id
    order. For each pair the two rating differences are compared: both zero
    -> concordant, exactly one zero -> ignored, same sign -> concordant,
    opposite signs -> discordant. The denominator keeps every pair,
    including the ignored ones.

    Raises :class:`InsufficientOverlapError` when fewer than 2 common movies.
    """
    _, cats_a, cats_b = common_categories(a, b)
    n = len(cats_a)
    if n < 2:
        raise InsufficientOverlapError(needed=2, found=n)

    # Signs are identical on category indices and on the 0-1 scale.
    upper = np.triu_indices(n, k=1)
    da = (cats_a[None, :] - cats_a[:, None])[upper]
    db = (cats_b[None, :] - cats_b[:, None])[upper]

    zero_a = da == 0
    zero_b = db == 0
    both_zero = zero_a & zero_b
    one_zero = zero_a ^ zero_b
    same_sign = ~zero_a & ~zero_b & (np.sign(da) == np.sign(db))

    concordant = int((both_zero | same_sign).sum())
    ignored = int(one_zero.sum())
    total = n * (n - 1) // 2
    discordant = total - concordant - ignored
    tau = 2 * (concordant - discordant) / (n * (n - 1))
    return KTResult(concordant, discordant, ignored, total, tau)


def tie_ignored_fraction(a: UserProfile, b: UserProfile) -> float:
    """Fraction of movie pairs thrown away by the tau tie rule, in [0, 1]."""
    result = kendalls_tau(a, b)
    return result.ignored / result.total_pairs


@dataclass(frozen=True)
class PearsonResult:
    """Pearson correlation plus a flag for the zero-variance degenerate case."""

    value: float
    degenerate: bool = False


def pearson_baseline(a: UserProfile, b: UserProfile) -> PearsonResult:
    """Product-moment correlation of the two common-movie rating vectors.

    When either vector is constant the correlation is undefined; the result
    is reported as 0 with ``degenerate=True`` rather than raised, so baseline
    experiments never abort mid-run.

    Raises :class:`InsufficientOverlapError` when fewer than 2 common movies.
    """
    _, cats_a, cats_b = common_categories(a, b)
    n = len(cats_a)
    if n < 2:
        raise InsufficientOverlapError(needed=2, found=n)
    if (cats_a == cats_a[0]).all() or (cats_b == cats_b[0]).all():
        return PearsonResult(0.0, degenerate=True)

    x = np.array([rating_from_category(int(c)) for c in cats_a])
    y = np.array([rating_from_category(int(c)) for c in cats_b])
    xd = x - x.mean()
    yd = y - y.mean()
    r = float((xd * yd).sum() / np.sqrt((xd * xd).sum() * (yd * yd).sum()))
    return PearsonResult(min(1.0, max(-1.0, r)))


@dataclass(frozen=True)
class AffinityValue:
    """Dispatch result: the measure's value, or neutral 0 when overlap is short."""

    value: float
    insufficient_overlap: bool = False


def affinity(measure: AffinityMeasure, a: UserProfile, b: UserProfile) -> AffinityValue:
    """Apply the selected measure to a profile pair.

    Pairs with fewer common movies than ``measure.min_overlap`` (or than the
    measure's own definedness floor) come back as 0 with the
    ``insufficient_overlap`` flag set: such a pair neither stimulates nor
    suppresses anything downstream.
    """
    ids, _, _ = common_categories(a, b)
    needed = max(measure.min_overlap, _INTRINSIC_MIN[measure.kind])
    if len(ids) < needed:
        return AffinityValue(0.0, insufficient_overlap=True)
    if measure.kind is AffinityKind.WEIGHTED_KAPPA:
        return AffinityValue(weighted_kappa(a, b))
    if measure.kind is AffinityKind.KENDALLS_TAU:
        return AffinityValue(kendalls_tau(a, b).tau)
    return AffinityValue(pearson_baseline(a, b).value)


#: ``_CREDITS`` indexed by category, with 0 (unrated) earning no credit.
_CREDIT_LOOKUP = np.pad(_CREDITS, ((1, 0), (1, 0)))


def _category_matrix(profiles: list[UserProfile]) -> np.ndarray:
    """int8 user x movie categories over the union of the profiles' movies; 0 = unrated."""
    columns = np.unique(np.concatenate([p.movie_array for p in profiles]), return_inverse=True)[1]
    owner = np.repeat(np.arange(len(profiles)), [len(p) for p in profiles])
    matrix = np.zeros((len(profiles), columns.max(initial=-1) + 1), dtype=np.int8)
    matrix[owner, columns] = np.concatenate([p.category_array for p in profiles])
    return matrix


def affinity_block(
    measure: AffinityMeasure, rows: list[UserProfile], cols: list[UserProfile]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`affinity` for every (row, col) pair: (values, insufficient-overlap flags).

    Weighted Kappa runs as one kernel over the category matrices A and B:
    credit ``sum_c onehot_c(A) @ (sum_d credit[c, d] onehot_d(B))^T`` and
    overlap ``(A > 0) @ (B > 0)^T``. Every operand and partial sum is an
    integer of at most 5 x movies, held exactly by float32 (float64 from
    2**24) whatever the BLAS order or thread count, so the one float64
    division ``credit / (5 n)`` gives :func:`weighted_kappa`'s correctly
    rounded double. The other measures go pair by pair.
    """
    shape = (len(rows), len(cols))
    if measure.kind is not AffinityKind.WEIGHTED_KAPPA:
        pairs = [affinity(measure, a, b) for a in rows for b in cols]
        values = np.array([p.value for p in pairs], dtype=np.float64).reshape(shape)
        return values, np.array([p.insufficient_overlap for p in pairs], dtype=bool).reshape(shape)
    categories = _category_matrix([*rows, *cols])
    exact = np.float32 if (NUM_CATEGORIES - 1) * categories.shape[1] < 2**24 else np.float64
    a, b = categories[: len(rows)], categories[len(rows):]
    lookup = _CREDIT_LOOKUP.astype(exact)
    credit = sum((a == c).astype(exact) @ lookup[c][b].T for c in range(1, NUM_CATEGORIES + 1))
    overlap = (a > 0).astype(exact) @ (b > 0).astype(exact).T
    short = overlap < max(measure.min_overlap, _INTRINSIC_MIN[measure.kind])
    values = np.divide(
        credit, (NUM_CATEGORIES - 1) * overlap, out=np.zeros(shape), where=~short, dtype=np.float64
    )
    return values, short
