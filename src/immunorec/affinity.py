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
argument's category, columns = second argument's category (the credits are
symmetric, so transposing never changes the kappa value).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .domain import NUM_CATEGORIES, UserProfile, common_categories
from .errors import InsufficientOverlapError

#: Integer agreement credit per cell: 5 down to 0 as categories drift apart.
#: The linear weight w_ij = CREDITS[i-1, j-1] / 5.
_CREDITS = (NUM_CATEGORIES - 1) - np.abs(
    np.arange(NUM_CATEGORIES)[:, None] - np.arange(NUM_CATEGORIES)[None, :]
)


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


def build_frequency_table(a: UserProfile, b: UserProfile) -> FrequencyTable:
    """Tabulate the common movies of ``a`` and ``b`` by category pair."""
    return _frequency_table(*common_categories(a, b)[1:])


def _frequency_table(cats_a: np.ndarray, cats_b: np.ndarray) -> FrequencyTable:
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
    return _weighted_kappa(*common_categories(a, b)[1:])


def _weighted_kappa(cats_a: np.ndarray, cats_b: np.ndarray) -> float:
    table = _frequency_table(cats_a, cats_b)
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

    Counts all n(n-1)/2 unordered movie pairs. For each pair the two rating
    differences are compared: both zero -> concordant, exactly one zero ->
    ignored, same sign -> concordant, opposite signs -> discordant. The
    denominator keeps every pair, including the ignored ones.

    Raises :class:`InsufficientOverlapError` when fewer than 2 common movies.
    """
    return _kendalls_tau(*common_categories(a, b)[1:])


def _kendalls_tau(cats_a: np.ndarray, cats_b: np.ndarray) -> KTResult:
    n = len(cats_a)
    if n < 2:
        raise InsufficientOverlapError(needed=2, found=n)

    # Signs are identical on category indices and on the 0-1 scale. The n x n
    # sign matrices hold each unordered pair twice, and their diagonal adds
    # n cells where both signs are zero.
    sign_a = np.sign(cats_a[None, :] - cats_a[:, None])
    sign_b = np.sign(cats_b[None, :] - cats_b[:, None])
    concordant = (int((sign_a == sign_b).sum()) - n) // 2
    discordant = int((sign_a * sign_b < 0).sum()) // 2
    total = n * (n - 1) // 2
    ignored = total - concordant - discordant
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
    return _pearson(*common_categories(a, b)[1:])


def _pearson(cats_a: np.ndarray, cats_b: np.ndarray) -> PearsonResult:
    n = len(cats_a)
    if n < 2:
        raise InsufficientOverlapError(needed=2, found=n)
    # r is the same on raw categories as on the 0-1 scale, and there every
    # moment is an exact integer: the only roundings are the variance
    # product, the square root and the division
    a, b = cats_a.tolist(), cats_b.tolist()
    sum_a, sum_b = sum(a), sum(b)
    covariance = n * sum(x * y for x, y in zip(a, b)) - sum_a * sum_b
    variances = (n * sum(x * x for x in a) - sum_a**2) * (n * sum(y * y for y in b) - sum_b**2)
    if variances == 0:  # a constant side
        return PearsonResult(0.0, degenerate=True)
    r = float(covariance) / math.sqrt(float(variances))
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
    _, cats_a, cats_b = common_categories(a, b)
    if len(cats_a) < _needed(measure):
        return AffinityValue(0.0, insufficient_overlap=True)
    if measure.kind is AffinityKind.WEIGHTED_KAPPA:
        return AffinityValue(_weighted_kappa(cats_a, cats_b))
    if measure.kind is AffinityKind.KENDALLS_TAU:
        return AffinityValue(_kendalls_tau(cats_a, cats_b).tau)
    return AffinityValue(_pearson(cats_a, cats_b).value)


def _needed(measure: AffinityMeasure) -> int:
    """Fewest common movies for which ``measure`` gives a value."""
    return max(measure.min_overlap, _INTRINSIC_MIN[measure.kind])


#: ``_CREDITS`` indexed by category, with 0 (unrated) earning no credit.
_CREDIT_LOOKUP = np.pad(_CREDITS, ((1, 0), (1, 0)))

#: Kendall's Tau as a quadratic form of a pair's flattened 6x6 frequency
#: table f: ``_TAU_FORM[(p, q), (r, s)] = sign(p - r) * sign(q - s)``.
_SIGNS = np.sign(np.arange(NUM_CATEGORIES)[:, None] - np.arange(NUM_CATEGORIES)[None, :])
_TAU_FORM = (_SIGNS[:, None, :, None] * _SIGNS[None, :, None, :]).reshape(
    NUM_CATEGORIES**2, NUM_CATEGORIES**2
).astype(np.float64)


def category_matrix(profiles: list[UserProfile], movies: np.ndarray) -> np.ndarray:
    """int8 profile x movie categories over the ascending ids ``movies``; 0 = unrated.

    Ratings of movies outside ``movies`` are left out: they share nothing
    with any profile whose movies all lie in it.
    """
    ids = np.concatenate([p.movie_array for p in profiles])
    owner = np.repeat(np.arange(len(profiles)), [len(p) for p in profiles])
    categories = np.concatenate([p.category_array for p in profiles])
    columns = np.searchsorted(movies, ids)
    known = np.append(movies, 0)[columns] == ids  # movie ids are positive
    matrix = np.zeros((len(profiles), len(movies)), dtype=np.int8)
    matrix[owner[known], columns[known]] = categories[known]
    return matrix


#: Most that one movie column adds to a block kernel's integer sums: a Weighted
#: Kappa credit, a Kendall's Tau table count, a Pearson product of categories.
_PER_MOVIE = {
    AffinityKind.WEIGHTED_KAPPA: NUM_CATEGORIES - 1,
    AffinityKind.KENDALLS_TAU: 1,
    AffinityKind.PEARSON: NUM_CATEGORIES**2,
}


def _exact_dtype(kind: AffinityKind, movies: int) -> type[np.floating]:
    """float32 while a block kernel's integer sums stay below 2**24, else float64."""
    return np.float32 if _PER_MOVIE[kind] * movies < 2**24 else np.float64


def _onehot(block: np.ndarray, dtype: type[np.floating]) -> np.ndarray:
    """(6 rows) x movies indicators: row ``6 i + c - 1`` marks ``block[i] == c``."""
    categories = np.arange(1, NUM_CATEGORIES + 1, dtype=block.dtype)[None, :, None]
    return (block[:, None, :] == categories).astype(dtype).reshape(-1, block.shape[1])


def category_affinity(
    measure: AffinityMeasure, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`affinity` of every row of ``a`` with every row of ``b``: (values, short flags).

    ``a`` and ``b`` are int8 category blocks over the same movie columns, as
    :func:`category_matrix` builds them.

    Weighted Kappa is credit ``sum_c onehot_c(a) @ (sum_d credit[c, d]
    onehot_d(b))^T`` over overlap ``(a > 0) @ (b > 0)^T``. Kendall's Tau
    takes every pair's 6x6 table f from one one-hot product and counts
    ``2(C - D) = f^T S f + f^T f - n`` with ``S`` = ``_TAU_FORM``. Pearson
    takes the moments n, sum a, sum b, sum ab, sum a^2 and sum b^2 of the raw
    categories from products of ``a > 0``, ``a`` and ``a * a`` with the same
    for ``b``. The products run in float32 while their integers stay below
    2**24 (float64 from there), the quadratic form in float64 (exact while
    n**2 < 2**53), so every count is exact whatever the BLAS order or thread
    count. What follows is elementwise float64 and rounds where the per-pair
    functions do: once for WK and KT (the division), three times for Pearson
    (the variance product, the square root, the division), so each value is
    theirs bit for bit.
    """
    rated = (a > 0).any(axis=0)  # movies no row of ``a`` rated count for no pair
    a, b = a[:, rated], b[:, rated]
    exact = _exact_dtype(measure.kind, a.shape[1])
    if measure.kind is AffinityKind.WEIGHTED_KAPPA:
        lookup = _CREDIT_LOOKUP.astype(exact)
        numerator = sum(
            (a == c).astype(exact) @ lookup[c][b].T for c in range(1, NUM_CATEGORIES + 1)
        )
        overlap = ((a > 0).astype(exact) @ (b > 0).astype(exact).T).astype(np.float64)
        denominator = (NUM_CATEGORIES - 1) * overlap
    elif measure.kind is AffinityKind.KENDALLS_TAU:
        g = NUM_CATEGORIES
        products = (_onehot(a, exact) @ _onehot(b, exact).T).reshape(len(a), g, len(b), g)
        tables = products.swapaxes(1, 2).reshape(len(a), len(b), g * g).astype(np.float64)
        overlap = tables.sum(axis=2)
        numerator = ((tables @ _TAU_FORM + tables) * tables).sum(axis=2) - overlap
        denominator = overlap * (overlap - 1)
    else:  # Pearson, on raw categories: the (c - 1)/5 rescaling leaves r unchanged
        ones_a, ones_b = (a > 0).astype(exact), (b > 0).astype(exact)
        a, b = a.astype(exact), b.astype(exact)
        overlap, sum_a, sum_b, sum_ab, sum_aa, sum_bb = (
            (x @ y.T).astype(np.float64)
            for x, y in [(ones_a, ones_b), (a, ones_b), (ones_a, b),
                         (a, b), (a * a, ones_b), (ones_a, b * b)]
        )
        covariance = overlap * sum_ab - sum_a * sum_b
        spread = np.sqrt((overlap * sum_aa - sum_a**2) * (overlap * sum_bb - sum_b**2))
        # |covariance| <= spread (Cauchy-Schwarz, and the roundings keep it),
        # so the clip, like the per-pair clamp, only guards r in [-1, 1].
        # spread is 0 or at least 1: a constant side gives 0 / 1 and is not
        # flagged short.
        numerator = np.clip(covariance, -spread, spread)
        denominator = np.maximum(spread, 1.0)
    short = overlap < _needed(measure)
    values = np.divide(
        numerator, denominator, out=np.zeros(short.shape), where=~short, dtype=np.float64
    )
    return values, short

