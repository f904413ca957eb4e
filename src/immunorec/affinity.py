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
    if (cats_a == cats_a[0]).all() or (cats_b == cats_b[0]).all():
        return PearsonResult(0.0, degenerate=True)

    x = (cats_a - 1) / 5
    y = (cats_b - 1) / 5
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


def _exact_dtype(kind: AffinityKind, movies: int) -> type[np.floating]:
    """float32 while a block kernel's integer sums stay below 2**24, else float64.

    A Weighted Kappa credit sum grows by at most 5 per movie column, a
    Kendall's Tau table count by at most 1.
    """
    per_movie = NUM_CATEGORIES - 1 if kind is AffinityKind.WEIGHTED_KAPPA else 1
    return np.float32 if per_movie * movies < 2**24 else np.float64


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
    ``2(C - D) = f^T S f + f^T f - n`` with ``S`` = ``_TAU_FORM``. The
    products run in float32 while their integers stay below 2**24 (float64
    from there), the quadratic form in float64 (exact while n**2 < 2**53),
    so every count is exact whatever the BLAS order or thread count, and the
    one float64 division gives the per-pair functions' correctly rounded
    double. Pearson repeats the per-pair float operations, see
    :func:`_pearson_block`.
    """
    rated = (a > 0).any(axis=0)  # movies no row of ``a`` rated count for no pair
    a, b = a[:, rated], b[:, rated]
    if measure.kind is AffinityKind.PEARSON:
        return _pearson_block(a, b, _needed(measure))
    exact = _exact_dtype(measure.kind, a.shape[1])
    if measure.kind is AffinityKind.WEIGHTED_KAPPA:
        lookup = _CREDIT_LOOKUP.astype(exact)
        numerator = sum(
            (a == c).astype(exact) @ lookup[c][b].T for c in range(1, NUM_CATEGORIES + 1)
        )
        overlap = ((a > 0).astype(exact) @ (b > 0).astype(exact).T).astype(np.float64)
        denominator = (NUM_CATEGORIES - 1) * overlap
    else:
        g = NUM_CATEGORIES
        products = (_onehot(a, exact) @ _onehot(b, exact).T).reshape(len(a), g, len(b), g)
        tables = products.swapaxes(1, 2).reshape(len(a), len(b), g * g).astype(np.float64)
        overlap = tables.sum(axis=2)
        numerator = ((tables @ _TAU_FORM + tables) * tables).sum(axis=2) - overlap
        denominator = overlap * (overlap - 1)
    short = overlap < _needed(measure)
    values = np.divide(
        numerator, denominator, out=np.zeros(short.shape), where=~short, dtype=np.float64
    )
    return values, short


def _pearson_block(a: np.ndarray, b: np.ndarray, needed: int) -> tuple[np.ndarray, np.ndarray]:
    """Pearson of every row of ``a`` with every row of ``b``, bit for bit as :func:`_pearson`.

    The pairs sharing at least ``needed`` movies are sorted by overlap n, so
    each n owns one contiguous (pairs x n) block of common categories, and
    every step of :func:`_pearson` runs on it row by row: numpy reduces each
    row exactly as it reduces the per-pair vector. Rows are never padded to a
    common length, which would change that summation order. A constant side
    gives 0 without the short flag.
    """
    overlap = (a > 0).astype(np.float64) @ (b > 0).astype(np.float64).T  # exact counts
    short = overlap < needed
    i, j = np.nonzero(~short)
    order = np.argsort(overlap[i, j], kind="stable")
    i, j = i[order], j[order]
    sizes = overlap[i, j].astype(np.intp)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # Gather each pair from the columns its ``a`` row rated, ascending, so the
    # work grows with the most ratings in a row, not with the movies.
    width = (a > 0).sum(axis=1).max(initial=0)
    own_columns = np.argsort(a == 0, axis=1, kind="stable")[:, :width]
    own = np.take_along_axis(a, own_columns, axis=1)
    own_columns = np.where(own > 0, own_columns, a.shape[1])  # pad with an added unrated column
    padded = np.concatenate([b, np.zeros((len(b), 1), dtype=np.int8)], axis=1)
    cats_b = padded[:, own_columns][j, i]  # (pairs, slots)
    common = cats_b > 0
    cats_b = cats_b[common]  # flat, pair after pair; frees the block before ``own[i]``
    cats_a = own[i][common]
    constant = np.zeros(len(i), dtype=bool)
    for cats in (cats_a, cats_b):
        constant |= np.minimum.reduceat(cats, starts) == np.maximum.reduceat(cats, starts)
    sums = np.empty((3, len(i)))  # per pair: sum xd*yd, sum xd*xd, sum yd*yd
    bounds = np.flatnonzero(np.diff(sizes, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = sizes[lo]
        span = slice(starts[lo], ends[hi - 1])
        x = (cats_a[span].reshape(hi - lo, n) - 1) / 5
        y = (cats_b[span].reshape(hi - lo, n) - 1) / 5
        x -= x.sum(axis=1, keepdims=True) / n  # numpy's mean: the sum over n
        y -= y.sum(axis=1, keepdims=True) / n
        sums[:, lo:hi] = (x * y).sum(axis=1), (x * x).sum(axis=1), (y * y).sum(axis=1)
    r = np.divide(sums[0], np.sqrt(sums[1] * sums[2]), out=np.zeros(len(i)), where=~constant)
    values = np.zeros(overlap.shape)
    values[i, j] = np.clip(r, -1.0, 1.0)
    return values, short
