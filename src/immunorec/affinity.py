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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .domain import NUM_CATEGORIES, Dataset, UserProfile, common_categories, flatten
from .errors import ConfigError, InsufficientOverlapError

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
            raise ConfigError(f"min_overlap must be >= 1, got {self.min_overlap}")


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

    Counts all n(n-1)/2 unordered movie pairs. For each pair the two rating
    differences are compared: both zero -> concordant, exactly one zero ->
    ignored, same sign -> concordant, opposite signs -> discordant. The
    denominator keeps every pair, including the ignored ones.

    Raises :class:`InsufficientOverlapError` when fewer than 2 common movies.
    """
    _, cats_a, cats_b = common_categories(a, b)
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
    _, cats_a, cats_b = common_categories(a, b)
    n = len(cats_a)
    if n < 2:
        raise InsufficientOverlapError(needed=2, found=n)
    # r is the same on raw categories as on the 0-1 scale, and there every
    # moment is an exact integer: the only roundings are the variance
    # product, the square root and the division
    xs, ys = cats_a.tolist(), cats_b.tolist()
    sum_a, sum_b = sum(xs), sum(ys)
    covariance = n * sum(x * y for x, y in zip(xs, ys)) - sum_a * sum_b
    variances = (n * sum(x * x for x in xs) - sum_a**2) * (n * sum(y * y for y in ys) - sum_b**2)
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
    if len(a.categories.keys() & b.categories.keys()) < _needed(measure):
        return AffinityValue(0.0, insufficient_overlap=True)
    if measure.kind is AffinityKind.WEIGHTED_KAPPA:
        return AffinityValue(weighted_kappa(a, b))
    if measure.kind is AffinityKind.KENDALLS_TAU:
        return AffinityValue(kendalls_tau(a, b).tau)
    return AffinityValue(pearson_baseline(a, b).value)


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
)


def category_matrix(profiles: list[UserProfile], movies: np.ndarray) -> np.ndarray:
    """int8 profile x movie categories over the ascending ids ``movies``; 0 = unrated.

    Ratings of movies outside ``movies`` are left out: they share nothing
    with any profile whose movies all lie in it.
    """
    counts, ids, categories = flatten(profiles)
    owner = np.repeat(np.arange(len(profiles)), counts)
    columns = np.searchsorted(movies, ids)
    known = np.append(movies, 0)[columns] == ids  # movie ids are positive
    matrix = np.zeros((len(profiles), len(movies)), dtype=np.int8)
    matrix[owner[known], columns[known]] = categories[known]
    return matrix


#: Most that one movie column adds to a block kernel's integer sums: a Weighted
#: Kappa credit, a Pearson product of categories (:func:`_tau_terms` sizes its own).
_PER_MOVIE = {
    AffinityKind.WEIGHTED_KAPPA: NUM_CATEGORIES - 1,
    AffinityKind.PEARSON: NUM_CATEGORIES**2,
}


def _exact_dtype(bound: int) -> type[np.floating]:
    """float32 while ``bound``, a kernel's largest integer, stays below 2**24; else float64."""
    return np.float32 if bound < 2**24 else np.float64


def _packing(longest: int) -> tuple[int, int]:
    """(bits, categories per product) of :func:`_packed` when no count exceeds ``longest``.

    A count below ``2**bits`` never carries into the next digit, and ``per``
    digits of ``bits`` bits stay below ``2**53``, where float64 holds every
    integer, so each product and each of its partial sums is exact.
    """
    bits = max(longest, 1).bit_length()
    return bits, min(NUM_CATEGORIES, 53 // bits)


def _packed(block: np.ndarray, longest: int) -> np.ndarray:
    """products x rows x movies float64: category ``c`` as one base-``2**bits`` digit.

    With ``k = c - 1``, category ``c`` is ``2**(bits * (k % per))`` in
    product ``k // per`` and 0 in the others, and unrated is 0 in all
    (:func:`_packing` gives ``bits`` and ``per``).
    """
    bits, per = _packing(longest)
    k = np.arange(NUM_CATEGORIES)
    digits = np.zeros((-(-NUM_CATEGORIES // per), NUM_CATEGORIES + 1))
    digits[k // per, k + 1] = 2.0 ** (bits * (k % per))
    return digits[:, block]


def _tau_terms(a: np.ndarray, packed: np.ndarray, longest: int) -> tuple[np.ndarray, np.ndarray]:
    """Kendall's Tau (``2(C - D)``, overlap) of every row of ``a`` with every row of ``packed``.

    ``packed`` is :func:`_packed` of the second block and no pair shares more
    than ``longest`` movies. The one-hot rows of ``a``, category ``p`` of row
    ``i`` at ``p * rows + i``, times a packed product hold each pair's table
    counts ``f[p, q]`` as digits, which a shift and a mask give back. Then
    ``2(C - D) = f^T S f + f^T f - n`` with ``S`` = ``_TAU_FORM``, which
    keeps its value when both sides of the table swap. Every partial sum of
    the form lies within ``2 longest**2`` of 0, so it runs in
    :func:`_exact_dtype` of that and every count is exact.
    """
    g = NUM_CATEGORIES
    bits, per = _packing(longest)
    rows_a, rows_b = len(a), packed.shape[1]
    onehot = (a == np.arange(1, g + 1)[:, None, None]).astype(np.float64)
    onehot = onehot.reshape(g * rows_a, a.shape[1])
    sums = [(onehot @ product.T).astype(np.int64).ravel() for product in packed]
    form = _exact_dtype(2 * longest**2)
    tables = np.empty((g, g * rows_a * rows_b), form)  # row q: f[p, q] of pair (i, j) at (p, i, j)
    for q in range(g):
        tables[q] = (sums[q // per] >> (bits * (q % per))) & (2**bits - 1)
    tables = tables.reshape(g * g, rows_a * rows_b)
    overlap = tables.sum(axis=0)
    terms = _TAU_FORM.astype(form) @ tables
    terms += tables
    terms *= tables
    return (terms.sum(axis=0) - overlap).reshape(rows_a, rows_b), overlap.reshape(rows_a, rows_b)


def category_affinity(
    measure: AffinityMeasure, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`affinity` of every row of ``a`` with every row of ``b``: (values, short flags).

    ``a`` and ``b`` are int8 category blocks over the same movie columns, as
    :func:`category_matrix` builds them.
    """
    return _affinity_values(measure, *_affinity_terms(measure.kind, a, b))


def _affinity_terms(
    kind: AffinityKind, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every pair's (numerator, overlap) for :func:`_affinity_values`.

    Weighted Kappa's numerator is the credit ``sum_d credit[d, a] @
    onehot_d(b)^T`` (the credits are symmetric), which gathers credits over
    ``a`` only: every caller passes the smaller block first. The overlap is
    ``(a > 0) @ (b > 0)^T``.
    Kendall's Tau comes from :func:`_tau_terms`; no pair shares more movies
    than the longest row of ``a`` rated. Pearson takes the moments n,
    sum a, sum b, sum ab, sum a^2 and sum b^2 of the raw categories from
    products of ``a > 0``, ``a`` and ``a * a`` with the same for ``b``, and
    its numerator is r itself. These products run in float32 while their
    integers stay below 2**24 (float64 from there), so every count is exact
    whatever the BLAS order or thread count. Pearson then rounds where
    :func:`pearson_baseline` does: the variance product, the square root and
    the division, so r is its value bit for bit.
    """
    rated = (a > 0).any(axis=0)  # movies no row of ``a`` rated count for no pair
    a, b = a[:, rated], b[:, rated]
    if kind is AffinityKind.KENDALLS_TAU:
        longest = int(np.count_nonzero(a, axis=1).max(initial=0))
        return _tau_terms(a, _packed(b, longest), longest)
    exact = _exact_dtype(_PER_MOVIE[kind] * a.shape[1])
    if kind is AffinityKind.WEIGHTED_KAPPA:
        lookup = _CREDIT_LOOKUP.astype(exact)
        credit = sum(
            lookup[d][a] @ (b == d).astype(exact).T for d in range(1, NUM_CATEGORIES + 1)
        )
        return credit, (a > 0).astype(exact) @ (b > 0).astype(exact).T
    # Pearson, on raw categories: the (c - 1)/5 rescaling leaves r unchanged
    ones_a, ones_b = (a > 0).astype(exact), (b > 0).astype(exact)
    a, b = a.astype(exact), b.astype(exact)
    overlap, sum_a, sum_b, sum_ab, sum_aa, sum_bb = (
        (x @ y.T).astype(np.float64)
        for x, y in [(ones_a, ones_b), (a, ones_b), (ones_a, b),
                     (a, b), (a * a, ones_b), (ones_a, b * b)]
    )
    covariance = overlap * sum_ab - sum_a * sum_b
    spread = np.sqrt((overlap * sum_aa - sum_a**2) * (overlap * sum_bb - sum_b**2))
    # |covariance| <= spread (Cauchy-Schwarz, and the roundings keep it), so
    # the clip, like the per-pair clamp, only guards r in [-1, 1]. spread is
    # 0 or at least 1: a constant side gives 0 / 1 and is not flagged short.
    return np.clip(covariance, -spread, spread) / np.maximum(spread, 1.0), overlap


def _affinity_values(
    measure: AffinityMeasure, numerator: np.ndarray, overlap: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(values, short flags) from :func:`_affinity_terms`' exact terms, of any dtype.

    Short pairs are 0. Weighted Kappa divides its credit by ``5 n`` and
    Kendall's Tau ``2(C - D)`` by ``n (n - 1)``, once each in float64, so
    each value is the per-pair one bit for bit; Pearson's numerator already
    is r.
    """
    overlap = overlap.astype(np.float64, copy=False)
    short = overlap < _needed(measure)
    if measure.kind is AffinityKind.PEARSON:
        return np.where(short, 0.0, numerator), short
    if measure.kind is AffinityKind.WEIGHTED_KAPPA:
        denominator = (NUM_CATEGORIES - 1) * overlap
    else:
        denominator = overlap * (overlap - 1)
    values = np.divide(
        numerator, denominator, out=np.zeros(short.shape), where=~short, dtype=np.float64
    )
    return values, short


def _count_dtype(bound: int) -> type[np.signedinteger]:
    """The narrowest signed integer type that holds every integer in [-bound, bound]."""
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)


def _terms_dtypes(kind: AffinityKind, longest: int) -> type[np.signedinteger]:
    """Exact numerator storage for WK or KT pairs that share at most ``longest`` movies.

    A Weighted Kappa credit reaches ``5 n`` and a Kendall's Tau ``|2(C - D)|``
    ``n (n - 1)``.
    """
    bounds = {
        AffinityKind.WEIGHTED_KAPPA: (NUM_CATEGORIES - 1) * longest,
        AffinityKind.KENDALLS_TAU: longest * (longest - 1),
    }
    return _count_dtype(bounds[kind])


def _usable(values: np.ndarray, short: np.ndarray, remap_negative: bool) -> np.ndarray:
    """The float64 numbers the immune network consumes: neutral 0 where the
    overlap is short, and ``(a + 1) / 2`` elsewhere when ``remap_negative``."""
    if remap_negative:
        values = (values + 1.0) / 2.0
    return np.where(short, 0.0, values)


#: Rows per kernel call while a pool's store is built. More rows encode the pool
#: less often but raise the peak: Pearson's 4.6 MB at 20 rows on 500 users is 5.9
#: at 50, Kendall's Tau's passes 5 MB at 10 rows, and it runs slower at 50.
_POOL_CHUNK = {
    AffinityKind.WEIGHTED_KAPPA: 50,
    AffinityKind.PEARSON: 20,
    AffinityKind.KENDALLS_TAU: 5,
}


class PoolAffinities:
    """The usable affinities among one pool's users, addressed by pool row.

    Row ``i`` is the ``i``-th user of ``dataset.user_ids``, and
    ``categories[i]`` its int8 category row over ``movies``, all scattered
    at once from the dataset's rating columns, so no profile is read.
    :meth:`block` gives, for any rows x cols, exactly the :func:`_usable`
    values of :func:`category_affinity` on those rows, remapped when
    ``remap_negative`` is set. A plain instance runs the kernel on every
    call; :meth:`precomputed` runs it once over every pair of the pool and
    keeps the n x n float64 usable values, so that a block is one ``take``.
    ``users`` is the dataset's user id -> profile mapping.
    """

    def __init__(
        self, dataset: Dataset, measure: AffinityMeasure, remap_negative: bool = False
    ) -> None:
        self.measure = measure
        self.remap_negative = remap_negative
        self.movies = dataset.movie_array
        self.users = dataset.users
        self.user_ids = np.array(dataset.user_ids, dtype=np.int64)
        counts, columns, categories = dataset.rating_columns
        n = len(self.user_ids)
        self.categories = np.zeros((n, len(self.movies)), dtype=np.int8)
        # each rating's flat index: its user's row offset plus its movie column
        offsets = np.repeat(np.arange(n) * len(self.movies), counts)
        self.categories.ravel()[offsets + columns] = categories
        self.usable: np.ndarray | None = None

    @classmethod
    def precomputed(
        cls, dataset: Dataset, measure: AffinityMeasure, remap_negative: bool = False
    ) -> PoolAffinities:
        """Usable affinities of the whole pool, built once.

        The kernel runs on the kind's ``_POOL_CHUNK`` rows at a time against
        the rows from there on; each chunk's exact terms get the one float64
        division of :func:`_affinity_values` and then :func:`_usable`, and the
        chunk is written and mirrored, since every value is symmetric. No
        integer terms outlive their chunk. Kendall's Tau packs the pool once
        (:func:`_packed`) and one-hot encodes only each chunk.
        """
        pool = cls(dataset, measure, remap_negative)
        categories = pool.categories
        n = len(categories)
        usable = np.empty((n, n))
        tau = measure.kind is AffinityKind.KENDALLS_TAU
        if tau:
            longest = int(np.count_nonzero(categories, axis=1).max(initial=0))
            packed = _packed(categories, longest)
        for start in range(0, n, _POOL_CHUNK[measure.kind]):
            stop = start + _POOL_CHUNK[measure.kind]
            if tau:
                terms = _tau_terms(categories[start:stop], packed[:, start:], longest)
            else:
                terms = _affinity_terms(measure.kind, categories[start:stop], categories[start:])
            chunk = _usable(*_affinity_values(measure, *terms), remap_negative)
            usable[start:stop, start:] = chunk
            usable[start:, start:stop] = chunk.T
        pool.usable = usable
        return pool

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Usable affinities of every category row of ``a`` with every one of ``b``."""
        return _usable(*category_affinity(self.measure, a, b), self.remap_negative)

    def antigen_affinities(self, antigens: Sequence[UserProfile]) -> np.ndarray:
        """Usable affinities of every antigen with every pool row: antigens x pool rows.

        One kernel call, on the antigens' category rows and ``categories``,
        made usable, for either kind of pool. Each pair is computed on its
        own, so a batch gives what one antigen at a time would.
        """
        return self._kernel(category_matrix(antigens, self.movies), self.categories)

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Usable affinities of every pool row ``rows`` with every pool row ``cols``."""
        if self.usable is None:
            return self._kernel(self.categories[rows], self.categories[cols])
        return self.usable.take(rows[:, None] * len(self.usable) + cols)
