"""Output checks and brute-force affinity oracles.

Every check returns ``None`` when the output is correct and otherwise a
short reason, which the benchmark counts as a failed call. The oracles use
only exact integer and ``Fraction`` arithmetic and compare with ``==``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: Fewest common movies for which each measure is defined (the CLI's
#: ``--min-overlap`` default is 2, which dominates both).
_INTRINSIC_MIN = {"wk": 1, "kt": 2}


def check_report(text: str, users: int, trials: int) -> str | None:
    """Invariants of an ``eval accuracy --report-format json`` report."""
    report = json.loads(text)
    rows = report["rows"]
    if len(rows) != users:
        return f"{len(rows)} report rows for {users} users"
    for row in rows:
        if not 0.0 <= row["accuracy"] <= 1.0:
            return f"user {row['user_id']}: accuracy {row['accuracy']} outside [0, 1]"
        if not 0 <= row["fallback_trials"] <= trials:
            return f"user {row['user_id']}: {row['fallback_trials']} fallbacks in {trials} trials"
    if not math.isfinite(report["mean"]):
        return f"mean {report['mean']} is not finite"
    return None


def check_recommendations(text: str, rated: set[int], count: int) -> str | None:
    """Invariants of a ``recommend -o`` list for a user who rated ``rated``."""
    entries = json.loads(text)["entries"]
    if len(entries) > count:
        return f"{len(entries)} entries for --count {count}"
    keys = [(-e["value"], e["movie_id"]) for e in entries]
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        return "entries not ordered by (-value, movie_id)"
    for entry in entries:
        if entry["movie_id"] in rated:
            return f"movie {entry['movie_id']} is already rated by the user"
        if entry["support"] < 1:
            return f"movie {entry['movie_id']} has support {entry['support']}"
    return None


def _common(a: dict[int, int], b: dict[int, int]) -> list[int]:
    return sorted(set(a) & set(b))


def wk_oracle(a: dict[int, int], b: dict[int, int]) -> float:
    """Exact mean of the linear weights 1 - |i-j|/5 over the common movies."""
    common = _common(a, b)
    total = sum(Fraction(1) - Fraction(abs(a[m] - b[m]), 5) for m in common)
    return float(total / len(common))


def kt_oracle(a: dict[int, int], b: dict[int, int]) -> float:
    """Pair enumeration with the tie rule: both differences zero is
    concordant, exactly one zero is ignored but stays in the denominator."""
    common = _common(a, b)
    n = len(common)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            da = a[common[j]] - a[common[i]]
            db = b[common[j]] - b[common[i]]
            if da == 0 and db == 0:
                concordant += 1
            elif da == 0 or db == 0:
                continue
            elif (da > 0) == (db > 0):
                concordant += 1
            else:
                discordant += 1
    return float(Fraction(2 * (concordant - discordant), n * (n - 1)))


_ORACLES = {"wk": wk_oracle, "kt": kt_oracle}


def oracle_spot_check(dataset, pairs: list[tuple[int, int]], min_overlap: int = 2) -> list[str]:
    """Compare ``immunorec.affinity.affinity`` with the oracles on ``pairs``.

    Returns one line per mismatch; an empty list means every value and every
    insufficient-overlap flag agreed exactly.
    """
    from immunorec.affinity import AffinityKind, AffinityMeasure, affinity

    mismatches = []
    for kind, oracle in _ORACLES.items():
        measure = AffinityMeasure(AffinityKind(kind), min_overlap=min_overlap)
        needed = max(min_overlap, _INTRINSIC_MIN[kind])
        for ua, ub in pairs:
            a, b = dataset.users[ua], dataset.users[ub]
            got = affinity(measure, a, b)
            short = len(_common(a.categories, b.categories)) < needed
            want = 0.0 if short else oracle(a.categories, b.categories)
            if got.value != want or got.insufficient_overlap != short:
                mismatches.append(
                    f"{kind} users {ua},{ub}: got {got.value!r} "
                    f"(short={got.insufficient_overlap}), oracle {want!r} (short={short})"
                )
    return mismatches
