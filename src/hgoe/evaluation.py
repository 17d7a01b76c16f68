"""Retrieval metrics and system comparison.

Covers average precision and P@k against relevance judgements, rank
agreement between systems (Spearman's rho over completed rankings, Jaccard
overlap of retrieved sets, Kendall's W across repeated runs), the
Mann-Whitney U test, and a repeated-comparison harness that aggregates
per-topic agreement over many repetitions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import AbstractSet, Callable, Collection, Sequence

from .errors import InputError

# A system maps (query, rng_seed) to an ordered list of document ids.
System = Callable[[str, int], Sequence[str]]

MANN_WHITNEY_EXACT_LIMIT = 12


def average_precision(ranked: Sequence[str], relevant: AbstractSet[str]) -> float:
    """Mean of precision at each relevant rank, over all relevant documents."""
    if not relevant:
        raise InputError("average_precision needs a non-empty relevant set")
    hits = 0
    total = 0.0
    for position, doc_id in enumerate(ranked, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / position
    return total / len(relevant)


def precision_at_k(ranked: Sequence[str], relevant: AbstractSet[str], k: int) -> float:
    """Fraction of the top k that is relevant; missing tail counts as misses."""
    if k < 1:
        raise InputError("k must be at least 1")
    return sum(1 for doc_id in ranked[:k] if doc_id in relevant) / k


@dataclass
class MapResult:
    mean: float
    per_topic: dict[str, float]
    excluded_no_relevant: list[str] = field(default_factory=list)
    skipped_unknown: list[str] = field(default_factory=list)


def mean_average_precision(
    run: dict[str, Sequence[str]], qrels: dict[str, dict[str, int]]
) -> MapResult:
    """MAP over the topics of a run.

    Topics absent from the judgements are skipped; topics whose judgements
    contain no relevant document are excluded from the mean and flagged.
    """
    per_topic: dict[str, float] = {}
    excluded: list[str] = []
    skipped: list[str] = []
    for topic_id in sorted(run):
        judgements = qrels.get(topic_id)
        if judgements is None:
            skipped.append(topic_id)
            continue
        relevant = {doc_id for doc_id, grade in judgements.items() if grade > 0}
        if not relevant:
            excluded.append(topic_id)
            continue
        per_topic[topic_id] = average_precision(run[topic_id], relevant)
    return MapResult(_mean_in_order(per_topic.values()), per_topic, excluded, skipped)


def evaluate_run(
    run: dict[str, Sequence[str]], qrels: dict[str, dict[str, int]], k: int
) -> tuple[MapResult, dict[str, float], float]:
    """MAP of a run, plus P@k per evaluated topic and its mean.

    P@k is taken over the topics MAP averages: judged topics with at least
    one relevant document. The mean is 0.0 when no topic was evaluated.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    result = mean_average_precision(run, qrels)
    p_at_k: dict[str, float] = {}
    for topic_id in result.per_topic:
        relevant = {doc_id for doc_id, grade in qrels[topic_id].items() if grade > 0}
        p_at_k[topic_id] = precision_at_k(run[topic_id], relevant, k)
    return result, p_at_k, _mean_in_order(p_at_k.values())


def _mean_in_order(values: Collection[float]) -> float:
    """The mean of values added left to right, 0.0 for none.

    Built-in sum() adds floats with compensation from Python 3.12 on, so
    its means differ in the last bits between interpreters (ten values of
    0.1 average to 0.09999999999999999 on 3.11, to 0.1 on 3.12); plain
    additions give the 3.11 float on every interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total / len(values) if values else 0.0


def _positions(ranking: Sequence[str], universe: Sequence[str]) -> dict[str, int]:
    present = set(ranking)
    if len(present) != len(ranking):
        raise InputError("ranking contains duplicate document ids")
    pos = {doc_id: i + 1 for i, doc_id in enumerate(ranking)}
    missing = sorted(doc_id for doc_id in universe if doc_id not in present)
    for offset, doc_id in enumerate(missing, start=len(ranking) + 1):
        pos[doc_id] = offset
    return pos


def complete_and_rank(
    ranking_a: Sequence[str], ranking_b: Sequence[str]
) -> tuple[list[int], list[int]]:
    """Extend two rankings over their union and return aligned positions.

    Retrieved documents keep their ranks; documents missing from one ranking
    are appended after its last position in lexicographic id order. The two
    position vectors are aligned on the sorted union of document ids.
    """
    universe = sorted(set(ranking_a) | set(ranking_b))
    pos_a = _positions(ranking_a, universe)
    pos_b = _positions(ranking_b, universe)
    return [pos_a[d] for d in universe], [pos_b[d] for d in universe]


def complete_rankings(rankings: Sequence[Sequence[str]]) -> list[list[str]]:
    """Complete several rankings over the union universe, keeping order."""
    universe = sorted(set().union(*map(set, rankings)) if rankings else set())
    completed = []
    for ranking in rankings:
        pos = _positions(ranking, universe)
        completed.append(sorted(universe, key=lambda d: pos[d]))
    return completed


def spearman_rho(positions_a: Sequence[int], positions_b: Sequence[int]) -> float | None:
    """Tie-free rank correlation; None when fewer than two items exist."""
    if len(positions_a) != len(positions_b):
        raise InputError("position vectors differ in length")
    n = len(positions_a)
    if n < 2:
        return None
    d_squared = sum((a - b) ** 2 for a, b in zip(positions_a, positions_b))
    return 1.0 - 6.0 * d_squared / (n * (n * n - 1))


def jaccard(set_a: AbstractSet[str], set_b: AbstractSet[str]) -> float:
    """Overlap of two retrieved sets; two empty sets count as identical."""
    if not set_a and not set_b:
        return 1.0
    return len(set_a & set_b) / len(set_a | set_b)


def kendalls_w(rankings: Sequence[Sequence[str]]) -> float:
    """Concordance of m tie-free rankings over one item set.

    W = 12 S / (m^2 (n^3 - n)) with S the squared deviation of the rank sums
    from their mean. Rankings over mismatched item sets are an input error;
    complete them first (complete_rankings) if they were retrieved runs.
    """
    m = len(rankings)
    if m < 2:
        raise InputError("Kendall's W needs at least two rankings")
    items = set(rankings[0])
    n = len(items)
    if len(rankings[0]) != n:
        raise InputError("ranking contains duplicate document ids")
    if n < 2:
        raise InputError("Kendall's W needs at least two items")
    rank_sums = {item: 0 for item in items}
    for ranking in rankings:
        if set(ranking) != items or len(ranking) != n:
            raise InputError("rankings cover different item sets")
        for position, item in enumerate(ranking, start=1):
            rank_sums[item] += position
    mean_sum = m * (n + 1) / 2
    s = sum((total - mean_sum) ** 2 for total in rank_sums.values())
    return 12.0 * s / (m * m * (n ** 3 - n))


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> tuple[float, float]:
    """Two-sided Mann-Whitney U test; returns (U of sample A, p-value).

    Small inputs (n1 + n2 <= MANN_WHITNEY_EXACT_LIMIT) get the exact p by
    enumerating every label assignment; larger inputs use the normal
    approximation with tie correction and a continuity correction.
    """
    n1, n2 = len(sample_a), len(sample_b)
    if n1 == 0 or n2 == 0:
        raise InputError("both samples must be non-empty")
    u_doubled = _u_doubled(sample_a, sample_b)
    if n1 + n2 <= MANN_WHITNEY_EXACT_LIMIT:
        p = _exact_p(list(sample_a) + list(sample_b), n1, u_doubled)
    else:
        p = _approx_p(list(sample_a) + list(sample_b), n1, n2, u_doubled / 2.0)
    return u_doubled / 2.0, p


def _u_doubled(sample_a: Sequence[float], sample_b: Sequence[float]) -> int:
    """2U as an integer so half-point ties stay exact."""
    total = 0
    for a in sample_a:
        for b in sample_b:
            if a > b:
                total += 2
            elif a == b:
                total += 1
    return total


def _exact_p(pooled: list[float], n1: int, u_doubled: int) -> float:
    n = len(pooled)
    le = 0
    ge = 0
    count = 0
    for chosen in combinations(range(n), n1):
        chosen_set = set(chosen)
        a_vals = [pooled[i] for i in chosen]
        b_vals = [pooled[i] for i in range(n) if i not in chosen_set]
        u2 = _u_doubled(a_vals, b_vals)
        count += 1
        if u2 <= u_doubled:
            le += 1
        if u2 >= u_doubled:
            ge += 1
    return min(1.0, 2.0 * min(le, ge) / count)


def _approx_p(pooled: list[float], n1: int, n2: int, u: float) -> float:
    n = n1 + n2
    mu = n1 * n2 / 2.0
    tie_counts = {}
    for value in pooled:
        tie_counts[value] = tie_counts.get(value, 0) + 1
    tie_term = sum(t ** 3 - t for t in tie_counts.values())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return 1.0
    z = max(0.0, abs(u - mu) - 0.5) / math.sqrt(variance)
    return math.erfc(z / math.sqrt(2.0))


@dataclass
class ComparisonReport:
    repetitions: int
    per_topic_rho: dict[str, float | None]
    per_topic_jaccard: dict[str, float]
    rho_mean: float | None
    rho_std: float | None
    jaccard_mean: float
    jaccard_std: float


def repeated_comparison(
    system_a: System,
    system_b: System,
    topics: Sequence[tuple[str, str]],
    repetitions: int,
    base_seed: int = 0,
) -> ComparisonReport:
    """Average per-topic rank agreement between two systems over repetitions.

    Each repetition r re-runs both systems with fresh seeds (base_seed + 2r
    for system A, base_seed + 2r + 1 for system B; deterministic systems may
    ignore them), then compares the two rankings per topic with Spearman's
    rho (after completion over the union) and Jaccard overlap. The summary
    mean and population standard deviation are taken over per-topic means.
    """
    if repetitions < 1:
        raise InputError("repetitions must be at least 1")
    if not topics:
        raise InputError("no topics to compare")
    per_topic_rho: dict[str, float | None] = {}
    per_topic_jaccard: dict[str, float] = {}
    for topic_id, query in topics:
        rho_values = []
        jaccard_values = []
        for rep in range(repetitions):
            ranking_a = list(system_a(query, base_seed + 2 * rep))
            ranking_b = list(system_b(query, base_seed + 2 * rep + 1))
            positions_a, positions_b = complete_and_rank(ranking_a, ranking_b)
            rho = spearman_rho(positions_a, positions_b)
            if rho is not None:
                rho_values.append(rho)
            jaccard_values.append(jaccard(set(ranking_a), set(ranking_b)))
        per_topic_rho[topic_id] = _mean(rho_values) if rho_values else None
        per_topic_jaccard[topic_id] = _mean(jaccard_values)
    rho_observed = [v for v in per_topic_rho.values() if v is not None]
    jac_observed = list(per_topic_jaccard.values())
    return ComparisonReport(
        repetitions=repetitions,
        per_topic_rho=per_topic_rho,
        per_topic_jaccard=per_topic_jaccard,
        rho_mean=_mean(rho_observed) if rho_observed else None,
        rho_std=_std(rho_observed) if rho_observed else None,
        jaccard_mean=_mean(jac_observed),
        jaccard_std=_std(jac_observed),
    )


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    mu = _mean(values)
    return math.sqrt(math.fsum((v - mu) ** 2 for v in values) / len(values))
