"""Random walk scoring over the hypergraph, with optional fatigue.

A query is mapped to seed nodes (entities its terms expand to through
ContainedIn edges, or the term nodes themselves when no expansion exists).
Each seed is walked `repeats` times for up to `walk_length` steps, and every
traversal of a Document edge counts as one visit for that document. The
final score of a document is its visit share; the ranking sorts by score
descending with ties broken by document id ascending.

Fatigue: one shared table covers every walk of an invocation. After a step
traverses edge e to target node v, e is fatigued for `edge_fatigue` steps
and v for `node_fatigue` steps. Fatigued edges cannot be traversed and
fatigued nodes cannot be stepped onto; an element fatigued at clock t is
blocked for exactly the next `delta` sampling decisions, i.e. clocks
t+1 .. t+delta. The clock advances only when some walker executes a step,
so a walk that finds no eligible transition ends early without a tick.

Walk tables: walks read each node's out-edges from the graph's
`walk_table`, and three tables this module derives from the frozen graph.
Each entry is built on first use (`_out_weight_sums`,
`_out_edges_by_targets`, `_target_table`) into a dict the graph stores
for it, so it serves every later ranking of that graph:
- `weight_sums`, per node: the running sums of its out-edge weights in
  out-edge order, added as `accumulate` adds them;
- `by_targets`, per node: the positions of its out-edges ordered by
  target count, ties in out-edge order, and those counts;
- `target_tables`, per edge of n targets: one array of the target weights
  (items 0..n-1), their running sums (n..2n-1) and at 2n + i the total
  weight of the targets other than the one at i, 0.0 until a walk first
  needs it (a weight is above 0, so a total never is).

Cost of a step: `random_walk` states the step once, for every walk. A
ranking makes its table with its two windows, and fatigue off means no
check: a walk over a table whose windows are both 0 is calm, ruling
nothing out and only ticking the clock. Any other walk calls
`_excluded_positions` at each step and `FatigueTable.advance` after it,
which checks one entry per kind for expiry. There an out-edge is ruled out
only when it is fatigued or every target other than the source is
fatigued. The excluded positions are listed, not collected in a set, and
the list is sorted in place: the fatigued edges give distinct positions,
bisecting the current node's sorted out-edges for each, O(log deg) each,
and a position the node rule finds again is not added twice. With m nodes
fatigued, the node rule needs an out-edge of at most m + 1 targets, so a
step reads only the first entries of `by_targets` and stops at each one's
first unfatigued target other than the source; when the node's fewest
targets (the first count) exceed m + 1, it reads none. A step picks k
among the eligible out-edges and steps k over the excluded positions.
Unweighted, it draws integers(count); weighted, it bisects `weight_sums`
when nothing is excluded, and otherwise lists the other out-edges'
weights, O(deg). With no node fatigued, a weighted step picks the target
from the edge's target table, building no list (`_weighted_target`); under
node fatigue it lists the eligible targets: the edge's targets less the
fatigued ones, by a filter that runs in C, then less the source. A walk
with no eligible transition ends without a draw, so `rws` stops at the
first round of walks (one from every seed) that takes no step: every later
round would find the same table.

Randomness: every invocation derives one PCG64 stream from
SeedSequence([rng_seed, query_key]) where query_key is the first 8 bytes
(big-endian) of sha256(query utf-8). Each step makes one call to pick an
edge and one call to pick a target, even when only one candidate exists:
unweighted graphs call integers(k) for both stages, the weighted variant
calls random() and picks against the cumulative weights. A call is not
always one word of the bit generator: numpy's integers(1) returns 0 and
reads nothing, and integers(k) redraws a 32-bit word whenever Lemire's
method rejects it. `rws` reads the stream in blocks (`BlockDraws`), one
kind per stream. Each block holds min(draw budget left, 1024) items, and
one item once the budget is spent, so a ranking that locks up after a few
steps reads at most 1024 items ahead. random() comes from
Generator.random(n), integers(k) by numpy's Lemire method over words from
Generator.integers(0, 2**32, size=n, dtype=uint32). Every call returns
what the same call on the Generator would, so the values drawn are the
contract; the Generator's state after a ranking is not. Identical inputs
give identical rankings on every platform.
"""
from __future__ import annotations

import hashlib
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, filterfalse, repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import InputError, InternalError, InvariantError
from .hypergraph import EdgeKind, Hypergraph, NodeKind, Variant
from .indexer import tokenize

StepListener = Callable[[int, int, int], None]


@dataclass(frozen=True)
class RankingParams:
    walk_length: int = 2
    repeats: int = 1000
    node_fatigue: int = 0
    edge_fatigue: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        if self.walk_length < 1:
            raise InputError("walk_length must be at least 1")
        if self.repeats < 1:
            raise InputError("repeats must be at least 1")
        if self.node_fatigue < 0 or self.edge_fatigue < 0:
            raise InputError("fatigue values must be non-negative")
        if self.rng_seed < 0:
            raise InputError("rng_seed must be non-negative")


@dataclass
class SeedSet:
    query: str
    seeds: tuple[int, ...]


@dataclass
class Ranking:
    """Scored documents plus the walk diagnostics that produced them."""

    entries: list[tuple[str, float]] = field(default_factory=list)
    visit_counts: dict[int, int] = field(default_factory=dict)
    total_steps: int = 0

    def doc_ids(self) -> list[str]:
        return [doc_id for doc_id, _ in self.entries]


class FatigueTable:
    """The fatigue clock, the ranking's two windows, and the elements they block.

    `nodes` and `edges` map each fatigued element to the clock value at
    which its window ends: fatigued at clock t with window delta, it stays
    in the table until the tick to t + delta, so it blocks the next delta
    decisions. Each dict is its own expiry queue. A kind has one window,
    and a tick fatigues at most one element of it, so its expiries are
    distinct and rise in insertion order: the one entry that can end at a
    tick is the front one. Reading it skips, in C, the slots deleted
    entries leave until the dict next resizes, up to about two windows'
    worth. A table with both windows 0 never holds an entry, so a calm walk
    over it (module docstring) ticks `clock` itself.
    """

    __slots__ = ("nodes", "edges", "clock", "node_fatigue", "edge_fatigue")

    def __init__(self, node_fatigue: int = 0, edge_fatigue: int = 0):
        if node_fatigue < 0 or edge_fatigue < 0:
            raise InputError("fatigue values must be non-negative")
        self.nodes: dict[int, int] = {}
        self.edges: dict[int, int] = {}
        self.clock = 0
        self.node_fatigue = node_fatigue
        self.edge_fatigue = edge_fatigue

    def advance(self, edge_id: int, target_id: int) -> None:
        """Tick the clock for one executed step, then fatigue its elements.

        The entry whose window ends at the new clock leaves first, and the
        new entries expire at clock + window, so a fresh entry survives
        exactly `window` subsequent decisions. A walk never fatigues an
        element inside its window again, but a direct caller can: the `pop`
        moves it to the back, so insertion order stays expiry order.
        """
        clock = self.clock = self.clock + 1
        nodes, edges = self.nodes, self.edges
        if nodes:
            front = next(iter(nodes))
            if nodes[front] <= clock:
                del nodes[front]
        if edges:
            front = next(iter(edges))
            if edges[front] <= clock:
                del edges[front]
        if self.node_fatigue:
            nodes.pop(target_id, None)
            nodes[target_id] = clock + self.node_fatigue
        if self.edge_fatigue:
            edges.pop(edge_id, None)
            edges[edge_id] = clock + self.edge_fatigue


def query_stream_key(query: str) -> int:
    """Stable 64-bit fingerprint a query contributes to its RNG stream."""
    return int.from_bytes(hashlib.sha256(query.encode("utf-8")).digest()[:8], "big")


def make_stream(rng_seed: int, query: str) -> np.random.Generator:
    """The documented per-invocation random stream."""
    seq = np.random.SeedSequence([rng_seed, query_stream_key(query)])
    return np.random.Generator(np.random.PCG64(seq))


BLOCK_ITEMS = 1024  # a ranking that locks up early reads only this far ahead
_WORDS = 1 << 32


class BlockDraws:
    """One kind of draw from a Generator, read in blocks.

    `random()` and `integers(k)` return exactly what the same calls on the
    Generator would. A reader serves only the kind it was made for; the
    other raises InternalError. The budget (the most calls the caller can
    make) bounds what a short stream reads ahead, and the block size (module
    docstring) what one that stops early does and the memory.
    """

    __slots__ = ("random", "_word")

    def __init__(self, gen: np.random.Generator, integers: bool, budget: int):
        # random is the item iterator's own __next__, so a draw runs no Python frame
        self.random = self._word = self._wrong_kind
        if integers:
            self._word = _blocks(
                lambda n: gen.integers(0, _WORDS, size=n, dtype=np.uint32), budget
            ).__next__
        else:
            self.random = _blocks(gen.random, budget).__next__

    def integers(self, k: int) -> int:
        """numpy's bounded Lemire method over 32-bit words, for 1 <= k <= 2**32."""
        if k == 1:
            return 0
        if not 1 < k <= _WORDS:
            raise InternalError(f"integers({k}) is outside 1..2**32")
        m = self._word() * k
        if m & 0xFFFFFFFF < k:
            threshold = (_WORDS - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * k
        return m >> 32

    @staticmethod
    def _wrong_kind() -> None:
        raise InternalError("a walk stream draws only the kind its variant uses")


def _blocks(read: Callable[[int], np.ndarray], budget: int) -> Iterator:
    """The items of read(n) blocks: n = min(budget left, BLOCK_ITEMS), and 1 once the
    budget is spent."""
    full, rest = divmod(max(budget, 0), BLOCK_ITEMS)
    sizes = chain(repeat(BLOCK_ITEMS, full), (rest,) if rest else (), repeat(1))
    return chain.from_iterable(map(lambda n: read(n).tolist(), sizes))


def step_budget(params: RankingParams, seed_count: int) -> int:
    """The most steps a ranking from seed_count seeds can take: seeds x repeats x length."""
    return seed_count * params.repeats * params.walk_length


def walk_draws(variant: Variant, query: str, params: RankingParams, seed_count: int) -> BlockDraws:
    """The draws rws walks with: make_stream read in blocks, two calls budgeted per step."""
    budget = 2 * step_budget(params, seed_count)
    return BlockDraws(
        make_stream(params.rng_seed, query), variant is not Variant.WEIGHTED, budget
    )


def map_query_to_seeds(graph: Hypergraph, query: str) -> SeedSet:
    """Expand query terms into seed nodes.

    A term that reaches entities through ContainedIn edges contributes those
    entity nodes; a term present in the graph without such edges contributes
    its own term node; an unknown term contributes nothing.
    """
    seeds: set[int] = set()
    for term in dict.fromkeys(tokenize(query)):
        node_id = graph.node_id(NodeKind.TERM, term)
        if node_id is None:
            continue
        seeds.update(graph.contained_in(node_id) or (node_id,))
    return SeedSet(query, tuple(sorted(seeds)))


def random_walk(
    graph: Hypergraph,
    start: int,
    length: int,
    fatigue: FatigueTable,
    rng: np.random.Generator | BlockDraws,
    step_listener: StepListener | None = None,
) -> tuple[list[int], list[int], int]:
    """Walk up to `length` steps from `start`, honouring and feeding fatigue.

    Returns (visited edge ids, visited node ids, steps taken). The start
    node is not a visit. The walk ends early, without a draw, when no
    eligible transition remains. The table's windows are the walk's: with
    both 0 the walk is calm and only ticks the clock; otherwise it rules
    out what fatigue blocks at each step (`_excluded_positions`) and feeds
    the table through `FatigueTable.advance`.
    """
    fatigued = fatigue.nodes
    calm = not (fatigue.node_fatigue or fatigue.edge_fatigue)
    weighted = graph.variant is Variant.WEIGHTED
    edges = graph.edges
    walk_table = graph.walk_table
    weight_sums = graph.weight_sums
    visited_edges: list[int] = []
    visited_nodes: list[int] = []
    excluded: Sequence[int] = ()
    current = start
    out = graph.out_edges(start)
    for _ in range(length):
        count = len(out)
        if not calm:
            excluded = _excluded_positions(graph, out, current, fatigue)
            count -= len(excluded)
        if not count:
            break
        if excluded:
            if weighted:
                weights = [edges[e].weight for e in out]
                for position in reversed(excluded):
                    del weights[position]
                k = _cumulative_pick(weights, rng.random())
            else:
                k = rng.integers(count)
            # the k-th eligible out-edge: step k past each excluded position up to it
            for position in excluded:
                if position > k:
                    break
                k += 1
        elif weighted:
            # as _cumulative_pick over the out-edge weights picks
            sums = weight_sums.get(current)
            if sums is None:
                sums = _out_weight_sums(graph, current)
            k = bisect_right(sums, rng.random() * sums[-1])
            if k == count:
                k -= 1
        else:
            k = rng.integers(count)
        edge_id = out[k]
        if weighted and not fatigued:
            target = _weighted_target(graph, edge_id, current, rng.random())
        else:
            edge = edges[edge_id]
            if fatigued or edge.head:
                targets = list(filterfalse(fatigued.__contains__, edge.head or edge.members))
                if current in targets:
                    targets.remove(current)
                if weighted:
                    nodes = graph.nodes
                    weights = [nodes[t].weight for t in targets]
                    target = targets[_cumulative_pick(weights, rng.random())]
                else:
                    target = targets[rng.integers(len(targets))]
            else:
                # undirected, nothing fatigued: members are sorted, so the k-th member
                # other than the source is members[k] below it and members[k + 1] above
                members = edge.members
                k = rng.integers(len(members) - 1)
                target = members[k] if members[k] < current else members[k + 1]
        visited_edges.append(edge_id)
        visited_nodes.append(target)
        if calm:
            fatigue.clock += 1
        else:
            fatigue.advance(edge_id, target)
        if step_listener is not None:
            step_listener(fatigue.clock, edge_id, target)
        current = target
        out = walk_table[current]
    return visited_edges, visited_nodes, len(visited_edges)


def _weighted_target(graph: Hypergraph, edge_id: int, source: int, u: float) -> int:
    """The target a weighted step over edges[edge_id] from source picks for draw u.

    It is the pick `_cumulative_pick` makes with u over the weights of the
    targets other than source, read from the edge's target table
    (`_target_table`) instead of a list; no node is fatigued.

    Targets are sorted, so the source, if it is one, sits at i. The running
    sums of the other targets' weights are then the cached sums before i,
    followed by the weights after i added on to sums[i - 1]: the very
    floats accumulate gives over the list of the other weights. Their
    total is added on the first step from i and kept at item 2n + i. A draw
    below sums[i - 1] bisects the cached sums; one above adds the weights
    after i until a sum exceeds it, the index bisect_right finds in that
    list, clamped to the last of the other targets as _cumulative_pick
    clamps.
    """
    edge = graph.edges[edge_id]
    targets = edge.head or edge.members
    n = len(targets)
    table = graph.target_tables.get(edge_id)
    if table is None:
        table = _target_table(graph, edge_id)
    i = bisect_left(targets, source)
    if i < n and targets[i] == source:
        before = table[n + i - 1] if i else 0.0
        total = table[2 * n + i]
        if not total:
            total = before
            for j in range(i + 1, n):
                total += table[j]
            table[2 * n + i] = total
        x = u * total
        if x < before or i == n - 1:
            k = bisect_right(table, x, n, n + i) - n
            return targets[k if k < i else i - 1]
        running = before
        for k in range(i + 1, n):
            running += table[k]
            if running > x:
                break
        return targets[k]
    k = bisect_right(table, u * table[2 * n - 1], n, 2 * n) - n
    return targets[k if k < n else n - 1]


def _excluded_positions(
    graph: Hypergraph, out: tuple[int, ...], source: int, fatigue: FatigueTable
) -> list[int]:
    """Ascending positions in `out`, the out-edges of source, that fatigue rules out.

    The one statement of the edge rule; unweighted and weighted steps both
    use it. An out-edge is ruled out when it is fatigued, or when every
    target other than source is fatigued. Each fatigued edge in `out` gives
    its own position; the node rule appends a position only if that rule
    did not. With m nodes fatigued, only an out-edge of at most m + 1
    targets can lose all of them, and those are the first entries of
    `_out_edges_by_targets`; when even the first has more, none is read.
    """
    excluded = []
    n = len(out)
    for edge_id in fatigue.edges:
        i = bisect_left(out, edge_id)
        if i < n and out[i] == edge_id:
            excluded.append(i)
    fatigued = fatigue.nodes
    if fatigued:
        found = graph.by_targets.get(source)
        if found is None:
            found = _out_edges_by_targets(graph, source)
        positions, counts = found
        most = len(fatigued) + 1
        if counts and counts[0] <= most:
            edges = graph.edges
            for i in positions[:bisect_right(counts, most)]:
                edge = edges[out[i]]
                for target in edge.head or edge.members:
                    if target != source and target not in fatigued:
                        break
                else:
                    if i not in excluded:
                        excluded.append(i)
    excluded.sort()
    return excluded


def _out_weight_sums(graph: Hypergraph, node_id: int) -> array:
    """The out-edge weight sums of node_id, cached on first use (module docstring)."""
    sums = graph.weight_sums.get(node_id)
    if sums is None:
        edges = graph.edges
        weights = (edges[e].weight for e in graph.out_edges(node_id))
        # built from a list, so the array is allocated at its exact length
        sums = graph.weight_sums[node_id] = array("d", list(accumulate(weights)))
    return sums


def _out_edges_by_targets(graph: Hypergraph, node_id: int) -> tuple[array, array]:
    """The out-edges of node_id by target count, cached on first use (module docstring)."""
    found = graph.by_targets.get(node_id)
    if found is None:
        edges = graph.edges
        counts = [len(edges[e].targets) for e in graph.out_edges(node_id)]
        order = sorted(range(len(counts)), key=counts.__getitem__)
        found = graph.by_targets[node_id] = (
            array("I", order), array("I", [counts[i] for i in order]))
    return found


def _target_table(graph: Hypergraph, edge_id: int) -> array:
    """The target table of edges[edge_id], cached on first use (module docstring)."""
    table = graph.target_tables.get(edge_id)
    if table is None:
        if not graph.frozen:
            raise InvariantError("graph must be frozen before walking")
        nodes = graph.nodes
        weights = [nodes[t].weight for t in graph.edges[edge_id].targets]
        table = graph.target_tables[edge_id] = array(
            "d", weights + list(accumulate(weights)) + [0.0] * len(weights))
    return table


def _cumulative_pick(weights: Sequence[float], u: float) -> int:
    """The first index whose running weight sum exceeds u times the total, at most the last."""
    cumulative = list(accumulate(weights))
    return min(bisect_right(cumulative, u * cumulative[-1]), len(cumulative) - 1)


def rws(
    graph: Hypergraph,
    query: str | SeedSet,
    params: RankingParams | None = None,
    step_listener: StepListener | None = None,
) -> Ranking:
    """Random walk score: rank documents by Document-edge visit share.

    `query` is the text or its SeedSet from `map_query_to_seeds`, whose text
    keys the stream. Seeds are walked repeat-major (for each repeat, every
    seed in ascending node id order) against one shared fatigue table and
    one RNG stream, until the repeats run out or a round of walks takes no
    step. The result is deterministic for identical (graph, query, params).
    """
    if not graph.frozen:
        raise InputError("graph must be frozen before ranking")
    if params is None:
        params = RankingParams()
    seed_set = query if isinstance(query, SeedSet) else map_query_to_seeds(graph, query)
    if not seed_set.seeds:
        return Ranking()
    rng = walk_draws(graph.variant, seed_set.query, params, len(seed_set.seeds))
    fatigue = FatigueTable(params.node_fatigue, params.edge_fatigue)
    edges = graph.edges
    doc = EdgeKind.DOCUMENT
    visit_counts: dict[int, int] = {}
    total_steps = 0
    for _ in range(params.repeats):
        steps_before = total_steps
        for seed in seed_set.seeds:
            visited_edges, _, steps = random_walk(
                graph, seed, params.walk_length, fatigue, rng, step_listener
            )
            total_steps += steps
            for edge_id in visited_edges:
                if edges[edge_id].kind is doc:
                    visit_counts[edge_id] = visit_counts.get(edge_id, 0) + 1
        if total_steps == steps_before:
            # the clock ticks only on an executed step, so a round that took none left
            # the clock and the table as it found them, and every later round would too
            break
    total_visits = sum(visit_counts.values())
    # Every score shares one total, and distinct counts below 2**53 give distinct
    # quotients, so sorting by count orders and ties the scores as sorting by score would.
    order = sorted((-count, edges[edge_id].doc_id) for edge_id, count in visit_counts.items())
    entries = [(doc_id, -negated / total_visits) for negated, doc_id in order]
    return Ranking(entries, visit_counts, total_steps)


def run_timed(
    graph: Hypergraph, query: str | SeedSet, params: RankingParams | None = None
) -> tuple[Ranking, int]:
    """Run rws and report (ranking, elapsed nanoseconds)."""
    started = time.perf_counter_ns()
    ranking = rws(graph, query, params)
    return ranking, time.perf_counter_ns() - started
