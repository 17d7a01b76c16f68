"""Show what fatigue does to random walk cost.

A plain walker happily bounces back and forth inside a small neighborhood,
spending its whole step budget revisiting the same few nodes. Fatigue locks
recently used nodes and edges for a few decisions; once every option at the
current node is locked the walk simply stops. The ranking at the top barely
changes, but the steps used and the wall time collapse. The collapse is the
permanent lock-up, not cheaper walks: the fatigue clock ticks only when a
step is taken, so once every transition from a topic's seed is locked, no
later walk of that query moves (ROADMAP item 4; CHANGES.md records where
it was seen).

Run from the repository root:

    python demos/02_fatigue_and_speed.py
"""
import statistics
import string

from hgoe import CorpusDocument, RankingParams, index_corpus, map_query_to_seeds, run_timed

TOPICS = ["".join(p) for p in
          [(a, b) for a in string.ascii_lowercase[:10] for b in ("x", "y")]]


def topic_corpus():
    """Per topic: an entity plus two three-word documents that mention it.

    Each topic neighborhood is closed, so a walk that starts there stays
    there. That is exactly the situation fatigue is for.
    """
    docs = []
    for t in TOPICS:
        entity = f"topic{t}"
        docs.append(CorpusDocument(f"{t}-first", f"f{t}a f{t}b", links=(entity,)))
        docs.append(CorpusDocument(f"{t}-second", f"f{t}c f{t}d", links=(entity,)))
    return docs


def measure(graph, params):
    """Median steps used, step budget and milliseconds per topic query."""
    steps, budgets, times = [], [], []
    for t in TOPICS:
        query = f"topic{t}"
        ranking, elapsed_ns = run_timed(graph, query, params)
        steps.append(ranking.total_steps)
        seeds = len(map_query_to_seeds(graph, query).seeds)
        budgets.append(seeds * params.repeats * params.walk_length)
        times.append(elapsed_ns / 1e6)
    return statistics.median(steps), statistics.median(budgets), statistics.median(times)


def main():
    graph = index_corpus(topic_corpus())
    print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
          f"{graph.doc_count} documents, {len(TOPICS)} topics")

    plain = RankingParams(walk_length=200, repeats=100)
    fatigued = RankingParams(walk_length=200, repeats=100,
                             node_fatigue=10, edge_fatigue=5)

    print("\nmedian per topic query, 100 walks of up to 200 steps:")
    for label, params in (("no fatigue", plain), ("nf=10 ef=5", fatigued)):
        steps, budget, ms = measure(graph, params)
        print(f"  {label:<12} {steps:>6.0f} of {budget:.0f} budgeted steps used   {ms:7.2f} ms")
    print("  fatigue's collapse is the permanent lock-up (ROADMAP item 4), not cheaper walks:\n"
          "  the clock ticks only on a step, so a locked seed stays locked for the whole query")

    # and the result sets agree: both settings surface the same documents
    same_podium = 0
    for t in TOPICS:
        a, _ = run_timed(graph, f"topic{t}", plain)
        b, _ = run_timed(graph, f"topic{t}", fatigued)
        if {d for d, _ in a.entries[:2]} == {d for d, _ in b.entries[:2]}:
            same_podium += 1
    print(f"\ntopics where both settings return the same top two documents: "
          f"{same_podium}/{len(TOPICS)}")


if __name__ == "__main__":
    main()
