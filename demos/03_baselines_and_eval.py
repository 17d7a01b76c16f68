"""Run the walk ranker against TF-IDF and BM25 on a toy benchmark.

Builds a twelve document corpus with three topics and hand-made relevance
judgements, produces a run per engine, and scores them with mean average
precision and precision at 5. Also prints a couple of lines in the usual
six column run format so you can see what the files written by the command
line tool look like.

Run from the repository root:

    python demos/03_baselines_and_eval.py
"""
from hgoe import (CorpusDocument, RankingParams, build_inverted, evaluate_run,
                  index_corpus, rws, search_bm25, search_tfidf)
from hgoe.trec import format_run_lines

CORPUS = [
    CorpusDocument("sun-1", "solar panels convert sunlight into power",
                   links=("Solar Power",)),
    CorpusDocument("sun-2", "rooftop solar arrays cut household bills",
                   links=("Solar Power",)),
    CorpusDocument("sun-3", "the solar farm feeds power into the grid",
                   links=("Solar Power", "Power Grid")),
    CorpusDocument("wind-1", "wind turbines spin in the coastal breeze",
                   links=("Wind Power",)),
    CorpusDocument("wind-2", "offshore wind parks deliver steady power",
                   links=("Wind Power", "Power Grid")),
    CorpusDocument("wind-3", "the old windmill ground flour not power"),
    CorpusDocument("food-1", "fresh pasta with tomato and basil"),
    CorpusDocument("food-2", "grilled fish with lemon and herbs"),
    CorpusDocument("food-3", "a simple bread recipe for beginners"),
    CorpusDocument("misc-1", "city council debates new bicycle lanes"),
    CorpusDocument("misc-2", "the library extends its opening hours"),
    CorpusDocument("misc-3", "rain expected across the region tonight"),
]

TOPICS = [
    ("t1", "solar power"),
    ("t2", "wind power grid"),
    ("t3", "pasta recipe"),
]

QRELS = {
    "t1": {"sun-1": 1, "sun-2": 1, "sun-3": 1, "wind-3": 0},
    "t2": {"wind-1": 1, "wind-2": 1, "sun-3": 0, "wind-3": 0},
    "t3": {"food-1": 1, "food-3": 1, "food-2": 0},
}


def main():
    graph = index_corpus(CORPUS)
    inverted = build_inverted(CORPUS)
    params = RankingParams(walk_length=2, repeats=3000)

    engines = {
        "rws": lambda q: rws(graph, q, params).entries[:10],
        "tfidf": lambda q: search_tfidf(inverted, q, k=10).entries,
        "bm25": lambda q: search_bm25(inverted, q, k=10).entries,
    }

    print(f"{'engine':<8} {'map':>8} {'p@5':>8}")
    results = {}
    for name, search in engines.items():
        run = {tid: [doc for doc, _ in search(query)] for tid, query in TOPICS}
        result, _, p5 = evaluate_run(run, QRELS, 5)
        results[name] = result
        print(f"{name:<8} {result.mean:8.4f} {p5:8.4f}")

    print("\nper topic average precision:")
    for name, result in results.items():
        cells = "  ".join(f"{tid}={ap:.3f}"
                          for tid, ap in sorted(result.per_topic.items()))
        print(f"  {name:<8} {cells}")

    print("\nfirst three run lines for topic t1 (rws):")
    entries = rws(graph, "solar power", params).entries[:3]
    for line in format_run_lines("t1", entries, tag="demo"):
        print(f"  {line}")


if __name__ == "__main__":
    main()
