"""Hypergraph-of-entity retrieval engine.

Index a corpus as a typed hypergraph over terms and entities, rank documents
with fatigued random walks, compare against inverted-index baselines, and
evaluate with standard rank metrics.
"""
from .baseline import InvertedIndex, build_inverted, search_bm25, search_tfidf
from .errors import (
    ConfigError,
    FormatError,
    HgoeError,
    InputError,
    InternalError,
    InvariantError,
)
from .evaluation import (
    ComparisonReport,
    average_precision,
    complete_and_rank,
    complete_rankings,
    evaluate_run,
    jaccard,
    kendalls_w,
    mann_whitney_u,
    mean_average_precision,
    precision_at_k,
    repeated_comparison,
    spearman_rho,
)
from .hypergraph import EdgeKind, Hyperedge, Hypergraph, Node, NodeKind, Role, Variant
from .indexer import (
    CorpusDocument,
    compute_weights,
    extend_context,
    extend_synonyms,
    index_corpus,
    load_corpus,
    load_embeddings,
    load_synonyms,
    tokenize,
)
from .ranking import (
    FatigueTable,
    Ranking,
    RankingParams,
    SeedSet,
    map_query_to_seeds,
    random_walk,
    run_timed,
    rws,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConfigError",
    "CorpusDocument",
    "EdgeKind",
    "FatigueTable",
    "FormatError",
    "HgoeError",
    "Hyperedge",
    "Hypergraph",
    "InputError",
    "InternalError",
    "InvariantError",
    "InvertedIndex",
    "Node",
    "NodeKind",
    "Ranking",
    "RankingParams",
    "Role",
    "SeedSet",
    "Variant",
    "average_precision",
    "build_inverted",
    "complete_and_rank",
    "complete_rankings",
    "compute_weights",
    "evaluate_run",
    "extend_context",
    "extend_synonyms",
    "index_corpus",
    "jaccard",
    "kendalls_w",
    "load_corpus",
    "load_embeddings",
    "load_synonyms",
    "mann_whitney_u",
    "map_query_to_seeds",
    "mean_average_precision",
    "precision_at_k",
    "random_walk",
    "repeated_comparison",
    "rws",
    "run_timed",
    "search_bm25",
    "search_tfidf",
    "spearman_rho",
    "tokenize",
]
