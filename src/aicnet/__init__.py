"""aicnet: attention, interaction, and creation networks from threaded
annotation discourse, with the measures to compare them."""

from .corpus import (
    Artifact,
    Corpus,
    Quote,
    Reading,
    StatsTable,
    descriptive_stats,
    load_corpus,
    save_corpus,
    thread_root,
    thread_roots,
)
from .graphs import (
    BipartiteGraph,
    WeightedGraph,
    attention_quotes,
    build_an,
    build_cn_bipartite,
    build_in,
    project,
)
from .metrics import (
    NetworkMetricsRow,
    NodeMetricsRow,
    betweenness,
    closeness,
    degree_centralization,
    network_report,
    node_report,
    transitivity,
)
from .semantic import (
    EmbeddingStore,
    JointPair,
    cosine,
    embed_quotes,
    hash_embed,
    joint_pairs,
    load_embeddings,
    quote_similarity,
    save_embeddings,
)
from .textpipe import (
    SelectedWord,
    Token,
    WordSelectionParams,
    lemmatize,
    select_cn_words,
    tfidf,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "Artifact", "BipartiteGraph", "Corpus", "EmbeddingStore", "GroundTruth",
    "JointPair", "NetworkMetricsRow", "NodeMetricsRow", "Quote", "Reading",
    "SelectedWord", "StatsTable", "SynthParams", "Token", "VerificationReport",
    "WeightedGraph", "WordSelectionParams", "attention_quotes", "betweenness",
    "build_an", "build_cn_bipartite", "build_in", "closeness", "cosine",
    "degree_centralization", "descriptive_stats", "embed_quotes", "generate",
    "hash_embed", "joint_pairs", "lemmatize", "load_corpus", "load_embeddings",
    "network_report", "node_report", "project", "quote_similarity",
    "save_corpus", "save_embeddings", "select_cn_words", "thread_root",
    "thread_roots", "tfidf", "tokenize", "transitivity", "verify",
]

# served by ``__getattr__`` (PEP 562), so that importing the package does not
# load the generator
_SYNTH_NAMES = frozenset({"GroundTruth", "SynthParams", "VerificationReport", "generate", "verify"})


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
