"""aicnet: attention, interaction, and creation networks from threaded
annotation discourse, with the measures to compare them."""

import importlib

__version__ = "0.1.0"

# Every public name is served on first use by ``__getattr__`` (PEP 562) from
# the submodule that defines it, so importing the package loads no submodule,
# and a command loads the generator only if it generates.
_HOME = {
    name: module
    for module, names in {
        "corpus": "Artifact Corpus Quote Reading StatsTable descriptive_stats load_corpus "
                  "save_corpus thread_root thread_roots",
        "graphs": "BipartiteGraph WeightedGraph attention_quotes build_an build_cn_bipartite "
                  "build_in project",
        "metrics": "NetworkMetricsRow NodeMetricsRow betweenness closeness "
                   "degree_centralization network_report node_report transitivity",
        "semantic": "EmbeddingStore JointPair cosine embed_quotes hash_embed joint_pairs "
                    "load_embeddings quote_similarity save_embeddings",
        "synth": "GroundTruth SynthParams VerificationReport generate verify",
        "textpipe": "SelectedWord WordSelectionParams lemmatize select_cn_words tfidf "
                    "tokenize",
    }.items()
    for name in names.split()
}
__all__ = sorted(_HOME)
# submodules reachable as attributes after ``import aicnet`` alone
_SUBMODULES = frozenset({"corpus", "errors", "graphs", "metrics", "semantic", "textpipe"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
