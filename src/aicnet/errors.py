"""Exception types shared across the package.

Every error raised on bad input derives from :class:`AicnetError` so callers
(and the CLI) can distinguish input problems from genuine bugs. Any fault a
load finds in a corpus, vector file or word list, of syntax or of content,
raises :class:`ParseError`, which names the file and the line or byte offset.
Outside a load, a vector that cannot be used raises :class:`InvalidVector`,
whose reason names the part of the one vector rule it fails.
"""

from __future__ import annotations


class AicnetError(Exception):
    """Base class for all input and consistency errors."""


# -- input files --------------------------------------------------------------

class ParseError(AicnetError):
    """A malformed input file: its path, where the fault is (``line N`` or
    ``byte N``, counted from the file's first byte) and why; printed as
    ``<path>: <where>: <reason>``."""

    def __init__(self, path: object, where: str, reason: str):
        self.path = str(path)
        self.where = where
        self.reason = reason
        super().__init__(f"{path}: {where}: {reason}")


# -- corpus ingestion ---------------------------------------------------------

class EmptyCorpus(AicnetError):
    def __init__(self, path: object) -> None:
        self.path = str(path)
        super().__init__(f"{path}: corpus file contains no records")


class DanglingParent(AicnetError):
    def __init__(self, artifact_id: str):
        self.artifact_id = artifact_id
        super().__init__(f"reply {artifact_id!r} names a parent that does not exist in its reading")


class MissingQuote(AicnetError):
    def __init__(self, artifact_id: str):
        self.artifact_id = artifact_id
        super().__init__(f"annotation {artifact_id!r} references a quote that does not exist in its reading")


class CyclicThread(AicnetError):
    def __init__(self, artifact_id: str):
        self.artifact_id = artifact_id
        super().__init__(f"reply chain through {artifact_id!r} never reaches an annotation")


class UnknownReading(AicnetError):
    def __init__(self, reading_id: str):
        self.reading_id = reading_id
        super().__init__(f"no reading with id {reading_id!r}")


class UnknownArtifact(AicnetError):
    def __init__(self, artifact_id: str):
        self.artifact_id = artifact_id
        super().__init__(f"no artifact with id {artifact_id!r} in the corpus")


# -- embeddings and similarity ------------------------------------------------

class MissingEmbedding(AicnetError):
    def __init__(self, quote_id: str):
        self.quote_id = quote_id
        super().__init__(f"no embedding stored for quote {quote_id!r}")


class InvalidVector(AicnetError):
    """A vector that breaks the one vector rule of ``semantic._check_vector``,
    or that a file format cannot hold; a load reports it, or a repeated id, as
    ParseError."""

    def __init__(self, quote_id: str, reason: str):
        self.quote_id = quote_id
        self.reason = reason
        super().__init__(f"vector for {quote_id!r} {reason}")


class EmptyText(AicnetError):
    def __init__(self) -> None:
        super().__init__("cannot embed empty text")


# -- graphs and metrics -------------------------------------------------------

class UnknownNode(AicnetError):
    def __init__(self, node: str):
        self.node = node
        super().__init__(f"node {node!r} is not in the graph")


# -- synthetic corpora --------------------------------------------------------

class InfeasibleParams(AicnetError):
    """Synthetic-corpus parameters that cannot be realized."""
