"""Seeded corpora for the benchmark workloads.

Each workload is one corpus *shape*, chosen so that a different layer of the
pipeline does most of the work:

* ``attention_dense``: many quotes with exact-text twins and near-duplicates,
  deep reply threads, short bodies. The attention network (``build_an``,
  ``joint_pairs``, ``thread_root``) dominates.
* ``creation_text``: six readings, one quote text per community, long bodies
  with Zipf-like noun frequencies, inflections, stopwords, filler, commas,
  double quotes and embedded newlines, written as CSV. Word selection and CSV
  loading dominate.
* ``class_roster``: hundreds of authors in communities that each share one
  quote text, bridged by near-duplicates with planted cosines in a JSONL
  vector file. Per-author closeness on a dense attention network dominates
  node-level metrics.

Sizes are fixed per workload and the seed only changes which words, quotes and
parents are drawn, so the amount of work barely moves between seeds. The
vocabulary is read from the package's bundled word lists as plain data; this
module imports nothing from ``aicnet``. The same seed gives byte-identical
files.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

_NOUN_SUFFIXES = (
    "tion", "sion", "ment", "ness", "ity", "ship", "ism", "ance",
    "ence", "logy", "graphy", "hood", "dom", "cracy", "itude",
)
# Adjectives, adverbs and verbs; anything the bundled lists or the noun-suffix
# rule would call a noun or a stopword is filtered out at load time.
_FILLER = (
    "quickly", "bright", "often", "strange", "careful", "gently", "early",
    "clever", "quiet", "shiny", "deeply", "rarely", "vivid", "soft", "brave",
    "honest", "curious", "eager", "proud", "calm", "fierce", "humble", "lucky",
    "mighty", "nimble", "polite", "silly", "sturdy", "tender", "wild", "witty",
    "ancient", "bold", "crisp", "dizzy", "faint", "grand", "hollow", "jolly",
    "keen", "lively", "merry", "narrow", "odd", "plain", "rapid", "sharp",
    "tidy", "vast", "warm", "young", "argue", "believe", "consider",
    "describe", "explain", "follow", "imagine", "notice", "suggest", "wonder",
    "reflect", "seem", "become", "remain", "appear", "gather", "whisper",
    "wander", "linger", "shimmer", "flicker", "tumble", "stumble", "glance",
)
_IRREGULAR_PLURALS = (
    "children", "people", "women", "men", "feet", "teeth", "mice",
    "analyses", "crises", "hypotheses", "criteria", "phenomena", "media",
)
CSV_COLUMNS = ("record", "id", "reading_id", "author_id", "kind",
               "quote_id", "parent_id", "body", "ts", "text")


def normalize(text: str) -> str:
    """Lowercase and collapse whitespace runs, as the corpus format defines
    common references."""
    return " ".join(text.split()).lower()


@dataclass(frozen=True)
class Vocabulary:
    nouns: tuple[str, ...]
    stopwords: tuple[str, ...]
    filler: tuple[str, ...]


def load_vocabulary(data_dir: Path) -> Vocabulary:
    def words(name: str) -> list[str]:
        text = (data_dir / name).read_text(encoding="utf-8")
        return [w.strip().lower() for w in text.splitlines()
                if w.strip() and not w.startswith("#")]

    nouns = sorted(set(words("nouns.txt")))
    stops = sorted(set(words("stopwords.txt")))
    taken = set(nouns) | set(stops)
    filler = [w for w in _FILLER if w not in taken and not w.endswith(_NOUN_SUFFIXES)]
    # alphabetic single-token nouns only, so quote texts stay plain
    nouns = [n for n in nouns if n.isalpha()]
    return Vocabulary(tuple(nouns), tuple(w for w in stops if w.isalpha()), tuple(filler))


# -- sizes ---------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    readings: int
    authors: int
    communities: int
    quotes: int            # per reading (attention_dense only)
    annotations: int       # per author per reading
    replies: int           # per author per reading
    annotation_words: int
    reply_words: int
    bridges: int = 0       # bridge-quote holders per community (class_roster)
    dim: int = 384         # vector-file dimension (class_roster)


SIZES: dict[str, Sizes] = {
    "attention_dense": Sizes(readings=2, authors=16, communities=4, quotes=120,
                             annotations=3, replies=5, annotation_words=20,
                             reply_words=20),
    "creation_text": Sizes(readings=6, authors=48, communities=6, quotes=0,
                           annotations=2, replies=2, annotation_words=120,
                           reply_words=60),
    "class_roster": Sizes(readings=2, authors=110, communities=2, quotes=0,
                          annotations=1, replies=2, annotation_words=20,
                          reply_words=20, bridges=6),
}

TINY: dict[str, Sizes] = {
    "attention_dense": replace(SIZES["attention_dense"], authors=8, communities=2,
                               quotes=40, annotations=2, replies=3),
    "creation_text": replace(SIZES["creation_text"], readings=3, authors=8,
                             communities=2),
    "class_roster": replace(SIZES["class_roster"], authors=12, bridges=1, dim=16),
}


# -- words and texts -----------------------------------------------------------

class _Writer:
    """Seeded text source: quote sentences and discussion bodies."""

    def __init__(self, rng: random.Random, vocab: Vocabulary):
        self.rng = rng
        self.vocab = vocab
        ranked = list(vocab.nouns)
        rng.shuffle(ranked)
        self.ranked = ranked
        # Zipf-like noun frequencies over a seeded ranking
        self.cum: list[float] = []
        total = 0.0
        for rank in range(len(ranked)):
            total += 1.0 / (rank + 1) ** 1.1
            self.cum.append(total)

    def noun(self) -> str:
        return self.rng.choices(self.ranked, cum_weights=self.cum)[0]

    def inflect(self, noun: str) -> str:
        r = self.rng.random()
        if r < 0.6:
            return noun
        if r < 0.8:
            if noun.endswith(("s", "x", "z", "ch", "sh")):
                return noun + "es"
            if noun.endswith("y") and noun[-2:-1] not in "aeiou":
                return noun[:-1] + "ies"
            return noun + "s"
        if r < 0.83:
            return self.rng.choice(_IRREGULAR_PLURALS)
        stem = noun[:-1] if noun.endswith("e") else noun
        return stem + ("ing" if r < 0.92 else "ed")

    def quote_text(self, n_words: int = 16) -> str:
        """A plain sentence alternating uniformly drawn nouns and short filler,
        so unrelated quotes share few character n-grams."""
        short = [w for w in self.vocab.filler if len(w) <= 5]
        words = [self.rng.choice(self.vocab.nouns if i % 2 == 0 else short)
                 for i in range(n_words)]
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    def twin(self, text: str) -> str:
        """Same text after normalization: changed case and whitespace."""
        words = text.split(" ")
        style = self.rng.randrange(3)
        if style == 0:
            return "  ".join(words).upper()
        if style == 1:
            return " " + "\t".join(w.capitalize() for w in words) + " "
        return text.lower().replace(" ", "\n ", 2)

    def near_duplicate(self, text: str) -> str:
        """The second word, always a short filler word, swapped for another.
        Every near-duplicate of one text differs from it and from its siblings
        in that one word only, so their hash cosines stay well above 0.8."""
        words = text.split(" ")
        words[1] = self.rng.choice([w for w in self.vocab.filler if len(w) <= 5 and w != words[1]])
        return " ".join(words)

    def body(self, n_words: int) -> str:
        """Discussion text: Zipf nouns with inflections, stopwords and filler,
        in sentences with commas, double quotes and some line breaks."""
        rng = self.rng
        parts: list[str] = []
        sentence: list[str] = []
        for _ in range(n_words):
            r = rng.random()
            if r < 0.35:
                word = self.inflect(self.noun())
            elif r < 0.75:
                word = rng.choice(self.vocab.stopwords)
            else:
                word = rng.choice(self.vocab.filler)
            if not sentence:
                word = word.capitalize()
            elif rng.random() < 0.04:
                word = f'"{word}"'
            sentence.append(word)
            if len(sentence) >= 6 and rng.random() < 0.12:
                parts.append(self._close(sentence))
                sentence = []
            elif len(sentence) >= 3 and rng.random() < 0.08:
                sentence[-1] += ","
        if sentence:
            parts.append(self._close(sentence))
        out = parts[0]
        for part in parts[1:]:
            out += ("\n" if rng.random() < 0.15 else " ") + part
        return out

    @staticmethod
    def _close(sentence: list[str]) -> str:
        return " ".join(sentence).rstrip(",") + "."


# -- corpus assembly -----------------------------------------------------------

@dataclass
class Generated:
    records: list[dict]
    vectors: dict[str, list[float]] | None = None


class _Reading:
    """Records of one reading plus the thread bookkeeping the shapes need."""

    def __init__(self, rid: str, writer: _Writer, sizes: Sizes):
        self.rid = rid
        self.writer = writer
        self.sizes = sizes
        self.quotes: list[dict] = []
        self.artifacts: list[dict] = []
        self.depth: dict[str, int] = {}
        self.thread_of: dict[str, str] = {}
        self.tip: dict[str, str] = {}
        self.members: dict[str, list[str]] = {}

    def quote(self, qid: str, text: str) -> str:
        self.quotes.append({"record": "quote", "id": qid, "reading_id": self.rid, "text": text})
        return qid

    def annotate(self, author: str, qid: str) -> str:
        aid = f"{self.rid}-a{len(self.artifacts):05d}"
        self.artifacts.append({
            "id": aid, "reading_id": self.rid, "author_id": author, "kind": "annotation",
            "quote_id": qid, "body": self.writer.body(self.sizes.annotation_words),
            "ts": f"t{len(self.artifacts):06d}",
        })
        self.depth[aid] = 0
        self.thread_of[aid] = aid
        self.tip[aid] = aid
        self.members[aid] = [aid]
        return aid

    def reply(self, author: str, parent: str) -> str:
        aid = f"{self.rid}-a{len(self.artifacts):05d}"
        self.artifacts.append({
            "id": aid, "reading_id": self.rid, "author_id": author, "kind": "reply",
            "parent_id": parent, "body": self.writer.body(self.sizes.reply_words),
            "ts": f"t{len(self.artifacts):06d}",
        })
        root = self.thread_of[parent]
        self.depth[aid] = self.depth[parent] + 1
        self.thread_of[aid] = root
        if self.depth[aid] > self.depth[self.tip[root]]:
            self.tip[root] = aid
        self.members[root].append(aid)
        return aid

    def reply_in_thread(self, author: str, root: str, deepen: float) -> str:
        """Reply to the thread's deepest post with probability ``deepen``,
        otherwise to a random post of the thread."""
        rng = self.writer.rng
        parent = self.tip[root] if rng.random() < deepen else rng.choice(self.members[root])
        return self.reply(author, parent)

    def records(self) -> list[dict]:
        return sorted(self.quotes, key=lambda q: q["id"]) + self.artifacts


def _authors(sizes: Sizes) -> tuple[list[str], dict[str, int]]:
    authors = [f"s{i:03d}" for i in range(sizes.authors)]
    return authors, {a: i % sizes.communities for i, a in enumerate(authors)}


def _attention_dense(rng: random.Random, writer: _Writer, sizes: Sizes) -> Generated:
    """Half the quotes are originals, a quarter exact-text twins and a quarter
    near-duplicates. Every author annotates ``annotations`` quotes and replies
    into ``replies`` threads, all with distinct normalized texts, so each
    author attends exactly ``annotations + replies`` texts whatever the seed."""
    authors, community = _authors(sizes)
    records: list[dict] = []
    for r in range(sizes.readings):
        rd = _Reading(f"r{r + 1}", writer, sizes)
        n_base = sizes.quotes // 2
        base = [writer.quote_text() for _ in range(n_base)]
        entries = [(base[i], i % sizes.communities) for i in range(n_base)]
        for k in range(sizes.quotes - n_base):
            i = rng.randrange(n_base)
            text = writer.twin(base[i]) if k < sizes.quotes // 4 else writer.near_duplicate(base[i])
            home = i % sizes.communities if rng.random() < 0.8 else rng.randrange(sizes.communities)
            entries.append((text, home))
        rng.shuffle(entries)
        pool: dict[int, list[str]] = {c: [] for c in range(sizes.communities)}
        text_of: dict[str, str] = {}
        for k, (text, home) in enumerate(entries):
            qid = rd.quote(f"{rd.rid}-q{k:04d}", text)
            pool[home].append(qid)
            text_of[qid] = normalize(text)

        held: dict[str, set[str]] = {a: set() for a in authors}
        order = authors[:]
        for _ in range(sizes.annotations):
            rng.shuffle(order)
            for a in order:
                choices = [q for q in pool[community[a]] if text_of[q] not in held[a]]
                qid = rng.choice(choices)
                held[a].add(text_of[qid])
                rd.annotate(a, qid)

        roots = [art["id"] for art in rd.artifacts]
        root_text = {art["id"]: text_of[art["quote_id"]] for art in rd.artifacts}
        root_home = {art["id"]: community[art["author_id"]] for art in rd.artifacts}
        # a few popular threads per community take most replies, so chains run deep
        weight = {root: (1 + i // sizes.communities) ** -2.0 for i, root in enumerate(roots)}
        for _ in range(sizes.replies):
            rng.shuffle(order)
            for a in order:
                home = community[a] if rng.random() < 0.9 else rng.randrange(sizes.communities)
                options = [t for t in roots if root_home[t] == home and root_text[t] not in held[a]]
                if not options:  # every thread text there already held: reply anywhere
                    options = [t for t in roots if root_text[t] not in held[a]]
                root = rng.choices(options, weights=[weight[t] for t in options])[0]
                held[a].add(root_text[root])
                rd.reply_in_thread(a, root, deepen=0.75)
        records += rd.records()
    return Generated(records)


def _creation_text(rng: random.Random, writer: _Writer, sizes: Sizes) -> Generated:
    """One quote text per community (two case variants), plus one extra text
    that a single author per community also annotates. Long bodies."""
    authors, community = _authors(sizes)
    records: list[dict] = []
    for r in range(sizes.readings):
        rd = _Reading(f"r{r + 1}", writer, sizes)
        variants: dict[int, list[str]] = {}
        extra: dict[int, str] = {}
        for c in range(sizes.communities):
            text = writer.quote_text()
            variants[c] = [rd.quote(f"{rd.rid}-c{c:02d}-v0", text),
                           rd.quote(f"{rd.rid}-c{c:02d}-v1", writer.twin(text))]
            extra[c] = rd.quote(f"{rd.rid}-c{c:02d}-x", writer.quote_text())
        first = {c: authors[c] for c in range(sizes.communities)}
        for k in range(sizes.annotations):
            for a in authors:
                c = community[a]
                qid = extra[c] if k == 1 and first[c] == a else rng.choice(variants[c])
                rd.annotate(a, qid)
        by_home: dict[int, list[str]] = {c: [] for c in range(sizes.communities)}
        for art in rd.artifacts:
            by_home[community[art["author_id"]]].append(art["id"])
        for _ in range(sizes.replies):
            for a in authors:
                parent = rng.choice(by_home[community[a]])
                by_home[community[a]].append(rd.reply(a, parent))
        records += rd.records()
    return Generated(records)


def _unit(rng: random.Random, dim: int) -> list[float]:
    v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    n = math.sqrt(sum(x * x for x in v))
    return [x / n for x in v]


def _planted(rng: random.Random, target: list[float], cos: float) -> list[float]:
    """A unit vector at exactly ``cos`` (up to rounding) to the unit ``target``."""
    w = _unit(rng, len(target))
    dot = sum(a * b for a, b in zip(w, target))
    w = [a - dot * b for a, b in zip(w, target)]
    n = math.sqrt(sum(x * x for x in w))
    s = math.sqrt(1.0 - cos * cos)
    return [cos * b + s * a / n for a, b in zip(w, target)]


_BRIDGE_COS = 0.9   # well above the 0.8 threshold; unrelated vectors sit near 0


def _class_roster(rng: random.Random, writer: _Writer, sizes: Sizes) -> Generated:
    """Each community shares one quote text in several id/case variants.
    Community c's bridge quote is a near-duplicate of community c+1's text with
    a planted cosine of 0.9 to it; ``bridges`` members of c also annotate it.
    Replies go into threads on community texts, about 5% of them into another
    community's."""
    authors, community = _authors(sizes)
    members = {c: [a for a in authors if community[a] == c] for c in range(sizes.communities)}
    records: list[dict] = []
    vectors: dict[str, list[float]] = {}
    n_variants = 4
    for r in range(sizes.readings):
        rd = _Reading(f"r{r + 1}", writer, sizes)
        texts = [writer.quote_text() for _ in range(sizes.communities)]
        base = [_unit(rng, sizes.dim) for _ in range(sizes.communities)]
        variants: dict[int, list[str]] = {}
        bridge: dict[int, str] = {}
        for c in range(sizes.communities):
            variants[c] = []
            for v in range(n_variants):
                text = texts[c] if v == 0 else writer.twin(texts[c])
                qid = rd.quote(f"{rd.rid}-c{c:02d}-v{v}", text)
                variants[c].append(qid)
                vectors[qid] = base[c]
            nxt = (c + 1) % sizes.communities
            bridge[c] = rd.quote(f"{rd.rid}-c{c:02d}-b", writer.near_duplicate(texts[nxt]))
            vectors[bridge[c]] = _planted(rng, base[nxt], _BRIDGE_COS)
        for a in authors:
            rd.annotate(a, rng.choice(variants[community[a]]))
        # replies go only into threads on community texts; replies into bridge
        # threads would move the attention network's size by ~10% between seeds
        by_home: dict[int, list[str]] = {c: [] for c in range(sizes.communities)}
        for art in rd.artifacts:
            by_home[community[art["author_id"]]].append(art["id"])
        for c in range(sizes.communities):
            for a in rng.sample(members[c], sizes.bridges):
                rd.annotate(a, bridge[c])
        n_replies = sizes.replies * sizes.authors
        crossing = set(rng.sample(range(n_replies), max(1, round(0.05 * n_replies))))
        k = 0
        for _ in range(sizes.replies):
            for a in authors:
                home = community[a]
                if k in crossing:
                    home = (home + 1 + rng.randrange(sizes.communities - 1)) % sizes.communities
                parent = rng.choice(by_home[home])
                by_home[home].append(rd.reply(a, parent))
                k += 1
        records += rd.records()
    return Generated(records, vectors)


_SHAPES = {
    "attention_dense": _attention_dense,
    "creation_text": _creation_text,
    "class_roster": _class_roster,
}
FORMATS = {"attention_dense": "jsonl", "creation_text": "csv", "class_roster": "jsonl"}


def generate(workload: str, seed: int, vocab: Vocabulary, sizes: Sizes) -> Generated:
    rng = random.Random(f"{workload}:{seed}")
    return _SHAPES[workload](rng, _Writer(rng, vocab), sizes)


# -- files ---------------------------------------------------------------------

def write_corpus(gen: Generated, path: Path, fmt: str) -> None:
    if fmt == "jsonl":
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for rec in gen.records:
                fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
        return
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for rec in gen.records:
            row = {col: rec.get(col, "") for col in CSV_COLUMNS}
            row["record"] = rec.get("record", "artifact")
            writer.writerow(row)


def write_vectors(gen: Generated, path: Path) -> None:
    assert gen.vectors is not None
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for qid in sorted(gen.vectors):
            fh.write(json.dumps({"quote_id": qid, "vector": gen.vectors[qid]}) + "\n")


# -- input properties ----------------------------------------------------------

def attention_pairs(quote_text: dict[str, str],
                    artifacts: list[tuple[str, str, str | None, str | None]]) -> tuple[int, int]:
    """``(pairs, common)`` for one reading.

    ``artifacts`` holds ``(id, author, quote_id, parent_id)``. An author attends
    the quotes they annotated and the root quotes of the threads they replied
    in, one per normalized text. ``pairs`` is the sum over author pairs of
    |Du|·|Dv|; ``common`` counts those quote pairs that share a normalized
    text (which covers sharing an id).
    """
    parent = {aid: pid for aid, _, _, pid in artifacts}
    quote_of = {aid: qid for aid, _, qid, _ in artifacts}
    root_quote: dict[str, str | None] = {}

    def resolve(aid: str) -> str | None:
        chain = []
        while aid not in root_quote and parent.get(aid):
            chain.append(aid)
            aid = parent[aid]  # type: ignore[assignment]
        found = root_quote.get(aid, quote_of.get(aid))
        for step in chain + [aid]:
            root_quote[step] = found
        return found

    texts: dict[str, set[str]] = {}
    for aid, author, _, _ in artifacts:
        qid = resolve(aid)
        held = texts.setdefault(author, set())
        if qid is not None and qid in quote_text:
            held.add(normalize(quote_text[qid]))
    sizes = [len(t) for t in texts.values()]
    pairs = (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2
    holders = Counter(t for held in texts.values() for t in held)
    common = sum(n * (n - 1) // 2 for n in holders.values())
    return pairs, common


def properties(gen: Generated) -> dict:
    """Input properties of a generated corpus, computed from its records."""
    quotes = [r for r in gen.records if r.get("record") == "quote"]
    arts = [r for r in gen.records if r.get("record") != "quote"]
    depth: dict[str, int] = {}
    for a in arts:  # parents precede replies in every generated file
        depth[a["id"]] = depth[a["parent_id"]] + 1 if a["kind"] == "reply" else 0
    pairs = common = 0
    for rid in sorted({r["reading_id"] for r in gen.records}):
        p, c = attention_pairs(
            {q["id"]: q["text"] for q in quotes if q["reading_id"] == rid},
            [(a["id"], a["author_id"], a.get("quote_id"), a.get("parent_id"))
             for a in arts if a["reading_id"] == rid],
        )
        pairs += p
        common += c
    words = sum(len(a["body"].split()) for a in arts)
    return {
        "readings": len({r["reading_id"] for r in gen.records}),
        "authors": len({a["author_id"] for a in arts}),
        "quotes": len(quotes),
        "artifacts": len(arts),
        "body_words": words,
        "max_thread_depth": max(depth.values()),
        "semantic.quote_pairs": pairs,
        "semantic.common_ref_share": common / pairs if pairs else 0.0,
    }
