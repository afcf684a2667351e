"""Data ingestion: tokenization, JSONL corpora, vocabulary, padded batches,
and a synthetic generator with a controllable spurious bias-token/label
correlation for desk-scale experiments."""

from __future__ import annotations

import json
import unicodedata
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from cfdetox.errors import ParseError, ValidationError, numbered_lines, read_text
from cfdetox.lexicon import BiasedTokenSet, Lexicon, match_biased_tokens

PAD, UNK, SEP, NOBIAS = "<pad>", "<unk>", "<sep>", "<nobias>"
RESERVED = (PAD, UNK, SEP, NOBIAS)
PAD_ID, UNK_ID, SEP_ID, NOBIAS_ID = 0, 1, 2, 3


def _strip_edge_punct(token: str) -> str:
    # no alphanumeric code point is in a P* category, so a token with
    # alphanumeric ends has nothing to strip
    if token[0].isalnum() and token[-1].isalnum():
        return token
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties.

    Punctuation inside a token survives, so "f*ck" and "don't" stay intact;
    only leading/trailing punctuation is removed.
    """
    pieces = text.lower().split()
    if not "".join(pieces).isalnum():  # all-alphanumeric pieces have no edge to strip
        pieces = [s for s in map(_strip_edge_punct, pieces) if s]
    return pieces


def _records(path: Path) -> Iterator[tuple[str, int]]:
    """(text, label) of each non-blank ``{"text": ..., "label": 0|1}`` line, in order."""
    for line_no, raw in numbered_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, f"invalid JSON: {exc.msg}") from exc
        except (RecursionError, ValueError) as exc:  # nesting depth, integer digit limit
            raise ParseError(path, line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
            raise ParseError(path, line_no, "object must have 'text' and 'label' fields")
        text, label = obj["text"], obj["label"]
        if not isinstance(text, str):
            raise ParseError(path, line_no, f"'text' must be a string, got {type(text).__name__}")
        if not isinstance(label, int) or isinstance(label, bool) or label not in (0, 1):
            raise ParseError(path, line_no, f"'label' must be 0 or 1, got {label!r}")
        yield text, label


def load_jsonl(path: str | Path) -> Corpus:
    """Read one ``{"text": ..., "label": 0|1}`` object per line, in order,
    as a Corpus of the tokenized texts."""
    return Corpus.from_sentences((tokenize(text), label) for text, label in _records(Path(path)))


def save_jsonl(path: str | Path, records: Iterable[tuple[str, int]]) -> None:
    """Write (text, label) records, one ``{"text": ..., "label": ...}`` object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for text, label in records:
            fh.write(json.dumps({"text": text, "label": label}) + "\n")


@dataclass
class Vocab:
    """Word-level vocabulary; ids 0-3 are PAD, UNK, SEP, NOBIAS."""

    tokens: list[str] = field(default_factory=lambda: list(RESERVED))

    def __post_init__(self) -> None:
        self._ids = {t: i for i, t in enumerate(self.tokens) if i >= len(RESERVED)}

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        """Id of a text token; unknown words and the reserved surfaces
        (``<pad>``, ``<sep>``, ...) written in text read as UNK."""
        return self._ids.get(token, UNK_ID)

    @classmethod
    def build(cls, corpus: Corpus) -> "Vocab":
        """Corpus-derived vocabulary, most frequent first (ties by spelling)."""
        counts = [(t, c) for t, c in zip(corpus.tokens, corpus.counts.tolist()) if t not in RESERVED]
        return cls(list(RESERVED) + [t for t, _ in sorted(counts, key=lambda kv: (-kv[1], kv[0]))])

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        """One token per line; the reserved tokens first, no token twice."""
        path = Path(path)
        tokens = read_text(path).splitlines()
        if tokens[: len(RESERVED)] != list(RESERVED):
            raise ParseError(path, 1, f"first {len(RESERVED)} lines must be {RESERVED}")
        first: dict[str, int] = {}
        for line_no, token in enumerate(tokens, start=1):
            if first.setdefault(token, line_no) != line_no:
                raise ParseError(path, line_no, f"token {token!r} repeats line {first[token]}")
        return cls(tokens)


@dataclass
class EncodedBatch:
    """Padded id matrices and labels; the masks are read off the ids, 1 exactly off-pad.

    :func:`encode_batch` makes each matrix as wide as its longest row.
    """

    x_ids: np.ndarray  # int64 [batch, Lx]
    b_ids: np.ndarray  # int64 [batch, Lb]
    labels: np.ndarray  # int64 [batch]

    @property
    def x_mask(self) -> np.ndarray:  # float64 [batch, Lx]
        return (self.x_ids != PAD_ID).astype(np.float64)

    @property
    def b_mask(self) -> np.ndarray:  # float64 [batch, Lb]
        return (self.b_ids != PAD_ID).astype(np.float64)


@dataclass(frozen=True, eq=False)
class Corpus:
    """A split as flat token ids, the form training and scoring read.

    ``tokens`` lists each distinct token once, in order of first use, and
    ``counts`` how often it occurs; sentence ``i`` is ``sentence(i)``, the
    slice ``ids[offsets[i]:offsets[i + 1]]`` of indices into ``tokens``.
    """

    tokens: tuple[str, ...]
    counts: np.ndarray  # int64 [len(tokens)]
    ids: np.ndarray  # intc [tokens in the split]
    offsets: np.ndarray  # int64 [len + 1]
    labels: np.ndarray  # int64 [len]

    def __len__(self) -> int:
        return len(self.labels)

    def sentence(self, i: int) -> np.ndarray:
        return self.ids[self.offsets[i] : self.offsets[i + 1]]

    @classmethod
    def from_sentences(cls, sentences: Iterable[tuple[Sequence[str], int]]) -> "Corpus":
        """(tokens, label) pairs appended to flat typed buffers, which the
        arrays then view: no per-sentence object outlives its pair."""
        table: defaultdict[str, int] = defaultdict()
        table.default_factory = table.__len__  # a token not seen before takes the next index
        ids, offsets, labels = array("i"), array("q", [0]), array("q")
        for tokens, label in sentences:
            ids.extend(map(table.__getitem__, tokens))
            offsets.append(len(ids))
            labels.append(label)
        flat = np.frombuffer(ids, dtype=np.intc)
        counts = np.zeros(len(table), dtype=np.int64)
        for start in range(0, len(flat), 8192):  # bincount copies what it counts to int64
            counts += np.bincount(flat[start : start + 8192], minlength=len(table))
        return cls(tuple(table), counts, flat, np.frombuffer(offsets, dtype=np.int64),
                   np.frombuffer(labels, dtype=np.int64))


class CorpusEncoder:
    """A corpus's per-table lookups, from which :func:`encode_batch` gathers batches.

    Each table token's lexicon match, category, sentence id and bias id
    are looked up once, here; a batch gathers its rows from them, so it
    costs what its own tokens cost, whatever the size of the corpus.
    """

    def __init__(self, corpus: Corpus, lexicon: Lexicon, vocab: Vocab,
                 max_sentence_len: int, max_bias_len: int, mask_bias: bool = False) -> None:
        if max_sentence_len < 1 or max_bias_len < 1:
            raise ValidationError("maximum lengths must be >= 1")
        self.corpus, self.lexicon = corpus, lexicon
        self.max_sentence_len, self.max_bias_len = max_sentence_len, max_bias_len
        # each table token's matched surface and bias id; None and -1 where it matches nothing
        self._surfaces = [s if s in lexicon.entries else None for s in map(str.lower, corpus.tokens)]
        self.bias_ids = np.array([-1 if s is None else vocab.id(s) for s in self._surfaces], dtype=np.int64)
        self.x_ids = np.array([UNK_ID if mask_bias and s is not None else vocab.id(t)
                               for t, s in zip(corpus.tokens, self._surfaces)], dtype=np.int64)
        # the matched categories in sorted order, and each table token's as a bit, 1 << its index; 0 where none
        self._categories = sorted({lexicon.category(s) for s in self._surfaces if s is not None})
        self._category_bits = np.array([0 if s is None else 1 << self._categories.index(lexicon.category(s))
                                        for s in self._surfaces], dtype=np.int64)

    def matches(self, i: int) -> BiasedTokenSet:
        """Row ``i``'s ``match_biased_tokens``, read off the lookups that give its bias ids."""
        sentence = self.corpus.sentence(i)
        surfaces = tuple(self._surfaces[t] for t in sentence[self.bias_ids[sentence] != -1].tolist())
        return BiasedTokenSet(surfaces, frozenset(map(self.lexicon.category, surfaces)))

    def categories(self) -> list[list[str]]:
        """Each row's sorted ``matches(i).categories``, from one gather of the category bits."""
        corpus = self.corpus
        bits = self._category_bits[corpus.ids]
        hits = np.flatnonzero(bits)
        row_bits = np.zeros(len(corpus), dtype=np.int64)
        np.bitwise_or.at(row_bits, np.searchsorted(corpus.offsets, hits, side="right") - 1, bits[hits])
        names = {m: [c for k, c in enumerate(self._categories) if m >> k & 1] for m in set(row_bits.tolist())}
        return [list(names[m]) for m in row_bits.tolist()]


def encode_batch(encoder: CorpusEncoder, rows: Sequence[int]) -> EncodedBatch:
    """(x_ids, b_ids, labels) of the encoder's corpus rows ``rows``, in that order.

    Sentences are truncated to ``max_sentence_len`` ids and bias sequences
    to ``max_bias_len``; each matrix is then padded to its longest row.
    An empty sentence encodes as the single UNK id, keeping pooling
    well-formed.  The bias-token sequence interleaves SEP between matches:
    [b1, SEP, b2, ...]; an empty match encodes as the single NOBIAS id.
    With ``mask_bias`` the sentence ids of matched tokens are replaced by
    UNK (training-time masking mode); the bias sequence is unaffected.
    Every row's tokens are gathered at once, by their position in the row.
    """
    corpus, lx, lb = encoder.corpus, encoder.max_sentence_len, encoder.max_bias_len
    rows = np.asarray(rows, dtype=np.intp)
    starts = corpus.offsets[rows]
    lengths = corpus.offsets[rows + 1] - starts
    row_of = np.repeat(np.arange(len(rows)), lengths)  # every token of the rows, in order
    col = np.arange(len(row_of)) - np.repeat(np.cumsum(lengths) - lengths, lengths)  # its position in its row
    tokens = corpus.ids[np.repeat(starts, lengths) + col]  # its table index

    x_ids = np.full((len(rows), max(min(lengths.max(initial=0), lx), 1)), PAD_ID, dtype=np.int64)
    kept = col < lx
    x_ids[row_of[kept], col[kept]] = encoder.x_ids[tokens[kept]]
    x_ids[lengths == 0, 0] = UNK_ID

    bias = encoder.bias_ids[tokens]
    b_rows, bias = row_of[bias != -1], bias[bias != -1]
    matched = np.bincount(b_rows, minlength=len(rows))
    # a row's k-th match goes to slot 2k and the SEP before it to slot 2k - 1
    slot = 2 * (np.arange(len(b_rows)) - np.repeat(np.cumsum(matched) - matched, matched))
    b_ids = np.full((len(rows), max(min(2 * matched.max(initial=0) - 1, lb), 1)), PAD_ID, dtype=np.int64)
    kept = slot < lb
    b_ids[b_rows[kept], slot[kept]] = bias[kept]
    kept = (slot > 0) & (slot <= lb)
    b_ids[b_rows[kept], slot[kept] - 1] = SEP_ID
    b_ids[matched == 0, 0] = NOBIAS_ID
    return EncodedBatch(x_ids, b_ids, corpus.labels[rows])


def nobias_batch(batch: EncodedBatch) -> EncodedBatch:
    """The same batch with every bias sequence replaced by NOBIAS.

    This is the no-treatment input used as the reference evaluation.
    """
    return EncodedBatch(x_ids=batch.x_ids, b_ids=np.full((len(batch.labels), 1), NOBIAS_ID, np.int64),
                        labels=batch.labels)


def lexicon_label_stats(corpus: Corpus, lexicon: Lexicon) -> list[tuple[str, int, int, float]]:
    """(surface, toxic, non-toxic, toxic percent) per lexicon surface that
    occurs, by surface.

    Counts sentences, not occurrences: each sentence is matched once and
    each surface it matches counts once for its label.
    """
    counts: dict[str, list[int]] = {}
    for i, label in enumerate(corpus.labels.tolist()):
        tokens = [corpus.tokens[t] for t in corpus.sentence(i).tolist()]
        for surface in set(match_biased_tokens(tokens, lexicon).tokens):
            counts.setdefault(surface, [0, 0])[label] += 1
    return [(s, toxic, nontoxic, 100.0 * toxic / (toxic + nontoxic))
            for s, (nontoxic, toxic) in sorted(counts.items())]


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

# label is decided by which context group appears; the bias token carries
# no label information except through its engineered co-occurrence rate.
# small groups keep each context token individually frequent enough that
# the hidden pattern is learnable within a short training budget
TOXIC_CONTEXT = ("dreadful", "menace", "vicious", "wreck")
CALM_CONTEXT = ("breeze", "cheerful", "mellow", "sunny")
FILLER = ("about", "it", "my", "really", "that", "the", "today", "we")

BIAS_TOKEN = "zorp"  # the designated spuriously-correlated token (nOI)
NEUTRAL_BIAS_TOKENS = {"grax": "OI", "fleeb": "OnI"}  # label-independent
NEUTRAL_BIAS_RATE = 0.12
FILLER_COUNT = (3, 6)  # inclusive bounds per sentence
CONTEXT_COUNT = (4, 4)


def synthetic_lexicon() -> Lexicon:
    entries = {BIAS_TOKEN: "nOI"}
    entries.update(NEUTRAL_BIAS_TOKENS)
    return Lexicon(entries)


def _make_split(rng: np.random.Generator, n: int, bias_given_toxic: float) -> list[tuple[str, int]]:
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 2] = 1
    rng.shuffle(labels)
    records = []
    for label in labels:
        words = list(rng.choice(FILLER, size=rng.integers(FILLER_COUNT[0], FILLER_COUNT[1] + 1)))
        group = TOXIC_CONTEXT if label == 1 else CALM_CONTEXT
        words += list(rng.choice(group, size=rng.integers(CONTEXT_COUNT[0], CONTEXT_COUNT[1] + 1), replace=False))
        p_bias = bias_given_toxic if label == 1 else 1.0 - bias_given_toxic
        if rng.random() < p_bias:
            words.append(BIAS_TOKEN)
        for tok in NEUTRAL_BIAS_TOKENS:
            if rng.random() < NEUTRAL_BIAS_RATE:
                words.append(tok)
        rng.shuffle(words)
        records.append((" ".join(words), int(label)))
    return records


def generate_synthetic_corpus(
    seed: int,
    n_train: int,
    n_test: int,
    spurious_rate: float,
) -> tuple[list[tuple[str, int]], list[tuple[str, int]], list[tuple[str, int]]]:
    """Deterministic corpus with an engineered bias-token correlation.

    Labels follow a hidden context pattern (one token group appears only in
    toxic sentences, another only in calm ones).  The designated bias token
    co-occurs with label 1 at ``spurious_rate`` in train and test_iid and at
    ``1 - spurious_rate`` in test_flipped, making the flipped split
    bias-conflicting.  Returns (train, test_iid, test_flipped), each a list
    of (text, label) records.
    """
    if not 0.5 <= spurious_rate <= 1.0:
        raise ValidationError(f"spurious_rate must be in [0.5, 1.0], got {spurious_rate}")
    if n_train < 1 or n_test < 1:
        raise ValidationError("n_train and n_test must be >= 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    train = _make_split(rng, n_train, spurious_rate)
    test_iid = _make_split(rng, n_test, spurious_rate)
    test_flipped = _make_split(rng, n_test, 1.0 - spurious_rate)
    return train, test_iid, test_flipped
