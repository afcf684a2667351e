"""Data ingestion: tokenization, JSONL corpora, vocabulary, padded batches,
and a synthetic generator with a controllable spurious bias-token/label
correlation for desk-scale experiments."""

from __future__ import annotations

import json
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from cfdetox.errors import ParseError, ValidationError, numbered_lines, read_text
from cfdetox.lexicon import Lexicon, match_biased_tokens

PAD, UNK, SEP, NOBIAS = "<pad>", "<unk>", "<sep>", "<nobias>"
RESERVED = (PAD, UNK, SEP, NOBIAS)
PAD_ID, UNK_ID, SEP_ID, NOBIAS_ID = 0, 1, 2, 3


def _strip_edge_punct(token: str) -> str:
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
    out = []
    for piece in text.lower().split():
        stripped = _strip_edge_punct(piece)
        if stripped:
            out.append(stripped)
    return out


@dataclass(frozen=True)
class Example:
    """One labeled sentence; ``tokens`` is the tokenization of ``text``."""

    text: str
    tokens: tuple[str, ...]
    label: int

    @classmethod
    def from_text(cls, text: str, label: int) -> "Example":
        if label not in (0, 1):
            raise ValidationError(f"label must be 0 or 1, got {label!r}")
        return cls(text=text, tokens=tuple(tokenize(text)), label=label)


def load_jsonl(path: str | Path) -> list[Example]:
    """Read one ``{"text": ..., "label": 0|1}`` object per line, in order."""
    path = Path(path)
    examples: list[Example] = []
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
        examples.append(Example.from_text(text, label))
    return examples


def save_jsonl(path: str | Path, examples: Iterable[Example]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps({"text": ex.text, "label": ex.label}) + "\n")


@dataclass
class Vocab:
    """Word-level vocabulary; ids 0-3 are PAD, UNK, SEP, NOBIAS."""

    tokens: list[str] = field(default_factory=lambda: list(RESERVED))

    def __post_init__(self) -> None:
        self._ids = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        """Id of a text token; unknown words and the reserved surfaces
        (``<pad>``, ``<sep>``, ...) written in text read as UNK."""
        idx = self._ids.get(token, UNK_ID)
        return UNK_ID if idx < len(RESERVED) else idx

    @classmethod
    def build(cls, examples: Iterable[Example]) -> "Vocab":
        """Corpus-derived vocabulary, most frequent first (ties by spelling)."""
        counts = Counter()
        for ex in examples:
            counts.update(ex.tokens)
        for reserved in RESERVED:
            counts.pop(reserved, None)
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(list(RESERVED) + [t for t, _ in ordered])

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
    """Padded id matrices plus aligned masks; mask is 1 exactly off-pad.

    ``encode_batch`` makes each matrix as wide as its longest row.
    """

    x_ids: np.ndarray  # int64 [batch, Lx]
    b_ids: np.ndarray  # int64 [batch, Lb]
    x_mask: np.ndarray  # float64 [batch, Lx]
    b_mask: np.ndarray  # float64 [batch, Lb]
    labels: np.ndarray  # int64 [batch]


def _pad_rows(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id rows with PAD to the longest one; returns (ids, mask)."""
    ids = np.full((len(rows), max(map(len, rows), default=1)), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids, (ids != PAD_ID).astype(np.float64)


def encode_batch(
    examples: Sequence[Example],
    lexicon: Lexicon,
    vocab: Vocab,
    max_sentence_len: int,
    max_bias_len: int,
    mask_bias: bool = False,
) -> EncodedBatch:
    """Build (x_ids, b_ids, masks, labels) for a list of examples.

    Sentences are truncated to ``max_sentence_len`` ids and bias sequences
    to ``max_bias_len``; each matrix is then padded to its longest row.
    An empty sentence encodes as the single UNK id, keeping pooling
    well-formed.  The bias-token sequence interleaves SEP between matches:
    [b1, SEP, b2, ...]; an empty match encodes as the single NOBIAS id.
    With ``mask_bias`` the sentence ids of matched tokens are replaced by
    UNK (training-time masking mode); the bias sequence is unaffected.
    """
    if max_sentence_len < 1 or max_bias_len < 1:
        raise ValidationError("maximum lengths must be >= 1")
    x_rows: list[list[int]] = []
    b_rows: list[list[int]] = []
    for ex in examples:
        tokens = ex.tokens[:max_sentence_len]
        if mask_bias:
            tokens = tuple(UNK if t.lower() in lexicon.entries else t for t in tokens)
        x_rows.append([vocab.id(t) for t in tokens] or [UNK_ID])
        interleaved: list[int] = []
        for tok in match_biased_tokens(ex.tokens, lexicon).tokens:
            if interleaved:
                interleaved.append(SEP_ID)
            interleaved.append(vocab.id(tok))
        b_rows.append(interleaved[:max_bias_len] or [NOBIAS_ID])
    x_ids, x_mask = _pad_rows(x_rows)
    b_ids, b_mask = _pad_rows(b_rows)
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return EncodedBatch(x_ids=x_ids, b_ids=b_ids, x_mask=x_mask, b_mask=b_mask, labels=labels)


def nobias_batch(batch: EncodedBatch) -> EncodedBatch:
    """The same batch with every bias sequence replaced by NOBIAS.

    This is the no-treatment input used as the reference evaluation.
    """
    b_ids, b_mask = _pad_rows([[NOBIAS_ID]] * len(batch.labels))
    return EncodedBatch(
        x_ids=batch.x_ids,
        b_ids=b_ids,
        x_mask=batch.x_mask,
        b_mask=b_mask,
        labels=batch.labels,
    )


def lexicon_label_stats(examples: Sequence[Example], lexicon: Lexicon) -> list[tuple[str, int, int, float]]:
    """(surface, toxic, non-toxic, toxic percent) per lexicon surface that
    occurs, by surface.

    Counts examples, not occurrences: each example is matched once and
    each surface it matches counts once for its label.
    """
    counts: dict[str, list[int]] = {}
    for ex in examples:
        for surface in set(match_biased_tokens(ex.tokens, lexicon).tokens):
            counts.setdefault(surface, [0, 0])[ex.label] += 1
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


def _make_split(rng: np.random.Generator, n: int, bias_given_toxic: float) -> list[Example]:
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 2] = 1
    rng.shuffle(labels)
    examples = []
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
        examples.append(Example.from_text(" ".join(words), int(label)))
    return examples


def generate_synthetic_corpus(
    seed: int,
    n_train: int,
    n_test: int,
    spurious_rate: float,
) -> tuple[list[Example], list[Example], list[Example]]:
    """Deterministic corpus with an engineered bias-token correlation.

    Labels follow a hidden context pattern (one token group appears only in
    toxic sentences, another only in calm ones).  The designated bias token
    co-occurs with label 1 at ``spurious_rate`` in train and test_iid and at
    ``1 - spurious_rate`` in test_flipped, making the flipped split
    bias-conflicting.  Returns (train, test_iid, test_flipped).
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
