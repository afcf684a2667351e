"""Workload inputs, made from a seed.

The stock corpus comes from ``cfdetox gen`` itself.  The long corpus keeps
the stock label pattern and pads every sentence with filler words drawn
from a fixed list of about 3000 pseudo-words, so nearly every sentence slot
holds a real token and the vocabulary is about 130 times larger.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

LONG_FILLER_WORDS = 3000
LONG_FILLER_COUNT = (100, 115)  # inclusive bounds per sentence
SPLITS = ("train", "valid", "test_iid", "test_flipped")

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def filler_words(n: int = LONG_FILLER_WORDS) -> list[str]:
    """``n`` distinct lowercase pseudo-words, the same list on every call.

    Three consonant-vowel syllables each (``bababa``, ``babade``, ...), so
    they survive tokenization unchanged and cannot collide with the stock
    corpus words, which are ordinary English or the lexicon surfaces.
    """
    syllables = [c + v for c, v in itertools.product(_ONSETS, _VOWELS)]
    words = ("".join(s) for s in itertools.product(syllables, repeat=3))
    return list(itertools.islice(words, n))


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def lengthen_corpus(src: Path, dst: Path, seed: int) -> None:
    """Copy a ``cfdetox gen`` directory, inserting filler into every sentence.

    Each sentence gets 100-115 filler words shuffled in among its own
    tokens; labels and the lexicon are unchanged.  Deterministic in
    ``seed``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    words = np.array(filler_words())
    dst.mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        rows = []
        for row in read_jsonl(src / f"{split}.jsonl"):
            k = int(rng.integers(LONG_FILLER_COUNT[0], LONG_FILLER_COUNT[1] + 1))
            tokens = row["text"].split() + list(rng.choice(words, size=k))
            rng.shuffle(tokens)
            rows.append({"text": " ".join(tokens), "label": row["label"]})
        write_jsonl(dst / f"{split}.jsonl", rows)
    (dst / "lexicon.csv").write_bytes((src / "lexicon.csv").read_bytes())


def infer_sentences(data_dir: Path, n: int) -> list[str]:
    """The first ``n`` distinct sentences of the iid test split, in file order."""
    seen: dict[str, None] = {}
    for row in read_jsonl(data_dir / "test_iid.jsonl"):
        seen.setdefault(row["text"], None)
        if len(seen) == n:
            break
    if len(seen) < n:
        raise ValueError(f"{data_dir}/test_iid.jsonl has only {len(seen)} distinct sentences, need {n}")
    return list(seen)
