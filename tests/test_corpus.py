"""The token-id corpus: its batches against the sentence-by-sentence
encoder they replaced, its reader, and what it holds."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfdetox import data as D
from cfdetox.data import Corpus, CorpusEncoder, Vocab, encode_batch, load_jsonl, save_jsonl, tokenize
from cfdetox.errors import ParseError
from cfdetox.lexicon import Lexicon, match_biased_tokens
from helpers import encode_batch_reference, vocab_build_reference

LEXICON = Lexicon({"hoe": "OnI", "zörp": "OI", "école": "nOI", "black": "nOI", "<sep>": "OI", "i̇stanbul": "OI"})

# lexicon surfaces in several spellings, reserved surfaces, edge and inner
# punctuation, non-ASCII case pairs and pieces that tokenize to nothing
_WORDS = ["hoe", "HOE", "Hoe!", '"hoe"', "zörp", "ZÖRP", "Zörp...", "école", "ÉCOLE", "black", "Black,",
          "İstanbul", "STRASSE", "straße", "ǅemal", "<pad>", "<unk>", "<sep>", "<nobias>", "f*ck", "don't",
          "...", "!?", "«»", "plain", "words", "w1", "w2", "w3"]
_TEXT = st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=3)), max_size=30).map(" ".join)
# sentences built by hand keep the case of their tokens
_TOKENS = st.lists(st.sampled_from([w for w in _WORDS if w.strip("!?.,\"«»")] + ["Black"]), max_size=30)
_SENTENCE = st.one_of(
    st.tuples(_TEXT.map(tokenize), st.integers(0, 1)),
    st.tuples(_TOKENS, st.integers(0, 1)),
)


def _assert_same_batch(got, want):
    for name in ("x_ids", "b_ids", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert a.shape == b.shape, name
        assert (a == b).all(), name


def _reference_read(text: str) -> list[tuple[list[str], int]]:
    """(tokens, label) of each non-blank line of a well-formed JSONL text."""
    rows = [json.loads(line) for line in text.lstrip("\ufeff").splitlines() if line.strip()]
    return [(tokenize(row["text"]), row["label"]) for row in rows]


@settings(max_examples=300, deadline=None)
@given(sentences=st.lists(_SENTENCE, min_size=1, max_size=10), data=st.data(),
       lx=st.integers(1, 12), lb=st.integers(1, 6), mask_bias=st.booleans())
def test_corpus_batches_are_the_reference_encoder_bit_for_bit(sentences, data, lx, lb, mask_bias):
    corpus = Corpus.from_sentences(sentences)
    assert Vocab.build(corpus).tokens == vocab_build_reference(sentences).tokens
    # a vocabulary of some of the sentences leaves words of the others unknown
    vocab = vocab_build_reference(sentences[: data.draw(st.integers(0, len(sentences)))])
    rows = data.draw(st.lists(st.integers(0, len(sentences) - 1), max_size=12))
    encoder = CorpusEncoder(corpus, LEXICON, vocab, lx, lb, mask_bias)
    _assert_same_batch(encode_batch(encoder, rows),
                       encode_batch_reference([sentences[i] for i in rows], LEXICON, vocab, lx, lb, mask_bias))
    _assert_same_batch(encode_batch(encoder, range(len(sentences))),
                       encode_batch_reference(sentences, LEXICON, vocab, lx, lb, mask_bias))
    for i, (tokens, _) in enumerate(sentences):
        assert encoder.matches(i) == match_biased_tokens(tokens, LEXICON)
    assert encoder.categories() == [sorted(match_biased_tokens(tokens, LEXICON).categories) for tokens, _ in sentences]


@pytest.fixture(scope="module")
def stock_split(tmp_path_factory):
    """The stock training split (``cfdetox gen`` defaults) as JSONL."""
    train, _, _ = D.generate_synthetic_corpus(7, 4000, 10, 0.95)
    path = tmp_path_factory.mktemp("stock") / "train.jsonl"
    save_jsonl(path, train[:-400])  # gen carves the last tenth off as valid.jsonl
    return path


@pytest.mark.parametrize("mask_bias", [False, True])
def test_every_batch_of_a_shuffled_stock_epoch_is_the_reference_one(stock_split, mask_bias):
    corpus = load_jsonl(stock_split)
    sentences = _reference_read(stock_split.read_text(encoding="utf-8"))
    vocab = Vocab.build(corpus)
    assert vocab.tokens == vocab_build_reference(sentences).tokens
    lexicon = D.synthetic_lexicon()
    encoder = CorpusEncoder(corpus, lexicon, vocab, 128, 16, mask_bias)
    assert encoder.categories() == [sorted(match_biased_tokens(tokens, lexicon).categories) for tokens, _ in sentences]
    order = np.random.default_rng(0).permutation(len(sentences))
    for start in range(0, len(order), 8):
        rows = order[start : start + 8]
        _assert_same_batch(encode_batch(encoder, rows),
                           encode_batch_reference([sentences[i] for i in rows], lexicon, vocab, 128, 16, mask_bias))


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("content, error", [
    pytest.param("\ufeff" + '{"text": "a b", "label": 0}\n\n{"text": "b", "label": 1}\n', None, id="bom-accepted"),
    pytest.param('{"text": "a", "label": 0}\n{oops\n', (2, "invalid JSON: Expecting property name"), id="bad-json"),
    pytest.param('{"text": "a", "label": 0}\n{"text": "a"}\n', (2, "object must have 'text' and 'label' fields"),
                 id="missing-field"),
    pytest.param('{"text": "a", "label": true}\n', (1, "'label' must be 0 or 1, got True"), id="bool-label"),
    pytest.param('{"text": "a", "label": 0}\n{"text": "a", "label": 1.0}\n', (2, "'label' must be 0 or 1, got 1.0"),
                 id="float-label"),
    pytest.param(b'{"text": "a", "label": 0}\n\xff\xfe oops\n', (2, "not valid UTF-8"), id="non-utf8"),
    pytest.param('{"text": "a", "label": 0}\n' + "[" * 100000 + "\n", (2, "invalid JSON: "), id="nesting-depth"),
])
def test_reader_accepts_and_rejects_what_load_jsonl_does(tmp_path, content, error):
    path = tmp_path / "d.jsonl"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    if error is not None:  # the message names the file and the line
        line_no, message = error
        with pytest.raises(ParseError) as info:
            load_jsonl(path)
        assert info.value.line_no == line_no
        assert str(info.value).startswith(f"{path}:{line_no}: {message}")
        return
    corpus, sentences = load_jsonl(path), _reference_read(content)
    assert isinstance(corpus, Corpus)
    assert [corpus.tokens[i] for i in corpus.ids] == [t for tokens, _ in sentences for t in tokens]
    assert [corpus.sentence(i).size for i in range(len(corpus))] == [len(tokens) for tokens, _ in sentences]
    assert corpus.labels.tolist() == [label for _, label in sentences]


def test_reader_keeps_token_order_counts_and_empty_sentences(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [("The hoe, the HOE!", 1), ("...", 0), ("zorp the", 1)]
    path.write_text("".join(json.dumps({"text": t, "label": y}) + "\n" for t, y in rows), encoding="utf-8")
    corpus = load_jsonl(path)
    assert corpus.tokens == ("the", "hoe", "zorp")
    assert corpus.counts.tolist() == [3, 2, 1]
    assert corpus.ids.tolist() == [0, 1, 0, 1, 2, 0]
    assert corpus.offsets.tolist() == [0, 4, 4, 6]
    assert corpus.labels.tolist() == [1, 0, 1]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _traced(read, path):
    """(bytes held, peak bytes) of ``read(path)``."""
    tracemalloc.start()
    try:
        value = read(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del value
    return held, peak


def test_a_train_long_sized_split_is_read_as_flat_ids(tmp_path):
    # 2,400 sentences of 100-115 words from 3,000: as int32 ids they hold
    # about 1.3 MiB; per-sentence token tuples would hold about 4.1 MiB,
    # and one bincount of every id (an int64 copy of them all) would take
    # the peak to 3.4 MiB
    rng = np.random.default_rng(4)
    words = np.array([f"w{i}" for i in range(3000)])
    path = tmp_path / "long.jsonl"
    path.write_text("".join(json.dumps({"text": " ".join(rng.choice(words, rng.integers(100, 116))),
                                        "label": int(rng.integers(0, 2))}) + "\n" for _ in range(2400)),
                    encoding="utf-8")
    held, peak = _traced(load_jsonl, path)
    assert held <= 1.5 * 2**20
    assert peak <= 2 * 2**20
