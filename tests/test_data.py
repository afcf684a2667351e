import json
import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cfdetox import data as D
from cfdetox.data import (
    EncodedBatch,
    Example,
    Vocab,
    encode_batch,
    generate_synthetic_corpus,
    lexicon_label_stats,
    load_jsonl,
    nobias_batch,
    save_jsonl,
    tokenize,
)
from cfdetox.errors import ParseError, ValidationError
from cfdetox.lexicon import Lexicon
from helpers import examples_from

BOM = "\ufeff"


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------

def test_tokenize_keeps_internal_apostrophe():
    assert tokenize("You don’t have to pay") == ["you", "don’t", "have", "to", "pay"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_strips_trailing_period():
    assert tokenize("beat that hoe ass.") == ["beat", "that", "hoe", "ass"]


def test_tokenize_keeps_internal_star():
    assert tokenize("total f*ck up!") == ["total", "f*ck", "up"]


def test_tokenize_drops_pure_punctuation():
    assert tokenize("wow ... ok ???") == ["wow", "ok"]


def test_tokenize_lowercases():
    assert tokenize("Black BLACK") == ["black", "black"]


def test_no_alphanumeric_code_point_is_punctuation():
    # the premise of tokenize's fast path: a piece with alphanumeric ends
    # has no edge punctuation to strip
    for cp in range(sys.maxunicode + 1):
        ch = chr(cp)
        if ch.isalnum():
            assert not unicodedata.category(ch).startswith("P"), hex(cp)


def _strip_by_category(piece: str) -> str:
    start, end = 0, len(piece)
    while start < end and unicodedata.category(piece[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(piece[end - 1]).startswith("P"):
        end -= 1
    return piece[start:end]


_PUNCT = st.characters(categories=["Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po"])
# every separator str.split() knows, not only the Zs category
_SPACE = st.one_of(st.characters(categories=["Zs", "Zl", "Zp"]), st.sampled_from("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85"))
_PIECE = st.builds("".join, st.lists(st.one_of(
    st.text(_PUNCT, max_size=3),  # edge or whole-piece punctuation
    st.text(st.characters(exclude_categories=["Z", "Cc"]), max_size=4),  # any text, inner punctuation too
), max_size=4))


@given(st.one_of(
    st.text(st.one_of(st.characters(), st.sampled_from("aZ09é٣'!.*\"«»¿_- ")), max_size=40),
    st.builds("".join, st.lists(st.one_of(_PIECE, st.text(_SPACE, min_size=1, max_size=3)), max_size=12)),
))
@example("")
@example(" \t\n ")
@example("\u3000\u2028\x85\x1c")
@example("... !? «»")
def test_tokenize_fast_path_agrees_with_category_scan(text):
    tokens = tokenize(text)
    assert tokens == [t for t in map(_strip_by_category, text.lower().split()) if t]
    assert all(t is sys.intern(t) for t in tokens)  # one string per distinct token


# ---------------------------------------------------------------------------
# jsonl
# ---------------------------------------------------------------------------

def test_load_jsonl_minimal(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"text": "hi", "label": 0}\n', encoding="utf-8")
    examples = load_jsonl(path)
    assert examples == [Example(text="hi", tokens=("hi",), label=0)]


def test_load_jsonl_holds_one_string_per_distinct_token(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [{"text": "The hoe, the HOE!", "label": 1}, {"text": "\"hoe\" and the zorp", "label": 0},
            {"text": "zorp... the ZORP zorp", "label": 1}]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    first: dict[str, str] = {}
    for ex in load_jsonl(path):
        for token in ex.tokens:
            assert first.setdefault(token, token) is token
    assert sorted(first) == ["and", "hoe", "the", "zorp"]


def test_load_jsonl_preserves_order(tmp_path):
    path = tmp_path / "d.jsonl"
    rows = [{"text": f"t {i}", "label": i % 2} for i in range(3)]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    examples = load_jsonl(path)
    assert [ex.text for ex in examples] == ["t 0", "t 1", "t 2"]


def test_load_jsonl_bad_label_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"text": "a", "label": 0}\n{"text": "x", "label": 2}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=":2:"):
        load_jsonl(path)


def test_load_jsonl_invalid_json_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"text": "a", "label": 0}\n{oops\n', encoding="utf-8")
    with pytest.raises(ParseError, match=":2:"):
        load_jsonl(path)


def test_load_jsonl_bool_label_rejected(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"text": "a", "label": true}\n', encoding="utf-8")
    with pytest.raises(ParseError):
        load_jsonl(path)


def test_load_jsonl_skips_leading_byte_order_mark(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text(BOM + '{"text": "a", "label": 0}\n', encoding="utf-8")
    assert load_jsonl(path) == examples_from([("a", 0)])
    # only byte 0 is skipped: a BOM further on is content
    path.write_text('{"text": "a", "label": 0}\n' + BOM + '{"text": "b", "label": 1}\n', encoding="utf-8")
    with pytest.raises(ParseError, match=":2:.*BOM"):
        load_jsonl(path)


def test_jsonl_round_trip(tmp_path):
    examples = examples_from([("a b", 0), ("c", 1)])
    path = tmp_path / "d.jsonl"
    save_jsonl(path, examples)
    assert load_jsonl(path) == examples


# ---------------------------------------------------------------------------
# vocab + encoding
# ---------------------------------------------------------------------------

def test_vocab_reserved_ids():
    v = Vocab.build(examples_from([("a b b", 0)]))
    assert v.tokens[:4] == [D.PAD, D.UNK, D.SEP, D.NOBIAS]
    assert v.id("b") == 4  # most frequent corpus token comes first
    assert v.id("never-seen") == D.UNK_ID


def test_vocab_save_load(tmp_path):
    v = Vocab.build(examples_from([("a b", 0), ("b c", 1)]))
    v.save(tmp_path / "vocab.txt")
    assert Vocab.load(tmp_path / "vocab.txt").tokens == v.tokens


def test_vocab_load_rejects_bad_reserved(tmp_path):
    (tmp_path / "vocab.txt").write_text("a\nb\nc\nd\ne\n", encoding="utf-8")
    with pytest.raises(ParseError):
        Vocab.load(tmp_path / "vocab.txt")


def test_vocab_load_rejects_a_repeated_token(tmp_path):
    # a line overwritten by a copy of its neighbour would read "about" as UNK
    (tmp_path / "vocab.txt").write_text("\n".join([*D.RESERVED, "about", "the", "the"]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"vocab.txt:7: token 'the' repeats line 6"):
        Vocab.load(tmp_path / "vocab.txt")


def test_vocab_load_skips_leading_byte_order_mark(tmp_path):
    v = Vocab.build(examples_from([("a b", 0)]))
    (tmp_path / "vocab.txt").write_text(BOM + "\n".join(v.tokens) + "\n", encoding="utf-8")
    assert Vocab.load(tmp_path / "vocab.txt").tokens == v.tokens


def test_encode_interleaves_separator(tiny_lexicon):
    examples = examples_from([("beat that hoe ass", 1)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, max_sentence_len=8, max_bias_len=5)
    expected = [vocab.id("hoe"), D.SEP_ID, vocab.id("ass")]
    assert batch.b_ids[0].tolist() == expected
    assert batch.b_mask[0].tolist() == [1, 1, 1]


def test_encode_empty_bias_uses_nobias(tiny_lexicon):
    examples = examples_from([("hello world", 0)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 8, 4)
    assert batch.b_ids[0].tolist() == [D.NOBIAS_ID]
    assert batch.b_mask[0].tolist() == [1]


def test_encode_reserved_surfaces_in_text_as_unk():
    lexicon = Lexicon({"<sep>": "OI", "zorp": "nOI"})
    examples = examples_from([("<pad> hello <sep> <nobias> <unk> zorp", 1), ("<pad>", 0)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, lexicon, vocab, 8, 8)
    unk, hello, zorp = D.UNK_ID, vocab.id("hello"), vocab.id("zorp")
    assert batch.x_ids.tolist() == [[unk, hello, unk, unk, unk, zorp], [unk, 0, 0, 0, 0, 0]]
    assert batch.x_mask.tolist() == [[1] * 6, [1, 0, 0, 0, 0, 0]]
    assert batch.b_ids.tolist() == [[unk, D.SEP_ID, zorp], [D.NOBIAS_ID, 0, 0]]
    assert [vocab.id(t) for t in D.RESERVED] == [unk] * len(D.RESERVED)


def test_encode_truncates_long_sentence(tiny_lexicon):
    text = " ".join(f"w{i}" for i in range(200))
    examples = examples_from([(text, 0)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 128, 4)
    assert batch.x_ids.shape == (1, 128)
    assert batch.x_ids[0].tolist() == [vocab.id(f"w{i}") for i in range(128)]


def test_encode_width_is_longest_row_capped_at_limit(tiny_lexicon):
    examples = examples_from([("a b c", 0), ("hoe ass black zorp x y z", 1), ("w", 0)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 128, 16)
    assert batch.x_ids.shape == batch.x_mask.shape == (3, 7)
    assert batch.b_ids.shape == batch.b_mask.shape == (3, 7)  # 4 matches, 3 separators
    assert (batch.x_mask.sum(axis=1) == [3, 7, 1]).all()
    assert (batch.b_mask.sum(axis=1) == [1, 7, 1]).all()
    capped = encode_batch(examples, tiny_lexicon, vocab, 5, 3)
    assert capped.x_ids.shape == (3, 5)
    assert capped.b_ids.shape == (3, 3)
    assert capped.x_ids[1].tolist() == batch.x_ids[1, :5].tolist()


def test_encode_no_examples_gives_empty_batch(tiny_lexicon):
    batch = encode_batch([], tiny_lexicon, Vocab(), 128, 16)
    assert batch.x_ids.shape[0] == batch.b_ids.shape[0] == batch.labels.shape[0] == 0


def test_encode_round_trips_in_vocab_tokens(tiny_lexicon):
    examples = examples_from([("my ex so ugly hoe ass", 1), ("hello world", 0)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 10, 6)
    for ex, row, mask in zip(examples, batch.x_ids, batch.x_mask):
        decoded = [vocab.tokens[i] for i, m in zip(row, mask) if m == 1]
        assert decoded == list(ex.tokens)


def test_encode_mask_iff_not_pad(tiny_lexicon):
    examples = examples_from([("a b c", 0), ("hoe", 1)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 5, 4)
    assert ((batch.x_mask == 1) == (batch.x_ids != D.PAD_ID)).all()
    assert ((batch.b_mask == 1) == (batch.b_ids != D.PAD_ID)).all()


def test_encode_empty_sentence_becomes_unk(tiny_lexicon):
    examples = [Example(text="...", tokens=(), label=0)]
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 4, 4)
    assert batch.x_ids[0].tolist() == [D.UNK_ID]
    assert batch.x_mask[0].sum() == 1


def test_encode_mask_bias_replaces_lexicon_tokens_with_unk(tiny_lexicon):
    # a hand-built example keeps its case; lexicon matching lowercases
    examples = examples_from([("beat that hoe ass", 1)]) + [Example(text="Hoe that", tokens=("Hoe", "that"), label=1)]
    vocab = Vocab.build(examples)
    plain = encode_batch(examples, tiny_lexicon, vocab, 6, 6)
    masked = encode_batch(examples, tiny_lexicon, vocab, 6, 6, mask_bias=True)
    assert masked.x_ids[0].tolist() == [vocab.id("beat"), vocab.id("that"), D.UNK_ID, D.UNK_ID]
    assert masked.x_ids[1].tolist() == [D.UNK_ID, vocab.id("that"), D.PAD_ID, D.PAD_ID]
    # the bias sequence itself is untouched
    assert (masked.b_ids == plain.b_ids).all()


def test_nobias_batch_resets_all_rows(tiny_lexicon):
    examples = examples_from([("beat that hoe ass", 1), ("hello world", 0)])
    vocab = Vocab.build(examples)
    batch = encode_batch(examples, tiny_lexicon, vocab, 6, 4)
    ref = nobias_batch(batch)
    assert (ref.b_ids[:, 0] == D.NOBIAS_ID).all()
    assert (ref.b_ids[:, 1:] == 0).all()
    assert (ref.x_ids == batch.x_ids).all()


# ---------------------------------------------------------------------------
# lexicon_label_stats
# ---------------------------------------------------------------------------

def _label_stats(token, toxic, nontoxic, surfaces=None):
    rows = [(f"{token} here", 1)] * toxic + [(f"{token} there", 0)] * nontoxic
    lexicon = Lexicon({s: "OnI" for s in surfaces or [token]})
    return lexicon_label_stats(examples_from(rows), lexicon)


def test_label_stats_row_black():
    assert _label_stats("black", 244, 76) == [("black", 244, 76, 76.25)]


def test_label_stats_row_masked_slur():
    [(surface, toxic, nontoxic, ratio)] = _label_stats("n*gga", 541, 17)
    assert (surface, toxic, nontoxic) == ("n*gga", 541, 17)
    assert ratio == pytest.approx(96.95, abs=0.005)


def test_label_stats_symmetric():
    assert _label_stats("x", 5, 5)[0][3] == 50.0


def test_label_stats_counts_examples_not_occurrences():
    examples = examples_from([("ass ass ass", 1), ("no match", 0)])
    assert lexicon_label_stats(examples, Lexicon({"ass": "OnI"})) == [("ass", 1, 0, 100.0)]


def test_label_stats_omit_surfaces_without_occurrences():
    assert _label_stats("a", 1, 1, surfaces=["a", "missing"]) == [("a", 1, 1, 50.0)]


# ---------------------------------------------------------------------------
# synthetic corpus
# ---------------------------------------------------------------------------

def test_generator_deterministic():
    a = generate_synthetic_corpus(7, 50, 20, 0.9)
    b = generate_synthetic_corpus(7, 50, 20, 0.9)
    assert a == b


def test_generator_different_seeds_differ():
    a = generate_synthetic_corpus(7, 50, 20, 0.9)
    b = generate_synthetic_corpus(8, 50, 20, 0.9)
    assert a != b


def test_generator_rejects_out_of_range_rate():
    with pytest.raises(ValidationError):
        generate_synthetic_corpus(1, 10, 10, 0.3)
    with pytest.raises(ValidationError):
        generate_synthetic_corpus(1, 10, 10, 1.2)


@pytest.mark.parametrize("seed", [0, 1, 7, 99])
def test_generator_label_balance(seed):
    train, test_iid, test_flipped = generate_synthetic_corpus(seed, 500, 200, 0.9)
    for split in (train, test_iid, test_flipped):
        frac = sum(ex.label for ex in split) / len(split)
        assert 0.4 <= frac <= 0.6


def test_generator_spurious_cooccurrence_at_095():
    train, _, _ = generate_synthetic_corpus(7, 4000, 10, 0.95)
    toxic = [ex for ex in train if ex.label == 1]
    rate = sum(1 for ex in toxic if D.BIAS_TOKEN in ex.tokens) / len(toxic)
    assert 0.93 <= rate <= 0.97


def test_generator_flipped_split_inverts_cooccurrence():
    _, _, flipped = generate_synthetic_corpus(7, 10, 2000, 0.95)
    toxic = [ex for ex in flipped if ex.label == 1]
    rate = sum(1 for ex in toxic if D.BIAS_TOKEN in ex.tokens) / len(toxic)
    assert rate <= 0.10


def test_generator_independent_at_half():
    # chi-square on the 2x2 (bias-present x label) table, df=1;
    # 10.83 is the 0.001 critical value
    train, _, _ = generate_synthetic_corpus(3, 4000, 10, 0.5)
    table = np.zeros((2, 2))
    for ex in train:
        table[int(D.BIAS_TOKEN in ex.tokens), ex.label] += 1
    total = table.sum()
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / total
    chi2 = ((table - expected) ** 2 / expected).sum()
    assert chi2 < 10.83


def test_generator_lexicon_matches_tokens():
    lex = D.synthetic_lexicon()
    assert lex.category(D.BIAS_TOKEN) == "nOI"
    assert set(lex.entries) == {D.BIAS_TOKEN, *D.NEUTRAL_BIAS_TOKENS}
    train, _, _ = generate_synthetic_corpus(5, 200, 10, 0.8)
    # tokenization must round-trip the generated text exactly
    for ex in train:
        assert tuple(tokenize(ex.text)) == ex.tokens
