"""Padding equivalence: a batch padded to its longest row scores the same
as the same ids zero-padded to the full ``lx``/``lb`` limits.

Pad slots are masked out of pooling and attention and zeroed by the
encoder, so trimming them may change only the summation order.
"""

import numpy as np
import pytest

from cfdetox import model as M
from cfdetox.data import Corpus, EncodedBatch, Vocab, generate_synthetic_corpus
from cfdetox.lexicon import Lexicon
from cfdetox.training import MODE_SPECS, TrainConfig, lmixin_forward, predict_batch, sentence_branch_forward
from helpers import corpus_from, encode_all, sentences_from

LX, LB = TrainConfig().lx, TrainConfig().lb
TOL = 1e-12


def _pad_to(batch: EncodedBatch, lx: int, lb: int) -> EncodedBatch:
    def pad(a: np.ndarray, width: int) -> np.ndarray:
        out = np.zeros((a.shape[0], width), dtype=a.dtype)
        out[:, : a.shape[1]] = a
        return out

    return EncodedBatch(x_ids=pad(batch.x_ids, lx), b_ids=pad(batch.b_ids, lb), labels=batch.labels)


def _batches():
    """(lexicon, vocab, [trimmed batches]): a synthetic-corpus batch and a
    hand-made one with an empty sentence, a sentence past ``lx`` and a
    bias sequence past ``lb``."""
    records, _, _ = generate_synthetic_corpus(5, 48, 8, 0.9)
    lexicon = Lexicon({"zorp": "nOI", "grax": "OI", "fleeb": "OnI", "hoe": "OnI"})
    long_text = " ".join(f"w{i % 40}" for i in range(LX + 30))
    hand = sentences_from([
        ("zorp " * 12 + "calm words here", 1),
        (long_text + " zorp", 0),
        ("hoe grax fleeb", 1),
        ("nothing matches at all", 0),
    ]) + [([], 0)]
    vocab = Vocab.build(Corpus.from_sentences(sentences_from(records) + hand))
    return lexicon, vocab, [encode_all(corpus_from(records[:32]), lexicon, vocab, LX, LB),
                            encode_all(Corpus.from_sentences(hand), lexicon, vocab, LX, LB)]


@pytest.fixture(scope="module")
def setup():
    lexicon, vocab, batches = _batches()
    rng = np.random.default_rng(3)
    params = M.init_params(M.ModelConfig(vocab_size=len(vocab), embed_dim=16, hidden=12), rng)
    for name, v in params.items():
        if name.endswith((".w", ".w1", ".w2", ".embed")):
            v.data = rng.normal(0.0, 0.5, v.data.shape)
    return params, batches


def _close(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= TOL


def test_trimmed_batches_are_narrower_than_the_limits(setup):
    _, (synthetic, hand) = setup
    assert synthetic.x_ids.shape[1] < LX and synthetic.b_ids.shape[1] < LB
    assert hand.x_ids.shape[1] == LX and hand.b_ids.shape[1] == LB  # truncated rows set the width
    for batch in (synthetic, hand):
        assert batch.x_mask[:, -1].any() and batch.b_mask[:, -1].any()


# the hand-made batch already spans the limits, so it is padded past them
PADDINGS = pytest.mark.parametrize("index,lx,lb", [(0, LX, LB), (1, LX + 5, LB + 3)])


@PADDINGS
def test_ccdf_forward_is_padding_invariant(setup, index, lx, lb):
    params, batches = setup
    trimmed = batches[index]
    full = _pad_to(trimmed, lx, lb)
    factual = M.ccdf_forward(params, trimmed), M.ccdf_forward(params, full)
    for attr in ("y_e", "y_x", "y_b", "fused"):
        _close(getattr(factual[0], attr).data, getattr(factual[1], attr).data)
    _close(*(M.counterfactual_logits(params, f.y_b).data for f in factual))


@PADDINGS
def test_baseline_forwards_are_padding_invariant(setup, index, lx, lb):
    params, batches = setup
    trimmed = batches[index]
    full = _pad_to(trimmed, lx, lb)
    _close(sentence_branch_forward(params, trimmed).data, sentence_branch_forward(params, full).data)
    for a, b in zip(lmixin_forward(params, trimmed), lmixin_forward(params, full)):
        _close(a.data, b.data)


def test_scores_actually_depend_on_the_input(setup):
    params, (synthetic, _) = setup
    fused = M.ccdf_forward(params, synthetic).fused.data
    assert np.ptp(fused, axis=0).min() > 1e-3


@PADDINGS
def test_predict_batch_labels_are_padding_invariant(setup, index, lx, lb):
    params, batches = setup
    trimmed = batches[index]
    full = _pad_to(trimmed, lx, lb)
    a = predict_batch(params, trimmed, MODE_SPECS["ccdf"])
    b = predict_batch(params, full, MODE_SPECS["ccdf"])
    for ra, rb in zip(a, b, strict=True):
        for rule in ("tie", "te", "factual"):
            assert ra[f"{rule}_label"] == rb[f"{rule}_label"]
        for key in ("fused_factual", "fused_counterfactual", "tie"):
            _close(np.asarray(ra[key]), np.asarray(rb[key]))
    for mode in ("lmixin", "vanilla"):
        labels_a = [r["factual_label"] for r in predict_batch(params, trimmed, MODE_SPECS[mode])]
        labels_b = [r["factual_label"] for r in predict_batch(params, full, MODE_SPECS[mode])]
        assert labels_a == labels_b
