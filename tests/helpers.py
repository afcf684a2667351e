"""Shared test helpers (fixtures live in conftest.py)."""

import struct
from collections import Counter
from typing import Callable, Iterable, Sequence

import numpy as np

from cfdetox import autodiff as A
from cfdetox.autodiff import Value
from cfdetox.data import (
    NOBIAS_ID,
    PAD_ID,
    RESERVED,
    SEP_ID,
    UNK,
    UNK_ID,
    Corpus,
    CorpusEncoder,
    EncodedBatch,
    Vocab,
    encode_batch,
    nobias_batch,
    tokenize,
)
from cfdetox.effects import EffectBundle, effects
from cfdetox.errors import ValidationError
from cfdetox.kernels import scatter_add_rows
from cfdetox.lexicon import Lexicon, match_biased_tokens
from cfdetox.model import FUSION_GUARD_EPS, ScenarioLogits, ccdf_forward, counterfactual_logits
from cfdetox.training import _sum_terms, loss_terms


def checkpoint_bytes(records: Sequence[tuple[str, np.ndarray]]) -> bytes:
    """A checkpoint holding ``records`` in the order given, laid out as
    ``save_arrays`` lays out its sorted records."""
    blob = b"CFDX" + struct.pack("<II", 1, len(records))
    for name, arr in records:
        arr = np.asarray(arr, dtype="<f8")
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded)) + encoded + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape)
        blob += arr.tobytes()
    return blob


def make_batch(rng: np.random.Generator, n: int = 2, vocab_size: int = 12,
               lx: int = 6, lb: int = 4) -> EncodedBatch:
    """Random well-formed encoded batch: every row keeps >= 1 active slot."""
    x_ids = rng.integers(1, vocab_size, (n, lx))
    b_ids = rng.integers(1, vocab_size, (n, lb))
    for i in range(n):
        x_ids[i, int(rng.integers(1, lx + 1)):] = 0
        b_ids[i, int(rng.integers(1, lb + 1)):] = 0
    return EncodedBatch(x_ids=x_ids, b_ids=b_ids, labels=rng.integers(0, 2, n))


def encode_reference(ids: np.ndarray, params: dict[str, Value], drop=None, site: str = "enc_x") -> Value:
    """The five-op chain ``model.encode`` ran before its mixing layer
    became one ``autodiff.mix`` node."""
    emb = A.embed(ids, params["encoder.embed"])
    h = A.tanh(A.affine(emb, params["encoder.mix.w"], params["encoder.mix.b"]))
    if drop is not None:
        h = A.dropout(h, drop.p, seed=drop.seed, step=drop.step, site=site)
    return A.mul(h, (ids != PAD_ID).astype(np.float64)[..., None])


def embed_backward_reference(table: Value, ids: np.ndarray, g: np.ndarray) -> None:
    """The dense embedding backward the row-sparse gradient replaced: a
    ``[V, d]`` zero table that each pass's addends are scattered into."""
    if table.grad is None:
        table.grad = np.zeros_like(table.data)
    flat_ids = np.ascontiguousarray(ids.reshape(-1), dtype=np.int64)
    rows = np.ascontiguousarray(g.reshape(-1, table.data.shape[1]))
    scatter_add_rows(table.grad, flat_ids, rows)


def backprop_chain(out: Value, g: np.ndarray) -> None:
    """Run the closures from ``out`` down through each node's first
    parent to a leaf, with incoming gradient ``g`` exactly as given
    (``backward`` would turn a -0.0 in it into +0.0)."""
    out.grad = g
    node = out
    while node._backward_fn is not None:
        node._backward_fn(node.grad)
        node = node._parents[0]


def sentences_from(texts_labels) -> list[tuple[list[str], int]]:
    """(tokens, label) of each (text, label) record."""
    return [(tokenize(t), y) for t, y in texts_labels]


def corpus_from(texts_labels) -> Corpus:
    """(text, label) records as the corpus ``load_jsonl`` reads them."""
    return Corpus.from_sentences(sentences_from(texts_labels))


def sentences_of(corpus: Corpus) -> list[tuple[list[str], int]]:
    """(tokens, label) of each sentence of ``corpus``, in order."""
    return [([corpus.tokens[t] for t in corpus.sentence(i).tolist()], label)
            for i, label in enumerate(corpus.labels.tolist())]


def encode_all(corpus: Corpus, lexicon: Lexicon, vocab: Vocab, max_sentence_len: int, max_bias_len: int,
               mask_bias: bool = False) -> EncodedBatch:
    """One batch of every row of ``corpus``, in order."""
    encoder = CorpusEncoder(corpus, lexicon, vocab, max_sentence_len, max_bias_len, mask_bias)
    return encode_batch(encoder, range(len(corpus)))


def vocab_build_reference(sentences: Iterable[tuple[Sequence[str], int]]) -> Vocab:
    """``Vocab.build`` as it was before it read a corpus's token counts."""
    counts = Counter()
    for tokens, _ in sentences:
        counts.update(tokens)
    for reserved in RESERVED:
        counts.pop(reserved, None)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab(list(RESERVED) + [t for t, _ in ordered])


def _pad_rows_reference(rows: Sequence[Sequence[int]]) -> np.ndarray:
    ids = np.full((len(rows), max(map(len, rows), default=1)), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids


def encode_batch_reference(
    sentences: Sequence[tuple[Sequence[str], int]],
    lexicon: Lexicon,
    vocab: Vocab,
    max_sentence_len: int,
    max_bias_len: int,
    mask_bias: bool = False,
) -> EncodedBatch:
    """``encode_batch`` as it was before batches were gathered from a
    corpus: each (tokens, label) pair matched and looked up token by token."""
    if max_sentence_len < 1 or max_bias_len < 1:
        raise ValidationError("maximum lengths must be >= 1")
    x_rows: list[list[int]] = []
    b_rows: list[list[int]] = []
    for sentence, _ in sentences:
        matched = match_biased_tokens(sentence, lexicon)
        tokens = sentence[:max_sentence_len]
        if mask_bias:
            tokens = tuple(UNK if t.lower() in matched else t for t in tokens)
        x_rows.append([vocab.id(t) for t in tokens] or [UNK_ID])
        interleaved: list[int] = []
        for tok in matched:
            if interleaved:
                interleaved.append(SEP_ID)
            interleaved.append(vocab.id(tok))
        b_rows.append(interleaved[:max_bias_len] or [NOBIAS_ID])
    labels = np.array([label for _, label in sentences], dtype=np.int64)
    return EncodedBatch(x_ids=_pad_rows_reference(x_rows), b_ids=_pad_rows_reference(b_rows), labels=labels)


def harmonic_fusion(scores: Sequence[np.ndarray]) -> np.ndarray:
    """Plain-array twin of the model's fusion (same guard)."""
    z = np.ones_like(np.asarray(scores[0], dtype=np.float64))
    for s in scores:
        z = z * np.tanh(np.asarray(s, dtype=np.float64))
    z = np.maximum(z, FUSION_GUARD_EPS)
    return np.log(z) - np.log(1.0 + z)


def total_loss(logits: ScenarioLogits, labels: np.ndarray) -> Value:
    """Sum of the fused and per-branch cross-entropies.

    The bias-branch term cannot reach the encoder: the bias head's input
    carries a gradient stop (see model.bias_head).
    """
    return _sum_terms(loss_terms(logits, labels))


def ccdf_scenarios(params: dict[str, Value], batch: EncodedBatch) -> tuple[np.ndarray, ...]:
    """Fused (factual, counterfactual, reference) scores of one batch, as
    inference builds them: both counterfactuals come from a factual pass's
    bias score, of the batch and of its NOBIAS twin."""
    factual = ccdf_forward(params, batch)
    reference_y_b = ccdf_forward(params, nobias_batch(batch)).y_b
    return (factual.fused.data, counterfactual_logits(params, factual.y_b).data,
            counterfactual_logits(params, reference_y_b).data)


def alone(batch: EncodedBatch, i: int) -> EncodedBatch:
    """Row ``i`` of ``batch`` scored alone: cut to its own (Lx, Lb) and
    repeated 4 times, the smallest block scoring runs."""
    lx, lb = int((batch.x_ids[i] != PAD_ID).sum()), int((batch.b_ids[i] != PAD_ID).sum())
    rows = [i] * 4
    return EncodedBatch(batch.x_ids[rows, :lx], batch.b_ids[rows, :lb], batch.labels[rows])


def records_alone(params: dict[str, Value], batch: EncodedBatch) -> list[dict]:
    """Each row's inference record, from one factual pass over the row
    scored alone (see :func:`alone`) and its two counterfactuals."""
    return [inference_records_reference(*ccdf_scenarios(params, alone(batch, i)))[0]
            for i in range(len(batch.labels))]


def inference_records_reference(f: np.ndarray, cf: np.ndarray, reference: np.ndarray) -> list[dict]:
    """``effects.inference_records`` as it was before it read whole
    arrays: each record built row by row."""
    bundle = effects(f, cf, reference)

    def label(score: np.ndarray) -> int:
        return int(score[1] > score[0])

    return [
        {
            "fused_factual": f[i].tolist(),
            "fused_counterfactual": cf[i].tolist(),
            "tie": bundle.tie[i].tolist(),
            "te_label": label(bundle.te[i]),
            "tie_label": label(bundle.tie[i]),
            "factual_label": label(f[i]),
        }
        for i in range(f.shape[0])
    ]


def graph_effects(live, blocked, y_b, y_b_star) -> EffectBundle:
    """``effects`` for one example of a causal graph built on the numpy fusion.

    ``live`` holds the context heads' factual scores and ``blocked`` their
    invariant responses: two heads for the full graph, one when an ablation
    drops the ensemble (no_Fe) or sentence (no_Fx) head.  ``y_b_star`` is
    the bias head's response to the NOBIAS input.
    """
    return effects(harmonic_fusion([*live, y_b]), harmonic_fusion([*blocked, y_b]),
                   harmonic_fusion([*blocked, y_b_star]))


def gradcheck(
    build: Callable[[], A.Value],
    leaves: Sequence[A.Value],
    step: float = 1e-5,
    rtol: float = 1e-4,
    max_entries_per_leaf: int = 4,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients of ``build()`` against central differences.

    ``build`` must rebuild the forward graph from the current leaf data on
    every call.  Returns the worst relative error over the sampled entries,
    where the relative error uses max(|analytic|, |numeric|, 1e-5) as the
    denominator; the floor absorbs central-difference roundoff
    (~eps * |loss| / step), which dominates entries whose true gradient is
    near zero.

    Raises:
        AssertionError: when the worst relative error exceeds ``rtol``.
    """
    rng = rng or np.random.default_rng(0)
    A.zero_grads(leaves)
    loss = build()
    A.backward(loss)
    analytic = [np.zeros_like(l.data) if l.grad is None else l.grad.copy() for l in leaves]
    worst = 0.0
    for leaf, grad in zip(leaves, analytic):
        flat = leaf.data.reshape(-1)
        n_entries = min(max_entries_per_leaf, flat.size)
        picks = rng.choice(flat.size, size=n_entries, replace=False)
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + step
            up = float(build().data)
            flat[idx] = orig - step
            down = float(build().data)
            flat[idx] = orig
            numeric = (up - down) / (2.0 * step)
            a = float(grad.reshape(-1)[idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-5)
            worst = max(worst, err)
            if err > rtol:
                raise AssertionError(
                    f"gradient mismatch at {leaf.op}[{idx}]: analytic {a:.8g}, "
                    f"finite-difference {numeric:.8g}, rel err {err:.3g}"
                )
    return worst


def scatter_add_rows_reference(out: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """The row-wise scatter-add the pure kernel replaced: ``np.add.at`` on ``out``."""
    np.add.at(out, ids, rows)


def adamw_update_reference(p, g, m, v, lr, beta1, beta2, eps, weight_decay, bias_c1, bias_c2) -> None:
    """The allocating whole-array AdamW expression the pure kernel replaced."""
    if weight_decay != 0.0:
        p *= 1.0 - lr * weight_decay
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    p -= lr * ((m / bias_c1) / (np.sqrt(v / bias_c2) + eps))
