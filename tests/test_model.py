import math
import tracemalloc

import numpy as np
import pytest

from cfdetox import autodiff as A
from cfdetox import model as M
from cfdetox.data import EncodedBatch
from cfdetox.errors import ContractError
from cfdetox.model import (
    DropoutCtx,
    ModelConfig,
    ccdf_forward,
    counterfactual_logits,
    cross_attention_ensemble,
    encode,
    fuse,
    init_params,
)
from helpers import backprop_chain, encode_reference, gradcheck, make_batch, total_loss


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_encode_all_pad_gives_zero_matrix(tiny_params):
    ids = np.zeros((1, 4), dtype=np.int64)
    out = encode(ids, tiny_params)
    assert (out.data == 0).all()


def test_encoder_is_shared_between_paths(tiny_params):
    ids = np.array([[3, 5, 1]])
    x_path = encode(ids, tiny_params, site="enc_x")
    b_path = encode(ids, tiny_params, site="enc_b")
    assert (x_path.data == b_path.data).all()
    # perturbing the shared parameters moves both representations
    tiny_params["encoder.mix.w"].data += 0.25
    assert not (encode(ids, tiny_params, site="enc_x").data == x_path.data).all()
    assert not (encode(ids, tiny_params, site="enc_b").data == b_path.data).all()


def test_encode_single_token_identity_mixing():
    cfg = ModelConfig(vocab_size=5, embed_dim=3, hidden=4)
    params = init_params(cfg, np.random.default_rng(0))
    params["encoder.mix.w"].data = np.eye(3)
    params["encoder.mix.b"].data = np.zeros(3)
    out = encode(np.array([[2]]), params)
    expected = np.tanh(params["encoder.embed"].data[2])
    assert out.data[0, 0] == pytest.approx(expected, abs=1e-12)


def test_encode_dropout_only_when_ctx_given(tiny_params):
    ids = np.array([[3, 5, 1]])
    plain = encode(ids, tiny_params)
    dropped = encode(ids, tiny_params, drop=DropoutCtx(0.5, seed=0, step=1))
    assert not (plain.data == dropped.data).all()


@pytest.mark.parametrize("drop", [None, DropoutCtx(0.1, seed=3, step=7), DropoutCtx(0.7, seed=4, step=8)],
                         ids=["no-dropout", "dropout", "whole-rows-dropped"])
def test_mixing_node_has_the_bits_of_the_five_op_chain(monkeypatch, drop):
    # forward output and the gradients of the embedding rows, W and b,
    # against the chain the node replaced, under incoming gradients that
    # hold +0.0 and -0.0
    rng = np.random.default_rng(21)
    cfg = ModelConfig(vocab_size=40, embed_dim=3, hidden=4)
    ids = rng.integers(1, 40, (6, 9))
    ids[:, 6:] = 0
    ids[0, 1:] = 0
    g = rng.normal(size=(6, 9, 3))
    g[1] = 0.0
    g[2] = -0.0
    g[3, ::2] = -0.0
    runs = []
    for build in (encode, encode_reference):
        params = init_params(cfg, np.random.default_rng(22))
        params["encoder.mix.b"].data = np.array([-0.4, 0.1, 0.6])
        emb = A.param(params["encoder.embed"].data[ids])
        monkeypatch.setattr(A, "embed", lambda ids, table: emb)
        out = build(ids, params, drop)
        backprop_chain(out, g.copy())
        runs.append((out.data, emb.grad, params["encoder.mix.w"].grad, params["encoder.mix.b"].grad))
    for node, chain in zip(*runs):
        assert node.tobytes() == chain.tobytes()
    if drop is not None and drop.p > 0.5:
        assert (runs[0][0][ids != 0] == 0).all(axis=-1).any()


def test_encode_gradients_match_finite_differences():
    rng = np.random.default_rng(23)
    params = init_params(ModelConfig(vocab_size=10, embed_dim=4, hidden=3), rng)
    params["encoder.mix.b"].data = rng.normal(0.0, 0.3, 4)
    ids = np.array([[3, 5, 1, 0], [2, 2, 9, 7]])
    weights = rng.normal(size=(2, 4, 4))
    drop = DropoutCtx(0.3, seed=1, step=2)

    def build():
        v = A.mul(encode(ids, params, drop), weights)
        while v.data.ndim > 0:
            v = A.mean_pool(v, np.ones(v.data.shape[0]), axis=0)
        return v

    leaves = [params[name] for name in ("encoder.embed", "encoder.mix.w", "encoder.mix.b")]
    gradcheck(build, leaves, max_entries_per_leaf=8, rng=rng)


def test_encode_keeps_about_three_batch_tensors_for_backward():
    # besides its output the mixing node keeps the embedding rows, the
    # tanh output and a boolean keep pattern; the five-op chain it
    # replaced kept six [B, L, d] float64 tensors
    rng = np.random.default_rng(24)
    params = init_params(ModelConfig(vocab_size=300, embed_dim=128, hidden=4), rng)
    ids = rng.integers(1, 300, (8, 120))
    ids[:, 110:] = 0
    tracemalloc.start()
    try:
        out = encode(ids, params, DropoutCtx(0.1, seed=0, step=1))
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert live < 3.3 * out.data.nbytes


# ---------------------------------------------------------------------------
# cross attention
# ---------------------------------------------------------------------------

def test_cross_attention_worked_example():
    xmat = A.const(np.array([[1.0, 0.0], [0.0, 1.0]]))
    bmat = A.const(np.array([[1.0, 0.0]]))
    e = cross_attention_ensemble(xmat, bmat, np.ones(2), np.ones(1))
    assert e.data == pytest.approx([0.7311, 0.2689], abs=1e-4)


def test_cross_attention_orthogonal_bias_gives_uniform_average():
    xmat = A.const(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    bmat = A.const(np.array([[0.0, 0.0, 5.0]]))  # orthogonal to every x row
    e = cross_attention_ensemble(xmat, bmat, np.ones(2), np.ones(1))
    assert e.data == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)


def test_cross_attention_duplicate_bias_rows_mean_idempotent():
    rng = np.random.default_rng(4)
    xmat = A.const(rng.normal(size=(5, 3)))
    row = rng.normal(size=(1, 3))
    one = cross_attention_ensemble(xmat, A.const(row), np.ones(5), np.ones(1))
    two = cross_attention_ensemble(xmat, A.const(np.vstack([row, row])), np.ones(5), np.ones(2))
    assert two.data == pytest.approx(one.data, abs=1e-12)


def test_cross_attention_respects_sentence_mask():
    rng = np.random.default_rng(5)
    xmat = A.const(rng.normal(size=(4, 3)))
    bmat = A.const(rng.normal(size=(2, 3)))
    x_mask = np.array([1.0, 1.0, 0.0, 0.0])
    masked = cross_attention_ensemble(xmat, bmat, x_mask, np.ones(2))
    trimmed = cross_attention_ensemble(A.const(xmat.data[:2]), bmat, np.ones(2), np.ones(2))
    assert masked.data == pytest.approx(trimmed.data, abs=1e-12)


def test_cross_attention_all_masked_is_contract_error():
    xmat = A.const(np.ones((2, 3)))
    bmat = A.const(np.ones((1, 3)))
    with pytest.raises(ContractError):
        cross_attention_ensemble(xmat, bmat, np.zeros(2), np.ones(1))


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_closed_form():
    score = math.atanh(0.5)
    ys = [A.const(np.full(2, score)) for _ in range(3)]
    fused = fuse(*ys)
    assert fused.data == pytest.approx(math.log(0.125 / 1.125), abs=1e-6)


def test_fuse_guard_for_nonpositive_product():
    neg = fuse(A.const([-1.0, 1.0]), A.const([1.0, 1.0]), A.const([1.0, 1.0]))
    assert neg.data[0] == pytest.approx(math.log(1e-12 / (1 + 1e-12)), abs=1e-9)
    zero = fuse(A.const([0.0, 1.0]), A.const([1.0, 1.0]), A.const([1.0, 1.0]))
    assert zero.data[0] == pytest.approx(math.log(1e-12 / (1 + 1e-12)), abs=1e-9)


def test_fuse_symmetric_under_permutation():
    rng = np.random.default_rng(6)
    a, b, c = (rng.normal(size=2) for _ in range(3))
    out = fuse(A.const(a), A.const(b), A.const(c)).data
    for perm in ((b, a, c), (c, b, a), (b, c, a)):
        assert fuse(*(A.const(p) for p in perm)).data == pytest.approx(out, abs=1e-15)


def test_fuse_monotone_on_positive_domain():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ys = [rng.uniform(0.1, 2.0, size=2) for _ in range(3)]
        base = fuse(*(A.const(y) for y in ys)).data.copy()
        for k in range(3):
            bumped = [y.copy() for y in ys]
            bumped[k][0] += 1e-3
            out = fuse(*(A.const(y) for y in bumped)).data
            assert out[0] > base[0]
            assert out[1] == base[1]


def test_fuse_two_scores_supported():
    out = fuse(A.const([1.0, 1.0]), A.const([1.0, 1.0]))
    z = math.tanh(1.0) ** 2
    assert out.data == pytest.approx(math.log(z / (1 + z)), abs=1e-12)


def test_fuse_needs_two_scores():
    with pytest.raises(ContractError):
        fuse(A.const([1.0, 1.0]))


# ---------------------------------------------------------------------------
# branch forward
# ---------------------------------------------------------------------------

def test_counterfactual_scores_are_invariant_responses(tiny_params):
    rng = np.random.default_rng(8)
    batch = make_batch(rng, n=3)
    y_b = ccdf_forward(tiny_params, batch).y_b
    c = A.const(np.tile(tiny_params["const.c"].data, (3, 1)))
    assert (counterfactual_logits(tiny_params, y_b).data == fuse(c, c, y_b).data).all()


def test_counterfactual_ignores_the_sentence(tiny_params):
    rng = np.random.default_rng(9)
    a = make_batch(rng, n=2)
    b = EncodedBatch(x_ids=np.roll(a.x_ids, 1, axis=1), b_ids=a.b_ids, labels=a.labels)
    ya, yb = (ccdf_forward(tiny_params, batch).y_b for batch in (a, b))
    assert (ya.data == yb.data).all()
    assert (counterfactual_logits(tiny_params, ya).data == counterfactual_logits(tiny_params, yb).data).all()


def test_zero_weight_heads_return_biases():
    cfg = ModelConfig(vocab_size=12, embed_dim=5, hidden=7)
    params = init_params(cfg, np.random.default_rng(10))
    for br in ("e", "x", "b"):
        params[f"branch.{br}.w2"].data[:] = 0.0
        params[f"branch.{br}.b2"].data[:] = [0.25, -0.5]
    batch = make_batch(np.random.default_rng(11), n=2)
    logits = ccdf_forward(params, batch)
    for y in (logits.y_e, logits.y_x, logits.y_b):
        assert y.data == pytest.approx(np.tile([0.25, -0.5], (2, 1)), abs=1e-12)


# ---------------------------------------------------------------------------
# full-model gradient check
# ---------------------------------------------------------------------------

def test_full_forward_gradients_match_finite_differences(monkeypatch):
    # lift the bias head's gradient stop so the analytic gradient equals
    # the true derivative of the loss
    monkeypatch.setattr(A, "stop_gradient", lambda x: x)
    checked = 0
    seed = 0
    while checked < 10:
        seed += 1
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(vocab_size=10, embed_dim=4, hidden=6)
        params = init_params(cfg, rng)
        for v in params.values():
            v.data = v.data + rng.normal(0, 0.4, v.data.shape)
        batch = make_batch(rng, n=2, vocab_size=10, lx=5, lb=3)

        def build():
            logits = ccdf_forward(params, batch)
            return total_loss(logits, batch.labels)

        logits = ccdf_forward(params, batch)
        z = (np.tanh(logits.y_e.data) * np.tanh(logits.y_x.data) * np.tanh(logits.y_b.data))
        if np.abs(z).min() < 1e-3:  # too close to the fusion guard's kink
            continue
        gradcheck(build, list(params.values()), max_entries_per_leaf=3,
                  rng=np.random.default_rng(seed))
        checked += 1
