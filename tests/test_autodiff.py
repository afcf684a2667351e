import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from cfdetox import autodiff as A
from cfdetox.errors import ContractError, DomainError, ShapeError, VocabularyError
from cfdetox.data import PAD_ID
from cfdetox.model import ModelConfig, ccdf_forward, init_params
from cfdetox.training import _sum_terms, loss_terms
from helpers import embed_backward_reference, gradcheck, make_batch


def finite_difference(build, leaf, idx, h=1e-5):
    flat = leaf.data.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + h
    up = float(build().data)
    flat[idx] = orig - h
    down = float(build().data)
    flat[idx] = orig
    return (up - down) / (2 * h)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_softmax_two_logits():
    out = A.softmax(A.const([1.0, 0.0]))
    assert out.data == pytest.approx([0.7311, 0.2689], abs=1e-4)


def test_softmax_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    x = A.const(rng.normal(size=(50, 7)) * 5)
    out = A.softmax(x, axis=-1)
    assert np.abs(out.data.sum(axis=-1) - 1.0).max() <= 1e-12
    assert (out.data > 0).all()


def test_softmax_masked_zeroes_inactive():
    mask = np.array([1.0, 0.0, 1.0])
    out = A.softmax(A.const([1.0, 100.0, 1.0]), axis=-1, mask=mask)
    assert out.data[1] == 0.0
    assert out.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_all_masked_is_contract_error():
    with pytest.raises(ContractError, match="masked"):
        A.softmax(A.const([[1.0, 2.0]]), axis=-1, mask=np.zeros((1, 2)))


def test_identity_points():
    assert A.tanh(A.const(0.0)).data == 0.0
    assert A.log(A.const(1.0)).data == 0.0


def test_mean_pool_full_mask():
    out = A.mean_pool(A.const([[2.0, 4.0], [6.0, 8.0]]), np.ones(2), axis=0)
    assert out.data.tolist() == [4.0, 6.0]


def test_mean_pool_partial_mask():
    out = A.mean_pool(A.const([[2.0, 4.0], [6.0, 8.0]]), np.array([1.0, 0.0]), axis=0)
    assert out.data.tolist() == [2.0, 4.0]


def _old_mean_pool(x, mask, axis, g):
    # the formula mean_pool replaced: multiply by the mask broadcast to x
    m = np.broadcast_to(mask.reshape(mask.shape + (1,)), x.shape)
    counts = m.sum(axis=axis)
    grad = np.expand_dims(g / counts, axis) * m + 0.0  # + 0.0 as Value.accumulate does
    return (x * m).sum(axis=axis) / counts, grad


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mean_pool_is_the_masked_product_formula(data):
    # the model pools [B, L, d] over axis 1 and [L, d] over axis 0, d its
    # embedding width; masked slots hold anything finite, signed zeros too
    # (at d = 1 numpy sums the old product pairwise, so last bits may differ)
    batched = data.draw(st.booleans(), label="batched")
    shape = ((data.draw(st.integers(1, 4), label="B"),) if batched else ()) + (
        data.draw(st.integers(1, 40), label="L"), data.draw(st.sampled_from([2, 3, 5, 8, 17, 128]), label="d"))
    axis = len(shape) - 2
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))

    def draw_floats(shape, label):
        # normal draws make every sum round; drawn kinds 0 and 1 put +0.0 and -0.0
        kind = data.draw(npst.arrays(np.int8, shape, elements=st.integers(0, 5)), label=label)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, shape)
        return np.where(kind == 0, 0.0, np.where(kind == 1, -0.0, values))

    x = draw_floats(shape, "x")
    mask = data.draw(npst.arrays(bool, shape[:-1]), label="mask")
    mask[..., data.draw(st.integers(0, shape[-2] - 1), label="active")] = True
    mask = mask.astype(np.float64)
    g = draw_floats(shape[:axis] + shape[axis + 1:], "g")
    want, want_grad = _old_mean_pool(x, mask, axis, g)
    xv = A.param(x)
    out = A.mean_pool(xv, mask, axis=axis)
    assert out.data.tobytes() == want.tobytes()
    out._backward_fn(g)
    assert xv.grad.tobytes() == want_grad.tobytes()


def test_mean_pool_all_masked_is_contract_error():
    with pytest.raises(ContractError):
        A.mean_pool(A.const([[1.0]]), np.zeros(1), axis=0)


def test_log_domain_error():
    with pytest.raises(DomainError):
        A.log(A.const([1.0, 0.0]))
    with pytest.raises(DomainError):
        A.log(A.const(-2.0))


def test_affine_shape_error_names_both_shapes():
    x = A.const(np.ones((2, 3)))
    w = A.const(np.ones((4, 5)))
    b = A.const(np.ones(5))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        A.affine(x, w, b)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        A.matmul(A.const(np.ones((2, 3))), A.const(np.ones((2, 3))))


def test_embed_rejects_out_of_range_ids():
    table = A.param(np.ones((4, 2)))
    with pytest.raises(VocabularyError):
        A.embed(np.array([[0, 4]]), table)


def test_clamp_min_value_and_gradient_gate():
    x = A.param(np.array([2.0, -1.0]))
    y = A.clamp_min(x, 0.5)
    assert y.data.tolist() == [2.0, 0.5]
    loss = A.mean_pool(y, np.ones(2), axis=0)
    A.backward(loss)
    assert x.grad.tolist() == [0.5, 0.0]


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_tanh_gradient_at_zero():
    w = A.param(np.array(0.0))
    A.backward(A.tanh(w))
    assert w.grad == pytest.approx(1.0, abs=1e-12)


def test_backward_requires_scalar():
    w = A.param(np.array([1.0, 2.0]))
    with pytest.raises(ContractError, match="scalar"):
        A.backward(A.tanh(w))


def test_backward_accumulates_until_zeroed():
    w = A.param(np.array(0.5))
    A.backward(A.tanh(w))
    first = float(w.grad)
    A.backward(A.tanh(w))
    assert float(w.grad) == pytest.approx(2 * first, rel=1e-12)
    A.zero_grads([w])
    assert w.grad is None


def test_stop_gradient_blocks_upstream():
    w = A.param(np.array(1.5))
    hidden = A.tanh(w)
    out = A.tanh(A.stop_gradient(hidden))
    A.backward(out)
    assert w.grad is None  # nothing flows behind the stop


def test_stop_gradient_preserves_forward():
    w = A.param(np.array([0.3, -0.2]))
    assert (A.stop_gradient(A.tanh(w)).data == np.tanh(w.data)).all()


@pytest.mark.parametrize("layout", ["0-d", "C", "F"])
def test_first_gradient_has_zero_fill_then_add_bits(layout):
    rng = np.random.default_rng(4)
    if layout == "0-d":
        data, g = np.zeros(()), np.array(-0.0)
    else:
        data = np.zeros((3, 4)) if layout == "C" else np.zeros((4, 3)).T
        g = rng.normal(size=(3, 4))
        g[0] = -0.0
        g[1, :2] = 5e-324
    node = A.Value(data, requires_grad=True)
    node.accumulate(g)
    ref = np.zeros_like(data)
    ref += g
    assert type(node.grad) is np.ndarray and node.grad.shape == data.shape
    assert node.grad.strides == ref.strides
    assert node.grad.tobytes() == ref.tobytes()
    assert not np.signbit(node.grad[g == 0]).any()  # -0.0 + 0.0 is +0.0
    assert not np.shares_memory(node.grad, g)
    node.accumulate(g)
    ref += g
    assert node.grad.tobytes() == ref.tobytes()


def test_shared_node_gradients_accumulate():
    # w used twice: d/dw [tanh(w) * tanh(w)] = 2 tanh(w) tanh'(w)
    w = A.param(np.array(0.7))
    t = A.tanh(w)
    A.backward(A.mul(t, t))
    expected = 2 * math.tanh(0.7) * (1 - math.tanh(0.7) ** 2)
    assert float(w.grad) == pytest.approx(expected, rel=1e-12)


def test_only_nodes_that_backward_reaches_keep_their_inputs():
    # a graph over constants, as scoring builds it, holds no input alive,
    # so each block's tensors die with the block
    x = A.const(np.ones((3, 4)))
    w = A.param(np.ones((3, 4)))
    assert A.mul(A.tanh(x), 2.0)._parents == ()
    assert A.mul(A.tanh(w), 2.0)._parents[0]._parents == (w,)


def test_backward_frees_each_intermediate_gradient_once_it_has_run():
    # a 20-op elementwise chain holds 20 intermediate grads if none is
    # freed before the walk ends; freed as it goes, a few are live at once
    rng = np.random.default_rng(5)
    shape = (256, 128)
    x = A.param(rng.normal(size=shape))
    scale = rng.uniform(0.5, 1.5, size=shape)
    ops = (A.tanh, lambda v: A.mul(v, scale), lambda v: A.add(v, scale), lambda v: A.sub(v, scale))
    h = x
    for i in range(20):
        h = ops[i % 4](h)
    loss = A.cross_entropy(h, rng.integers(0, shape[1], shape[0]))
    tracemalloc.start()
    try:
        A.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.grad is not None and loss.grad is not None
    assert peak < 4 * x.data.nbytes


def test_log_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x = A.param(rng.normal(size=5))

    def build():
        picked = A.mul(A.log(A.softmax(x)), A.const(np.eye(5)[2]))
        return A.mean_pool(picked, np.ones(5), axis=0)

    A.backward(build())
    for idx in range(5):
        fd = finite_difference(build, x, idx)
        assert float(x.grad[idx]) == pytest.approx(fd, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("op_name", ["tanh", "log", "softmax", "mul", "add", "sub",
                                     "mul_column", "add_column", "sub_column",
                                     "affine", "matmul", "matmul_t", "mean_pool",
                                     "embed", "cross_entropy", "tile_rows", "clamp_min"])
def test_primitive_gradients_match_finite_differences(op_name):
    for seed in range(8):
        rng = np.random.default_rng(zlib.crc32(op_name.encode()) % 10_000 + seed)  # str hash() varies per process
        worst = _gradcheck_primitive(op_name, rng)
        assert worst <= 1e-4, f"{op_name}: rel err {worst}"


def _gradcheck_primitive(op_name, rng):
    n, m = 3, 4
    if op_name == "tanh":
        x = A.param(rng.normal(size=(n, m)))
        build = lambda: _reduce(A.tanh(x))
        leaves = [x]
    elif op_name == "log":
        x = A.param(rng.uniform(0.5, 3.0, size=(n, m)))
        build = lambda: _reduce(A.log(x))
        leaves = [x]
    elif op_name == "softmax":
        x = A.param(rng.normal(size=(n, m)))
        mask = np.ones((n, m)); mask[0, 2:] = 0
        build = lambda: _reduce(A.softmax(x, axis=-1, mask=mask))
        leaves = [x]
    elif op_name.partition("_")[0] in ("mul", "add", "sub"):
        # b [m] broadcasts over rows; a "_column" b [n, 1] over columns, summed back with keepdims
        op, _, column = op_name.partition("_")
        a, b = A.param(rng.normal(size=(n, m))), A.param(rng.normal(size=(n, 1) if column else m))
        build = lambda: _reduce(getattr(A, op)(a, b))
        leaves = [a, b]
    elif op_name == "affine":
        x = A.param(rng.normal(size=(2, n, m)))
        w, b = A.param(rng.normal(size=(m, 3))), A.param(rng.normal(size=3))
        build = lambda: _reduce(A.affine(x, w, b))
        leaves = [x, w, b]
    elif op_name == "matmul":
        a, b = A.param(rng.normal(size=(2, n, m))), A.param(rng.normal(size=(2, m, 3)))
        build = lambda: _reduce(A.matmul(a, b))
        leaves = [a, b]
    elif op_name == "matmul_t":
        a, b = A.param(rng.normal(size=(2, n, m))), A.param(rng.normal(size=(2, 5, m)))
        build = lambda: _reduce(A.matmul(a, b, transpose_b=True))
        leaves = [a, b]
    elif op_name == "mean_pool":
        x = A.param(rng.normal(size=(n, m)))
        mask = np.array([1.0, 1.0, 0.0])
        build = lambda: _reduce(A.mean_pool(x, mask, axis=0))
        leaves = [x]
    elif op_name == "embed":
        table = A.param(rng.normal(size=(6, m)))
        ids = rng.integers(0, 6, size=(n, 2))
        build = lambda: _reduce(A.embed(ids, table))
        leaves = [table]
    elif op_name == "cross_entropy":
        logits = A.param(rng.normal(size=(n, 2)))
        labels = rng.integers(0, 2, size=n)
        build = lambda: A.cross_entropy(logits, labels)
        leaves = [logits]
    elif op_name == "tile_rows":
        v = A.param(rng.normal(size=m))
        build = lambda: _reduce(A.tile_rows(v, n))
        leaves = [v]
    elif op_name == "clamp_min":
        x = A.param(rng.normal(size=(n, m)) * 2)
        x.data[np.abs(x.data) < 0.1] += 0.5  # keep clear of the kink
        build = lambda: _reduce(A.clamp_min(x, 0.0))
        leaves = [x]
    else:
        raise AssertionError(op_name)
    return gradcheck(build, leaves, rng=rng)


def _reduce(v):
    while v.data.ndim > 0:
        v = A.mean_pool(v, np.ones(v.data.shape[0]), axis=0)
    return v


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_identity_when_not_training():
    x = A.param(np.ones((3, 3)))
    assert A.dropout(x, 0.0) is x


def test_dropout_deterministic_per_key():
    x = A.const(np.ones((8, 8)))
    a = A.dropout(x, 0.4, seed=1, step=5, site="enc_x")
    b = A.dropout(x, 0.4, seed=1, step=5, site="enc_x")
    c = A.dropout(x, 0.4, seed=1, step=6, site="enc_x")
    d = A.dropout(x, 0.4, seed=1, step=5, site="enc_b")
    assert (a.data == b.data).all()
    assert not (a.data == c.data).all()
    assert not (a.data == d.data).all()


def test_dropout_scales_surviving_entries():
    x = A.const(np.ones((100, 100)))
    out = A.dropout(x, 0.25, seed=0, step=1)
    kept = out.data[out.data != 0]
    assert np.allclose(kept, 1 / 0.75)
    assert abs(out.data.mean() - 1.0) < 0.05


def test_dropout_gradient_uses_same_mask():
    x = A.param(np.ones((10, 10)))
    out = A.dropout(x, 0.3, seed=2, step=3)
    A.backward(_reduce(out))
    assert ((x.grad != 0) == (out.data != 0)).all()


def test_dropout_bits_match_mask_then_scale():
    p, seed, step, site = 0.3, 5, 9, "branch_b"
    rng = np.random.default_rng(0)
    x = A.param(rng.normal(size=(6, 7)))
    x.data[0] = -0.0
    x.data[1, :3] = [0.0, 5e-324, -np.inf]
    g = rng.normal(size=(6, 7))
    g[2] = -0.0
    key = (seed << 64) | (step << 8) | A.DROPOUT_SITES[site]
    keep = (np.random.Generator(np.random.Philox(key=key)).random(x.shape) >= p).astype(np.float64)
    scale = 1.0 / (1.0 - p)
    with np.errstate(invalid="ignore"):  # -inf * 0 is nan on both sides
        out = A.dropout(x, p, seed=seed, step=step, site=site)
        assert out.data.tobytes() == (x.data * keep * scale).tobytes()
    out._backward_fn(g)
    ref = np.zeros_like(x.data)
    ref += g * keep * scale
    assert x.grad.tobytes() == ref.tobytes()


def test_dropout_rejects_bad_rate():
    with pytest.raises(ContractError):
        A.dropout(A.const(np.ones(2)), 1.0)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_graph_execution_bit_deterministic():
    def run():
        rng = np.random.default_rng(42)
        x = A.param(rng.normal(size=(4, 6)))
        w = A.param(rng.normal(size=(6, 3)))
        b = A.param(np.zeros(3))
        out = A.softmax(A.tanh(A.affine(x, w, b)), axis=-1)
        loss = A.cross_entropy(out, np.array([0, 1, 1, 0]))
        A.backward(loss)
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert (gx1 == gx2).all() and (gw1 == gw2).all()


# ---------------------------------------------------------------------------
# the embedding table's row-sparse gradient
# ---------------------------------------------------------------------------

def _signed_grads(rng, ids, d):
    """Incoming gradients for ``ids`` with +0.0 and -0.0 entries mixed in."""
    g = rng.normal(size=ids.shape + (d,))
    g[rng.random(g.shape) < 0.2] = 0.0
    g[rng.random(g.shape) < 0.2] = -0.0
    return g


def test_embed_gradient_is_row_sparse_and_reads_as_the_dense_scatter():
    # ids repeat within each pass, the two passes share ids and PAD rows,
    # and the incoming gradients hold both signed zeros
    rng = np.random.default_rng(30)
    table = A.param(rng.normal(size=(40, 6)))
    ref = A.param(table.data)
    x_ids = np.array([[5, 9, 5, PAD_ID, PAD_ID], [9, 9, 17, 5, PAD_ID]])
    b_ids = np.array([[17, PAD_ID], [33, 5]])
    passes = [(x_ids, _signed_grads(rng, x_ids, 6)), (b_ids, _signed_grads(rng, b_ids, 6))]
    passes[0][1][x_ids == PAD_ID] = -0.0
    for ids, g in passes:
        A.embed(ids, table)._backward_fn(g)
        embed_backward_reference(ref, ids, g)
    touched, rows = table.row_grad
    assert touched.tolist() == [PAD_ID, 5, 9, 17, 33]
    assert rows.shape == (5, 6)
    assert table.grad.tobytes() == ref.grad.tobytes()  # signed zeros included


def test_embed_gradient_accumulates_across_backward_calls(monkeypatch):
    # two backward calls through the model without zero_grads between them
    # give the dense scatter's bits, each pass's addends in order
    rng = np.random.default_rng(31)
    params = init_params(ModelConfig(vocab_size=30, embed_dim=6, hidden=5), rng)
    table = params["encoder.embed"]
    passes = []
    embed = A.embed

    def recorded(ids, tbl):
        out = embed(ids, tbl)
        fn = out._backward_fn

        def backward_fn(g):
            passes.append((ids, g.copy()))
            fn(g)
        out._backward_fn = backward_fn
        return out

    monkeypatch.setattr(A, "embed", recorded)
    for seed in (0, 1):
        batch = make_batch(np.random.default_rng(seed), n=3, vocab_size=30)
        A.backward(_sum_terms(loss_terms(ccdf_forward(params, batch), batch.labels)))
    assert len(passes) == 4  # sentence and bias passes, twice
    ref = A.param(table.data)
    for ids, g in passes:
        embed_backward_reference(ref, ids, g)
    assert table.row_grad is not None
    assert table.grad.tobytes() == ref.grad.tobytes()


def test_dense_reads_and_writes_of_a_row_sparse_gradient():
    table = A.param(np.zeros((4, 2)))
    A.embed(np.array([2, 2]), table)._backward_fn(np.array([[1.0, -0.0], [2.0, -0.0]]))
    dense = table.grad
    assert dense.tolist() == [[0.0, 0.0], [0.0, 0.0], [3.0, 0.0], [0.0, 0.0]]
    assert not np.signbit(dense).any()
    table.accumulate(np.ones((4, 2)))  # a dense addend turns it dense
    assert table.row_grad is None and table.grad[2].tolist() == [4.0, 1.0]
    A.embed(np.array([0]), table)._backward_fn(np.array([[1.0, 1.0]]))
    assert table.row_grad is None and table.grad[0].tolist() == [2.0, 2.0]
    A.zero_grads([table])
    assert table.grad is None and table.row_grad is None
