import math

import numpy as np
import pytest

from cfdetox import autodiff as A
from cfdetox.errors import ContractError, DomainError, ShapeError, VocabularyError
from helpers import gradcheck


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
                                     "affine", "matmul", "matmul_t", "mean_pool",
                                     "embed", "cross_entropy", "tile_rows", "clamp_min"])
def test_primitive_gradients_match_finite_differences(op_name):
    for seed in range(8):
        rng = np.random.default_rng(hash(op_name) % 10_000 + seed)
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
    elif op_name == "mul":
        a, b = A.param(rng.normal(size=(n, m))), A.param(rng.normal(size=m))
        build = lambda: _reduce(A.mul(a, b))
        leaves = [a, b]
    elif op_name == "add":
        a, b = A.param(rng.normal(size=(n, m))), A.param(rng.normal(size=m))
        build = lambda: _reduce(A.add(a, b))
        leaves = [a, b]
    elif op_name == "sub":
        a, b = A.param(rng.normal(size=(n, m))), A.param(rng.normal(size=m))
        build = lambda: _reduce(A.sub(a, b))
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
