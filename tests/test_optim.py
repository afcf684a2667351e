import tracemalloc

import numpy as np
import pytest

from cfdetox import autodiff as A
from cfdetox import optim as O
from cfdetox.kernels import BLOCK
from cfdetox.optim import AdamWState, adamw_step


def make_param(value, grad):
    p = A.param(np.asarray(value, dtype=np.float64))
    p.grad = np.asarray(grad, dtype=np.float64)
    return p


def test_single_step_unit_gradient():
    # bias-corrected m-hat = v-hat = 1, so the step is exactly -lr/(1+eps)
    w = make_param(0.0, 1.0)
    state = AdamWState(lr=0.1, weight_decay=0.0)
    adamw_step({"w": w}, state)
    assert float(w.data) == pytest.approx(-0.1, abs=1e-8)
    assert state.step == 1


def test_zero_gradient_no_decay_is_fixed_point():
    w = make_param([1.0, -2.0], [0.0, 0.0])
    adamw_step({"w": w}, AdamWState(lr=0.1, weight_decay=0.0))
    assert w.data.tolist() == [1.0, -2.0]


def test_decoupled_decay_only():
    w = make_param(1.0, 0.0)
    adamw_step({"w": w}, AdamWState(lr=0.1, weight_decay=0.01))
    assert float(w.data) == pytest.approx(0.999, abs=1e-12)


def test_gradients_left_untouched():
    w = make_param(0.0, 1.0)
    adamw_step({"w": w}, AdamWState(lr=0.1, weight_decay=0.01))
    assert float(w.grad) == 1.0


def test_missing_gradient_treated_as_zero():
    w = A.param(np.array([2.0]))
    assert w.grad is None
    adamw_step({"w": w}, AdamWState(lr=0.1, weight_decay=0.0))
    assert w.data.tolist() == [2.0]


def test_matches_reference_recurrence_over_steps():
    # independent oracle: textbook decoupled-decay recurrence in pure python
    rng = np.random.default_rng(3)
    grads = rng.normal(size=10)
    lr, b1, b2, eps, wd = 1e-2, 0.9, 0.999, 1e-8, 0.01

    w_ref, m_ref, v_ref = 0.3, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        w_ref = w_ref * (1 - lr * wd)
        m_ref = b1 * m_ref + (1 - b1) * g
        v_ref = b2 * v_ref + (1 - b2) * g * g
        mhat = m_ref / (1 - b1 ** t)
        vhat = v_ref / (1 - b2 ** t)
        w_ref -= lr * mhat / (np.sqrt(vhat) + eps)

    w = A.param(np.array(0.3))
    state = AdamWState(lr=lr, weight_decay=wd)  # the oracle's b1, b2 and eps are the defaults
    for g in grads:
        w.grad = np.asarray(g, dtype=np.float64)
        adamw_step({"w": w}, state)
    assert float(w.data) == pytest.approx(w_ref, rel=1e-12)


def test_bit_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(0)
        params = {f"p{i}": A.param(rng.normal(size=(4, 3))) for i in range(3)}
        state = AdamWState(lr=1e-3, weight_decay=0.01)
        for step in range(20):
            g_rng = np.random.default_rng(step)
            for p in params.values():
                p.grad = g_rng.normal(size=p.data.shape)
            adamw_step(params, state)
        return np.concatenate([p.data.reshape(-1) for p in params.values()])

    assert (run() == run()).all()


WIDTHS = [3, 8, 128, 300]  # 8 and 128 divide BLOCK; 3 and 300 leave a remainder


@pytest.mark.parametrize("d", WIDTHS)
def test_row_sparse_gradient_updates_like_its_dense_form(d):
    # row 0 is touched at every step, row 5 only at steps 1 and 5, the first
    # row of the second block at step 4, the last row of the partial last
    # block at steps 2 and 5; the rest never
    per_block = BLOCK // d
    n_rows = 2 * per_block + 37
    rng = np.random.default_rng(40)
    sparse = A.param(rng.normal(size=(n_rows, d)))
    dense = A.param(sparse.data)
    states = [AdamWState(lr=1e-2, weight_decay=0.01) for _ in range(2)]
    touched = [[0, 5], [0, n_rows - 1], [0], [0, per_block], [0, 5, n_rows - 1]]
    for ids in touched:
        ids = np.array(ids)
        rows = rng.normal(size=(ids.size, d))
        rows[0, 0] = -0.0
        sparse.row_grad = (ids, rows)
        grad = np.zeros((n_rows, d))
        grad[ids] = rows
        dense.grad = grad
        adamw_step({"table": sparse}, states[0])
        adamw_step({"table": dense}, states[1])
        assert sparse.data.tobytes() == dense.data.tobytes()
        assert states[0].m["table"].tobytes() == states[1].m["table"].tobytes()
        assert states[0].v["table"].tobytes() == states[1].v["table"].tobytes()
    assert sparse.row_grad[0] is ids  # the gradient is left untouched


@pytest.mark.parametrize("d", WIDTHS)
def test_row_sparse_gradient_is_made_dense_one_row_block_at_a_time(monkeypatch, d):
    # six full blocks and a partial one: the dense gradient would be 768 KiB
    full = (BLOCK // d) * d
    n_rows = 6 * (BLOCK // d) + 37
    rng = np.random.default_rng(41)
    table = A.param(rng.normal(size=(n_rows, d)))
    ids = np.sort(rng.choice(n_rows, 300, replace=False))
    table.row_grad = (ids, rng.normal(size=(ids.size, d)))
    state = AdamWState(lr=1e-3, weight_decay=0.01)
    adamw_step({"table": table}, state)  # allocates the moments
    sizes = []
    update = O.adamw_update

    def recorded(p, g, *args):
        sizes.append(g.size)
        update(p, g, *args)

    monkeypatch.setattr(O, "adamw_update", recorded)
    tracemalloc.start()
    try:
        adamw_step({"table": table}, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == n_rows * d and max(sizes) <= BLOCK
    assert sizes[:-1] == [full] * 6 and 0 < sizes[-1] < full
    # one block of gradient plus the pure kernel's two 128 KiB scratch blocks
    assert peak < 4 * BLOCK * 8
