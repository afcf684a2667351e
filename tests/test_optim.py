import numpy as np
import pytest

from cfdetox import autodiff as A
from cfdetox.optim import AdamWState, adamw_step


def make_param(value, grad):
    p = A.param(np.asarray(value, dtype=np.float64))
    p.grad = np.asarray(grad, dtype=np.float64)
    return p


def test_single_step_unit_gradient():
    # bias-corrected m-hat = v-hat = 1, so the step is exactly -lr/(1+eps)
    w = make_param(0.0, 1.0)
    state = AdamWState(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)
    adamw_step({"w": w}, state)
    assert float(w.data) == pytest.approx(-0.1, abs=1e-8)
    assert state.step == 1


def test_zero_gradient_no_decay_is_fixed_point():
    w = make_param([1.0, -2.0], [0.0, 0.0])
    adamw_step({"w": w}, AdamWState(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0))
    assert w.data.tolist() == [1.0, -2.0]


def test_decoupled_decay_only():
    w = make_param(1.0, 0.0)
    adamw_step({"w": w}, AdamWState(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01))
    assert float(w.data) == pytest.approx(0.999, abs=1e-12)


def test_gradients_left_untouched():
    w = make_param(0.0, 1.0)
    adamw_step({"w": w}, AdamWState(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01))
    assert float(w.grad) == 1.0


def test_missing_gradient_treated_as_zero():
    w = A.param(np.array([2.0]))
    assert w.grad is None
    adamw_step({"w": w}, AdamWState(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0))
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
    state = AdamWState(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    for g in grads:
        w.grad = np.asarray(g, dtype=np.float64)
        adamw_step({"w": w}, state)
    assert float(w.data) == pytest.approx(w_ref, rel=1e-12)


def test_bit_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(0)
        params = {f"p{i}": A.param(rng.normal(size=(4, 3))) for i in range(3)}
        state = AdamWState(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
        for step in range(20):
            g_rng = np.random.default_rng(step)
            for p in params.values():
                p.grad = g_rng.normal(size=p.data.shape)
            adamw_step(params, state)
        return np.concatenate([p.data.reshape(-1) for p in params.values()])

    assert (run() == run()).all()
