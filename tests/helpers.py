"""Shared test helpers (fixtures live in conftest.py)."""

from typing import Callable, Sequence

import numpy as np

from cfdetox import autodiff as A
from cfdetox.autodiff import Value
from cfdetox.data import EncodedBatch, Example, nobias_batch
from cfdetox.effects import EffectBundle, effects
from cfdetox.model import FUSION_GUARD_EPS, ScenarioLogits, ccdf_forward, counterfactual_logits
from cfdetox.training import _sum_terms, loss_terms


def make_batch(rng: np.random.Generator, n: int = 2, vocab_size: int = 12,
               lx: int = 6, lb: int = 4) -> EncodedBatch:
    """Random well-formed encoded batch: every row keeps >= 1 active slot."""
    x_ids = rng.integers(1, vocab_size, (n, lx))
    b_ids = rng.integers(1, vocab_size, (n, lb))
    x_mask = np.ones((n, lx))
    b_mask = np.ones((n, lb))
    for i in range(n):
        x_keep = int(rng.integers(1, lx + 1))
        b_keep = int(rng.integers(1, lb + 1))
        x_mask[i, x_keep:] = 0
        b_mask[i, b_keep:] = 0
    x_ids[x_mask == 0] = 0
    b_ids[b_mask == 0] = 0
    return EncodedBatch(
        x_ids=x_ids, b_ids=b_ids, x_mask=x_mask, b_mask=b_mask,
        labels=rng.integers(0, 2, n),
    )


def examples_from(texts_labels) -> list[Example]:
    return [Example.from_text(t, y) for t, y in texts_labels]


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


def ccdf_scenarios(params: dict[str, Value], batch: EncodedBatch) -> tuple[ScenarioLogits, ...]:
    """(factual, counterfactual, reference) for one batch, as inference
    builds them: both counterfactuals come from a factual pass's bias
    score, of the batch and of its NOBIAS twin."""
    factual = ccdf_forward(params, batch)
    reference_y_b = ccdf_forward(params, nobias_batch(batch)).y_b
    return factual, counterfactual_logits(params, factual.y_b), counterfactual_logits(params, reference_y_b)


def scenario_logits(fused, scenario: str) -> ScenarioLogits:
    """Fused scores wrapped as one scenario's evaluation."""
    v = A.const(np.asarray(fused, dtype=np.float64))
    return ScenarioLogits(y_e=None, y_x=None, y_b=v, fused=v, scenario=scenario)


def graph_effects(live, blocked, y_b, y_b_star) -> EffectBundle:
    """``effects`` for one example of a causal graph built on the numpy fusion.

    ``live`` holds the context heads' factual scores and ``blocked`` their
    invariant responses: two heads for the full graph, one when an ablation
    drops the ensemble (no_Fe) or sentence (no_Fx) head.  ``y_b_star`` is
    the bias head's response to the NOBIAS input.
    """
    return effects(
        scenario_logits(harmonic_fusion([*live, y_b]), "factual"),
        scenario_logits(harmonic_fusion([*blocked, y_b]), "counterfactual"),
        scenario_logits(harmonic_fusion([*blocked, y_b_star]), "counterfactual"),
    )


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
