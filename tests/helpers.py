"""Shared test helpers (fixtures live in conftest.py)."""

import numpy as np

from cfdetox import autodiff as A
from cfdetox.data import EncodedBatch, Example
from cfdetox.effects import EffectBundle, effects, harmonic_fusion
from cfdetox.model import ScenarioLogits


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
