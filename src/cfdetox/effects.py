"""Effect algebra over scenario outputs: total effect, natural direct
effect, and total indirect effect, the last used as the debiased
prediction.

The differentiable model lives in :mod:`cfdetox.model`; here everything is
plain numpy over fused score vectors.  The no-treatment value of the bias
input is realized as the reserved NOBIAS token, so the reference
evaluation is computable and the direct effect vanishes exactly on
sentences with no lexicon match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from cfdetox.errors import ContractError
from cfdetox.model import FUSION_GUARD_EPS, ScenarioLogits


@dataclass(frozen=True)
class EffectBundle:
    """te/nde/tie per class, each shaped like the fused scores."""

    te: np.ndarray
    nde: np.ndarray
    tie: np.ndarray


def harmonic_fusion(scores: Sequence[np.ndarray]) -> np.ndarray:
    """Plain-array twin of the model's fusion (same guard)."""
    z = np.ones_like(np.asarray(scores[0], dtype=np.float64))
    for s in scores:
        z = z * np.tanh(np.asarray(s, dtype=np.float64))
    z = np.maximum(z, FUSION_GUARD_EPS)
    return np.log(z) - np.log(1.0 + z)


def argmax_label(score: np.ndarray) -> int:
    """Class with the larger score; ties resolve to 0 (non-toxic)."""
    return int(score[1] > score[0])


def effects(factual: ScenarioLogits, counterfactual: ScenarioLogits, reference: ScenarioLogits) -> EffectBundle:
    """The three effects of the bias input on the fused score.

    ``factual`` is the evaluation with every head live; ``counterfactual``
    blocks the ensemble and sentence heads at their invariant responses
    on the same bias input; ``reference`` blocks them too and feeds the
    no-treatment (NOBIAS) bias input.  te = factual - reference,
    nde = counterfactual - reference (the bias-only shift, which never
    depends on the sentence) and tie = factual - counterfactual, which
    equals te - nde up to rounding.  All three fused arrays must share
    one shape.
    """
    expected = (("factual", factual, "factual"), ("counterfactual", counterfactual, "counterfactual"),
                ("reference", reference, "counterfactual"))
    for name, logits, scenario in expected:
        if logits.scenario != scenario:
            raise ContractError(f"effects: {name} must be a {scenario} evaluation, got {logits.scenario!r}")
    f, cf, ref = factual.fused.data, counterfactual.fused.data, reference.fused.data
    if not f.shape == cf.shape == ref.shape:
        raise ContractError(f"effects: scenario shape mismatch: {f.shape}, {cf.shape}, {ref.shape}")
    return EffectBundle(te=f - ref, nde=cf - ref, tie=f - cf)


def inference_records(
    factual: ScenarioLogits,
    counterfactual: ScenarioLogits,
    reference: ScenarioLogits,
    categories: Sequence[Sequence[str]],
) -> list[dict]:
    """Per-example inference records for a batch.

    Each record carries the fused factual and counterfactual vectors, the
    tie vector, the te/tie/factual labels, and the matched lexicon
    categories — the JSONL schema emitted by the CLI.
    """
    bundle = effects(factual, counterfactual, reference)
    if bundle.tie.ndim != 2:
        raise ContractError("inference_records needs three aligned [batch, 2] evaluations")
    f, cf = factual.fused.data, counterfactual.fused.data
    return [
        {
            "fused_factual": f[i].tolist(),
            "fused_counterfactual": cf[i].tolist(),
            "tie": bundle.tie[i].tolist(),
            "te_label": argmax_label(bundle.te[i]),
            "tie_label": argmax_label(bundle.tie[i]),
            "factual_label": argmax_label(f[i]),
            "categories": sorted(categories[i]),
        }
        for i in range(f.shape[0])
    ]
