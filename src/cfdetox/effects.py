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

import numpy as np

from cfdetox.errors import ContractError
from cfdetox.model import ScenarioLogits


@dataclass(frozen=True)
class EffectBundle:
    """te/nde/tie per class, each shaped like the fused scores."""

    te: np.ndarray
    nde: np.ndarray
    tie: np.ndarray


def argmax_labels(scores: np.ndarray) -> list[int]:
    """Class with the larger score in each row of ``scores`` [batch, 2];
    ties resolve to 0 (non-toxic)."""
    return (scores[:, 1] > scores[:, 0]).astype(np.int64).tolist()


def effects(factual: ScenarioLogits, counterfactual: ScenarioLogits, reference: ScenarioLogits) -> EffectBundle:
    """The three effects of the bias input on the fused score.

    ``factual`` is the evaluation with every head live; ``counterfactual``
    blocks the ensemble and sentence heads at the invariant response
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
    factual: ScenarioLogits, counterfactual: ScenarioLogits, reference: ScenarioLogits
) -> list[dict]:
    """Per-example inference records for a batch.

    Each record carries the fused factual and counterfactual vectors, the
    tie vector and the te/tie/factual labels.  These are model output
    only: the caller adds the matched lexicon ``categories``, which
    completes the JSONL schema emitted by the CLI.
    """
    bundle = effects(factual, counterfactual, reference)
    if bundle.tie.ndim != 2:
        raise ContractError("inference_records needs three aligned [batch, 2] evaluations")
    f, cf = factual.fused.data, counterfactual.fused.data
    keys = ("fused_factual", "fused_counterfactual", "tie", "te_label", "tie_label", "factual_label")
    columns = (f.tolist(), cf.tolist(), bundle.tie.tolist(),
               argmax_labels(bundle.te), argmax_labels(bundle.tie), argmax_labels(f))
    return [dict(zip(keys, row)) for row in zip(*columns)]
