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


def effects(factual: np.ndarray, counterfactual: np.ndarray, reference: np.ndarray) -> EffectBundle:
    """The three effects of the bias input on the fused score.

    ``factual`` is the fused score with every head live; ``counterfactual``
    blocks the ensemble and sentence heads at the invariant response
    on the same bias input; ``reference`` blocks them too and feeds the
    no-treatment (NOBIAS) bias input.  te = factual - reference,
    nde = counterfactual - reference (the bias-only shift, which never
    depends on the sentence) and tie = factual - counterfactual, which
    equals te - nde up to rounding.  The three must share one shape.
    """
    if not factual.shape == counterfactual.shape == reference.shape:
        raise ContractError(f"effects: scenario shape mismatch: {factual.shape}, {counterfactual.shape}, "
                            f"{reference.shape}")
    return EffectBundle(te=factual - reference, nde=counterfactual - reference, tie=factual - counterfactual)


def inference_records(factual: np.ndarray, counterfactual: np.ndarray, reference: np.ndarray) -> list[dict]:
    """Per-example inference records for a batch of fused scores.

    Each record carries the fused factual and counterfactual vectors, the
    tie vector and the te/tie/factual labels.  These are model output
    only: the caller adds the matched lexicon ``categories``, which
    completes the JSONL schema emitted by the CLI.
    """
    bundle = effects(factual, counterfactual, reference)
    if bundle.tie.ndim != 2:
        raise ContractError("inference_records needs three aligned [batch, 2] evaluations")
    keys = ("fused_factual", "fused_counterfactual", "tie", "te_label", "tie_label", "factual_label")
    columns = (factual.tolist(), counterfactual.tolist(), bundle.tie.tolist(),
               argmax_labels(bundle.te), argmax_labels(bundle.tie), argmax_labels(factual))
    return [dict(zip(keys, row)) for row in zip(*columns)]
