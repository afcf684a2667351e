"""The three-branch debiasing classifier.

One shared encoder (embedding + tanh mixing layer) represents both the
sentence and its bias-token sequence.  A cross-attention ensemble lets each
bias token query the sentence; three independent MLP heads score the
ensemble feature, the pooled sentence, and the pooled bias tokens; a
harmonic product fusion combines the three 2-class score vectors.  In the
counterfactual scenario the ensemble and sentence heads are blocked and
both answer with one trainable invariant response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from cfdetox import autodiff as A
from cfdetox.autodiff import Value
from cfdetox.data import PAD_ID, EncodedBatch
from cfdetox.errors import ContractError

# floor for the fused product: ln(Z/(1+Z)) is undefined for Z <= 0 (tanh of
# a negative score is negative), so Z is clamped from below; on the
# positive domain the fusion is exact
FUSION_GUARD_EPS = 1e-12

# starting point for the invariant response c; must be nonzero or tanh(0)
# pins the counterfactual product onto the guard's zero-gradient side and
# the response can never train
INVARIANT_RESPONSE_INIT = 0.5

N_CLASSES = 2

# scoring-only entries, never trained or saved: encoder rows of the ids scoring needs, and each id's row number
ENCODED_ROWS = "encoder.rows"
ENCODED_INDEX = "encoder.row_index"

Scenario = Literal["factual", "counterfactual"]


BRANCHES = ("e", "x", "b")


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int
    hidden: int
    branches: tuple[str, ...] = BRANCHES  # MLP heads, in checkpoint order; const.c comes with "e"


@dataclass
class DropoutCtx:
    """Run-time dropout state; pass None for inference."""

    p: float
    seed: int
    step: int


@dataclass
class ScenarioLogits:
    """Per-branch 2-class scores plus their fusion, [batch, 2] each.

    In the counterfactual scenario ``y_e`` and ``y_x`` are one tiled
    invariant response, exactly equal across examples.  A training mode
    without some head (see :mod:`cfdetox.training`) leaves its score, and
    the fusion when it has fewer than two heads, as None.
    """

    y_e: Value | None
    y_x: Value | None
    y_b: Value | None
    fused: Value | None
    scenario: Scenario


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Stable parameter names and shapes (checkpoint schema)."""
    shapes: dict[str, tuple[int, ...]] = {
        "encoder.embed": (cfg.vocab_size, cfg.embed_dim),
        "encoder.mix.w": (cfg.embed_dim, cfg.embed_dim),
        "encoder.mix.b": (cfg.embed_dim,),
    }
    for br in cfg.branches:
        shapes[f"branch.{br}.w1"] = (cfg.embed_dim, cfg.hidden)
        shapes[f"branch.{br}.b1"] = (cfg.hidden,)
        shapes[f"branch.{br}.w2"] = (cfg.hidden, N_CLASSES)
        shapes[f"branch.{br}.b2"] = (N_CLASSES,)
    if "e" in cfg.branches:
        shapes["const.c"] = (N_CLASSES,)
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Value]:
    """Fresh trainable parameters.

    The invariant response starts at 0.5 per class, not 0: tanh(0) would
    zero the counterfactual product exactly on the fusion guard, whose
    subgradient is 0, so a zero-initialized response could never train.
    """
    d, h = cfg.embed_dim, cfg.hidden
    params: dict[str, Value] = {
        "encoder.embed": A.param(rng.normal(0.0, 1.0, (cfg.vocab_size, d)), "encoder.embed"),
        "encoder.mix.w": A.param(rng.normal(0.0, 1.0 / np.sqrt(d), (d, d)), "encoder.mix.w"),
        "encoder.mix.b": A.param(np.zeros(d), "encoder.mix.b"),
    }
    for br in cfg.branches:
        # gain 4 compensates the 1/L shrink of mean-pooled inputs, keeping
        # hidden units in tanh's responsive range; zero-initialized output
        # weights start the class scores with no preference, so the few
        # thousand Adam steps the schedule allows go into signal rather
        # than into undoing init noise; the +1 output bias keeps the fused
        # product away from the log guard, whose near-floor gradients
        # would otherwise blow up Adam's second moment and stall training
        params[f"branch.{br}.w1"] = A.param(rng.normal(0.0, 4.0 / np.sqrt(d), (d, h)), f"branch.{br}.w1")
        params[f"branch.{br}.b1"] = A.param(np.zeros(h), f"branch.{br}.b1")
        params[f"branch.{br}.w2"] = A.param(np.zeros((h, N_CLASSES)), f"branch.{br}.w2")
        params[f"branch.{br}.b2"] = A.param(np.ones(N_CLASSES), f"branch.{br}.b2")
    if "e" in cfg.branches:
        params["const.c"] = A.param(np.full(N_CLASSES, INVARIANT_RESPONSE_INIT), "const.c")
    return params


def encode(
    ids: np.ndarray,
    params: dict[str, Value],
    drop: DropoutCtx | None = None,
    site: str = "enc_x",
) -> Value:
    """Embedding lookup + tanh mixing layer; PAD_ID slots zeroed.

    The same parameters serve the sentence and the bias-token paths.
    Scoring parameters (see :func:`training.scoring_params`) carry the
    encoder rows of their ids, the PAD row among them, and those rows are
    gathered as they are.
    Returns [batch, L, d] (or [L, d] for unbatched ids).
    """
    if ENCODED_ROWS in params:
        rows = params[ENCODED_INDEX].data[ids].astype(np.intp)
        return A.const(params[ENCODED_ROWS].data[rows])
    emb = A.embed(ids, params["encoder.embed"])
    mask = (ids != PAD_ID).astype(np.float64)[..., None]
    p, seed, step = (drop.p, drop.seed, drop.step) if drop is not None else (0.0, 0, 0)
    return A.mix(emb, params["encoder.mix.w"], params["encoder.mix.b"], mask, p, seed=seed, step=step, site=site)


def cross_attention_ensemble(
    xh: Value,
    bh: Value,
    x_mask: np.ndarray,
    b_mask: np.ndarray,
) -> Value:
    """Ensemble feature: bias tokens query the sentence.

    Scores S = bh @ xh^T are softmaxed over sentence positions (pad
    masked); the attended rows are averaged over the bias tokens.  Input
    [*, n, d] and [*, m, d] give a [*, d] feature.
    """
    scores = A.matmul(bh, xh, transpose_b=True)
    attn = A.softmax(scores, axis=-1, mask=np.expand_dims(x_mask, -2))
    attended = A.matmul(attn, xh)
    return A.mean_pool(attended, b_mask, axis=attended.data.ndim - 2)


def mlp(v: Value, branch: str, params: dict[str, Value], drop: DropoutCtx | None = None) -> Value:
    h = A.tanh(A.affine(v, params[f"branch.{branch}.w1"], params[f"branch.{branch}.b1"]))
    if drop is not None:
        h = A.dropout(h, drop.p, seed=drop.seed, step=drop.step, site=f"branch_{branch}")
    return A.affine(h, params[f"branch.{branch}.w2"], params[f"branch.{branch}.b2"])


def fuse(*scores: Value) -> Value:
    """Harmonic fusion ln(Z / (1 + Z)) with Z the product of tanh(score).

    Applied per class; Z is clamped at FUSION_GUARD_EPS from below, which
    preserves the exact formula wherever the product is positive and yields
    a finite, strongly negative score otherwise.
    """
    if len(scores) < 2:
        raise ContractError("fuse needs at least two branch scores")
    z = A.tanh(scores[0])
    for s in scores[1:]:
        z = A.mul(z, A.tanh(s))
    z = A.clamp_min(z, FUSION_GUARD_EPS)
    return A.sub(A.log(z), A.log(A.add(z, 1.0)))


def bias_head(bh: Value, b_mask: np.ndarray, params: dict[str, Value], drop: DropoutCtx | None = None) -> Value:
    """Bias-head score [batch, 2] of encoded bias tokens ``bh`` [batch, Lb, d].

    The pooled bias tokens pass a gradient stop, so no loss can reach the
    encoder through this head.
    """
    return mlp(A.stop_gradient(A.mean_pool(bh, b_mask, axis=1)), "b", params, drop)


def branch_forward(
    e: Value,
    x_pooled: Value,
    y_b: Value,
    params: dict[str, Value],
    drop: DropoutCtx | None = None,
) -> ScenarioLogits:
    """Factual head scores and fusion: the ensemble and sentence heads
    respond to their features, next to the bias score ``y_b``."""
    y_e = mlp(e, "e", params, drop)
    y_x = mlp(x_pooled, "x", params, drop)
    return ScenarioLogits(y_e=y_e, y_x=y_x, y_b=y_b, fused=fuse(y_e, y_x, y_b), scenario="factual")


def counterfactual_logits(params: dict[str, Value], y_b: Value) -> ScenarioLogits:
    """The counterfactual scenario for a bias score ``y_b`` [batch, 2].

    The ensemble and sentence heads are blocked and both answer with the
    invariant response c, tiled over the batch once.  This is the only
    constructor of the counterfactual scenario: with the factual pass's
    ``y_b`` it gives the counterfactual on the same input, with the bias
    head's score of the NOBIAS input the te reference.  Either way it never
    touches the sentence path, so it is exactly invariant to the sentence.
    """
    n = y_b.data.shape[0]
    c = A.tile_rows(params["const.c"], n)
    return ScenarioLogits(y_e=c, y_x=c, y_b=y_b, fused=fuse(c, c, y_b), scenario="counterfactual")


def ccdf_forward(
    params: dict[str, Value],
    batch: EncodedBatch,
    drop: DropoutCtx | None = None,
) -> ScenarioLogits:
    """The factual pass of the full model over one encoded batch: every
    head live.  Build its counterfactual from its ``y_b`` with
    :func:`counterfactual_logits`."""
    x_mask, b_mask = batch.x_mask, batch.b_mask
    bh = encode(batch.b_ids, params, drop, site="enc_b")
    y_b = bias_head(bh, b_mask, params, drop)
    xh = encode(batch.x_ids, params, drop, site="enc_x")
    e = cross_attention_ensemble(xh, bh, x_mask, b_mask)
    return branch_forward(e, A.mean_pool(xh, x_mask, axis=1), y_b, params, drop)
