"""Training loop, baseline modes, and checkpoint evaluation.

Training always runs the factual scenario; the counterfactual machinery is
used at evaluation time only.  Modes:

* ``ccdf``     — three branches, four-term loss, effect-subtraction (tie)
                 inference, model selection by validation F1 under tie.
* ``masking``  — single sentence branch trained on inputs whose lexicon
                 matches are replaced by UNK; eval inputs untouched.
* ``lmixin``   — sentence + bias branches (no ensemble); inference uses the
                 sentence branch alone.
* ``vanilla``  — single sentence branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from cfdetox import autodiff as A
from cfdetox import model as M
from cfdetox.autodiff import Value
from cfdetox.data import EncodedBatch, Example, Vocab, encode_batch, nobias_batch
from cfdetox.effects import argmax_label, inference_records
from cfdetox.errors import ContractError, DomainError, NumericsError, ValidationError
from cfdetox.lexicon import Lexicon, match_biased_tokens
from cfdetox.metrics import Confusion, EvalReport, build_report, f1_binary
from cfdetox.model import DropoutCtx, ModelConfig, ScenarioLogits
from cfdetox.optim import AdamWState, adamw_step

MODES = ("ccdf", "masking", "lmixin", "vanilla")
INFERENCE_RULES = ("tie", "te", "factual")

EVAL_BATCH_SIZE = 64


@dataclass
class TrainConfig:
    """Hyperparameters; defaults follow the experiment setup in the docs."""

    epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 1e-5
    dropout: float = 0.1
    hidden: int = 256
    lx: int = 128  # maximum sentence length; batches pad to their longest row
    lb: int = 16  # maximum bias-token length; batches pad to their longest row
    eval_every_steps: int = 1000
    seed: int = 0
    mode: str = "ccdf"
    embed_dim: int = 128
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for name in ("epochs", "batch_size", "hidden", "lx", "lb", "eval_every_steps", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {self.learning_rate}")

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            embed_dim=self.embed_dim,
            hidden=self.hidden,
            dropout=self.dropout,
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def branches_for_mode(mode: str) -> tuple[tuple[str, ...], bool]:
    """(branch heads, whether invariant responses exist) per mode."""
    if mode == "ccdf":
        return ("e", "x", "b"), True
    if mode == "lmixin":
        return ("x", "b"), False
    return ("x",), False


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _check_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValidationError(f"labels must be 0/1, got values {sorted(set(labels.tolist()))}")
    return labels


def loss_terms(logits: ScenarioLogits, labels: np.ndarray) -> dict[str, Value]:
    """The four factual cross-entropy terms keyed f/e/x/b."""
    if logits.scenario != "factual":
        raise ContractError("losses are defined on the factual scenario")
    labels = _check_labels(labels)
    return {
        "f": A.cross_entropy(logits.fused, labels),
        "e": A.cross_entropy(logits.y_e, labels),
        "x": A.cross_entropy(logits.y_x, labels),
        "b": A.cross_entropy(logits.y_b, labels),
    }


def total_loss(logits: ScenarioLogits, labels: np.ndarray) -> Value:
    """Sum of the fused and per-branch cross-entropies.

    The bias-branch term cannot reach the encoder: the bias head's input
    carries a gradient stop (see model.branch_forward).
    """
    terms = loss_terms(logits, labels)
    out = terms["f"]
    for key in ("e", "x", "b"):
        out = A.add(out, terms[key])
    return out


def invariant_response_loss(logits: ScenarioLogits, params: dict[str, Value], labels: np.ndarray) -> Value:
    """Calibration term for the invariant responses c_e/c_x.

    Cross-entropy of the counterfactual fusion built from the tiled
    responses and the *detached* bias score: its gradient reaches only
    const.c_e and const.c_x, so the four-term loss contract and the
    gradient-stop guarantee are untouched.
    """
    n = logits.y_b.data.shape[0]
    fused_cf = M.fuse(
        A.tile_rows(params["const.c_e"], n),
        A.tile_rows(params["const.c_x"], n),
        A.stop_gradient(logits.y_b),
    )
    return A.cross_entropy(fused_cf, _check_labels(labels))


# ---------------------------------------------------------------------------
# baseline forwards
# ---------------------------------------------------------------------------

def sentence_branch_forward(
    params: dict[str, Value], batch: EncodedBatch, drop: DropoutCtx | None = None
) -> Value:
    """Sentence-only score (vanilla and masking modes)."""
    xh = M.encode(batch.x_ids, batch.x_mask, params, drop, site="enc_x")
    return M.mlp(A.mean_pool(xh, batch.x_mask, axis=1), "x", params, drop)


def lmixin_forward(
    params: dict[str, Value], batch: EncodedBatch, drop: DropoutCtx | None = None
) -> tuple[Value, Value, Value]:
    """Two-branch forward: (y_x, y_b, fused2); the bias path is detached
    from the encoder exactly as in the full model."""
    xh = M.encode(batch.x_ids, batch.x_mask, params, drop, site="enc_x")
    bh = M.encode(batch.b_ids, batch.b_mask, params, drop, site="enc_b")
    y_x = M.mlp(A.mean_pool(xh, batch.x_mask, axis=1), "x", params, drop)
    y_b = M.mlp(A.stop_gradient(A.mean_pool(bh, batch.b_mask, axis=1)), "b", params, drop)
    return y_x, y_b, M.fuse(y_x, y_b)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_batch(
    params: dict[str, Value],
    batch: EncodedBatch,
    mode: str,
    inference: str,
    categories: Sequence[Sequence[str]] | None = None,
) -> list[dict]:
    """Inference records for one encoded batch (dropout off).

    For ccdf checkpoints all three rules come from one sweep (factual,
    counterfactual, and NOBIAS-reference evaluations); single-branch modes
    support only ``factual``.
    """
    if inference not in INFERENCE_RULES:
        raise ValidationError(f"unknown inference rule {inference!r}; expected one of {INFERENCE_RULES}")
    categories = categories if categories is not None else [[] for _ in range(len(batch.labels))]
    if mode == "ccdf":
        factual = M.ccdf_forward(params, batch, "factual")
        counterfactual = M.ccdf_forward(params, batch, "counterfactual")
        reference = M.ccdf_forward(params, nobias_batch(batch), "counterfactual")
        return inference_records(factual, counterfactual, reference, categories)
    if inference != "factual":
        raise ValidationError(f"inference {inference!r} requires a ccdf checkpoint, not mode {mode!r}")
    if mode == "lmixin":
        y_x, _, _ = lmixin_forward(params, batch)
        scores = y_x.data
    else:
        scores = sentence_branch_forward(params, batch).data
    return [
        {"factual_label": argmax_label(scores[i]), "categories": sorted(categories[i])}
        for i in range(scores.shape[0])
    ]


def _record_label(record: dict, inference: str) -> int:
    return record[f"{inference}_label"]


def evaluate(
    params: dict[str, Value],
    config: TrainConfig,
    examples: Sequence[Example],
    lexicon: Lexicon,
    vocab: Vocab,
    inference: str,
) -> EvalReport:
    """Full evaluation of a parameter set on a dataset.

    Subsets are defined by the presence of at least one lexicon token of
    each category; an example may fall in several subsets.  For ccdf
    checkpoints the report also carries overall accuracy/F1 under every
    rule for comparison.  ``report.records`` holds the per-example
    inference records, in dataset order.
    """
    if not examples:
        raise ValidationError("cannot evaluate an empty dataset")
    records: list[dict] = []
    for start in range(0, len(examples), EVAL_BATCH_SIZE):
        chunk = examples[start : start + EVAL_BATCH_SIZE]
        batch = encode_batch(chunk, lexicon, vocab, config.lx, config.lb)
        cats = [sorted(match_biased_tokens(ex.tokens, lexicon).categories) for ex in chunk]
        records.extend(predict_batch(params, batch, config.mode, inference, cats))
    labels = [ex.label for ex in examples]
    predictions = [_record_label(r, inference) for r in records]
    report = build_report(predictions, labels, [r["categories"] for r in records], config.mode, inference)
    report.records = records
    if config.mode == "ccdf":
        for rule in INFERENCE_RULES:
            conf = Confusion.from_pairs([_record_label(r, rule) for r in records], labels)
            report.by_rule[rule] = {
                "accuracy": (conf.tp + conf.tn) / conf.size,
                "f1_binary": f1_binary(conf),
            }
    return report


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class StepLog:
    step: int
    losses: dict[str, float]
    val_f1: float | None = None


@dataclass
class TrainResult:
    params: dict[str, Value]
    vocab: Vocab
    config: TrainConfig
    history: list[StepLog]
    evals: list[tuple[int, float | None, float | None]]  # (step, f1, best so far)
    best_step: int
    best_val_f1: float | None


def _selection_inference(mode: str) -> str:
    return "tie" if mode == "ccdf" else "factual"


def _validation_f1(params, config, valid, lexicon, vocab) -> float | None:
    report = evaluate(params, config, valid, lexicon, vocab, _selection_inference(config.mode))
    return report.f1_binary


def train(
    config: TrainConfig,
    train_set: Sequence[Example],
    valid_set: Sequence[Example],
    lexicon: Lexicon,
) -> TrainResult:
    """Seeded minibatch training with periodic validation.

    Deterministic given the config: identical runs produce bit-identical
    parameters.  The checkpoint kept is the one with the highest validation
    binary F1 under the mode's inference rule (evaluated every
    ``eval_every_steps`` steps and at the end); ties keep the earlier one.
    Aborts with the step number if the loss stops being finite.
    """
    if not train_set or not valid_set:
        raise ValidationError("train and validation splits must be non-empty")
    vocab = Vocab.build(train_set)
    seed_seq = np.random.SeedSequence(config.seed)
    init_seq, shuffle_seq = seed_seq.spawn(2)
    branches, consts = branches_for_mode(config.mode)
    params = M.init_params(
        config.model_config(len(vocab)),
        np.random.Generator(np.random.PCG64(init_seq)),
        branches=branches,
        consts=consts,
    )
    opt = AdamWState(
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
        weight_decay=config.weight_decay,
    )
    shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_seq))

    history: list[StepLog] = []
    evals: list[tuple[int, float | None, float | None]] = []
    best: dict[str, np.ndarray] | None = None
    best_f1: float | None = None
    best_step = 0
    step = 0

    def consider_checkpoint(at_step: int) -> float | None:
        nonlocal best, best_f1, best_step
        f1 = _validation_f1(params, config, valid_set, lexicon, vocab)
        if best is None or (f1 or 0.0) > (best_f1 or 0.0):
            best = {name: v.data.copy() for name, v in params.items()}
            best_f1, best_step = f1, at_step
        evals.append((at_step, f1, best_f1))
        return f1

    for _epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_set))
        for start in range(0, len(order), config.batch_size):
            step += 1
            chunk = [train_set[i] for i in order[start : start + config.batch_size]]
            batch = encode_batch(
                chunk, lexicon, vocab, config.lx, config.lb,
                mask_bias=(config.mode == "masking"),
            )
            drop = DropoutCtx(config.dropout, config.seed, step) if config.dropout > 0 else None
            try:
                if config.mode == "ccdf":
                    logits = M.ccdf_forward(params, batch, "factual", drop)
                    terms = loss_terms(logits, batch.labels)
                    loss = terms["f"]
                    for key in ("e", "x", "b"):
                        loss = A.add(loss, terms[key])
                    loss = A.add(loss, invariant_response_loss(logits, params, batch.labels))
                elif config.mode == "lmixin":
                    y_x, y_b, fused = lmixin_forward(params, batch, drop)
                    terms = {
                        "f": A.cross_entropy(fused, batch.labels),
                        "x": A.cross_entropy(y_x, batch.labels),
                        "b": A.cross_entropy(y_b, batch.labels),
                    }
                    loss = A.add(A.add(terms["f"], terms["x"]), terms["b"])
                else:
                    y_x = sentence_branch_forward(params, batch, drop)
                    terms = {"x": A.cross_entropy(y_x, batch.labels)}
                    loss = terms["x"]
            except DomainError as exc:
                raise NumericsError(f"non-finite values in the forward pass at step {step}: {exc}") from exc
            if not np.isfinite(loss.data):
                raise NumericsError(f"non-finite loss at step {step}")
            A.backward(loss)
            adamw_step(params, opt)
            A.zero_grads(params.values())
            log = StepLog(step=step, losses={k: float(v.data) for k, v in terms.items()})
            if step % config.eval_every_steps == 0:
                log.val_f1 = consider_checkpoint(step)
            history.append(log)
    if not evals or evals[-1][0] != step:
        final_f1 = consider_checkpoint(step)
        if history:
            history[-1].val_f1 = final_f1
    for name, v in params.items():
        v.data = best[name]
    return TrainResult(
        params=params,
        vocab=vocab,
        config=config,
        history=history,
        evals=evals,
        best_step=best_step,
        best_val_f1=best_f1,
    )
