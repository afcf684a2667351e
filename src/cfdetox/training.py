"""Training loop, baseline modes, and checkpoint evaluation.

Training always runs the factual scenario; the counterfactual machinery is
used at evaluation time only (plus the invariant-response calibration
term).  Every per-mode decision lives in ``MODE_SPECS``:

* ``ccdf``     — three branches, four-term loss, effect-subtraction (tie)
                 inference, model selection by validation F1 under tie.
* ``masking``  — single sentence branch trained on inputs whose lexicon
                 matches are replaced by UNK; eval inputs untouched.
* ``lmixin``   — sentence + bias branches (no ensemble); inference uses the
                 sentence branch alone.
* ``vanilla``  — single sentence branch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from cfdetox import autodiff as A
from cfdetox import model as M
from cfdetox.autodiff import Value
from cfdetox.data import EncodedBatch, Example, Vocab, encode_batch, nobias_batch
from cfdetox.effects import argmax_label, inference_records
from cfdetox.errors import ContractError, DomainError, NumericsError, ValidationError
from cfdetox.lexicon import Lexicon, match_biased_tokens
from cfdetox.metrics import Confusion, EvalReport, accuracy, build_report, f1_binary
from cfdetox.model import DropoutCtx, ModelConfig, ScenarioLogits
from cfdetox.optim import AdamWState, adamw_step

INFERENCE_RULES = ("tie", "te", "factual")


@dataclass(frozen=True)
class ModeSpec:
    """Everything that differs between training modes.

    The heads decide the forward pass (see :func:`mode_forward`).  Modes
    with invariant responses have a counterfactual scenario, hence effect
    records and every inference rule; the others predict from the sentence
    head alone.
    """

    branches: tuple[str, ...]  # MLP heads, in checkpoint order
    invariant_responses: bool = False  # const.c_e/const.c_x exist and are trained
    rules: tuple[str, ...] = ("factual",)  # inference rules the checkpoint supports
    selection_rule: str = "factual"  # rule whose validation F1 picks the checkpoint
    mask_bias: bool = False  # training batches replace lexicon matches by UNK


MODE_SPECS: dict[str, ModeSpec] = {
    "ccdf": ModeSpec(("e", "x", "b"), invariant_responses=True, rules=INFERENCE_RULES, selection_rule="tie"),
    "masking": ModeSpec(("x",), mask_bias=True),
    "lmixin": ModeSpec(("x", "b")),
    "vanilla": ModeSpec(("x",)),
}
MODES = tuple(MODE_SPECS)

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
        if not 0 <= self.seed < 2**64:  # the dropout key is seed << 64 inside a 128-bit Philox key
            raise ValidationError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("epochs", "batch_size", "hidden", "lx", "lb", "eval_every_steps", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValidationError(f"eps must be finite and > 0, got {self.eps}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValidationError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")

    @property
    def spec(self) -> ModeSpec:
        return MODE_SPECS[self.mode]

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, embed_dim=self.embed_dim, hidden=self.hidden)

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _check_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and not np.isin(labels, (0, 1)).all():
        raise ValidationError(f"labels must be 0/1, got values {sorted(set(labels.tolist()))}")
    return labels


def loss_terms(logits: ScenarioLogits, labels: np.ndarray) -> dict[str, Value]:
    """Factual cross-entropy terms keyed f/e/x/b, in that order; a score
    the mode does not have (None) has no term."""
    if logits.scenario != "factual":
        raise ContractError("losses are defined on the factual scenario")
    labels = _check_labels(labels)
    scores = {"f": logits.fused, "e": logits.y_e, "x": logits.y_x, "b": logits.y_b}
    return {key: A.cross_entropy(score, labels) for key, score in scores.items() if score is not None}


def _sum_terms(terms: dict[str, Value]) -> Value:
    values = iter(terms.values())
    out = next(values)
    for term in values:
        out = A.add(out, term)
    return out


def invariant_response_loss(logits: ScenarioLogits, params: dict[str, Value], labels: np.ndarray) -> Value:
    """Calibration term for the invariant responses c_e/c_x.

    Cross-entropy of the counterfactual fusion built from the tiled
    responses and the *detached* bias score: its gradient reaches only
    const.c_e and const.c_x, so the four-term loss contract and the
    gradient-stop guarantee are untouched.
    """
    counterfactual = M.counterfactual_logits(params, A.stop_gradient(logits.y_b))
    return A.cross_entropy(counterfactual.fused, _check_labels(labels))


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
    """Two-branch forward: (y_x, y_b, fused2); the full model's bias head,
    detached from the encoder."""
    y_x = sentence_branch_forward(params, batch, drop)
    bh = M.encode(batch.b_ids, batch.b_mask, params, drop, site="enc_b")
    y_b = M.bias_head(bh, batch.b_mask, params, drop)
    return y_x, y_b, M.fuse(y_x, y_b)


def mode_forward(
    spec: ModeSpec, params: dict[str, Value], batch: EncodedBatch, drop: DropoutCtx | None = None
) -> ScenarioLogits:
    """Factual scores of the mode's heads; a head the mode lacks is None."""
    if "e" in spec.branches:
        return M.ccdf_forward(params, batch, drop)
    if "b" in spec.branches:
        y_x, y_b, fused = lmixin_forward(params, batch, drop)
        return ScenarioLogits(y_e=None, y_x=y_x, y_b=y_b, fused=fused, scenario="factual")
    y_x = sentence_branch_forward(params, batch, drop)
    return ScenarioLogits(y_e=None, y_x=y_x, y_b=None, fused=None, scenario="factual")


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict_batch(params: dict[str, Value], batch: EncodedBatch, spec: ModeSpec) -> list[dict]:
    """Inference records for one encoded batch (dropout off).

    With invariant responses all three rules come from one sweep: the
    factual pass, the counterfactual built from its bias score, and the te
    reference, the counterfactual built from the bias head's score of the
    NOBIAS input.  Other modes get ``{"factual_label"}`` read off the
    sentence head.  Records hold model output only; the caller adds
    ``categories``.  The parameters are read as constant leaves, so no op
    records a backward closure.
    """
    params = {name: A.const(p.data, name) for name, p in params.items()}
    if spec.invariant_responses:
        factual = M.ccdf_forward(params, batch)
        counterfactual = M.counterfactual_logits(params, factual.y_b)
        nobias = nobias_batch(batch)
        bh = M.encode(nobias.b_ids, nobias.b_mask, params, site="enc_b")
        reference = M.counterfactual_logits(params, M.bias_head(bh, nobias.b_mask, params))
        return inference_records(factual, counterfactual, reference)
    scores = sentence_branch_forward(params, batch).data
    return [{"factual_label": argmax_label(row)} for row in scores]


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
    each category; an example may fall in several subsets.  When the mode
    supports several inference rules the report also carries overall
    accuracy/F1 under each of them for comparison.  ``report.records``
    holds the per-example inference records, in dataset order, each
    ending in its ``categories``.  A rule that is unknown or that the
    mode lacks is rejected before anything is encoded.
    """
    if inference not in INFERENCE_RULES:
        raise ValidationError(f"unknown inference rule {inference!r}; expected one of {INFERENCE_RULES}")
    spec = config.spec
    if inference not in spec.rules:
        raise ValidationError(f"inference {inference!r} requires a ccdf checkpoint, not mode {config.mode!r}")
    if not examples:
        raise ValidationError("cannot evaluate an empty dataset")
    records: list[dict] = []
    for start in range(0, len(examples), EVAL_BATCH_SIZE):
        chunk = examples[start : start + EVAL_BATCH_SIZE]
        batch = encode_batch(chunk, lexicon, vocab, config.lx, config.lb)
        for record, ex in zip(predict_batch(params, batch, spec), chunk):
            record["categories"] = sorted(match_biased_tokens(ex.tokens, lexicon).categories)
            records.append(record)
    labels = [ex.label for ex in examples]
    predictions = [r[f"{inference}_label"] for r in records]
    report = build_report(predictions, labels, [r["categories"] for r in records], config.mode, inference)
    report.records = records
    if len(spec.rules) > 1:
        for rule in spec.rules:
            conf = Confusion.from_pairs([r[f"{rule}_label"] for r in records], labels)
            report.by_rule[rule] = {
                "accuracy": accuracy(conf),
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
    val_f1: float | None = None  # set at validated steps only


@dataclass
class TrainResult:
    params: dict[str, Value]
    vocab: Vocab
    history: list[StepLog]
    best_step: int
    best_val_f1: float | None


def train(
    config: TrainConfig,
    train_set: Sequence[Example],
    valid_set: Sequence[Example],
    lexicon: Lexicon,
) -> TrainResult:
    """Seeded minibatch training with periodic validation.

    Deterministic given the config: identical runs produce bit-identical
    parameters.  Validation runs every ``eval_every_steps`` steps and at the
    last step; its binary F1 under the mode's selection rule is recorded in
    that step's ``StepLog.val_f1``.  The checkpoint kept is the one with the
    highest validation F1; ties keep the earlier one.  Aborts with the step
    number if the loss stops being finite.
    """
    if not train_set or not valid_set:
        raise ValidationError("train and validation splits must be non-empty")
    vocab = Vocab.build(train_set)
    seed_seq = np.random.SeedSequence(config.seed)
    init_seq, shuffle_seq = seed_seq.spawn(2)
    spec = config.spec
    params = M.init_params(
        config.model_config(len(vocab)),
        np.random.Generator(np.random.PCG64(init_seq)),
        branches=spec.branches,
        consts=spec.invariant_responses,
    )
    opt = AdamWState(
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
        weight_decay=config.weight_decay,
    )
    shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_seq))

    last_step = config.epochs * math.ceil(len(train_set) / config.batch_size)
    history: list[StepLog] = []
    best: dict[str, np.ndarray] | None = None
    best_f1: float | None = None
    best_step = 0
    step = 0
    for _epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(train_set))
        for start in range(0, len(order), config.batch_size):
            step += 1
            chunk = [train_set[i] for i in order[start : start + config.batch_size]]
            batch = encode_batch(chunk, lexicon, vocab, config.lx, config.lb, mask_bias=spec.mask_bias)
            drop = DropoutCtx(config.dropout, config.seed, step) if config.dropout > 0 else None
            try:
                logits = mode_forward(spec, params, batch, drop)
                terms = loss_terms(logits, batch.labels)
                loss = _sum_terms(terms)
                if spec.invariant_responses:
                    loss = A.add(loss, invariant_response_loss(logits, params, batch.labels))
            except DomainError as exc:
                raise NumericsError(f"non-finite values in the forward pass at step {step}: {exc}") from exc
            if not np.isfinite(loss.data):
                raise NumericsError(f"non-finite loss at step {step}")
            A.backward(loss)
            adamw_step(params, opt)
            A.zero_grads(params.values())
            log = StepLog(step=step, losses={k: float(v.data) for k, v in terms.items()})
            if step % config.eval_every_steps == 0 or step == last_step:
                log.val_f1 = f1 = evaluate(params, config, valid_set, lexicon, vocab, spec.selection_rule).f1_binary
                if best is None or (f1 or 0.0) > (best_f1 or 0.0):
                    best = {name: v.data.copy() for name, v in params.items()}
                    best_f1, best_step = f1, step
            history.append(log)
    for name, v in params.items():
        v.data = best[name]
    return TrainResult(
        params=params,
        vocab=vocab,
        history=history,
        best_step=best_step,
        best_val_f1=best_f1,
    )
