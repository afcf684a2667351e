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
from typing import Iterator

import numpy as np

from cfdetox import autodiff as A
from cfdetox import model as M
from cfdetox.autodiff import Value
from cfdetox.data import NOBIAS_ID, PAD_ID, Corpus, CorpusEncoder, EncodedBatch, Vocab, encode_batch, nobias_batch
from cfdetox.effects import argmax_labels, inference_records
from cfdetox.errors import DomainError, NumericsError, ValidationError, VocabularyError
# unused here, match_biased_tokens stays for perfbench/tracer.py to patch
from cfdetox.lexicon import Lexicon, match_biased_tokens
from cfdetox.metrics import Confusion, EvalReport, accuracy, build_report, f1_binary
from cfdetox.model import DropoutCtx, ModelConfig, ScenarioLogits
from cfdetox.optim import AdamWState, adamw_step

INFERENCE_RULES = ("tie", "te", "factual")


@dataclass(frozen=True)
class ModeSpec:
    """Everything that differs between training modes.

    The heads decide the forward pass (see :func:`mode_forward`) and the
    parameters (see :meth:`TrainConfig.model_config`).  A mode with the
    ensemble head has the invariant response, hence a counterfactual
    scenario, effect records and every inference rule; the others predict
    from the sentence head alone.
    """

    branches: tuple[str, ...]  # MLP heads, in checkpoint order
    rules: tuple[str, ...] = ("factual",)  # inference rules the checkpoint supports
    selection_rule: str = "factual"  # rule whose validation F1 picks the checkpoint
    mask_bias: bool = False  # training batches replace lexicon matches by UNK


MODE_SPECS: dict[str, ModeSpec] = {
    "ccdf": ModeSpec(("e", "x", "b"), rules=INFERENCE_RULES, selection_rule="tie"),
    "masking": ModeSpec(("x",), mask_bias=True),
    "lmixin": ModeSpec(("x", "b")),
    "vanilla": ModeSpec(("x",)),
}
MODES = tuple(MODE_SPECS)

# sentence slots (rows x Lx) per scoring block: 16 rows at lx 128; see predict_batch
SCORING_SLOTS = 2048
# ids per encoder call filling the scoring rows, bounding its temporaries;
# never 1, as a 1-row product rounds unlike the same row among others
SCORING_CHUNK = 256


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
        return ModelConfig(vocab_size, self.embed_dim, self.hidden, self.spec.branches)

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _check_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if not ((labels == 0) | (labels == 1)).all():
        raise ValidationError(f"labels must be 0/1, got values {sorted(set(labels.tolist()))}")
    return labels


def loss_terms(logits: ScenarioLogits, labels: np.ndarray) -> dict[str, Value]:
    """Factual cross-entropy terms keyed f/e/x/b, in that order; a score
    the mode does not have (None) has no term."""
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
    """Calibration term for the invariant response c.

    Cross-entropy of the counterfactual fusion built from the tiled
    response and the *detached* bias score: its gradient reaches only
    const.c, so the four-term loss contract and the gradient-stop
    guarantee are untouched.
    """
    counterfactual = M.counterfactual_logits(params, A.stop_gradient(logits.y_b))
    return A.cross_entropy(counterfactual, _check_labels(labels))


# ---------------------------------------------------------------------------
# baseline forwards
# ---------------------------------------------------------------------------

def sentence_branch_forward(
    params: dict[str, Value], batch: EncodedBatch, drop: DropoutCtx | None = None
) -> Value:
    """Sentence-only score (vanilla and masking modes)."""
    xh = M.encode(batch.x_ids, params, drop, site="enc_x")
    return M.mlp(A.mean_pool(xh, batch.x_mask, axis=1), "x", params, drop)


def lmixin_forward(
    params: dict[str, Value], batch: EncodedBatch, drop: DropoutCtx | None = None
) -> tuple[Value, Value, Value]:
    """Two-branch forward: (y_x, y_b, fused2); the full model's bias head,
    detached from the encoder."""
    y_x = sentence_branch_forward(params, batch, drop)
    bh = M.encode(batch.b_ids, params, drop, site="enc_b")
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
        return ScenarioLogits(y_e=None, y_x=y_x, y_b=y_b, fused=fused)
    y_x = sentence_branch_forward(params, batch, drop)
    return ScenarioLogits(y_e=None, y_x=y_x, y_b=None, fused=None)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def _spans(n: int, size: int, min_last: int) -> list[tuple[int, int]]:
    """[start, stop) spans of ``size`` over ``range(n)``; a remainder under ``min_last`` joins the one before."""
    starts = list(range(0, max(n - min_last + 1, 1), size))
    return list(zip(starts, starts[1:] + [n]))


def scoring_params(params: dict[str, Value], batch: EncodedBatch) -> dict[str, Value]:
    """Constant parameters that score ``batch``: one encoder row per
    distinct id in it plus NOBIAS_ID (the te reference), filled by
    :func:`model.encode` in chunks of SCORING_CHUNK ids, which it gathers.

    A row of the mixing layer's ``[·, d] @ [d, d]`` product has the same
    bits in any product of two rows or more, so the gathered rows are the
    per-slot encoder's, signed zeros at PAD included.  A boolean marker
    collects the ids; ``np.unique`` would import ``numpy.ma`` into every
    ``infer`` process.  The caller's dict is left as it is.
    """
    consts = {name: A.const(p.data, name) for name, p in params.items()}
    table = consts["encoder.embed"].data
    seen = np.zeros(len(table), dtype=bool)
    seen[NOBIAS_ID] = True
    for ids in (batch.x_ids, batch.b_ids):
        if ids.size and (ids.min() < 0 or ids.max() >= len(seen)):
            raise VocabularyError(f"token id out of range: ids span [{ids.min()}, {ids.max()}], "
                                  f"table has {len(seen)} rows")
        seen[ids] = True
    ids = np.flatnonzero(seen)
    rows = np.empty((len(ids), table.shape[1]))
    for start, stop in _spans(len(ids), SCORING_CHUNK, 2):
        rows[start:stop] = M.encode(ids[start:stop], consts).data
    consts[M.ENCODED_ROWS] = A.const(rows, M.ENCODED_ROWS)
    consts[M.ENCODED_INDEX] = A.const(np.cumsum(seen) - 1, M.ENCODED_INDEX)  # row of each marked id
    return consts


def _scoring_blocks(batch: EncodedBatch) -> Iterator[tuple[np.ndarray, EncodedBatch]]:
    """(rows, block) pairs that score every row of ``batch`` once.

    Rows are grouped by their own (Lx, Lb) and a block holds rows of one
    group at exactly that width, so no row is scored beside padding it
    does not have (the width enters softmax and pooling sums).  A block
    holds at most SCORING_SLOTS sentence slots, 4 rows at least, and is
    padded to a multiple of 4 rows by repeating its last row: OpenBLAS
    rounds a product's tail rows unlike rows in its 4-row panels.  The
    padding rows come after ``rows`` in the block.
    """
    x_len = (batch.x_ids != PAD_ID).sum(axis=1)
    b_len = (batch.b_ids != PAD_ID).sum(axis=1)
    key = x_len * (batch.b_ids.shape[1] + 1) + b_len
    order = np.argsort(key, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        lx, lb = x_len[group[0]], b_len[group[0]]
        size = max(SCORING_SLOTS // lx // 4 * 4, 4)
        for start in range(0, len(group), size):
            rows = group[start : start + size]
            padded = np.concatenate([rows, np.repeat(rows[-1:], -len(rows) % 4)])
            yield rows, EncodedBatch(batch.x_ids[padded, :lx], batch.b_ids[padded, :lb], batch.labels[padded])


def predict_batch(params: dict[str, Value], batch: EncodedBatch, spec: ModeSpec) -> list[dict]:
    """Inference records for the rows of one encoded batch, in its order (dropout off).

    With the ensemble head, hence the invariant response, all three rules
    come from one sweep: the factual pass, the counterfactual built from
    its bias score, and the te reference, the counterfactual built from the
    bias head's score of the NOBIAS input.  Other modes get
    ``{"factual_label"}`` read off the sentence head.  Each row is scored in one of :func:`_scoring_blocks`,
    so its record has the bits of that row scored alone: a record is a
    function of its example.  Records hold model output only; the caller
    adds ``categories``.  The parameters become this batch's
    :func:`scoring_params`, constant leaves, so no op records a backward
    closure.
    """
    n = len(batch.labels)
    if not n:
        return []
    params = scoring_params(params, batch)
    if "e" not in spec.branches:
        scores = np.empty((n, M.N_CLASSES))
        for rows, block in _scoring_blocks(batch):
            scores[rows] = sentence_branch_forward(params, block).data[: len(rows)]
        return [{"factual_label": label} for label in argmax_labels(scores)]
    y_b, fused = np.empty((n, M.N_CLASSES)), np.empty((n, M.N_CLASSES))
    for rows, block in _scoring_blocks(batch):
        block_logits = M.ccdf_forward(params, block)
        y_b[rows] = block_logits.y_b.data[: len(rows)]
        fused[rows] = block_logits.fused.data[: len(rows)]
    # the te reference has no sentence input, so one block of the first row's NOBIAS twin gives every row's
    _, nobias = next(_scoring_blocks(nobias_batch(EncodedBatch(batch.x_ids[:1], batch.b_ids[:1], batch.labels[:1]))))
    bh = M.encode(nobias.b_ids, params, site="enc_b")
    y_b_reference = M.bias_head(bh, nobias.b_mask, params).data[0]
    # the counterfactual fusion is elementwise in the bias score, and an elementwise op gives
    # an element the same bits at any place in any array, so both run once over the batch
    counterfactual, reference = (M.counterfactual_logits(params, A.const(score)).data
                                 for score in (y_b, np.broadcast_to(y_b_reference, y_b.shape)))
    return inference_records(fused, counterfactual, reference)


def evaluate(
    params: dict[str, Value],
    config: TrainConfig,
    corpus: Corpus,
    lexicon: Lexicon,
    vocab: Vocab,
    inference: str,
) -> tuple[EvalReport, list[dict]]:
    """Full evaluation of a parameter set on a dataset: the report and
    the per-example inference records it was built from, in dataset
    order, each ending in its ``categories``.

    Subsets are defined by the presence of at least one lexicon token of
    each category; an example may fall in several subsets.  When the mode
    supports several inference rules the report also carries overall
    accuracy/F1 under each of them for comparison.  A rule that is
    unknown or that the mode lacks is rejected before anything is
    encoded.  The split is encoded as one batch, so one set of
    :func:`scoring_params` serves all of it.
    """
    if inference not in INFERENCE_RULES:
        raise ValidationError(f"unknown inference rule {inference!r}; expected one of {INFERENCE_RULES}")
    spec = config.spec
    if inference not in spec.rules:
        raise ValidationError(f"inference {inference!r} requires a ccdf checkpoint, not mode {config.mode!r}")
    if not len(corpus):
        raise ValidationError("cannot evaluate an empty dataset")
    encoder = CorpusEncoder(corpus, lexicon, vocab, config.lx, config.lb)
    records = predict_batch(params, encode_batch(encoder, range(len(corpus))), spec)
    for record, categories in zip(records, encoder.categories()):
        record["categories"] = categories
    labels = corpus.labels.tolist()
    predictions = [r[f"{inference}_label"] for r in records]
    report = build_report(predictions, labels, [r["categories"] for r in records], config.mode, inference)
    if len(spec.rules) > 1:
        for rule in spec.rules:
            conf = Confusion.from_pairs([r[f"{rule}_label"] for r in records], labels)
            report.by_rule[rule] = {
                "accuracy": accuracy(conf),
                "f1_binary": f1_binary(conf),
            }
    return report, records


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


def _train_step(
    config: TrainConfig, params: dict[str, Value], opt: AdamWState, batch: EncodedBatch, step: int
) -> dict[str, float]:
    """One optimizer step on ``batch``; returns its loss terms.  The step's
    graph dies with this frame, so no two steps' graphs are held at once.

    Overflow and invalid operations raise no numpy warning: a step that
    diverges is reported once, as the NumericsError of a finite check.
    """
    spec = config.spec
    drop = DropoutCtx(config.dropout, config.seed, step) if config.dropout > 0 else None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            logits = mode_forward(spec, params, batch, drop)
            terms = loss_terms(logits, batch.labels)
            loss = _sum_terms(terms)
            if "e" in spec.branches:
                loss = A.add(loss, invariant_response_loss(logits, params, batch.labels))
        except DomainError as exc:
            raise NumericsError(f"non-finite values in the forward pass at step {step}: {exc}") from exc
        if not np.isfinite(loss.data):
            raise NumericsError(f"non-finite loss at step {step}")
        A.backward(loss)
        adamw_step(params, opt)
    A.zero_grads(params.values())
    return {k: float(v.data) for k, v in terms.items()}


def train(
    config: TrainConfig,
    train_set: Corpus,
    valid_set: Corpus,
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
    if not len(train_set) or not len(valid_set):
        raise ValidationError("train and validation splits must be non-empty")
    vocab = Vocab.build(train_set)
    seed_seq = np.random.SeedSequence(config.seed)
    init_seq, shuffle_seq = seed_seq.spawn(2)
    spec = config.spec
    params = M.init_params(config.model_config(len(vocab)), np.random.Generator(np.random.PCG64(init_seq)))
    opt = AdamWState(
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.eps,
        weight_decay=config.weight_decay,
    )
    shuffle_rng = np.random.Generator(np.random.PCG64(shuffle_seq))
    encoder = CorpusEncoder(train_set, lexicon, vocab, config.lx, config.lb, mask_bias=spec.mask_bias)

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
            batch = encode_batch(encoder, order[start : start + config.batch_size])
            log = StepLog(step=step, losses=_train_step(config, params, opt, batch, step))
            if step % config.eval_every_steps == 0 or step == last_step:
                report, _ = evaluate(params, config, valid_set, lexicon, vocab, spec.selection_rule)
                log.val_f1 = f1 = report.f1_binary
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
